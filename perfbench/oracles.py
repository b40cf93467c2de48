"""Reference computations made apart from the program under test.

Nothing here imports ``ppda``.  Models are read by a small parser of the
model file format; every value the benchmark checks is recomputed by
another method or in exact arithmetic:

* ``System.kleene``: Kleene iteration from 0 for the least fixed point
  [pXq], vectorised over the monomials ``lhs <- coef * f1 * f2`` built from
  the rules (``f1`` and ``f2`` may be absent).
* ``System.first_moments``: the first-moment linear system over triples,
  giving the expected termination time conditioned on the target state.
* ``System.mass_dp``: a float dynamic program over the same monomials for
  P(T = n, terminate in q) to a horizon.
* ``unfold_exact``: exact rational unfolding of the first steps of any
  model, configuration by configuration.
* ``delta_series_exact`` / ``delta_series_float``: the power series of
  delta_h from f_h = z (f_h^2 / 2 + f_{h-1} / 2), f_0 = 1.
* ``andor_expectations``: the And/Or-tree expectations of ``tree.ppda``
  solved exactly in Q(sqrt 10).
* ``transform_expected``: the rule probabilities the triple transform must
  emit, recomputed from the source rules and the Kleene values.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

BPA_STATE = "_"


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class Model:
    states: tuple[str, ...]
    symbols: tuple[str, ...]
    rules: tuple[tuple[str, str, str, tuple[str, ...], Fraction], ...]
    start: tuple[str, str] | None
    stateless: bool


def parse_text(text: str) -> Model:
    """Read the model file format: kind line, states, alphabet, start, rules."""
    kind = None
    states: tuple[str, ...] = (BPA_STATE,)
    symbols: tuple[str, ...] = ()
    start = None
    rules = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            kind = line
            continue
        key, _, body = line.partition(":")
        body = body.strip()
        if key == "states":
            states = tuple(body.split())
        elif key == "alphabet":
            symbols = tuple(body.split())
        elif key == "start":
            toks = body.split()
            start = (BPA_STATE, toks[0]) if kind != "pda" else (toks[0], toks[1])
        elif key == "rule":
            lhs, _, rest = body.partition("->")
            rhs, _, prob = rest.rpartition(":")
            lhs_toks, rhs_toks = lhs.split(), rhs.split()
            if kind == "pda":
                p, X = lhs_toks
                r, word = rhs_toks[0], tuple(rhs_toks[1:])
            else:
                (X,) = lhs_toks
                p = r = BPA_STATE
                word = tuple(rhs_toks)
            rules.append((p, X, r, word, Fraction(prob.strip())))
        else:
            raise ValueError(f"unknown line {raw!r}")
    if kind not in ("pda", "bpa"):
        raise ValueError(f"unsupported model kind {kind!r}")
    return Model(states, symbols, tuple(rules), start, kind != "pda")


def triple_name(p: str, X: str, q: str | None) -> str:
    return f"{p}.{X}.{'up' if q is None else q}"


# ---------------------------------------------------------------------------
# the monomial system


class System:
    """The first-step system of [pXq] as flat monomial arrays.

    Variable i stands for triple (p, X, q); index ``n`` stands for the
    constant 1, so a unary monomial has ``f2 == n`` and a pop rule is a
    constant term.
    """

    def __init__(self, model: Model):
        self.model = model
        Q, G = len(model.states), len(model.symbols)
        sidx = {s: i for i, s in enumerate(model.states)}
        gidx = {s: i for i, s in enumerate(model.symbols)}
        self.n = n = Q * Q * G
        self.names = [
            triple_name(p, X, q) for p in model.states for X in model.symbols for q in model.states
        ]

        def var(p, X, q):
            return (sidx[p] * G + gidx[X]) * Q + sidx[q]

        self.var = var
        const = np.zeros(n)
        lhs, coef, f1, f2 = [], [], [], []
        for p, X, r, word, prob in model.rules:
            x = float(prob)
            if len(word) == 0:
                const[var(p, X, r)] += x
            elif len(word) == 1:
                for q in model.states:
                    lhs.append(var(p, X, q)); coef.append(x)
                    f1.append(var(r, word[0], q)); f2.append(n)
            elif len(word) == 2:
                for s in model.states:
                    for q in model.states:
                        lhs.append(var(p, X, q)); coef.append(x)
                        f1.append(var(r, word[0], s)); f2.append(var(s, word[1], q))
            else:
                raise ValueError("oracle expects right-hand sides of length <= 2")
        self.const = const
        self.lhs = np.array(lhs, dtype=np.int64)
        self.coef = np.array(coef)
        self.f1 = np.array(f1, dtype=np.int64)
        self.f2 = np.array(f2, dtype=np.int64)

    def apply(self, v: np.ndarray) -> np.ndarray:
        ext = np.append(v, 1.0)
        terms = self.coef * ext[self.f1] * ext[self.f2]
        return self.const + np.bincount(self.lhs, terms, minlength=self.n)

    def kleene(self, tol: float = 1e-15, max_iter: int = 200_000) -> tuple[np.ndarray, int, float]:
        """Iterate v <- F(v) from 0; returns (v, iterations, last step).

        Every iterate is a lower bound of the least fixed point, and the
        iterates increase to it.
        """
        v = np.zeros(self.n)
        step = math.inf
        for it in range(1, max_iter + 1):
            nxt = self.apply(v)
            step = float(np.max(np.abs(nxt - v))) if self.n else 0.0
            v = nxt
            if step <= tol:
                return v, it, step
        return v, max_iter, step

    def jacobian(self, v: np.ndarray) -> np.ndarray:
        ext = np.append(v, 1.0)
        jac = np.zeros((self.n, self.n + 1))
        np.add.at(jac, (self.lhs, self.f1), self.coef * ext[self.f2])
        np.add.at(jac, (self.lhs, self.f2), self.coef * ext[self.f1])
        return jac[:, : self.n]

    def first_moments(self, v: np.ndarray, critical: float = 1e-9) -> np.ndarray:
        """E[T | pXq] for every triple with v > 0; inf where the mean diverges.

        With M the unconditioned first moment E[T; terminate in q], the
        generating functions give M = v + J(v) M.  A triple's mean is
        infinite iff it reaches, in the support graph of J, a strongly
        connected block whose spectral radius is at least 1 - critical.
        """
        pos = np.flatnonzero(v > 0.0)
        jac = self.jacobian(v)[np.ix_(pos, pos)]
        k = len(pos)
        reach = (jac > 0.0) | np.eye(k, dtype=bool)
        while True:  # transitive closure by repeated squaring
            as_float = reach.astype(float)
            nxt = (as_float @ as_float) > 0
            if np.array_equal(nxt, reach):
                break
            reach = nxt
        scc = reach & reach.T
        bad = np.zeros(k, dtype=bool)
        seen = np.zeros(k, dtype=bool)
        for i in range(k):
            if seen[i]:
                continue
            members = np.flatnonzero(scc[i])
            seen[members] = True
            block = jac[np.ix_(members, members)]
            if np.max(np.abs(np.linalg.eigvals(block))) >= 1.0 - critical:
                bad[members] = True
        infinite = (reach & bad[None, :]).any(axis=1)
        out = np.full(self.n, np.nan)
        out[pos[infinite]] = math.inf
        fin = np.flatnonzero(~infinite)
        if len(fin):
            sub = jac[np.ix_(fin, fin)]
            m = np.linalg.solve(np.eye(len(fin)) - sub, v[pos[fin]])
            out[pos[fin]] = m / v[pos[fin]]
        return out

    def mass_dp(self, horizon: int) -> np.ndarray:
        """P(T = n, terminate in q) per triple, for n = 0..horizon."""
        D = np.zeros((self.n + 1, horizon + 1))
        D[self.n, 0] = 1.0  # the constant 1 has generating function 1 = z^0
        D[: self.n, 1] = self.const
        unary = self.f2 == self.n
        u_lhs, u_coef, u_f1 = self.lhs[unary], self.coef[unary], self.f1[unary]
        b_lhs, b_coef = self.lhs[~unary], self.coef[~unary]
        b_f1, b_f2 = self.f1[~unary], self.f2[~unary]
        for t in range(2, horizon + 1):
            acc = np.zeros(self.n)
            acc += np.bincount(u_lhs, u_coef * D[u_f1, t - 1], minlength=self.n)
            if len(b_lhs):
                # the two obligations of a binary monomial take k and t-1-k steps
                left = D[b_f1, 1 : t - 1]
                right = D[b_f2, t - 2 : 0 : -1]
                conv = np.einsum("ij,ij->i", left, right)
                acc += np.bincount(b_lhs, b_coef * conv, minlength=self.n)
            D[: self.n, t] = acc
        return D[: self.n]


# ---------------------------------------------------------------------------
# exact unfolding


def unfold_exact(model: Model, start: tuple[str, str], steps: int) -> dict[str, list[Fraction]]:
    """Exact P(T = n, terminate in q) for n <= steps, per target state q.

    Expands the configuration graph breadth first with rational weights,
    merging equal configurations.  Stacks are tuples with the top first.
    """
    rows = defaultdict(list)
    for p, X, r, word, prob in model.rules:
        rows[(p, X)].append((r, word, prob))
    out = {q: [Fraction(0)] * (steps + 1) for q in model.states}
    frontier = {(start[0], (start[1],)): Fraction(1)}
    for n in range(1, steps + 1):
        nxt: dict = defaultdict(Fraction)
        for (state, stack), weight in frontier.items():
            for r, word, prob in rows[(state, stack[0])]:
                nxt[(r, word + stack[1:])] += weight * prob
        frontier = {}
        for (state, stack), weight in nxt.items():
            if stack:
                frontier[(state, stack)] = weight
            else:
                out[state][n] += weight
    return out


# ---------------------------------------------------------------------------
# the delta_h family


def delta_series_exact(h: int, terms: int) -> list[Fraction]:
    """Coefficients 0..terms-1 of f_h, in exact arithmetic.

    Every rule of delta_h has probability 1/2, so a run of m steps has
    probability 2^-m and the coefficient of z^m is N_h[m] / 2^m with N_h[m]
    the number of such runs: N_h[m] = sum_{i+j=m-1} N_h[i] N_h[j]
    + N_{h-1}[m-1], where N_0 = 1 (the empty word).
    """
    prev = [1] + [0] * (terms - 1)
    for _ in range(h):
        cur = [0] * terms
        for m in range(1, terms):
            cur[m] = sum(cur[i] * cur[m - 1 - i] for i in range(m)) + prev[m - 1]
        prev = cur
    return [Fraction(c, 2**m) for m, c in enumerate(prev)]


def delta_series_float(h: int, terms: int) -> np.ndarray:
    """The same recursion in floats: a_h[m] = (sum_{i+j=m-1} a_h[i] a_h[j] + a_{h-1}[m-1]) / 2.

    The convolution adds the pairs i < j once and doubles them.
    """
    prev = np.zeros(terms)
    prev[0] = 1.0
    for _ in range(h):
        cur = np.zeros(terms)
        for m in range(1, terms):
            k = m - 1
            half = (k + 1) // 2
            conv = 2.0 * float(np.dot(cur[:half], cur[k:k - half:-1]))
            if k % 2 == 0:
                conv += cur[k // 2] ** 2
            cur[m] = 0.5 * conv + 0.5 * prev[m - 1]
        prev = cur
    return prev


def catalan_delta1(terms: int) -> list[Fraction]:
    """delta1: P(T = 2k+1) = C_k / 2^(2k+1), and 0 at even times."""
    out = [Fraction(0)] * terms
    for k in range((terms - 1) // 2 + 1):
        if 2 * k + 1 < terms:
            out[2 * k + 1] = Fraction(math.comb(2 * k, k) // (k + 1), 2 ** (2 * k + 1))
    return out


# ---------------------------------------------------------------------------
# closed forms


class QSqrt10:
    """a + b sqrt(10) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        o = _q(o)
        return QSqrt10(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        o = _q(o)
        return QSqrt10(self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return _q(o) - self

    def __mul__(self, o):
        o = _q(o)
        return QSqrt10(self.a * o.a + 10 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _q(o)
        norm = o.a * o.a - 10 * o.b * o.b
        return self * QSqrt10(o.a / norm, -o.b / norm)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(10.0)


def _q(x) -> QSqrt10:
    return x if isinstance(x, QSqrt10) else QSqrt10(x)


def andor_probabilities(model: Model) -> dict[str, QSqrt10]:
    """[pXq] of tree.ppda in closed form.

    With a = [q.A.r0] and b = 1 - a, the first-step equation of q.A.r0
    reads a = 1/4 + (b + a b) / 2, so a^2 + 2a - 3/2 = 0 and the least
    nonnegative root is a = sqrt(10)/2 - 1.  The other triples follow by
    the A/O and r0/r1 symmetry.  The values are checked to solve the whole
    first-step system exactly before use.
    """
    a = QSqrt10(-1, Fraction(1, 2))  # sqrt(10)/2 - 1
    b = 1 - a
    vals = {
        "q.A.r0": a, "q.A.r1": b, "q.O.r0": b, "q.O.r1": a,
        "r0.A.r0": QSqrt10(1), "r1.A.r0": b, "r1.A.r1": a,
        "r1.O.r1": QSqrt10(1), "r0.O.r0": a, "r0.O.r1": b,
    }
    full = {}
    for p in model.states:
        for X in model.symbols:
            for q in model.states:
                name = triple_name(p, X, q)
                full[name] = vals.get(name, QSqrt10(0))
    # exact fixed-point check of the first-step system
    lhs_sum = {name: QSqrt10(0) for name in full}
    for p, X, r, word, prob in model.rules:
        for q in model.states:
            t = triple_name(p, X, q)
            if not word:
                if r == q:
                    lhs_sum[t] = lhs_sum[t] + prob
            elif len(word) == 1:
                lhs_sum[t] = lhs_sum[t] + prob * full[triple_name(r, word[0], q)]
            else:
                for s in model.states:
                    lhs_sum[t] = lhs_sum[t] + prob * full[triple_name(r, word[0], s)] \
                        * full[triple_name(s, word[1], q)]
    for name in full:
        if not (lhs_sum[name] - full[name]).is_zero():
            raise AssertionError(f"closed form does not solve the system at {name}")
    return full


def andor_expectations(model: Model) -> dict[str, float]:
    """Conditional expected times of tree.ppda, solved exactly in Q(sqrt 10).

    M = v + J(v) M over the positive triples (M the unconditioned first
    moment), eliminated by Gauss-Jordan over Q(sqrt 10); E = M / v.
    """
    v = andor_probabilities(model)
    names = [n for n, val in v.items() if not val.is_zero()]
    index = {n: i for i, n in enumerate(names)}
    k = len(names)
    mat = [[QSqrt10(1 if i == j else 0) for j in range(k)] + [v[names[i]]] for i in range(k)]
    for p, X, r, word, prob in model.rules:
        for q in model.states:
            t = triple_name(p, X, q)
            if t not in index or not word:
                continue
            row = mat[index[t]]
            if len(word) == 1:
                a = triple_name(r, word[0], q)
                if a in index:
                    row[index[a]] = row[index[a]] - prob
            else:
                for s in model.states:
                    a, b = triple_name(r, word[0], s), triple_name(s, word[1], q)
                    if a in index and b in index:
                        row[index[a]] = row[index[a]] - prob * v[b]
                        row[index[b]] = row[index[b]] - prob * v[a]
    for col in range(k):
        piv = next(i for i in range(col, k) if not mat[i][col].is_zero())
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = QSqrt10(1) / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for i in range(k):
            if i != col and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return {names[i]: float(mat[i][k] / v[names[i]]) for i in range(k)}


# ---------------------------------------------------------------------------
# the triple transform


def transform_expected(model: Model, v: np.ndarray, system: System,
                       cutoff: float = 1e-12) -> dict[tuple[str, tuple[str, ...]], float]:
    """Probability of every rule the triple transform must emit.

    Keyed by (lhs symbol, rhs word); rules of one source row that produce
    the same right-hand side are summed.  Terminating triple t = pXq:
    pop x / [t], unary x [rYq] / [t], binary via s x [rYs][sZq] / [t].
    Diverging pX.up with d = 1 - sum_q [pXq]: binary x [rYs] d(sZ) / d(pX)
    and, per head (r, Y), the summed x of rules pushing Y in r times
    d(rY) / d(pX).
    """
    V = {name: float(val) for name, val in zip(system.names, v)}
    states = model.states
    rows = defaultdict(list)
    for p, X, r, word, prob in model.rules:
        rows[(p, X)].append((r, word, float(prob)))
    div = {}
    for p in states:
        for X in model.symbols:
            d = max(0.0, 1.0 - sum(V[triple_name(p, X, q)] for q in states))
            if d > cutoff and rows[(p, X)]:
                div[triple_name(p, X, None)] = d

    def pos(name):
        return V.get(name, 0.0) > cutoff

    out: dict[tuple[str, tuple[str, ...]], float] = defaultdict(float)
    for p in states:
        for X in model.symbols:
            for q in states:
                t = triple_name(p, X, q)
                if not pos(t):
                    continue
                for r, word, x in rows[(p, X)]:
                    if not word:
                        if r == q:
                            out[(t, ())] += x / V[t]
                    elif len(word) == 1:
                        a = triple_name(r, word[0], q)
                        if pos(a):
                            out[(t, (a,))] += x * V[a] / V[t]
                    else:
                        for s in states:
                            a, b = triple_name(r, word[0], s), triple_name(s, word[1], q)
                            if pos(a) and pos(b):
                                out[(t, (a, b))] += x * V[a] * V[b] / V[t]
            t = triple_name(p, X, None)
            if t not in div:
                continue
            heads: dict[str, float] = defaultdict(float)
            for r, word, x in rows[(p, X)]:
                if word and triple_name(r, word[0], None) in div:
                    heads[triple_name(r, word[0], None)] += x
                if len(word) == 2:
                    for s in states:
                        a, b = triple_name(r, word[0], s), triple_name(s, word[1], None)
                        if pos(a) and b in div:
                            out[(t, (a, b))] += x * V[a] * div[b] / div[t]
            for head, x in heads.items():
                out[(t, (head,))] += x * div[head] / div[t]
    return dict(out)


def unresolved_divergence(model: Model, v: np.ndarray, system: System, cutoff: float,
                          resolution: float) -> set[str]:
    """Diverging symbols pX.up the Kleene values cannot place on either side of the cutoff.

    Kleene values lie below [pXq], so d = 1 - sum_q [pXq] read from them lies
    above the true divergence mass: at most ``cutoff`` means the symbol is
    rightly left out.  Near a spectral radius rho close to 1 the iteration
    settles about 1 / (1 - rho) ulps short, so a d up to ``resolution`` may
    stand for a true 0.
    """
    V = dict(zip(system.names, v))
    out = set()
    for p in model.states:
        for X in model.symbols:
            d = 1.0 - sum(V[triple_name(p, X, q)] for q in model.states)
            if cutoff < d <= resolution:
                out.add(triple_name(p, X, None))
    return out


def parse_transform_output(text: str) -> dict[tuple[str, tuple[str, ...]], float]:
    """Rules of a serialised stateless model, summed per (lhs, rhs word)."""
    out: dict[tuple[str, tuple[str, ...]], float] = defaultdict(float)
    model = parse_text(text)
    for _, X, _, word, prob in model.rules:
        out[(X, word)] += float(prob)
    return dict(out)
