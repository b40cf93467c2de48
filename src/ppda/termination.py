"""Least-fixed-point termination probabilities.

For every triple pXq the value [pXq] is the least nonnegative solution of

    V(pXq) = sum_{pX -> q eps} x
           + sum_{pX -> rY}    x * V(rYq)
           + sum_{pX -> rYZ}   x * sum_s V(rYs) * V(sZq)

solved here with undamped Newton iteration from the zero vector after a
boolean preprocessing pass pins the structurally-zero variables.  The
divergence mass [pX^] is reported as the clamped complement.  Both that
pass (``may_terminate``) and the ``CompiledSystem`` over its array read the
rules through the model's ``Pda.rule_arrays``; the model keeps the array
and the system (``Pda.compiled``), which the solve, ``to_bpa`` and the DP
all read.

Each Newton step solves (I - F'(v)) delta = F(v) - v.  Systems of at most
DENSE_MAX (224) variables, the measured crossover, build the matrix and
take one LAPACK solve.  Larger systems never form the matrix.  Restarted
GMRES works on the product (I - F'(v)) x, one gather over the compiled
monomials and one ``np.add.reduceat`` over their partials, which come
sorted by row, down to a relative residual of KRYLOV_RTOL (1e-12); each
Arnoldi step orthogonalises by classical Gram-Schmidt applied twice, in
two block passes over the basis, which is as stable as modified
Gram-Schmidt (Giraud, Langou and Rozloznik 2005).  The
steps are then close enough to exact that the iterates climb monotonically,
as exact Newton's do on monotone systems.  If GMRES misses that tolerance
within its cap, the step is solved densely as on small systems, up to
DENSE_FALLBACK_MAX variables; above that the GMRES iterate is taken as it
stands.

At a critical fixed point, where I - F' is singular, Newton in doubles
stalls about sqrt(machine epsilon) short, and rounding the rule
probabilities to doubles moves the fixed point by as much.  In stateful
models, variable SCCs whose Jacobian block is near-singular are therefore
solved again, with all they depend on, by Newton in decimal arithmetic over
the same compiled monomials, with the exact rule probabilities as their
coefficients; the variables above them are then solved in doubles again.
The SCCs come from ``graph._condense`` over the compiled system's arrays of
F', and what each depends on from one pass down the condensation.
Stateless models are certified structurally instead, by the certain
symbols of the moment matrix the model keeps (``Pda.moments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .graph import _condense
from .model import Pda, Triple

__all__ = [
    "TerminationTable",
    "NewtonDivergedError",
    "termination_probs",
    "qualitative_zero",
    "may_terminate",
]

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10_000
# A Newton step longer than this multiple of its residual marks a nearly
# singular I - F'; doubles then cannot reach DEFAULT_TOL in the value.
NEAR_CRITICAL = 1e4
# Decimal Newton on near-critical SCCs: at a critical fixed point the error
# only halves per step, and a step of e leaves a residual of order e^2,
# which the working precision must still resolve.
EXTENDED_DIGITS = 50
EXTENDED_TOL = Decimal("1e-20")
EXTENDED_ITERATIONS = 500
SLOW_SOLVE = 20  # Newton steps; off critical points it converges quadratically
WARM_START = 1e-4  # a step in doubles this short is still far above their noise
DOUBLING_BELOW = Decimal("1e-10")  # a doubled final step errs by about its square
_ONE = np.ones(1)  # the value of the padding factor
# How a Newton step is solved; see the module docstring.
DENSE_MAX = 224  # variables; larger systems take GMRES steps
DENSE_FALLBACK_MAX = 4096  # largest system a missed GMRES step solves densely (128 MB)
KRYLOV_RTOL = 1e-12
KRYLOV_RESTART = 60  # Arnoldi steps between restarts
KRYLOV_MAX_STEPS = 600  # Arnoldi steps per solve


class NewtonDivergedError(RuntimeError):
    """Newton iteration failed to reach the tolerance within the cap."""

    def __init__(self, table: "TerminationTable"):
        self.table = table
        super().__init__(
            f"termination solver: no convergence after {table.iterations} iterations, "
            f"residual {table.residual:.3e}"
        )


@dataclass(frozen=True)
class TerminationTable:
    """Solved termination probabilities plus convergence metadata."""

    probs: dict[Triple, float]
    residual: float
    iterations: int
    qualitative_zero: frozenset[Triple]
    tol: float

    @property
    def converged(self) -> bool:
        return self.residual <= self.tol

    def prob(self, state: str, symbol: str, target: str) -> float:
        return self.probs.get(Triple(state, symbol, target), 0.0)

    def diverge(self, state: str, symbol: str) -> float:
        return self.probs[Triple(state, symbol, None)]

    def symbol_prob(self, model: Pda, symbol: str) -> float:
        """[X] for stateless models."""
        p = model.only_state
        return self.prob(p, symbol, p)


def may_terminate(model: Pda) -> np.ndarray:
    """can[p, X, q]: whether a positive-probability path leads from pX to q-empty.

    Boolean least fixed point of the same first-step system over {0, 1}; the
    false entries are exactly the zero variables.  ``Pda.terminating_triples``
    keeps it for the model.  Each round recomputes, for the rules whose word
    holds a symbol that gained a target in the round before, the states their
    word can empty into, one word position at a time.
    """
    nq, ng = len(model.states), len(model.alphabet)
    rules = model.rule_arrays
    rhs_state, words = rules.rhs_state, rules.words
    lhs = (rules.lhs_symbol * nq + rules.lhs_state) * nq
    # can[X, s, q]; the padding symbol ng takes every state to itself
    can = np.zeros((ng + 1, nq, nq), dtype=bool)
    can[ng] = np.eye(nq, dtype=bool)
    start = np.eye(nq, dtype=bool)[rhs_state]
    active = np.arange(len(words))
    while len(active):
        reach = start[active]
        for column in words[active].T:
            reach = (reach[:, :, None] & can[column]).any(axis=1)
        rows, targets = np.nonzero(reach)
        found = np.zeros(can.size, dtype=bool)
        found[lhs[active[rows]] + targets] = True
        gained = found.reshape(can.shape) & ~can
        if not gained.any():
            break
        can |= gained
        active = np.flatnonzero(gained.any(axis=(1, 2))[words].any(axis=1))
    return can[:ng].transpose(1, 0, 2)


def qualitative_zero(model: Pda) -> frozenset[Triple]:
    """Triples pXq whose termination probability is exactly zero."""
    states, alphabet = model.states, model.alphabet
    return frozenset(Triple(states[p], alphabet[x], states[q])
                     for p, x, q in np.argwhere(~model.terminating_triples).tolist())


class CompiledSystem:
    """The polynomial system over the may-terminate triples, as flat arrays.

    ``triples`` are sorted by (state, symbol, target) and numbered 0..n-1;
    ``table[p, X, q]`` is the number of pXq, or n where pXq cannot terminate.
    A rule pX -> r Y1..Ym contributes one monomial per segment chain
    r = s0, s1, .., sm = q whose factors s(i-1) Yi s(i) may all terminate:
    monomial k adds ``coef[k]`` times the product of ``v[factors[k]]`` to
    equation ``lhs[k]``.  Factor rows are padded with n, the index of a
    constant 1 appended to v; ``degree[k]`` counts the real factors.
    ``rule[k]`` is the monomial's rule, whose exact probability in
    ``exact`` (``RuleArrays.exact``) serves the decimal refinement; the
    model caches the system, which keeps no reference back to it.  Within each
    equation, monomials keep the order the rules list them, and F and F' add
    them in that order, so the sums are those of a plain loop over the rules.
    """

    def __init__(self, model: Pda):
        states, alphabet = model.states, model.alphabet
        nq = len(states)
        known = model.terminating_triples
        n = self.n = int(np.count_nonzero(known))
        table = self.table = np.full(known.shape, n, dtype=np.intp)
        table[known] = np.arange(n)
        self.triples = [Triple(states[p], alphabet[x], states[q])
                        for p, x, q in np.argwhere(known).tolist()]
        self.index = {t: i for i, t in enumerate(self.triples)}
        rules = model.rule_arrays
        length, words = rules.length, rules.words
        width = words.shape[1]
        # Chains r = s0, s1, .., sm of every rule, extended one word position
        # at a time by every next state in order, so they stay sorted by rule
        # and then by state sequence: the order of a loop over rules and states.
        rule, state = np.arange(len(words)), rules.rhs_state
        factors = np.full((len(words), width), n, dtype=np.intp)
        for j in range(width):
            grows = length[rule] > j
            count = np.where(grows, nq, 1)
            src = np.repeat(np.arange(len(rule)), count)
            nxt = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
            rule, state, factors, grows = rule[src], state[src], factors[src], grows[src]
            factor = table[state[grows], words[rule[grows], j], nxt[grows]]
            factors[grows, j] = factor
            state[grows] = nxt[grows]
            keep = np.ones(len(rule), dtype=bool)
            keep[grows] = factor < n
            rule, state, factors = rule[keep], state[keep], factors[keep]
        lhs = table[rules.lhs_state[rule], rules.lhs_symbol[rule], state]
        keep = lhs < n
        lhs, rule, factors = lhs[keep], rule[keep], factors[keep]
        degree = length[rule]
        # epsilon monomials first, then the others; each part grouped by lhs
        order = np.lexsort((lhs, degree > 0))
        self.lhs, self.factors, self.degree = lhs[order], factors[order], degree[order]
        self.rule = rule[order]
        self.coef, self.exact = rules.prob[self.rule], rules.exact
        first = len(self.lhs) - np.count_nonzero(self.degree)
        self.const = np.bincount(self.lhs[:first], self.coef[:first], minlength=n)
        # views of the monomials with factors, and the row and column in F'
        # of each of their factors
        self._lhs, self._coef = self.lhs[first:], self.coef[first:]
        self._factors = self.factors[first:]
        real = self._factors < n
        self._real = np.flatnonzero(real)
        self._rows = np.repeat(self._lhs, width)[self._real]
        self._cols = self._factors[real]

    def _gather(self, v: np.ndarray) -> np.ndarray:
        """v, extended by the padding 1, at every factor of the monomials with factors."""
        return np.concatenate((v, _ONE))[self._factors]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """F(v)."""
        at = self._gather(v)
        prod = self._coef * at[:, 0]
        for k in range(1, at.shape[1]):
            prod *= at[:, k]
        return self.const + np.bincount(self._lhs, prod, minlength=self.n)

    def _jacobian(self, v: np.ndarray, free: np.ndarray):
        """Rows and columns, local to ``free``, and values of the entries of -F'(v).

        The entries keep the order of the monomials, which is sorted by row
        when ``free`` is sorted.
        """
        at = self._gather(v)
        # negated partial derivatives: their sums are exactly -F'
        partial = np.empty_like(at)
        for k in range(at.shape[1]):
            np.negative(self._coef, out=partial[:, k])
            for j in range(at.shape[1]):
                if j != k:
                    partial[:, k] *= at[:, j]
        weights = partial.take(self._real)
        if len(free) == self.n:
            return self._rows, self._cols, weights
        local = np.full(self.n, -1, dtype=np.intp)
        local[free] = np.arange(len(free))
        rows, cols = local[self._rows], local[self._cols]
        keep = (rows >= 0) & (cols >= 0)
        return rows[keep], cols[keep], weights[keep]

    def newton_matrix(self, v: np.ndarray, free: np.ndarray) -> np.ndarray:
        """I - F'(v) on the variables ``free``, in their order."""
        rows, cols, weights = self._jacobian(v, free)
        m = len(free)
        # (bincount of no monomials gives integers)
        matrix = np.bincount(rows * m + cols, weights, minlength=m * m).astype(float, copy=False)
        matrix = matrix.reshape(m, m)
        matrix.ravel()[:: m + 1] += 1.0
        return matrix

    def newton_operator(self, v: np.ndarray, free: np.ndarray):
        """x -> (I - F'(v)) x on the variables ``free``, without forming the matrix.

        ``free`` must be sorted: then the entries come sorted by row, and each
        row of F'(v) x is the sum of one run of them, which
        ``np.add.reduceat`` takes from the run's start.
        """
        if np.any(free[1:] <= free[:-1]):
            raise ValueError("the free variables must be sorted and distinct")
        rows, cols, weights = self._jacobian(v, free)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        present = rows[starts]
        sums = np.zeros(len(free))

        def apply(x: np.ndarray) -> np.ndarray:
            if len(starts):
                sums[present] = np.add.reduceat(weights * x[cols], starts)
            return x + sums

        return apply


def termination_probs(model: Pda, tol: float = DEFAULT_TOL,
                      trace: list | None = None) -> TerminationTable:
    """Solve for all [pXq] and [pX^] values.

    Newton steps from the zero vector are componentwise nondecreasing for
    this system; iterates are clamped into [0, 1] against round-off.  On a
    singular Jacobian a plain fixed-point step substitutes for that round.
    A caller-supplied ``trace`` list receives a copy of every iterate; when
    near-critical SCCs are refined, the iterates in doubles past the restart
    point are replaced by the decimal ones, rounded to doubles.  The error
    estimate of the decimal solves counts towards the residual.  A solve
    that misses ``tol`` raises NewtonDivergedError, which carries its table.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    system = model.compiled
    idx, n = system.index, system.n

    def newton(v: np.ndarray, free: np.ndarray):
        """Newton steps on the indices ``free``, the other entries held fixed.

        Returns the last iterate, the step count, the largest ratio of a step
        to its residual (a lower bound on the norm of (I - F')^-1), and the
        step count and iterate where a step first fell to WARM_START.
        """
        v = v.copy()
        iterations, gain, warm = 0, 0.0, (0, v.copy())
        # Stop on step size, not residual: at critical fixed points Newton
        # degrades to halving the error, where the residual is quadratically
        # smaller than the remaining value error.
        while len(free) and iterations < MAX_ITERATIONS:
            residual = (system.apply(v) - v)[free]
            size = np.max(np.abs(residual))
            if size == 0.0:
                break
            delta, _ = _solve(system, v, free, residual)
            new = np.clip(v[free] + delta, 0.0, 1.0)
            step = float(np.max(np.abs(new - v[free])))
            gain = max(gain, step / size)
            v[free] = new
            iterations += 1
            if trace is not None:
                trace.append(v.copy())
            if not warm[0] and step <= WARM_START:
                warm = (iterations, v.copy())
            if step <= tol:
                break
        return v, iterations, gain, warm

    v = np.zeros(n)
    if trace is not None:
        trace.append(v.copy())
    mark = len(trace) if trace is not None else 0
    v, steps, gain, (done, warm) = newton(v, np.arange(n))
    iterations, extended_error = steps, 0.0
    # A stalled or slow solve hints at a critical SCC.  Each round solves the
    # near-critical SCCs found, and all SCCs they depend on, again one by one
    # in decimal from the first iterate with a step down to WARM_START (that
    # far the iterates in doubles follow exact Newton closely), then the rest
    # again in doubles; an SCC above a critical one can turn critical only
    # then.  Stateless models get exact values from the certainty snap below.
    exact: dict[int, Decimal] = {}
    while not model.stateless and (steps >= SLOW_SOLVE or gain > NEAR_CRITICAL):
        comps = _near_critical(system, v, exact)
        if not comps:
            break
        if trace is not None:
            del trace[mark + done:]
        v = warm
        for comp in comps:
            iterates, error = _extended_newton(system, comp, warm[comp], exact)
            extended_error = max(extended_error, error)
            iterations += len(iterates)
            for values in iterates:
                v[comp] = values
                if trace is not None:
                    trace.append(v.copy())
        mark = len(trace) if trace is not None else 0
        rest = np.array([i for i in range(n) if i not in exact], dtype=int)
        v, steps, gain, (done, warm) = newton(v, rest)
        iterations += steps
    residual = float(np.max(np.abs(system.apply(v) - v))) if n else 0.0
    residual = max(residual, extended_error)

    # Stateless models: pin the symbols that terminate with certainty to 1,
    # then solve the others again with those held fixed, since values above
    # a critical SCC were computed from its stalled ones.
    if model.stateless and n:
        p = model.only_state
        uncertain = np.ones(n, dtype=bool)
        for sym in model.moments.certain:
            uncertain[idx[Triple(p, sym, p)]] = False
        v[~uncertain] = 1.0
        residual = float(np.max(np.abs(system.apply(v) - v)))
        if residual > tol:
            v, steps, _, _ = newton(v, np.flatnonzero(uncertain))
            iterations += steps
            residual = float(np.max(np.abs(system.apply(v) - v)))

    # Targets of a pair adding up to more than 1 + tol are unsolved, however
    # small the residual: a step past a critical fixed point leaves it tiny.
    probs: dict[Triple, float] = {}
    excess = 0.0
    for p in model.states:
        for X in model.alphabet:
            total = 0.0
            for q in model.states:
                t = Triple(p, X, q)
                val = v[idx[t]] if t in idx else 0.0
                probs[t] = float(val)
                total += float(val)
            probs[Triple(p, X, None)] = min(1.0, max(0.0, 1.0 - total))
            excess = max(excess, total - 1.0)
    if excess > tol:
        residual = max(residual, excess)

    table = TerminationTable(
        probs=probs,
        residual=residual,
        iterations=iterations,
        qualitative_zero=qualitative_zero(model),
        tol=tol,
    )
    if not table.converged:
        raise NewtonDivergedError(table)
    return table


def _solve(system: CompiledSystem, v: np.ndarray, free: np.ndarray, b: np.ndarray):
    """x with (I - F'(v)) x = b on the variables ``free``, and whether it was solved.

    Small systems are solved densely.  Larger ones by GMRES on the
    matrix-free operator; if it misses KRYLOV_RTOL, the dense solve stands
    in while its matrix is small enough, else the GMRES iterate comes back
    unsolved.  A singular matrix gives b itself, unsolved: for a Newton
    step, the fixed-point step.
    """
    m = len(free)
    if m > DENSE_MAX:
        x, solved = _gmres(system.newton_operator(v, free), b)
        if solved or m > DENSE_FALLBACK_MAX:
            return x, solved
    try:
        return np.linalg.solve(system.newton_matrix(v, free), b), True
    except np.linalg.LinAlgError:
        return b, False


def _gmres(matvec, b: np.ndarray):
    """Restarted GMRES for A x = b from x = 0, with A given by ``matvec``.

    Each Arnoldi step orthogonalises against the basis by classical
    Gram-Schmidt applied twice (CGS2): two block passes c = V w, w -= c V of
    two matrix-vector products each, as stable as modified Gram-Schmidt.
    Givens rotations, applied to Python floats, keep the Hessenberg matrix
    triangular, so the residual of the least-squares problem is known at
    every step without solving it.  Returns x and whether
    ||b - A x|| <= KRYLOV_RTOL ||b|| held within KRYLOV_MAX_STEPS Arnoldi
    steps, restarting every KRYLOV_RESTART.
    """
    m = len(b)
    x = np.zeros(m)
    target = KRYLOV_RTOL * np.linalg.norm(b)
    r, beta, steps = b, np.linalg.norm(b), 0
    while beta > target and steps < KRYLOV_MAX_STEPS:
        size = min(KRYLOV_RESTART, m, KRYLOV_MAX_STEPS - steps)
        basis = np.empty((size + 1, m))
        h = np.zeros((size + 1, size))
        cos: list[float] = []
        sin: list[float] = []
        g = [float(beta)]
        basis[0] = r / beta
        k = 0
        while k < size:
            w = matvec(basis[k])
            done = basis[: k + 1]
            first = done @ w
            w -= first @ done
            second = done @ w
            w -= second @ done
            column = (first + second).tolist()
            below = float(np.linalg.norm(w))
            for i in range(k):
                column[i], column[i + 1] = (cos[i] * column[i] + sin[i] * column[i + 1],
                                            cos[i] * column[i + 1] - sin[i] * column[i])
            diag = math.hypot(column[k], below)
            if diag == 0.0:  # the projected matrix is singular: stop this cycle
                break
            cos.append(column[k] / diag)
            sin.append(below / diag)
            column[k] = diag
            h[: k + 1, k] = column
            g.append(-sin[k] * g[k])
            g[k] = cos[k] * g[k]
            k += 1
            if abs(g[k]) <= target or below == 0.0:
                break
            basis[k] = w / below
        steps += k
        if k == 0:
            break
        x = x + np.linalg.solve(h[:k, :k], g[:k]) @ basis[:k]  # h[:k, :k] is triangular
        r = b - matvec(x)
        beta = np.linalg.norm(r)
    return x, bool(beta <= target)


def _near_critical(system: CompiledSystem, v: np.ndarray, skip) -> list[list[int]]:
    """SCCs whose block of I - F'(v) is nearly singular, and all they depend on.

    The graph of F' is condensed by ``graph._condense``; a cyclic SCC whose
    gain ||(I - F')^-1 1|| on its block passes NEAR_CRITICAL is taken with
    every SCC below it, marked by one pass down the successors.  SCCs in
    ``skip`` are passed over and left out.  ``skip`` holds the SCCs of
    earlier rounds, each taken with all it depends on, so it is closed under
    dependence: what a found SCC depends on outside ``skip`` is new.  The
    SCCs come callees first.
    """
    n = system.n
    info = _condense(n, system._rows, system._cols, np.arange(n))
    found = [False] * len(info.sccs)
    for i, comp in enumerate(info.sccs):
        if comp[0] in skip or not info.scc_cyclic[i]:
            continue
        x, solved = _solve(system, v, np.array(sorted(comp)), np.ones(len(comp)))
        gain = float(np.max(np.abs(x))) if solved else math.inf
        found[i] = not gain <= NEAR_CRITICAL
    # callers come after their callees: each mark is final before it is passed on
    for i in reversed(range(len(found))):
        if found[i]:
            for j in info.scc_successors[i]:
                found[j] = True
    return [sorted(comp) for comp, hit in zip(info.sccs, found) if hit and comp[0] not in skip]


def _extended_newton(system: CompiledSystem, members: list[int], start: np.ndarray,
                     exact: dict[int, Decimal]):
    """Newton in decimal arithmetic on the variables ``members`` from ``start``.

    F and F' are read from the members' compiled monomials, with the exact
    rule probabilities as coefficients.  Variables outside ``members`` are
    read from ``exact``, which receives the solution.  Returns every iterate
    rounded to doubles and an estimate of the error left.  Iterates are not
    clamped: exact Newton from below stays below the fixed point, and a
    value pinned at a critical 1 would make the matrix exactly singular.
    """
    local = {g: k for k, g in enumerate(members)}
    m = len(members)
    iterates: list[list[float]] = []
    with localcontext() as ctx:
        ctx.prec = EXTENDED_DIGITS
        zero, one = Decimal(0), Decimal(1)
        # per monomial of a member: its row, its coefficient and its factors
        monomials = []
        for k in np.flatnonzero(np.isin(system.lhs, members)).tolist():
            num, den = system.exact[system.rule[k]].as_integer_ratio()
            monomials.append((local[int(system.lhs[k])], Decimal(num) / den,
                              system.factors[k, : system.degree[k]].tolist()))
        x = [Decimal(float(value)) for value in start]
        error = previous = one
        while error > EXTENDED_TOL and len(iterates) < EXTENDED_ITERATIONS:
            residual = [-xi for xi in x]
            matrix = [[one if i == j else zero for j in range(m)] for i in range(m)]
            for i, coef, factors in monomials:
                at = [x[local[a]] if a in local else exact[a] for a in factors]
                residual[i] += coef * math.prod(at)
                for pos, a in enumerate(factors):
                    if a in local:
                        matrix[i][local[a]] -= coef * math.prod(at[:pos] + at[pos + 1:])
            delta = _solve_decimal(matrix, residual) or residual
            # Near a critical fixed point each step is half the error left, so
            # twice the step lands within about its square.  Newton from there
            # can take wild steps (the error no longer lies along the singular
            # direction), so that step is the last.
            error = max(abs(d) for d in delta)
            final = error <= DOUBLING_BELOW and abs(2 * error - previous) <= previous / 8
            previous = error
            x = [xi + (2 * d if final else d) for xi, d in zip(x, delta)]
            iterates.append([float(xi) for xi in x])
            if final:
                error *= error
                break
    exact.update(zip(members, x))
    return iterates, float(error)


def _solve_decimal(a: list[list[Decimal]], b: list[Decimal]) -> list[Decimal] | None:
    """Gaussian elimination with partial pivoting; None if a is singular."""
    m = len(b)
    rows = [row[:] + [bi] for row, bi in zip(a, b)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda i: abs(rows[i][col]))
        if rows[pivot][col] == 0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, m):
            factor = rows[i][col] / rows[col][col]
            if factor:
                for j in range(col, m + 1):
                    rows[i][j] -= factor * rows[col][j]
    x = [Decimal(0)] * m
    for i in reversed(range(m)):
        x[i] = (rows[i][m] - sum(rows[i][j] * x[j] for j in range(i + 1, m))) / rows[i][i]
    return x

