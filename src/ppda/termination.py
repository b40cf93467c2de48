"""Least-fixed-point termination probabilities.

For every triple pXq the value [pXq] is the least nonnegative solution of

    V(pXq) = sum_{pX -> q eps} x
           + sum_{pX -> rY}    x * V(rYq)
           + sum_{pX -> rYZ}   x * sum_s V(rYs) * V(sZq)

solved here with undamped Newton iteration from the zero vector after a
boolean preprocessing pass pins the structurally-zero variables.  Both that
pass (``may_terminate``) and the ``CompiledSystem`` over its array read the
rules through the model's ``Pda.rule_arrays``; the model keeps the array
and the system (``Pda.compiled``), which the solve, ``to_bpa`` and the DP
all read.  The system's ``table[p, X, q]`` is the one triple index; the
``TerminationTable`` holds [pXq] and the divergence mass [pX^], the clamped
complement, as arrays over states and symbols.

Each Newton step solves (I - F'(v)) delta = F(v) - v.  Systems of at most
DENSE_MAX (192) variables, the measured crossover, build the matrix and
take one LAPACK solve.  Larger systems never form the matrix.  Restarted
GMRES works on the product (I - F'(v)) x, down to a relative residual of
KRYLOV_RTOL (1e-12).  When every row of -F' holds the same number of
entries, the product is one gather and one ``einsum`` over them as a
matrix; otherwise one ``np.add.reduceat`` adds each row's run of them
(``CompiledSystem.newton_operator``).  Near v* the Newton steps shrink
slowly along one direction, the one in which I - F' is nearly singular, so
each solve recycles the previous step's direction u by projection, at the
cost of one product (Parks et al. 2006 recycle Krylov subspaces across
such sequences of systems; this keeps one vector): a multiple of u solves
the residual's part along (I - F')u, and GMRES the rest.  Where u.(I - F')u
falls below DEFLATE_MIN, as close to a critical fixed point, rounding would
swamp (I - F')u, and nothing is recycled.  GMRES runs under a Neumann
polynomial of degree NEUMANN_DEGREE, a right preconditioner that takes
that many more products per Arnoldi step and fewer steps.  Each step
orthogonalises once by classical Gram-Schmidt, and again only when the
first pass loses most of the vector (Daniel, Gragg, Kaufman and Stewart
1976).  The steps are then close enough to exact that the iterates climb
monotonically, as exact Newton's do on monotone systems.  If GMRES misses
that tolerance within KRYLOV_MAX_PRODUCTS products, the GMRES iterate is
taken as it stands: near a critical fixed point, where such misses
happen, a dense solve in doubles leaves a larger residual than it does.

At a critical fixed point, where I - F' is singular, Newton in doubles
stalls about sqrt(machine epsilon) short, and rounding the rule
probabilities to doubles moves the fixed point by as much, and one Newton
over all variables converges at the linear rate of its worst critical SCC
in every variable (Esparza, Kiefer and Luttenberger 2010).  A stateful solve
that is slow is therefore solved again from zero by decomposed Newton
(Etessami and Yannakakis 2009): one SCC of F' at a time, callees first, the
values below held.  The SCCs come from ``graph._condense`` over the compiled
system's arrays of F'.  An SCC whose own steps show a near-singular block
is solved again, with every SCC it depends on that is not yet, by Newton in
decimal arithmetic over the same compiled monomials, with the exact rule
probabilities as their coefficients; the SCCs above it read those values.
Stateless models are certified structurally instead, by the certain
symbols of the moment matrix the model keeps (``Pda.moments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np

from .graph import _condense, _reached
from .model import Pda, Triple, _triples

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
# Each decimal step builds a block's m x m matrix and eliminates in O(m^3): at
# m = 210 that took about 1 s on a 2.1 GHz Xeon.  Larger blocks are refused.
EXTENDED_MAX = 210
SLOW_SOLVE = 20  # Newton steps; off critical points it converges quadratically
WARM_START = 1e-4  # a step in doubles this short is still far above their noise
DOUBLING_BELOW = Decimal("1e-10")  # a doubled final step errs by about its square
_ONE = np.ones(1)  # the value of the padding factor
# How a Newton step is solved; see the module docstring.
DENSE_MAX = 192  # variables; larger systems take GMRES steps
KRYLOV_RTOL = 1e-12
# A recycled u enters as A u / ||A u||, and A u carries a rounding error of
# about machine epsilon relative to u: below this theta = u.A u that error
# alone passes KRYLOV_RTOL, and the solve recycles nothing.
DEFLATE_MIN = float(np.finfo(float).eps) / KRYLOV_RTOL
NEUMANN_DEGREE = 2  # of the polynomial preconditioner: 3 products per Arnoldi step
KRYLOV_RESTART = 60  # Arnoldi steps between restarts
KRYLOV_MAX_PRODUCTS = 600  # operator products per solve, the last residual aside


class RefinementBudgetError(RuntimeError):
    """A near-critical block is larger than EXTENDED_MAX variables."""


class NewtonDivergedError(RuntimeError):
    """Newton iteration failed to reach the tolerance within the cap."""

    def __init__(self, table: "TerminationTable"):
        self.table = table
        super().__init__(
            f"termination solver: no convergence after {table.iterations} iterations, "
            f"residual {table.residual:.3e}"
        )


@dataclass(frozen=True, eq=False)
class TerminationTable:
    """Solved termination probabilities as arrays, plus convergence metadata:
    ``values[p, X, q]`` is [pXq], 0 where pXq cannot terminate, and ``up[p, X]``
    is [pX up]; the model's ``state_index`` and ``symbol_index`` name the axes.
    ``probs`` keys every value by its ``Triple`` and is built on first read."""

    values: np.ndarray
    up: np.ndarray
    state_index: dict[str, int]
    symbol_index: dict[str, int]
    residual: float
    iterations: int
    qualitative_zero: frozenset[Triple]
    tol: float

    @property
    def converged(self) -> bool:
        return self.residual <= self.tol

    @cached_property
    def probs(self) -> dict[Triple, float]:
        """[pXq] for every target q, then [pX up], pair by pair in index order."""
        probs: dict[Triple, float] = {}
        for p, values, ups in zip(self.state_index, self.values.tolist(), self.up.tolist()):
            for X, targets, up in zip(self.symbol_index, values, ups):
                probs.update(zip([Triple(p, X, q) for q in self.state_index], targets))
                probs[Triple(p, X, None)] = up
        return probs

    def prob(self, state: str, symbol: str, target: str) -> float:
        states = self.state_index
        return float(self.values[states[state], self.symbol_index[symbol], states[target]])

    def diverge(self, state: str, symbol: str) -> float:
        return float(self.up[self.state_index[state], self.symbol_index[symbol]])

    def symbol_prob(self, model: Pda, symbol: str) -> float:
        """[X] for stateless models."""
        return self.prob(model.only_state, symbol, model.only_state)


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
    return frozenset(_triples(model, ~model.terminating_triples))


class CompiledSystem:
    """The polynomial system over the may-terminate triples, as flat arrays.

    ``table[p, X, q]``, the one triple index, numbers the triples 0..n-1 in
    (state, symbol, target) order and holds n where pXq cannot terminate.
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
        known = model.terminating_triples
        n = self.n = int(np.count_nonzero(known))
        table = self.table = np.full(known.shape, n, dtype=np.intp)
        table[known] = np.arange(n)
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
            count = np.where(grows, len(model.states), 1)
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

        ``free`` must be sorted: then the entries come sorted by row.  When
        every row holds the same number of entries, as in systems whose
        pairs all carry rules of the same shapes, the entries are a matrix
        of rows and -F'(v) x is one gather and one ``einsum`` over it.
        Otherwise each row is the sum of one run of the entries, which
        ``np.add.reduceat`` takes from the run's start.
        """
        if np.any(free[1:] <= free[:-1]):
            raise ValueError("the free variables must be sorted and distinct")
        rows, cols, weights = self._jacobian(v, free)
        m = len(free)
        counts = np.bincount(rows, minlength=m)
        if m and counts.min() == counts.max() > 0:
            width = int(counts[0])
            cols, weights = cols.reshape(m, width), weights.reshape(m, width)

            def apply(x: np.ndarray) -> np.ndarray:
                return x + np.einsum("ij,ij->i", weights, x[cols])

            return apply
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        present = rows[starts]
        sums = np.zeros(m)

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
    A caller-supplied ``trace`` list receives a copy of every iterate.  A
    slow stateful solve starts again from zero, SCC by SCC, and so does its
    trace; where an SCC is refined in decimal, its iterates in doubles past
    the refinement's start are replaced by the decimal ones, rounded to
    doubles.  ``iterations`` then counts the steps of that walk.  The error
    estimate of the decimal solves counts towards the residual.  A solve
    that misses ``tol`` raises NewtonDivergedError, which carries its table.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    system = model.compiled
    n = system.n

    def newton(v: np.ndarray, free: np.ndarray, stop_slow: bool = False):
        """Newton steps on the indices ``free``, the other entries held fixed.

        Returns the last iterate, the step count, the largest ratio of a step
        to its residual (a lower bound on the norm of (I - F')^-1), and the
        step count and iterate where a step first fell to WARM_START.  Each
        solve recycles the direction of the step before it.  With
        ``stop_slow``, the steps stop once they are SLOW_SOLVE or the ratio
        passes NEAR_CRITICAL.
        """
        v = v.copy()
        iterations, gain, warm = 0, 0.0, (0, v.copy())
        direction = None  # the last step, of unit length
        # Stop on step size, not residual: at critical fixed points Newton
        # degrades to halving the error, where the residual is quadratically
        # smaller than the remaining value error.
        while len(free) and iterations < MAX_ITERATIONS:
            residual = (system.apply(v) - v)[free]
            size = np.max(np.abs(residual))
            if size == 0.0:
                break
            delta, _ = _solve(system, v, free, residual, direction)
            new = np.clip(v[free] + delta, 0.0, 1.0)
            moved = new - v[free]
            step = float(np.max(np.abs(moved)))
            length = math.sqrt(moved @ moved)
            direction = moved / length if length > 0.0 else None
            gain = max(gain, step / size)
            v[free] = new
            iterations += 1
            if trace is not None:
                trace.append(v.copy())
            if not warm[0] and step <= WARM_START:
                warm = (iterations, v.copy())
            if step <= tol or stop_slow and (iterations >= SLOW_SOLVE or gain > NEAR_CRITICAL):
                break
        return v, iterations, gain, warm

    v = np.zeros(n)
    if trace is not None:
        trace.append(v.copy())
    v, iterations, gain, _ = newton(v, np.arange(n), stop_slow=not model.stateless)
    extended_error = 0.0
    # A slow stateful solve hints at a critical SCC, whose linear rate one
    # Newton pays in every variable.  It is solved again from zero, one SCC
    # of F' at a time, callees first, with the values below held.  An SCC
    # whose own steps pass the NEAR_CRITICAL gain is solved again in decimal,
    # with every SCC below it not yet refined, from its first iterate with a
    # step down to WARM_START (that far the iterates in doubles follow exact
    # Newton closely); the SCCs above then read its values.  Stateless models
    # get exact values from the certainty snap below.
    if not model.stateless and (iterations >= SLOW_SOLVE or gain > NEAR_CRITICAL):
        info = _condense(n, system._rows, system._cols, np.arange(n))
        v, iterations, exact = np.zeros(n), 0, {}
        if trace is not None:
            del trace[1:]
        for i, comp in enumerate(info.sccs):
            mark = len(trace) if trace is not None else 0
            v, steps, gain, (done, warm) = newton(v, np.array(sorted(comp)))
            iterations += steps
            if not gain > NEAR_CRITICAL:
                continue
            if trace is not None:
                del trace[mark + done:]
            v = warm
            for j in sorted(_reached(info, i)):
                members = sorted(info.sccs[j])
                if members[0] in exact:
                    continue
                iterates, error = _extended_newton(system, members, warm[members], exact)
                extended_error = max(extended_error, error)
                iterations += len(iterates)
                for values in iterates:
                    v[members] = values
                    if trace is not None:
                        trace.append(v.copy())
    residual = float(np.max(np.abs(system.apply(v) - v))) if n else 0.0
    residual = max(residual, extended_error)

    # Stateless models: pin the symbols that terminate with certainty to 1,
    # then solve the others again with those held fixed, since values above
    # a critical SCC were computed from its stalled ones.
    if model.stateless and n:
        uncertain, index = np.ones(n, dtype=bool), model.symbol_index
        uncertain[system.table[0, [index[sym] for sym in model.moments.certain], 0]] = False
        v[~uncertain] = 1.0
        residual = float(np.max(np.abs(system.apply(v) - v)))
        if residual > tol:
            v, steps, _, _ = newton(v, np.flatnonzero(uncertain))
            iterations += steps
            residual = float(np.max(np.abs(system.apply(v) - v)))

    # Targets of a pair adding up to more than 1 + tol are unsolved, however
    # small the residual: a step past a critical fixed point leaves it tiny.
    # The targets are added one state at a time, in state order.
    values = np.append(v, 0.0)[system.table]
    total = sum((values[:, :, q] for q in range(values.shape[2])), np.zeros(values.shape[:2]))
    excess = float(np.max(total - 1.0, initial=0.0))
    if excess > tol:
        residual = max(residual, excess)
    up = np.clip(1.0 - total, 0.0, 1.0)
    values.flags.writeable = up.flags.writeable = False

    table = TerminationTable(values=values, up=up, state_index=model.state_index,
                             symbol_index=model.symbol_index, residual=residual,
                             iterations=iterations, qualitative_zero=qualitative_zero(model),
                             tol=tol)
    if not table.converged:
        raise NewtonDivergedError(table)
    return table


def _solve(system: CompiledSystem, v: np.ndarray, free: np.ndarray, b: np.ndarray,
           u: np.ndarray | None = None):
    """x with (I - F'(v)) x = b on the variables ``free``, and whether it was solved.

    Systems of up to DENSE_MAX variables are solved densely; a singular
    matrix gives b itself, unsolved: for a Newton step, the fixed-point step.
    Larger ones are solved by GMRES on the matrix-free operator, recycling
    the unit vector ``u`` when one is given; if it misses KRYLOV_RTOL, its
    iterate comes back unsolved.
    """
    if len(free) > DENSE_MAX:
        return _gmres(system.newton_operator(v, free), b, u)
    try:
        return np.linalg.solve(system.newton_matrix(v, free), b), True
    except np.linalg.LinAlgError:
        return b, False


def _gmres(matvec, b: np.ndarray, u: np.ndarray | None = None):
    """Restarted GMRES for A x = b, with A given by ``matvec``.

    Given a unit vector ``u`` with theta = u.A u >= DEFLATE_MIN, it recycles
    u by projection (GCRO, Parks et al. 2006): with c = A u / ||A u||, the
    part c (c.r) of each cycle's residual r is solved by u (c.r) / ||A u||,
    and GMRES runs on P = (I - c c^T) A, each of its updates z corrected by
    -u (c.A z) / ||A u||.  When u is close to the direction A shrinks most,
    as the last Newton step is to that of I - F', P leaves it out.  Without
    ``u``, or with a smaller theta, P = A: near a critical fixed point theta
    falls towards 0, and A u turns to rounding noise.

    GMRES is right-preconditioned by the Neumann polynomial
    M = sum_{i <= NEUMANN_DEGREE} (I - P)^i, so it runs on
    K = P M = I - (I - P)^(NEUMANN_DEGREE + 1), and each Arnoldi step keeps
    M v, corrected as above, for the update.  The steps run on K - I, whose
    products leave the basis vector out, so one classical Gram-Schmidt pass
    mostly suffices; a second runs only when the first leaves less than
    1/sqrt(2) of the norm (Daniel, Gragg, Kaufman and Stewart 1976).  Givens
    rotations, applied to Python floats, keep the columns of K's Hessenberg
    matrix, that of K - I plus the identity, triangular.  Returns x and
    whether the true residual ||b - A x||, taken at the end of each cycle,
    fell to KRYLOV_RTOL ||b||.  Cycles restart after KRYLOV_RESTART steps,
    and no step starts that would pass KRYLOV_MAX_PRODUCTS products: the
    residual of the last cycle is at most one more.
    """
    m, products, c = len(b), 0, None
    if u is not None:
        au = matvec(u)
        products = 1
        if float(u @ au) >= DEFLATE_MIN:
            norm = math.sqrt(au @ au)
            c, u = au / norm, u / norm  # A u = c
    x, r = np.zeros(m), b
    beta = math.sqrt(b @ b)
    target = KRYLOV_RTOL * beta
    cost = NEUMANN_DEGREE + 1  # products per Arnoldi step
    while beta > target and (size := min(KRYLOV_RESTART, m,
                                         (KRYLOV_MAX_PRODUCTS - products) // cost)) > 0:
        if c is not None:
            along = float(c @ r)
            x, r = x + along * u, r - along * c
        basis, mapped = np.empty((size + 1, m)), np.zeros((size, m))
        basis[0] = r
        columns: list[list[float]] = []
        cos: list[float] = []
        sin: list[float] = []
        below = math.sqrt(r @ r)
        g, k = [below], 0
        while k < size and below > 0.0 and abs(g[k]) > target:
            t = basis[k]
            t /= below
            for _ in range(cost):  # t -> (I - P) t, adding up M v on the way
                mapped[k] += t
                at = matvec(t)
                if c is not None:
                    along = float(c @ at)
                    at -= along * c
                    mapped[k] -= along * u
                t = t - at
            w = np.negative(t, out=basis[k + 1])  # (K - I) v
            done, before = basis[: k + 1], w @ w
            h = done @ w
            w -= h @ done
            below = math.sqrt(w @ w)
            if 2.0 * below * below < before:  # less than 1/sqrt(2) of the norm is left
                again = done @ w
                w -= again @ done
                h += again
                below = math.sqrt(w @ w)
            column = h.tolist()
            column[k] += 1.0
            for i in range(k):
                column[i], column[i + 1] = (cos[i] * column[i] + sin[i] * column[i + 1],
                                            cos[i] * column[i + 1] - sin[i] * column[i])
            diag = math.hypot(column[k], below)
            if diag == 0.0:  # the projected matrix is singular: stop this cycle
                break
            cos.append(column[k] / diag)
            sin.append(below / diag)
            column[k] = diag
            columns.append(column)
            g.append(-sin[k] * g[k])
            g[k] = cos[k] * g[k]
            k += 1
        if k:
            h = np.zeros((k, k))
            for j, column in enumerate(columns):
                h[: j + 1, j] = column
            x = x + np.linalg.solve(h, g[:k]) @ mapped[:k]  # h is upper triangular
        r = b - matvec(x)
        products += cost * k + 1
        beta = math.sqrt(r @ r)
        if k == 0:
            break
    return x, bool(beta <= target)


def _extended_newton(system: CompiledSystem, members: list[int], start: np.ndarray,
                     exact: dict[int, Decimal]):
    """Newton in decimal arithmetic on the variables ``members`` from ``start``.

    F and F' are read from the members' compiled monomials, with the exact
    rule probabilities as coefficients.  Variables outside ``members`` are
    read from ``exact``, which receives the solution.  Returns every iterate
    rounded to doubles and an estimate of the error left.  Iterates are not
    clamped: exact Newton from below stays below the fixed point, and a
    value pinned at a critical 1 would make the matrix exactly singular.
    A block of more than EXTENDED_MAX variables raises RefinementBudgetError.
    """
    m = len(members)
    if m > EXTENDED_MAX:
        raise RefinementBudgetError(f"the decimal refinement of a near-critical block of {m:,} "
                                    f"variables is over its budget of {EXTENDED_MAX:,}")
    local = {g: k for k, g in enumerate(members)}
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

