"""Moment matrix, spectral radii, certain termination, and expected times.

The matrix A has A(X, Y) = expected number of Y symbols produced by one
rewrite of X.  On an almost surely terminating model, expectations solve
(I - A) E = 1 whenever every reachable SCC block of A is strictly
subcritical; otherwise the affected symbols have infinite expectation.
The same blocks certify which symbols terminate with probability one.
``moment_matrix`` decides both in one walk of the SCCs.  It solves
(I - A) E = 1 over every symbol first; a block on which that E is positive
is proved subcritical by its Collatz-Wielandt bound when the bound lies
clearly below 1, and only the other blocks are power-iterated.  For 1-exit
recursive Markov chains the block radii decide the same question
(Etessami and Yannakakis, J. ACM 56(1), 2009).  ``Pda.moments``
keeps the result, with its dependence, once per model: the certainty snap
and the classification read it.  A fills from the model's
``Pda.rule_arrays``, which also give, per SCC and over everything it depends
on, the least rule probability, the largest expectation and the largest
|1 - weight change| (B): ``classify`` reads a start's bound constants from
its SCC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .graph import DependenceInfo, dependence
from .model import Pda, RuleArrays, Triple

if TYPE_CHECKING:  # pragma: no cover
    from .termination import TerminationTable

__all__ = ["MomentMatrix", "ExpectationTable", "moment_matrix", "conditional_expectations"]

POWER_TOL = 1e-12
POWER_CAP = 100_000
CRITICAL_EPS = 1e-9
# A is dense, |alphabet|^2 doubles, and its solves and block walk copy it, so
# at least four such matrices exist at once.  A model whose A would pass this
# many bytes (8,192 symbols) is refused before A is allocated.
MOMENT_BYTES = 1 << 29


class PowerIterationError(RuntimeError):
    pass


class MomentBudgetError(RuntimeError):
    """The dense moment matrix of the model would pass MOMENT_BYTES."""


def check_moment_budget(symbols: int) -> None:
    """Raise MomentBudgetError if the moment matrix of ``symbols`` symbols would
    pass MOMENT_BYTES."""
    if 8 * symbols * symbols > MOMENT_BYTES:
        raise MomentBudgetError(f"the moment matrix of {symbols:,} symbols needs "
                                f"{8 * symbols * symbols:,} bytes; the budget is {MOMENT_BYTES:,}")


@dataclass(frozen=True)
class MomentMatrix:
    """Dense production-moment matrix over ``alphabet``, the symbols certain
    to terminate and the expected termination times."""

    A: np.ndarray
    alphabet: tuple[str, ...]  # the symbol of each row and column of A
    deps: DependenceInfo
    certain: frozenset[str]
    expectations: ExpectationTable
    # per SCC of ``deps``, over its members and all they depend on: the least
    # rule probability, the largest expectation, and B, the largest
    # |1 - weight change| over the rules whose symbols have a finite E
    reach_p_min: tuple[float, ...]
    reach_e_max: tuple[float, ...]
    reach_b: tuple[float, ...]

    @cached_property
    def spectral_radius(self) -> float:
        """The largest block radius, by power iteration on every SCC block;
        computed when first read, since the pipeline decides without it."""
        index = {sym: i for i, sym in enumerate(self.alphabet)}
        radius = 0.0
        for comp in self.deps.sccs:
            rows = [index[s] for s in comp]
            radius = max(radius, _power_iteration(self.A[np.ix_(rows, rows)])[0])
        return radius


@dataclass(frozen=True)
class ExpectationTable:
    """Expected termination times per symbol; math.inf marks divergence of the mean."""

    values: dict[str, float]
    e_max: float
    b_constant: float | None
    finite: bool

    def __getitem__(self, symbol: str) -> float:
        return self.values[symbol]


def _power_iteration(block: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius and positive dominant vector of an irreducible block.

    Iterates on block + I, which is primitive whenever the block is
    irreducible, so plain power iteration cannot cycle.
    """
    k = block.shape[0]
    if k == 1:
        return float(block[0, 0]), np.ones(1)
    shifted = block + np.eye(k)
    v = np.ones(k)
    for _ in range(POWER_CAP):
        w = shifted @ v
        norm = float(np.max(w))  # at least 1: shifted has a unit diagonal and v > 0
        w /= norm
        if float(np.max(np.abs(w - v))) <= POWER_TOL:
            return norm - 1.0, w
        v = w
    raise PowerIterationError(f"power iteration did not converge on a {k}x{k} block")


def moment_matrix(model: Pda) -> MomentMatrix:
    """The moment matrix of a stateless model and what its SCC blocks decide.

    One walk of the dependence SCCs, callees first, bounds each block's
    spectral radius: by ``_radius_bound`` on the solution E of (I - A) E = 1
    over every symbol, or, where that bound does not lie below
    1 - CRITICAL_EPS, by power iteration.  A block is certain when every
    member can empty the stack, its radius is at most 1 + 1e-9 and every
    successor is certain: Newton in doubles stalls about sqrt(machine
    epsilon) short of a critical fixed point, and this certificate pins it
    to 1.  A block is infinite when its radius is within CRITICAL_EPS of 1
    or beyond, or a successor is infinite; if any is, the other symbols
    solve (I - A) E = 1 again without them, and else E stands.  Each SCC's
    p_min, e_max and B are then reduced over its own rules or symbols and
    those of its successors.  A model whose A would pass MOMENT_BYTES raises
    MomentBudgetError before anything is built.
    """
    if not model.stateless:
        raise ValueError("moment matrix is defined on stateless models; transform first")
    syms = model.alphabet
    n = len(syms)
    check_moment_budget(n)
    deps = dependence(model)
    index = model.symbol_index
    rules = model.rule_arrays
    real = rules.words < n
    # bincount adds in input order, rule by rule and along each word: the
    # sums of a loop over the rules
    A = np.bincount((rules.lhs_symbol[:, None] * n + rules.words)[real],
                    np.broadcast_to(rules.prob[:, None], real.shape)[real],
                    minlength=n * n).astype(float, copy=False).reshape(n, n)

    # (I - A) E = 1 over every symbol: the expectations if no block is
    # infinite, and the test vector of each block's Collatz-Wielandt bound
    E = _expectations(A, np.zeros(n, dtype=bool))
    can_empty = model.terminating_triples.any(axis=(0, 2))
    certain: list[bool] = []
    infinite: list[bool] = []
    for comp, succ in zip(deps.sccs, deps.scc_successors):
        rows = [index[s] for s in comp]
        block = A[np.ix_(rows, rows)]
        rho = _radius_bound(block, E[rows])
        if not rho < 1.0 - CRITICAL_EPS:
            rho, _ = _power_iteration(block)
        certain.append(bool(can_empty[rows].all()) and rho <= 1.0 + 1e-9
                       and all(certain[j] for j in succ))
        infinite.append(rho >= 1.0 - CRITICAL_EPS or any(infinite[j] for j in succ))

    scc = deps.scc_of
    if any(infinite):
        E = _expectations(A, np.array(infinite, dtype=bool)[scc])
    change = _weight_changes(rules, E)
    values = dict(zip(syms, E.tolist()))
    finite = bool(np.isfinite(E).all())
    rule_scc = scc[rules.lhs_symbol]
    return MomentMatrix(
        A=A,
        alphabet=syms,
        deps=deps,
        certain=frozenset(sym for sym, i in zip(syms, scc.tolist()) if certain[i]),
        expectations=ExpectationTable(
            values=values, e_max=max(values.values(), default=0.0),
            # a model without rules, such as an empty terminating part, has no B
            b_constant=float(change.max()) if finite and len(change) else None,
            finite=finite),
        reach_p_min=_reduce_down(deps, np.minimum, 1.0, rule_scc, rules.prob),
        reach_e_max=_reduce_down(deps, np.maximum, -math.inf, scc, E),
        reach_b=_reduce_down(deps, np.maximum, -math.inf, rule_scc, change),
    )


def _radius_bound(block: np.ndarray, x: np.ndarray) -> float:
    """An upper bound on the spectral radius of a nonnegative block, or inf.

    For x > 0 the Collatz-Wielandt bound gives rho <= max_i (block x)_i / x_i.
    Each (block x)_i sums k nonnegative products, so its computed value is
    within a factor 1 - gamma_k of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1, with gamma_k =
    k u / (1 - k u) and u the unit roundoff); the quotient adds one rounding
    and the margin itself another, so the computed maximum is divided by
    1 - gamma_(k+2).  For x the solution E of (I - A) E = 1 the bound is
    at most 1 - 1/max E.
    """
    if not (np.isfinite(x).all() and (x > 0).all()):
        return math.inf
    k = len(x) + 2
    unit = np.finfo(float).eps / 2
    gamma = k * unit / (1.0 - k * unit)
    return float(np.max((block @ x) / x)) / (1.0 - gamma)


def _expectations(A: np.ndarray, infinite: np.ndarray) -> np.ndarray:
    """Solve (I - A) E = 1 over the symbols not flagged infinite; inf elsewhere."""
    rows = np.flatnonzero(~infinite)
    E = np.full(len(infinite), math.inf)
    try:
        E[rows] = np.linalg.solve(np.eye(len(rows)) - A[np.ix_(rows, rows)], np.ones(len(rows)))
    except np.linalg.LinAlgError:
        pass  # numerically singular despite the radius gate: treat as infinite
    return E


def _weight_changes(rules: RuleArrays, E: np.ndarray) -> np.ndarray:
    """|1 - weight change| of every rule under the weights E: 1 - (E of the
    left-hand side - the sum of E over the word, in word order); -inf for a
    rule that touches an infinite E, where the change is undefined."""
    finite = np.isfinite(E)
    weights = np.append(np.where(finite, E, 0.0), 0.0)  # the padding weighs 0
    pushed = weights[rules.words[:, 0]]
    for column in rules.words.T[1:]:
        pushed = pushed + weights[column]
    change = np.abs(1.0 - (weights[rules.lhs_symbol] - pushed))
    unknown = ~np.append(finite, True)
    change[unknown[rules.lhs_symbol] | unknown[rules.words].any(axis=1)] = -math.inf
    return change


def _reduce_down(deps: DependenceInfo, ufunc: np.ufunc, initial: float, groups: np.ndarray,
                 values: np.ndarray) -> tuple[float, ...]:
    """Per SCC, ``ufunc`` (minimum or maximum) of ``initial`` and the ``values``
    grouped to it by ``groups``, and of the results of its successors."""
    own = np.full(len(deps.sccs), initial)
    ufunc.at(own, groups, values)
    pick = min if ufunc is np.minimum else max
    out: list[float] = []
    for value, succ in zip(own.tolist(), deps.scc_successors):
        out.append(pick([value, *(out[j] for j in succ)]))
    return tuple(out)


def conditional_expectations(model: Pda, table: TerminationTable) -> dict[Triple, float]:
    """Expected termination time conditioned on the terminal control state.

    Computed as the plain expectations of the terminating part of the
    transformed stateless model, which carries exactly the conditional
    distribution of the original triple.
    """
    from .transform import to_bpa

    result = to_bpa(model, table)
    exp = result.part.moments.expectations
    return {result.symbols[name]: exp[name] for name in result.part.alphabet}
