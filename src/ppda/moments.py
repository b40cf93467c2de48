"""Moment matrix, spectral radii, certain termination, and expected times.

The matrix A has A(X, Y) = expected number of Y symbols produced by one
rewrite of X.  On an almost surely terminating model, expectations solve
(I - A) E = 1 whenever every reachable SCC block of A is strictly
subcritical; otherwise the affected symbols have infinite expectation.
The same blocks certify which symbols terminate with probability one.
``Pda.moments`` keeps one moment matrix, with its dependence, per model:
the certainty snap, the classification and the cone vector all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import DependenceInfo, dependence
from .model import Pda, Rule, Triple

if TYPE_CHECKING:  # pragma: no cover
    from .termination import TerminationTable

__all__ = ["MomentMatrix", "ExpectationTable", "moment_matrix", "certain_symbols",
           "expectations", "conditional_expectations", "rule_weight_change"]

POWER_TOL = 1e-12
POWER_CAP = 100_000
CRITICAL_EPS = 1e-9


class PowerIterationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MomentMatrix:
    """Dense production-moment matrix with per-SCC spectral data."""

    symbols: tuple[str, ...]
    A: np.ndarray
    spectral_radius: float
    dominant_vector: dict[str, float]
    deps: DependenceInfo
    block_radii: tuple[float, ...]


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
        norm = float(np.max(w))
        if norm == 0.0:
            return 0.0, np.ones(k)
        w /= norm
        if float(np.max(np.abs(w - v))) <= POWER_TOL:
            return norm - 1.0, w
        v = w
    raise PowerIterationError(f"power iteration did not converge on a {k}x{k} block")


def moment_matrix(model: Pda) -> MomentMatrix:
    if not model.stateless:
        raise ValueError("moment matrix is defined on stateless models; transform first")
    deps = dependence(model)
    syms = model.alphabet
    index = model.symbol_index
    A = np.zeros((len(syms), len(syms)))
    for rule in model.rules:
        i = index[rule.lhs_symbol]
        for sym in rule.rhs_word:
            A[i, index[sym]] += float(rule.prob)

    radii = []
    dominant: dict[str, float] = {}
    for comp in deps.sccs:
        rows = [index[s] for s in comp]
        rho, vec = _power_iteration(A[np.ix_(rows, rows)])
        radii.append(rho)
        top = float(np.max(vec))
        for sym, val in zip(comp, vec):
            dominant[sym] = float(val) / top
    spectral = max(radii, default=0.0)
    return MomentMatrix(
        symbols=syms,
        A=A,
        spectral_radius=spectral,
        dominant_vector=dominant,
        deps=deps,
        block_radii=tuple(radii),
    )


def certain_symbols(model: Pda) -> frozenset[str]:
    """Symbols of a stateless model that terminate with probability one.

    Newton in doubles cannot push critical fixed points past an error of
    about sqrt(machine epsilon).  For stateless models certainty is
    structural: every reachable symbol can reach the empty stack and no
    reachable SCC block of the moment matrix is supercritical.
    """
    mm = model.moments
    deps = mm.deps
    can_empty = model.terminating_triples.any(axis=(0, 2))
    certain: list[bool] = []
    for i, comp in enumerate(deps.sccs):
        good = all(can_empty[model.symbol_index[sym]] for sym in comp)
        good = good and mm.block_radii[i] <= 1.0 + 1e-9
        good = good and all(certain[j] for j in deps.scc_successors[i])
        certain.append(good)
    return frozenset(sym for sym in deps.scc_of if certain[deps.scc_of[sym]])


def rule_weight_change(rule: Rule, weights: dict[str, float]) -> float:
    """weight(lhs) - total weight pushed by the rule."""
    return weights[rule.lhs_symbol] - sum(weights[sym] for sym in rule.rhs_word)


def expectations(model: Pda) -> ExpectationTable:
    """Expected termination time per symbol of an a.s. terminating model.

    A symbol is infinite iff it reaches (in the dependence order) an SCC
    whose block spectral radius is within CRITICAL_EPS of 1 or beyond.
    """
    mm = model.moments
    deps = mm.deps
    n_sccs = len(deps.sccs)

    bad = [mm.block_radii[i] >= 1.0 - CRITICAL_EPS for i in range(n_sccs)]
    # Propagate badness upward; SCCs are listed callees-first.
    infected = list(bad)
    for i in range(n_sccs):
        if not infected[i]:
            infected[i] = any(infected[j] for j in deps.scc_successors[i])

    infinite = {sym for sym in model.alphabet if infected[deps.scc_of[sym]]}
    finite_syms = [sym for sym in model.alphabet if sym not in infinite]
    values: dict[str, float] = {sym: math.inf for sym in infinite}

    if finite_syms:
        rows = [model.symbol_index[s] for s in finite_syms]
        sub = mm.A[np.ix_(rows, rows)]
        try:
            solved = np.linalg.solve(np.eye(len(rows)) - sub, np.ones(len(rows)))
        except np.linalg.LinAlgError:
            # Numerically singular despite the radius gate: treat as infinite.
            for sym in finite_syms:
                values[sym] = math.inf
            finite_syms = []
            solved = np.zeros(0)
        for sym, val in zip(finite_syms, solved):
            values[sym] = float(val)

    finite = all(math.isfinite(v) for v in values.values())
    e_max = max(values.values(), default=0.0)
    b_constant = None
    if finite:  # a model without rules, such as an empty terminating part, has none
        b_constant = max(
            (abs(1.0 - rule_weight_change(rule, values)) for rule in model.rules), default=None
        )
    return ExpectationTable(values=values, e_max=e_max, b_constant=b_constant, finite=finite)


def conditional_expectations(model: Pda, table: TerminationTable) -> dict[Triple, float]:
    """Expected termination time conditioned on the terminal control state.

    Computed as the plain expectations of the terminating part of the
    transformed stateless model, which carries exactly the conditional
    distribution of the original triple.
    """
    from .transform import terminating_part, to_bpa

    result = to_bpa(model, table)
    part = terminating_part(result)
    exp = expectations(part)
    return {
        result.symbols[name]: exp[name]
        for name in part.alphabet
    }
