"""Tail-regime classification and evaluable bound curves.

An almost surely terminating stateless model falls in exactly one regime:

1. acyclic dependence: all mass below 2^|alphabet| steps;
2. finite expectation: exponential tail, sandwiched between p_min^n and
   exp((2 E[start] - n) / (2 B^2)) for n >= 2 E[start];
3. infinite expectation: polynomial tail, at most d1 / n^d2 beyond some
   unknown threshold n0, and at least c / sqrt(n) for an unknown c > 0.

The constants come straight from the structure: d1 = 18 h |alphabet| /
p_min^(3 |alphabet|), d2 = 1 / (2^(h+1) - 2) with h the dependence-DAG
height.  The case-3 lower constant has no closed form here; only the 1/2
exponent is reported.  The appendix constructions behind case 3 (the cone
vector, the u-progressive form and the one-step transform g) are not needed
to report these constants and are not part of the library.

What a start's regime depends on is model-wide: the dependence SCCs and
their heights, the moment matrix, the expectations and the symbols certified
to terminate with certainty.  ``Pda.moments`` holds all of these once per
model, with p_min, e_max and B reduced per SCC over all that SCC depends
on, so ``classify`` reads a start's constants from its SCC and never visits
a rule; |alphabet| and whether the start is bounded (case 1) come from one
walk of the SCC DAG from the start's SCC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import _reached
from .model import ModelError, Pda

__all__ = [
    "TailReport",
    "ThresholdResult",
    "NotAlmostSurelyTerminating",
    "classify",
    "lower_bound_pmin",
    "upper_bound_azuma",
    "upper_bound_poly",
    "tail_bounds",
    "threshold_for_epsilon",
]

CASE3_LOWER_EXPONENT = 0.5


class NotAlmostSurelyTerminating(RuntimeError):
    """The classification needs certain termination from the start symbol."""


@dataclass(frozen=True)
class TailReport:
    """Per-start regime and every constant the bound curves need."""

    start: str
    case: int
    gamma_size: int
    p_min: float
    height: int
    e_start: float | None = None
    e_max: float | None = None
    b_constant: float | None = None
    d1: float | None = None
    d2: float | None = None
    lower_exponent: float | None = None
    n0_caveat: bool = False

    @property
    def azuma_threshold(self) -> float | None:
        return None if self.e_start is None else 2.0 * self.e_start

    @property
    def bounded_horizon(self) -> int:
        return 2 ** self.gamma_size


@dataclass(frozen=True)
class ThresholdResult:
    """Step count after which at most eps of the terminating mass remains."""

    n: int
    n0_caveat: bool


def classify(model: Pda, start: str) -> TailReport:
    """Assign the tail regime for runs from ``start`` of a stateless model.

    Only the symbols the start depends on count; raises
    NotAlmostSurelyTerminating unless they terminate with certainty.
    """
    if start not in model.symbol_index:
        raise ModelError(f"unknown start symbol {start!r}")
    moments = model.moments
    deps = moments.deps
    if start not in moments.certain:
        raise NotAlmostSurelyTerminating(
            f"symbols reachable from {start} may diverge; transform or condition first"
        )
    i = int(deps.scc_of[model.symbol_index[start]])
    below = _reached(deps, i)
    gamma = sum(len(deps.sccs[j]) for j in below)
    pmin, h = moments.reach_p_min[i], deps.scc_height[i]

    if not any(deps.scc_cyclic[j] for j in below):
        return TailReport(start=start, case=1, gamma_size=gamma, p_min=pmin, height=h)

    exp = moments.expectations
    if math.isfinite(exp[start]):  # then so is every symbol the start reaches
        return TailReport(
            start=start, case=2, gamma_size=gamma, p_min=pmin, height=h,
            e_start=exp[start], e_max=moments.reach_e_max[i], b_constant=moments.reach_b[i],
        )
    # p_min^(3 |alphabet|) underflows to 0 on deep models, where d1 is inf;
    # the integer division rounds d2 once and never converts 2^(h+1) to a float
    power = pmin ** (3 * gamma)
    return TailReport(
        start=start, case=3, gamma_size=gamma, p_min=pmin, height=h,
        d1=18.0 * h * gamma / power if power else math.inf,
        d2=1 / (2 ** (h + 1) - 2),
        lower_exponent=CASE3_LOWER_EXPONENT,
        n0_caveat=True,
    )


def lower_bound_pmin(report: TailReport, n: int) -> float:
    """p_min^n <= P(T >= n), valid whenever arbitrarily long runs exist."""
    if report.case == 1:
        raise ValueError("bounded models admit no positive tail lower bound")
    return report.p_min ** n


def upper_bound_azuma(report: TailReport, n: int) -> float:
    """exp((2E - n) / (2 B^2)) for n past 2 E[start]; 1.0 below the threshold."""
    if report.case != 2:
        raise ValueError("exponential upper bound needs finite expectations")
    if n < report.azuma_threshold:
        return 1.0
    return min(1.0, math.exp((2.0 * report.e_start - n) / (2.0 * report.b_constant ** 2)))


def upper_bound_poly(report: TailReport, n: int) -> float:
    """d1 / n^d2, valid only beyond an unknown n0 (see report.n0_caveat)."""
    if report.case != 3:
        raise ValueError("polynomial upper bound needs infinite expectations")
    if n < 1:
        raise ValueError("n must be positive")
    return min(1.0, report.d1 / n ** report.d2)


def tail_bounds(report: TailReport, n: int) -> tuple[float, float]:
    """The (lower, upper) bounds on P(T >= n) of the report's regime."""
    if report.case == 1:
        return 0.0, (1.0 if n < report.bounded_horizon else 0.0)
    upper = upper_bound_azuma if report.case == 2 else upper_bound_poly
    return lower_bound_pmin(report, n), upper(report, n)


def _ceil_with_slack(x: float) -> int:
    # Grid boundaries land exactly on integers for round inputs; shave the
    # relative float noise so those cases do not round one step up.
    return max(1, math.ceil(x * (1.0 - 1e-12) - 1e-9))


def threshold_for_epsilon(report: TailReport, eps: float) -> ThresholdResult:
    """Least n with tail bound at most eps.

    Case 1 returns the structural horizon 2^|alphabet|; case 3 results are
    flagged: the polynomial bound only holds beyond an unknown n0.  A
    threshold past the largest double, infinite (d1 inf) or undefined (d2
    underflowed to 0) raises OverflowError.
    """
    if not (0.0 < eps < 1.0):
        if report.case == 1 and eps >= 1.0:
            return ThresholdResult(report.bounded_horizon, False)
        raise ValueError("eps must lie in (0, 1)")
    if report.case == 1:
        return ThresholdResult(report.bounded_horizon, False)
    if report.case == 2:
        n = _ceil_with_slack(
            2.0 * report.e_start + 2.0 * report.b_constant ** 2 * math.log(1.0 / eps)
        )
        return ThresholdResult(max(n, _ceil_with_slack(2.0 * report.e_start)), False)
    if not report.d2:  # d2 underflowed: the bound reaches no eps within a double
        raise OverflowError("the polynomial bound's exponent underflows")
    return ThresholdResult(_ceil_with_slack((report.d1 / eps) ** (1.0 / report.d2)), True)

