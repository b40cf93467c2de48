import math
from fractions import Fraction

import numpy as np
import pytest

from ppda import (
    Configuration,
    Triple,
    conditional_expectations,
    make_bpa,
    moment_matrix,
    simulate,
    termination_probs,
    to_bpa,
)
from hypothesis import given, settings

import ppda.moments
from appendix import rule_weight_change
from conftest import load_model
from helpers import moment_decisions_loop, relaxed_bpas, rules_for, small_bpas, subcritical_unit

TREE_TABLE = {
    "q.A.r0": 7.155113,
    "q.A.r1": 7.172218,
    "q.O.r0": 7.172218,
    "q.O.r1": 7.155113,
    "r0.A.r0": 1.000000,
    "r1.A.r0": 8.172218,
    "r1.A.r1": 8.155113,
    "r1.O.r1": 1.000000,
    "r0.O.r1": 8.172218,
    "r0.O.r0": 8.155113,
}


def test_moment_matrix_values(delta1, delta2):
    mm = moment_matrix(delta1)
    assert mm.A == pytest.approx(np.array([[1.0]]))
    assert mm.spectral_radius == pytest.approx(1.0, abs=1e-12)

    quarter = subcritical_unit()
    mmq = moment_matrix(quarter)
    assert mmq.A == pytest.approx(np.array([[0.5]]))
    assert mmq.spectral_radius == pytest.approx(0.5, abs=1e-12)

    mm2 = moment_matrix(delta2)
    order = [delta2.symbol_index[s] for s in ("X1", "X2")]
    expected = np.array([[1.0, 0.0], [0.5, 1.0]])
    assert mm2.A[np.ix_(order, order)] == pytest.approx(expected)
    assert mm2.spectral_radius == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_critical_family_radius_is_one(h):
    m = load_model(f"delta{h}.bpa")
    assert moment_matrix(m).spectral_radius == pytest.approx(1.0, abs=1e-9)


def check_blocks_match_power_iteration(model):
    radii, certain, infinite, E = moment_decisions_loop(model)
    if any(abs(rho - 1.0) <= 1e-6 for rho in radii):
        return  # inside the band where a power iteration's rounding may decide
    mm = model.moments
    assert mm.certain == certain
    values = np.array([mm.expectations[s] for s in model.alphabet])
    assert np.array_equal(np.isinf(values), infinite)
    # the same solve over the same symbols, so the same bits
    assert np.array_equal(values, E)


@given(small_bpas())
@settings(max_examples=150, deadline=None)
def test_certified_blocks_decide_as_power_iteration(model):
    check_blocks_match_power_iteration(model)


@given(relaxed_bpas())
@settings(max_examples=150, deadline=None)
def test_certified_blocks_decide_as_power_iteration_relaxed(model):
    check_blocks_match_power_iteration(model)


def test_subcritical_blocks_skip_power_iteration(tree, monkeypatch):
    part = to_bpa(tree, termination_probs(tree)).part
    calls = []
    original = ppda.moments._power_iteration

    def counted(block):
        calls.append(block.shape)
        return original(block)

    monkeypatch.setattr(ppda.moments, "_power_iteration", counted)
    mm = moment_matrix(part)
    assert mm.expectations.finite and not calls
    # the radius is computed when read, by power iteration on every block
    assert 0.0 < mm.spectral_radius < 1.0
    assert len(calls) == len(mm.deps.sccs)


def test_radius_bound_is_collatz_wielandt():
    block = np.array([[0.25, 0.5], [0.125, 0.25]])
    E = np.linalg.solve(np.eye(2) - block, np.ones(2))
    bound = ppda.moments._radius_bound(block, E)
    assert bound == pytest.approx(1.0 - 1.0 / E.max(), rel=1e-14)
    assert max(abs(np.linalg.eigvals(block))) <= bound
    for x in (np.array([1.0, 0.0]), np.array([1.0, -1.0]), np.array([np.inf, 1.0])):
        assert ppda.moments._radius_bound(block, x) == math.inf


def test_expectation_subcritical_unit():
    m = subcritical_unit()
    exp = m.moments.expectations
    assert exp.finite
    assert exp["X"] == pytest.approx(2.0, abs=1e-12)
    assert exp.e_max == pytest.approx(2.0)
    assert exp.b_constant == pytest.approx(3.0)


def test_expectation_infinite_on_critical(delta1, delta2):
    for m in (delta1, delta2):
        exp = m.moments.expectations
        assert not exp.finite
        assert all(math.isinf(v) for v in exp.values.values())
        assert math.isinf(exp.e_max)
        assert exp.b_constant is None


def test_infinite_only_above_critical_blocks():
    # a finite bottom symbol under no critical block stays finite
    m = make_bpa([
        (("X", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
        (("Y", "Y", "Y"), Fraction(1, 2)), (("Y",), Fraction(1, 2)),
        (("Z",), Fraction(1)),
    ])
    exp = m.moments.expectations
    assert math.isinf(exp["X"])
    assert math.isinf(exp["Y"])
    assert exp["Z"] == pytest.approx(1.0)


def test_expectation_residual_identity(tree):
    part = to_bpa(tree, termination_probs(tree)).part
    mm = moment_matrix(part)
    exp = mm.expectations
    assert exp.finite
    evec = np.array([exp[s] for s in part.alphabet])
    residual = np.max(np.abs(evec - 1.0 - mm.A @ evec))
    assert residual <= 1e-9
    for rule in part.rules:
        assert abs(1.0 - rule_weight_change(rule, exp.values)) <= exp.b_constant + 1e-12


def test_tree_conditional_expectations(tree):
    table = termination_probs(tree)
    cond = conditional_expectations(tree, table)
    assert len(cond) == 10
    for name, expected in TREE_TABLE.items():
        state, symbol, target = name.split(".")
        value = cond[Triple(state, symbol, target)]
        assert value == pytest.approx(expected, abs=1e-5), name


def test_conditional_expectation_one_step():
    from ppda.model import Pda, Rule

    m = Pda(("p", "q"), ("X",), (Rule("p", "X", "q", (), Fraction(1)),), kind="pda")
    cond = conditional_expectations(m, termination_probs(m))
    assert cond == {Triple("p", "X", "q"): pytest.approx(1.0)}


def test_conditional_expectation_ab_symmetry(ab):
    cond = conditional_expectations(ab, termination_probs(ab))
    pxq, qxp = cond[Triple("p", "X", "q")], cond[Triple("q", "X", "p")]
    assert math.isfinite(pxq)
    assert pxq == pytest.approx(qxp, rel=1e-9)


def _drift_samples(model, exp, start, count, seed):
    rng = np.random.default_rng(seed)
    rows = {
        sym: (
            np.cumsum([float(r.prob) for r in rules_for(model, "_", sym)]),
            [r.rhs_word for r in rules_for(model, "_", sym)],
        )
        for sym in model.alphabet
    }
    drifts = np.empty(count)
    stack = [start]
    for i in range(count):
        if not stack:
            stack = [start]
        top = stack.pop()
        cum, words = rows[top]
        word = words[int(np.searchsorted(cum, rng.random(), side="right"))]
        drifts[i] = 1.0 - exp[top] + sum(exp[y] for y in word)
        stack.extend(reversed(word))
    return drifts


@pytest.mark.slow
def test_martingale_drift_is_zero(tree):
    part = to_bpa(tree, termination_probs(tree)).part
    for model, start in ((subcritical_unit(), "X"), (part, part.alphabet[0])):
        exp = model.moments.expectations
        drifts = _drift_samples(model, exp.values, start, 100_000, seed=9)
        se = float(np.std(drifts)) / math.sqrt(len(drifts))
        assert abs(float(np.mean(drifts))) <= 4 * se


@pytest.mark.slow
def test_monte_carlo_mean_matches_expectation(tree):
    part = to_bpa(tree, termination_probs(tree)).part
    cases = [
        (subcritical_unit(), "X"),
        (part, "q.A.r0"),
    ]
    for model, start in cases:
        exp = model.moments.expectations
        stats = simulate(model, Configuration("_", (start,)), samples=100_000,
                         step_cap=100_000, seed=13)
        assert stats.censored == 0
        steps = np.array(
            [s for ctr in stats.outcomes.values() for s, c in ctr.items() for _ in range(c)]
        )
        se = float(np.std(steps)) / math.sqrt(len(steps))
        assert abs(float(np.mean(steps)) - exp[start]) <= 4 * se
