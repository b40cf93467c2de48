import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ppda import (
    Configuration,
    Triple,
    exact_distribution_bpa,
    exact_distribution_pda,
    make_bpa,
    parse_model,
    qualitative_zero,
    simulate,
    termination_probs,
)
from ppda.model import Pda, Rule
import ppda.termination
from ppda.termination import CompiledSystem, _gmres, may_terminate

from helpers import (
    CRITICAL_PDAS,
    chain_monomials,
    dense_newton,
    is_almost_surely_terminating,
    may_terminate_loop,
    random_pda,
    relaxed_bpas,
    small_bpas,
    small_pdas,
    term_system,
)

# the critical models of the benchmark, read from its directory
BLOCKING = {
    name: parse_model((Path(__file__).parent.parent / "perfbench" / "models" / f"{name}.ppda")
                      .read_text(encoding="utf-8"))
    for name in ("blocking_one_state", "blocking_two_state")
}

GRID = [Fraction(11, 20), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)]


def ab_model(a: Fraction, b: Fraction) -> Pda:
    rules = (
        Rule("p", "X", "q", ("X", "X"), a),
        Rule("p", "X", "q", (), 1 - a),
        Rule("q", "X", "p", ("X", "X"), b),
        Rule("q", "X", "p", (), 1 - b),
    )
    return Pda(("p", "q"), ("X",), rules, kind="pda",
               start=Configuration("p", ("X",)))


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("b", GRID)
def test_ab_grid_matches_closed_form(a, b):
    m = ab_model(a, b)
    t = termination_probs(m)
    assert t.prob("p", "X", "q") == pytest.approx(float((1 - a) / b), abs=1e-10)
    assert t.prob("q", "X", "p") == pytest.approx(float((1 - b) / a), abs=1e-10)
    assert t.prob("p", "X", "p") == pytest.approx(0.0, abs=1e-10)
    assert t.prob("q", "X", "q") == pytest.approx(0.0, abs=1e-10)


def test_single_epsilon_rule_terminates():
    m = make_bpa([(("X",), Fraction(1))])
    t = termination_probs(m)
    assert t.symbol_prob(m, "X") == 1.0
    assert t.diverge("_", "X") == 0.0


def test_tree_rows_sum_to_one(tree):
    t = termination_probs(tree)
    for p in tree.states:
        for X in tree.alphabet:
            total = sum(t.prob(p, X, q) for q in tree.states) + t.diverge(p, X)
            assert total == pytest.approx(1.0, abs=1e-9)
    assert t.prob("q", "A", "r0") + t.prob("q", "A", "r1") == pytest.approx(1.0, abs=1e-10)
    assert t.prob("q", "A", "r0") == pytest.approx(math.sqrt(2.5) - 1, abs=1e-10)


def test_qualitative_zero_ab(ab):
    zeros = qualitative_zero(ab)
    assert Triple("p", "X", "p") in zeros
    assert Triple("q", "X", "q") in zeros
    assert Triple("p", "X", "q") not in zeros


def test_qualitative_zero_trivial_cases():
    assert qualitative_zero(make_bpa([(("X",), Fraction(1))])) == frozenset()
    grow = make_bpa([(("X", "X", "X"), Fraction(1))])
    assert qualitative_zero(grow) == frozenset({Triple("_", "X", "_")})


def test_almost_sure_examples(delta1):
    t1 = termination_probs(delta1)
    assert t1.symbol_prob(delta1, "X1") == 1.0
    assert is_almost_surely_terminating(delta1, t1)

    grow = make_bpa([(("X", "X", "X"), Fraction(1))])
    assert not is_almost_surely_terminating(grow, termination_probs(grow))

    super_crit = make_bpa([(("X", "X", "X"), Fraction(7, 10)), (("X",), Fraction(3, 10))])
    t3 = termination_probs(super_crit)
    assert t3.symbol_prob(super_crit, "X") == pytest.approx(3 / 7, abs=1e-12)
    assert not is_almost_surely_terminating(super_crit, t3)


def test_delta_family_snaps_to_certainty():
    from conftest import load_model

    for h in (1, 2, 3, 4):
        m = load_model(f"delta{h}.bpa")
        t = termination_probs(m)
        assert t.symbol_prob(m, f"X{h}") == 1.0
        assert t.residual <= 1e-12


def test_snap_resolves_symbols_above_a_critical_one():
    # Y is critical; X = 3/5 X^2 + 2/5 [Y] has least root 2/3 once [Y] = 1,
    # but Newton computed X from the stalled [Y], 1.5e-8 short of 1.
    m = make_bpa([(("X", "X", "X"), Fraction(3, 5)), (("X", "Y"), Fraction(2, 5)),
                  (("Y", "Y", "Y"), Fraction(1, 2)), (("Y",), Fraction(1, 2))])
    t = termination_probs(m)
    assert t.symbol_prob(m, "Y") == 1.0
    assert t.symbol_prob(m, "X") == pytest.approx(2 / 3, abs=1e-15)
    assert t.diverge("_", "X") == pytest.approx(1 / 3, abs=1e-15)
    assert t.residual <= t.tol


def check_compiled_system(model: Pda, seed: int):
    """F and I - F' of the compiled system equal the term-list ones exactly."""
    system = CompiledSystem(model)
    triples, apply_f, newton_matrix = term_system(model)
    assert system.triples == triples
    rng = np.random.default_rng(seed)
    n = len(triples)
    for v in (np.zeros(n), np.ones(n), rng.random(n)):
        assert np.array_equal(system.apply(v), apply_f(v))
        for free in (np.arange(n), np.sort(rng.permutation(n)[: n // 2]),
                     rng.permutation(n)[: (n + 1) // 2]):
            assert np.array_equal(system.newton_matrix(v, free), newton_matrix(v, free))


@given(small_pdas(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
@example(CRITICAL_PDAS["one_state"], 0)
@example(CRITICAL_PDAS["symmetric"], 1)
@example(CRITICAL_PDAS["with_bystander"], 2)
@example(CRITICAL_PDAS["alternating"], 3)
@example(CRITICAL_PDAS["unary"], 4)
def test_compiled_system_matches_term_lists(model, seed):
    check_compiled_system(model, seed)


def test_compiled_system_relaxed_words():
    m = make_bpa(
        [(("X", "Y", "Y", "Y"), Fraction(1, 2)), (("X", "X", "Y", "Z", "Y"), Fraction(1, 4)),
         (("X",), Fraction(1, 4)), (("Y",), Fraction(2, 3)), (("Y", "Y", "Z", "Y"), Fraction(1, 3)),
         (("Z", "Y"), Fraction(1, 2)), (("Z", "Z", "Z"), Fraction(1, 2))],
        relaxed=True,
    )
    assert {len(r.rhs_word) for r in m.rules} == {0, 1, 2, 3, 4}
    check_compiled_system(m, 5)


def test_newton_iterates_monotone_bounded(tree, ab):
    for model in (tree, ab):
        trace: list[np.ndarray] = []
        termination_probs(model, trace=trace)
        for prev, cur in zip(trace, trace[1:]):
            assert np.all(cur >= prev - 1e-12)
            assert np.all(cur <= 1.0 + 1e-12)


@given(small_pdas())
@settings(max_examples=40, deadline=None)
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_newton_monotone_and_consistent_random(model):
    check_newton_monotone_and_consistent(model)


def check_newton_monotone_and_consistent(model: Pda):
    trace: list[np.ndarray] = []
    table = termination_probs(model, trace=trace)
    for prev, cur in zip(trace, trace[1:]):
        assert np.all(cur >= prev - 1e-12)
    assert table.residual <= 1e-12
    for p in model.states:
        for X in model.alphabet:
            row = sum(table.prob(p, X, q) for q in model.states) + table.diverge(p, X)
            assert row == pytest.approx(1.0, abs=1e-9)
    return table


@pytest.fixture
def krylov(monkeypatch):
    """Every Newton step and near-critical block gain goes through GMRES."""
    monkeypatch.setattr(ppda.termination, "DENSE_MAX", 0)


@given(small_pdas())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_newton_monotone_and_consistent_random_krylov(krylov, model):
    check_newton_monotone_and_consistent(model)


def dense_table(model: Pda):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ppda.termination, "DENSE_MAX", math.inf)
        return termination_probs(model)


@pytest.mark.parametrize("name", [*CRITICAL_PDAS, *BLOCKING])
def test_critical_models_krylov_match_dense(krylov, name):
    model = {**CRITICAL_PDAS, **BLOCKING}[name]
    table = check_newton_monotone_and_consistent(model)
    dense = dense_table(model)
    for t, value in dense.probs.items():
        assert table.probs[t] == pytest.approx(value, abs=1e-13)


def test_blocking_models_exact_under_krylov(krylov):
    one = termination_probs(BLOCKING["blocking_one_state"])
    assert one.prob("u", "S", "u") == pytest.approx(1.0, abs=1e-15)
    table = termination_probs(BLOCKING["blocking_two_state"])
    for p in "pq":
        for q in "pq":
            assert table.prob(p, "X", q) == pytest.approx(0.5, abs=1e-15)


def test_krylov_above_crossover_matches_dense_newton():
    model = random_pda(6, 20, seed=1)
    system = CompiledSystem(model)
    assert system.n > ppda.termination.DENSE_MAX
    solves = []

    def counted(*args, **kwargs):
        x, solved = _gmres(*args, **kwargs)
        solves.append(solved)
        return x, solved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ppda.termination, "_gmres", counted)
        table = check_newton_monotone_and_consistent(model)
    assert solves and all(solves)
    oracle = dense_newton(model)
    for t, value in table.probs.items():
        if not t.diverging:
            assert value == pytest.approx(oracle.get(t, 0.0), abs=1e-13)


def test_missed_gmres_steps_are_solved_densely(krylov, monkeypatch, tree, ab):
    monkeypatch.setattr(ppda.termination, "KRYLOV_MAX_STEPS", 0)
    for model in (tree, ab, CRITICAL_PDAS["unary"]):
        assert termination_probs(model) == dense_table(model)


def test_gmres_solves_nonsymmetric_systems_across_restarts(monkeypatch):
    rng = np.random.default_rng(7)
    a = np.eye(40) - 0.9 * rng.random((40, 40)) / 40
    b = rng.random(40)
    for restart in (3, 40):
        monkeypatch.setattr(ppda.termination, "KRYLOV_RESTART", restart)
        x, solved = _gmres(lambda y: a @ y, b)
        assert solved
        assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-11)
    monkeypatch.setattr(ppda.termination, "KRYLOV_MAX_STEPS", 2)
    x, solved = _gmres(lambda y: a @ y, b)
    assert not solved


@given(small_pdas())
@settings(max_examples=60, deadline=None)
@example(CRITICAL_PDAS["with_bystander"])
def test_may_terminate_matches_rule_sweeps(model):
    assert may_terminate(model) == may_terminate_loop(model)


def check_chain_monomials(model: Pda):
    system = CompiledSystem(model)
    oracle = chain_monomials(model)
    for name, want in oracle.items():
        assert np.array_equal(getattr(system, name), want), name


@given(small_pdas())
@settings(max_examples=60, deadline=None)
@example(CRITICAL_PDAS["one_state"])
@example(CRITICAL_PDAS["symmetric"])
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_compiled_monomials_match_chain_loop(model):
    check_chain_monomials(model)


@given(relaxed_bpas())
@settings(max_examples=60, deadline=None)
def test_compiled_monomials_match_chain_loop_relaxed(model):
    assert may_terminate(model) == may_terminate_loop(model)
    check_chain_monomials(model)


@given(small_bpas())
@settings(max_examples=40, deadline=None)
def test_qualitative_zero_agrees_with_newton(model):
    table = termination_probs(model)
    zeros = qualitative_zero(model)
    for t, value in table.probs.items():
        if t.diverging:
            continue
        if t in zeros:
            assert value == 0.0
        else:
            assert value > 0.0


@pytest.mark.slow
def test_monte_carlo_consistency_with_probabilities(tree, ab, twostate, delta1):
    """Estimates of [pXq] agree with Newton within sampling noise.

    The comparison quantity is the probability of terminating at q within
    the step cap: the DP gives it exactly, so censoring of heavy tails
    introduces no bias.  Where the beyond-cap remainder is negligible the
    estimate is also checked against [pXq] itself.
    """
    cases = [
        (tree, Configuration("q", ("A",)), 1_000),
        (ab, Configuration("p", ("X",)), 200),
        (twostate, Configuration("p", ("X",)), 400),
        (delta1, Configuration("_", ("X1",)), 10_000),
    ]
    samples = 100_000
    for model, start, cap in cases:
        table = termination_probs(model)
        stats = simulate(model, start, samples=samples, step_cap=cap, seed=20240817)
        for q in model.states:
            triple = Triple(start.state, start.stack[0], q)
            truth = table.probs[triple]
            if model.stateless:
                dist = exact_distribution_bpa(model, start.stack[0], cap)
            else:
                dist = exact_distribution_pda(model, triple, cap, norm=truth)
            if model.stateless:
                truncated = float(np.sum(dist.mass[: cap + 1])) if q == start.state else 0.0
            else:
                truncated = float(np.sum(dist.mass[: cap + 1]))
            estimate = stats.termination_rate(q)
            se = math.sqrt(max(truncated * (1 - truncated), 1e-12) / samples)
            assert abs(estimate - truncated) <= 4 * se, (
                f"{model.kind} target {q}: {estimate} vs truncated {truncated}"
            )
            remainder = truth - truncated
            if remainder <= se / 4:
                assert abs(estimate - truth) <= 4 * se + remainder
