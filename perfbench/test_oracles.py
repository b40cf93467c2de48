"""Tests of the benchmark's oracles against values derived by hand.

    python3 -m pytest perfbench/test_oracles.py

They import nothing from ppda.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracles as O  # noqa: E402

MODELS = BENCH.parent / "models"

# Conditional expected times of the And/Or evaluator as tabulated for the
# paper's example, to six decimals.
ANDOR_TABLE = {
    "q.A.r0": 7.155113, "q.A.r1": 7.172218, "q.O.r0": 7.172218, "q.O.r1": 7.155113,
    "r0.A.r0": 1.0, "r1.A.r0": 8.172218, "r1.A.r1": 8.155113, "r1.O.r1": 1.0,
    "r0.O.r1": 8.172218, "r0.O.r0": 8.155113,
}


def model(name):
    return O.parse_text((MODELS / name).read_text(encoding="utf-8"))


def bpa(rules, start):
    lines = ["bpa", "alphabet: " + " ".join(sorted({r[0] for r in rules})), f"start: {start}"]
    lines += [f"rule: {lhs} -> {' '.join(rhs)} : {p}" for lhs, rhs, p in rules]
    return O.parse_text("\n".join(lines))


def values(system, v):
    return dict(zip(system.names, v))


def test_kleene_ab_is_one_minus_a_over_b():
    system = O.System(model("ab.ppda"))
    v, _, step = system.kleene()
    got = values(system, v)
    assert step <= 1e-15
    assert got["p.X.q"] == pytest.approx(2 / 3, abs=1e-14)
    assert got["q.X.p"] == pytest.approx(2 / 3, abs=1e-14)
    assert got["p.X.p"] == 0.0 and got["q.X.q"] == 0.0


def test_kleene_stays_below_the_critical_fixed_point():
    system = O.System(model("delta1.bpa"))
    v, iterations, step = system.kleene(max_iter=1000)
    assert iterations == 1000 and step > 1e-15
    assert 0.99 < v[0] < 1.0


def test_first_moments_geometric_and_branching():
    # X -> (1/2) | X (1/2): T is geometric with mean 2
    m = bpa([("X", (), "1/2"), ("X", ("X",), "1/2")], "X")
    system = O.System(m)
    v, _, _ = system.kleene()
    assert system.first_moments(v)[0] == pytest.approx(2.0, rel=1e-12)
    # X -> (2/3) | X X (1/3): E = 1 + (1/3) 2 E, so E = 3
    m = bpa([("X", (), "2/3"), ("X", ("X", "X"), "1/3")], "X")
    system = O.System(m)
    v, _, _ = system.kleene()
    assert system.first_moments(v)[0] == pytest.approx(3.0, rel=1e-12)


def test_first_moments_infinite_at_criticality():
    system = O.System(model("delta2.bpa"))
    assert np.all(np.isinf(system.first_moments(np.ones(system.n))))


def test_andor_closed_form_matches_the_table_and_the_float_system():
    m = model("tree.ppda")
    exact = O.andor_expectations(m)
    assert set(exact) == set(ANDOR_TABLE)
    for name, val in ANDOR_TABLE.items():
        assert exact[name] == pytest.approx(val, abs=1e-6)
    system = O.System(m)
    v, _, _ = system.kleene()
    probs = O.andor_probabilities(m)
    for name, val in values(system, v).items():
        assert val == pytest.approx(float(probs[name]), abs=1e-14)
    means = values(system, system.first_moments(v))
    for name, val in exact.items():
        assert means[name] == pytest.approx(val, rel=1e-12)


def test_delta1_series_is_catalan():
    assert O.delta_series_exact(1, 60) == O.catalan_delta1(60)
    assert O.catalan_delta1(8)[:8] == [0, Fraction(1, 2), 0, Fraction(1, 8), 0,
                                       Fraction(2, 32), 0, Fraction(5, 128)]


def test_delta2_series_by_hand():
    # f2 = z (f2^2/2 + f1/2): z^2/4 (X2 -> X1 -> eps), then z^4/16 from f1's z^3 term
    series = O.delta_series_exact(2, 6)
    assert series[:5] == [0, 0, Fraction(1, 4), 0, Fraction(1, 16)]
    # z^5: X2 -> X2 X2 (1/2), then each X2 -> X1 -> eps in two steps (1/4 each)
    assert series[5] == Fraction(1, 32)


def test_float_series_matches_exact_prefix():
    exact = O.delta_series_exact(3, 300)
    floats = O.delta_series_float(3, 300)
    for a, b in zip(exact, floats):
        assert b == pytest.approx(float(a), rel=1e-13, abs=0.0)


def test_unfolding_and_dp_agree_on_stateful_models():
    for name in ("ab.ppda", "tree.ppda", "twostate.ppda"):
        m = model(name)
        system = O.System(m)
        unfolded = O.unfold_exact(m, m.start, 10)
        dp = system.mass_dp(10)
        for q, masses in unfolded.items():
            row = dp[system.var(m.start[0], m.start[1], q)]
            assert [float(x) for x in masses] == pytest.approx(list(row), rel=1e-13, abs=0.0)


def test_unfolding_ab_first_steps_by_hand():
    # p X -> q at step 1 (2/5); p X -> q X X -> p X -> q at step 3 (3/5 2/5 2/5);
    # two stacked symbols cannot both empty by step 2
    m = model("ab.ppda")
    out = O.unfold_exact(m, m.start, 3)
    assert out["q"][:4] == [0, Fraction(2, 5), 0, Fraction(3, 5) * Fraction(2, 5) * Fraction(2, 5)]
    assert out["p"] == [0, 0, 0, 0]


def test_transform_expected_ab_by_hand():
    m = model("ab.ppda")
    system = O.System(m)
    v, _, _ = system.kleene()
    rules = O.transform_expected(m, v, system)
    # [pXq] = 2/3, divergence 1/3: p.X.q -> eps 3/5, -> q.X.p p.X.q 2/5;
    # p.X.up -> q.X.p p.X.up 2/5, -> q.X.up 3/5
    assert rules[("p.X.q", ())] == pytest.approx(0.6, abs=1e-14)
    assert rules[("p.X.q", ("q.X.p", "p.X.q"))] == pytest.approx(0.4, abs=1e-14)
    assert rules[("p.X.up", ("q.X.p", "p.X.up"))] == pytest.approx(0.4, abs=1e-14)
    assert rules[("p.X.up", ("q.X.up",))] == pytest.approx(0.6, abs=1e-14)
    assert len(rules) == 8


def test_generator_is_seeded_and_normalised():
    text = gen.random_pda(3, 5, 7)
    assert text == gen.random_pda(3, 5, 7) and text != gen.random_pda(3, 5, 8)
    m = O.parse_text(text)
    assert len(m.rules) == 3 * 3 * 5
    rows = {}
    for p, X, _, word, prob in m.rules:
        rows.setdefault((p, X), []).append((len(word), prob))
    for row in rows.values():
        assert sorted(n for n, _ in row) == [0, 1, 2]
        assert sum(p for _, p in row) == 1
        assert all(p.denominator <= 15 for _, p in row)


def test_blocking_models_have_the_stated_values():
    for name, expected in (("blocking_one_state.ppda", {"u.S.u": 1.0}),
                           ("blocking_two_state.ppda", {"p.X.p": 0.5, "p.X.q": 0.5,
                                                        "q.X.p": 0.5, "q.X.q": 0.5})):
        m = O.parse_text((BENCH / "models" / name).read_text(encoding="utf-8"))
        system = O.System(m)
        v = np.array([expected.get(t, 0.0) for t in system.names])
        assert np.max(np.abs(system.apply(v) - v)) == 0.0  # an exact fixed point
        low, _, _ = system.kleene(max_iter=20_000)  # and the least one: Kleene creeps up to it
        assert np.all(low <= v) and np.max(v - low) < 1e-3
        assert math.isinf(system.first_moments(v)[system.names.index(next(iter(expected)))])
