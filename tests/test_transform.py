import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ppda import (
    Configuration,
    cone_vector,
    dependence,
    exact_distribution_bpa,
    exact_distribution_pda,
    exact_distribution_word,
    make_bpa,
    make_u_progressive,
    moment_matrix,
    parse_model,
    simulate_heads,
    terminating_part,
    termination_probs,
    to_bpa,
    validate,
)
from ppda.model import Pda, Rule
from ppda.moments import rule_weight_change
from ppda.transform import TransformError

from conftest import load_model
from helpers import (
    CRITICAL_PDAS,
    chained_critical,
    is_almost_surely_terminating,
    small_bpas,
    small_pdas,
    symmetric_pair,
    to_bpa_loop,
)


def rules_as_set(model):
    return {
        (r.lhs_symbol, r.rhs_word, round(float(r.prob), 12)) for r in model.rules
    }


def test_ab_transform_matches_listed_rules(ab):
    table = termination_probs(ab)
    result = to_bpa(ab, table)
    a = b = 0.6
    expected = {
        ("p.X.q", ("q.X.p", "p.X.q"), round(1 - b, 12)),
        ("p.X.q", (), round(b, 12)),
        ("q.X.p", ("p.X.q", "q.X.p"), round(1 - a, 12)),
        ("q.X.p", (), round(a, 12)),
        ("p.X.up", ("q.X.p", "p.X.up"), round(1 - b, 12)),
        ("p.X.up", ("q.X.up",), round(b, 12)),
        ("q.X.up", ("p.X.q", "q.X.up"), round(1 - a, 12)),
        ("q.X.up", ("p.X.up",), round(a, 12)),
    }
    assert rules_as_set(result.bpa) == expected
    assert validate(result.bpa) == []


# u.S0.up steps to the diverging heads u.S1.up and v.S0.up, which come in a
# different order by state than by symbol
TWO_HEADS = parse_model(
    "pda\nstates: u v\nalphabet: S0 S1\n"
    "rule: u S0 -> u S1 S1 : 1/2\nrule: u S0 -> v S0 S0 : 1/2\n"
    "rule: u S1 -> u S1 S1 : 3/4\nrule: u S1 -> u : 1/4\n"
    "rule: v S0 -> v S0 S0 : 3/4\nrule: v S0 -> v : 1/4\nrule: v S1 -> v : 1\n"
)


@given(st.one_of(small_pdas(), small_pdas(max_states=3, max_symbols=3)))
@settings(max_examples=60, deadline=None)
@example(load_model("ab.ppda"))  # diverging mass
@example(TWO_HEADS)
@example(CRITICAL_PDAS["one_state"])
@example(CRITICAL_PDAS["symmetric"])
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_to_bpa_matches_rule_loop(model):
    """The rules read off the compiled monomials are the loop's, in its order."""
    model = dataclasses.replace(model, start=Configuration(model.states[-1],
                                                           (model.alphabet[-1],)))
    table = termination_probs(model, strict=False)
    try:
        expected = to_bpa_loop(model, table)
    except TransformError:
        with pytest.raises(TransformError):
            to_bpa(model, table)
        return
    bpa = to_bpa(model, table).bpa
    assert bpa.rules == expected.rules
    assert bpa.alphabet == expected.alphabet
    assert bpa.start == expected.start


def test_one_rule_pda_transform():
    m = Pda(("p",), ("X",), (Rule("p", "X", "p", (), Fraction(1)),), kind="pda")
    result = to_bpa(m, termination_probs(m))
    assert result.bpa.alphabet == ("p.X.p",)
    assert rules_as_set(result.bpa) == {("p.X.p", (), 1.0)}


def test_transform_row_sums(tree, twostate):
    for model in (tree, twostate):
        result = to_bpa(model, termination_probs(model))
        for (_, sym), row in result.bpa.rules_by_pair.items():
            assert float(sum(r.prob for r in row)) == pytest.approx(1.0, abs=1e-9)


def test_terminating_part_is_clean_and_certain(tree, ab, twostate):
    for model in (tree, ab, twostate):
        result = to_bpa(model, termination_probs(model))
        part = terminating_part(result)
        assert all(not result.symbols[s].diverging for s in part.alphabet)
        for rule in part.rules:
            for sym in rule.rhs_word:
                assert not result.symbols[sym].diverging
        t = termination_probs(part)
        assert is_almost_surely_terminating(part, t)


def test_terminating_part_sizes(tree, ab):
    tree_part = terminating_part(to_bpa(tree, termination_probs(tree)))
    assert len(tree_part.alphabet) == 10
    ab_part = terminating_part(to_bpa(ab, termination_probs(ab)))
    assert sorted(ab_part.alphabet) == ["p.X.q", "q.X.p"]
    assert len(ab_part.rules) == 4


def test_transform_omits_all_zero_triples():
    grow = make_bpa([(("X", "X", "X"), Fraction(1))])
    result = to_bpa(grow, termination_probs(grow))
    assert result.bpa.alphabet == ("_.X.up",)
    assert terminating_part(result).alphabet == ()


def test_distribution_equality_all_positive_triples(tree, ab, twostate):
    """Conditioned stateful mass equals the triple symbol's stateless mass."""
    for model in (tree, ab, twostate):
        table = termination_probs(model)
        result = to_bpa(model, table)
        part = terminating_part(result)
        for name in part.alphabet:
            trip = result.symbols[name]
            norm = table.probs[trip]
            pda_mass = exact_distribution_pda(model, trip, 30, norm=norm).mass / norm
            bpa_mass = exact_distribution_bpa(part, name, 30).mass
            assert np.max(np.abs(pda_mass - bpa_mass)) <= 1e-9


@pytest.mark.slow
def test_projection_head_pairs_small(ab):
    """Heads of diverging runs line up with the transformed chain's heads."""
    table = termination_probs(ab)
    result = to_bpa(ab, table)
    samples, horizon = 20_000, 8
    orig, kept = simulate_heads(
        ab, Configuration("p", ("X",)), samples=samples, horizon=horizon,
        seed=5, divergence_cap=400,
    )
    image, total = simulate_heads(
        result.bpa, Configuration("_", ("p.X.up",)), samples=samples,
        horizon=horizon, seed=6,
    )
    assert total == samples
    for k in range(horizon):
        mapped = {}
        for (_, sym), cnt in image[k].items():
            trip = result.symbols[sym]
            key = (trip.state, trip.symbol)
            mapped[key] = mapped.get(key, 0) + cnt
        for pair in set(orig[k]) | set(mapped):
            p1 = orig[k].get(pair, 0) / kept
            p2 = mapped.get(pair, 0) / total
            se = math.sqrt(p1 * (1 - p1) / kept + p2 * (1 - p2) / total)
            assert abs(p1 - p2) <= 4 * max(se, 1e-4), (k, pair, p1, p2)


@given(small_pdas())
@settings(max_examples=30, deadline=None)
@example(CRITICAL_PDAS["one_state"])
@example(CRITICAL_PDAS["symmetric"])
@example(CRITICAL_PDAS["with_bystander"])
def test_distribution_equality_random_models(model):
    """Transform preserves conditional laws on arbitrary small models."""
    table = termination_probs(model, strict=False)
    assume(table.converged and table.residual <= 1e-11)
    result = to_bpa(model, table)
    part = terminating_part(result)
    for name in part.alphabet:
        trip = result.symbols[name]
        norm = table.probs[trip]
        if norm < 1e-2:  # conditioning amplifies solver noise below this
            continue
        conditional = exact_distribution_pda(model, trip, 12, norm=norm).mass / norm
        stateless = exact_distribution_bpa(part, name, 12).mass
        assert np.max(np.abs(conditional - stateless)) <= 1e-9


@pytest.mark.slow
def test_projection_head_pairs_randomized_control():
    """Same head-pair comparison on a model whose head law is nondegenerate.

    The ping-pong example has deterministic state parity; this mix lets the
    control state wander, so agreement is a real statistical statement.
    """
    text = (
        "pda\nstates: p q\nalphabet: X\nstart: p X\n"
        "rule: p X -> p X X : 7/20\n"
        "rule: p X -> q X X : 7/20\n"
        "rule: p X -> p : 3/10\n"
        "rule: q X -> q X X : 7/20\n"
        "rule: q X -> p X X : 1/4\n"
        "rule: q X -> q : 2/5\n"
    )
    from ppda import parse_model

    model = parse_model(text)
    table = termination_probs(model)
    d = table.diverge("p", "X")
    assert 0.05 < d < 0.95
    result = to_bpa(model, table)

    samples, horizon = 30_000, 10
    orig, kept = simulate_heads(model, Configuration("p", ("X",)), samples=samples,
                                horizon=horizon, seed=314, divergence_cap=400)
    image, total = simulate_heads(result.bpa, Configuration("_", ("p.X.up",)),
                                  samples=samples, horizon=horizon, seed=315)
    degenerate = True
    for k in range(horizon):
        mapped = {}
        for (_, sym), cnt in image[k].items():
            trip = result.symbols[sym]
            key = (trip.state, trip.symbol)
            mapped[key] = mapped.get(key, 0) + cnt
        if len(mapped) > 1:
            degenerate = False
        for pair in set(orig[k]) | set(mapped):
            p1 = orig[k].get(pair, 0) / kept
            p2 = mapped.get(pair, 0) / total
            se = math.sqrt(p1 * (1 - p1) / kept + p2 * (1 - p2) / total)
            assert abs(p1 - p2) <= 4 * max(se, 1e-4), (k, pair, p1, p2)
    assert not degenerate


def test_cone_vector_examples(delta1, delta2):
    assert cone_vector(delta1) == {"X1": 1.0}

    quarter = make_bpa([(("X",), Fraction(3, 4)), (("X", "X", "X"), Fraction(1, 4))])
    u = cone_vector(quarter)
    assert u == {"X": 1.0}
    mm = moment_matrix(quarter)
    assert mm.A[0, 0] == pytest.approx(0.5)

    u2 = cone_vector(delta2)
    mm2 = moment_matrix(delta2)
    deps = mm2.deps
    for i, comp in enumerate(deps.sccs):
        rows = [delta2.symbol_index[s] for s in comp]
        block = mm2.A[np.ix_(rows, rows)]
        vec = np.array([u2[s] for s in comp])
        assert np.all(block @ vec <= vec + 1e-9)


def test_cone_vector_ratio_bound(tree, ab, delta3):
    for model in (
        terminating_part(to_bpa(tree, termination_probs(tree))),
        terminating_part(to_bpa(ab, termination_probs(ab))),
        delta3,
    ):
        u = cone_vector(model)
        assert all(v > 0 for v in u.values())
        assert max(u.values()) == pytest.approx(1.0)
        pmin = float(model.p_min())
        ratio = min(u.values()) / max(u.values())
        assert ratio >= pmin ** len(model.alphabet) - 1e-9


def test_cone_vector_rejects_supercritical():
    bad = make_bpa([(("X", "X", "X"), Fraction(7, 10)), (("X",), Fraction(3, 10))])
    with pytest.raises(TransformError):
        cone_vector(bad)


def progressive_posts(model, prog, u):
    u_min = min(u.values())
    for sym in prog.alphabet:
        rules = prog.rules_for(prog.only_state, sym)
        assert any(abs(rule_weight_change(r, u)) >= u_min / 2 - 1e-12 for r in rules), sym
    assert float(prog.p_min()) >= float(model.p_min()) ** len(model.alphabet) - 1e-12
    assert validate(prog) == []

    deps = dependence(prog)
    A = moment_matrix(prog).A
    A0 = moment_matrix(model).A
    uvec = np.array([u[s] for s in prog.alphabet])
    for comp in deps.sccs:
        rows = [prog.symbol_index[s] for s in comp]
        block = A[np.ix_(rows, rows)]
        vec = np.array([u[s] for s in comp])
        assert np.all(block @ vec <= vec + 1e-9)
    # global preservation: A u = u carries over to the rebuilt rules
    if np.allclose(A0 @ uvec, uvec, atol=1e-12):
        assert np.allclose(A @ uvec, uvec, atol=1e-9)


def test_progressive_short_circuits_on_margin(delta1):
    u = cone_vector(delta1)
    prog = make_u_progressive(delta1, u)
    assert rules_as_set(prog) == rules_as_set(delta1)
    progressive_posts(delta1, prog, u)

    sym = symmetric_pair()
    us = cone_vector(sym)
    assert rules_as_set(make_u_progressive(sym, us)) == rules_as_set(sym)


def test_progressive_contracts_weight_neutral_symbol():
    model = chained_critical()
    u = cone_vector(model)
    assert u == {"X": 1.0, "Y": 1.0}
    prog = make_u_progressive(model, u)
    assert prog.kind == "relaxed-bpa"
    progressive_posts(model, prog, u)
    assert rules_as_set(prog) != rules_as_set(model)


def test_progressive_speed_sandwich():
    # tails at a <= 40 are far above float noise, so forward tails are exact
    for model in (chained_critical(), symmetric_pair()):
        u = cone_vector(model)
        prog = make_u_progressive(model, u)
        gamma = len(model.alphabet)
        for word in [(model.alphabet[0],), tuple(model.alphabet)]:
            base = exact_distribution_word(model, word, 90)
            fast = exact_distribution_word(prog, word, 90)
            for a in range(1, 41):
                lo = 1.0 - float(np.sum(fast.mass[:a]))
                mid = 1.0 - float(np.sum(base.mass[:a]))
                hi = 1.0 - float(np.sum(fast.mass[: math.ceil(a / gamma)]))
                assert lo <= mid + 1e-12
                assert mid <= hi + 1e-12


@given(small_bpas(max_symbols=3))
@settings(max_examples=30, deadline=None)
def test_progressive_posts_random_models(model):
    from ppda import termination_probs as solve

    table = solve(model, strict=False)
    assume(table.converged)
    assume(is_almost_surely_terminating(model, table))
    try:
        u = cone_vector(model)
    except TransformError:
        assume(False)
    prog = make_u_progressive(model, u)
    progressive_posts(model, prog, u)
    base = exact_distribution_word(model, (model.alphabet[0],), 40)
    fast = exact_distribution_word(prog, (model.alphabet[0],), 40)
    gamma = len(model.alphabet)
    for a in range(1, 21):
        lo = 1.0 - float(np.sum(fast.mass[:a]))
        mid = 1.0 - float(np.sum(base.mass[:a]))
        hi = 1.0 - float(np.sum(fast.mass[: math.ceil(a / gamma)]))
        assert lo <= mid + 1e-9 and mid <= hi + 1e-9


def test_progressive_rejects_nonterminating():
    # weight-neutral two-cycle: no margin rule and no derivation to empty
    loop = make_bpa([(("X", "Y"), Fraction(1)), (("Y", "X"), Fraction(1))])
    with pytest.raises(TransformError):
        make_u_progressive(loop, {"X": 1.0, "Y": 1.0})
