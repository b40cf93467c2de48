from fractions import Fraction

import pytest
from hypothesis import given, settings

from ppda import (
    Configuration,
    dependence,
    exact_distribution_word,
    make_bpa,
    termination_probs,
    to_bpa,
)

from conftest import load_model
from helpers import (
    acyclic_bpas,
    brute_total_mass,
    closure,
    critical_chain,
    is_bounded_case,
    longest_scc_chain,
    p_min,
    random_pda,
    restrict_to_reachable,
    small_bpas,
    suffix_tail,
)


def test_dependence_delta1(delta1):
    info = dependence(delta1)
    assert info.sccs == (("X1",),)
    assert info.height == 1
    assert info.direct_edges["X1"] == {"X1"}
    assert info.on_cycle("X1")


def test_dependence_delta3_chain(delta3):
    info = dependence(delta3)
    assert info.height == 3
    assert len(info.sccs) == 3
    assert all(len(c) == 1 for c in info.sccs)
    # reverse topological: the eventually-erasing symbol closes first
    assert info.sccs[0] == ("X1",)
    assert info.reachable_from["X3"] == {"X1", "X2", "X3"}


def test_dependence_no_edges():
    m = make_bpa([(("X",), Fraction(1))])
    info = dependence(m)
    assert info.sccs == (("X",),)
    assert info.height == 1
    assert not info.on_cycle("X")


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_height_matches_family_depth(h):
    m = critical_chain(h)
    assert dependence(m).height == h
    if h <= 4:
        bundled = load_model(f"delta{h}.bpa")
        assert bundled.rules == m.rules


def test_restrict_delta3_to_bottom(delta3):
    sub = restrict_to_reachable(delta3, "X1")
    assert sub.alphabet == ("X1",)
    assert len(sub.rules) == 2


def test_restrict_keeps_full_model_when_start_reaches_all(delta3):
    sub = restrict_to_reachable(delta3, "X3")
    assert sub.alphabet == delta3.alphabet
    assert sub.rules == delta3.rules


def test_restrict_drops_disjoint_component():
    m = make_bpa([(("X",), Fraction(1)), (("Y", "Y", "Y"), Fraction(1, 2)),
                  (("Y",), Fraction(1, 2))])
    sub = restrict_to_reachable(m, "X")
    assert sub.alphabet == ("X",)


def test_p_min_values(delta1):
    assert p_min(delta1) == 0.5
    assert p_min(make_bpa([(("X",), Fraction(1))])) == 1.0


def test_p_min_ab_grid_value():
    a, b = Fraction(3, 5), Fraction(11, 20)
    from ppda.model import Pda, Rule
    rules = (
        Rule("p", "X", "q", ("X", "X"), a),
        Rule("p", "X", "q", (), 1 - a),
        Rule("q", "X", "p", ("X", "X"), b),
        Rule("q", "X", "p", (), 1 - b),
    )
    m = Pda(("p", "q"), ("X",), rules, kind="pda")
    assert p_min(m) == 0.4


def test_p_min_honors_restriction(delta3):
    wider = make_bpa(
        [((s,) + r.rhs_word, r.prob) for s, r in
         ((r.lhs_symbol, r) for r in delta3.rules)]
        + [(("Z",), Fraction(1, 100)), (("Z", "Z"), Fraction(99, 100))],
    )
    assert p_min(wider) == pytest.approx(0.01)
    assert p_min(wider, start="X3") == pytest.approx(0.5)


def test_bounded_case_examples(delta1):
    assert dependence(make_bpa([(("X",), Fraction(1))])).bounded("X")
    assert not dependence(delta1).bounded("X1")
    two_step = make_bpa([(("X", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
                         (("Y",), Fraction(1))])
    assert dependence(two_step).bounded("X")


@given(acyclic_bpas())
@settings(max_examples=40, deadline=None)
def test_acyclic_models_have_no_mass_beyond_horizon(model):
    assert dependence(model).bounded(model.alphabet[0])
    horizon = 2 ** len(model.alphabet)
    mass = brute_total_mass(model, Configuration("_", (model.alphabet[0],)), horizon + 4)
    assert sum(mass) == 1  # exact rationals: everything terminated
    assert all(m == 0 for m in mass[horizon:])


def test_cyclic_terminating_model_has_unbounded_support(delta1):
    # pumping: some mass sits beyond any horizon, at least p_min^n of it
    assert termination_probs(delta1).symbol_prob(delta1, "X1") == 1.0
    assert not dependence(delta1).bounded("X1")
    n = 2 ** len(delta1.alphabet)
    dist = exact_distribution_word(delta1, ("X1",), 64)
    assert suffix_tail(dist, n) >= 0.5 ** n


def test_every_symbol_in_exactly_one_scc(tree, ab, delta3):
    from ppda import termination_probs, to_bpa

    for pda_model in (tree, ab):
        part = to_bpa(pda_model, termination_probs(pda_model)).part
        info = dependence(part)
        seen = [s for comp in info.sccs for s in comp]
        assert sorted(seen) == sorted(part.alphabet)
        for i, j in info.scc_dag_edges:
            assert i != j


def assert_matches_oracles(model):
    info = dependence(model)
    edges = {x: set(ys) for x, ys in info.direct_edges.items()}
    for sym in model.alphabet:
        assert info.reachable_from[sym] == closure(sym, edges)
    assert info.height == longest_scc_chain(edges)
    # members of one SCC share one reach set object
    for comp in info.sccs:
        assert len({id(info.reachable_from[s]) for s in comp}) == 1
    return info


@given(small_bpas(max_symbols=4))
@settings(max_examples=80, deadline=None)
def test_reach_sets_and_height_match_oracles(model):
    assert_matches_oracles(model)


def transformed_random_part():
    pda = random_pda(2, 6, seed=2)
    return to_bpa(pda, termination_probs(pda)).part


def test_reach_sets_and_height_on_transformed_random_model():
    info = assert_matches_oracles(transformed_random_part())
    singletons = [c[0] for c in info.sccs if len(c) == 1]
    assert sum(len(c) > 1 for c in info.sccs) >= 3
    assert any(s in info.direct_edges[s] for s in singletons)
    assert any(s not in info.direct_edges[s] for s in singletons)
    assert info.height >= 5


def test_restricted_info_matches_recomputed(delta3):
    for model in (transformed_random_part(), delta3):
        full = dependence(model)
        for start in model.alphabet:
            sub = restrict_to_reachable(model, start)
            fresh = dependence(sub)
            assert full.scc_height[full.scc_of[start]] == fresh.height
            assert full.bounded(start) == fresh.bounded(start) == is_bounded_case(model, start)
