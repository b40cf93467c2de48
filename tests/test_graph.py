import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppda import (
    Configuration,
    classify,
    dependence,
    exact_distribution_word,
    make_bpa,
    termination_probs,
    to_bpa,
)
from ppda.graph import _reached
from ppda.model import Pda, Rule

from conftest import load_model
from helpers import (
    acyclic_bpas,
    brute_total_mass,
    closure,
    critical_chain,
    dependence_names,
    is_bounded_case,
    longest_scc_chain,
    p_min,
    random_pda,
    relaxed_bpas,
    restrict_to_reachable,
    small_bpas,
    suffix_tail,
)


def test_dependence_delta1(delta1):
    info = dependence(delta1)
    assert info.sccs == (("X1",),)
    assert info.scc_height == (1,)
    assert info.scc_successors == ((),)
    assert info.scc_cyclic == (True,)  # X1 depends on itself


def test_dependence_delta3_chain(delta3):
    info = dependence(delta3)
    # reverse topological: the eventually-erasing symbol closes first, and
    # each symbol depends on itself and the one below
    assert info.sccs == (("X1",), ("X2",), ("X3",))
    assert info.scc_of.tolist() == [0, 1, 2]
    assert info.scc_successors == ((), (0,), (1,))
    assert info.scc_height == (1, 2, 3)
    assert info.scc_cyclic == (True, True, True)
    assert _reached(info, 2) == {0, 1, 2}


def test_dependence_no_edges():
    m = make_bpa([(("X",), Fraction(1))])
    info = dependence(m)
    assert info.sccs == (("X",),)
    assert info.scc_height == (1,)
    assert info.scc_cyclic == (False,)


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_height_matches_family_depth(h):
    m = critical_chain(h)
    assert max(dependence(m).scc_height) == h
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
    single = make_bpa([(("X",), Fraction(1))])
    two_step = make_bpa([(("X", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
                         (("Y",), Fraction(1))])
    for model, start, bounded in ((single, "X", True), (delta1, "X1", False),
                                  (two_step, "X", True)):
        assert is_bounded_case(model, start) == bounded
        assert (classify(model, start).case == 1) == bounded


@given(acyclic_bpas())
@settings(max_examples=40, deadline=None)
def test_acyclic_models_have_no_mass_beyond_horizon(model):
    assert is_bounded_case(model, model.alphabet[0])
    assert classify(model, model.alphabet[0]).case == 1
    horizon = 2 ** len(model.alphabet)
    mass = brute_total_mass(model, Configuration("_", (model.alphabet[0],)), horizon + 4)
    assert sum(mass) == 1  # exact rationals: everything terminated
    assert all(m == 0 for m in mass[horizon:])


def test_cyclic_terminating_model_has_unbounded_support(delta1):
    # pumping: some mass sits beyond any horizon, at least p_min^n of it
    assert termination_probs(delta1).symbol_prob(delta1, "X1") == 1.0
    assert classify(delta1, "X1").case == 3
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
        for i, js in enumerate(info.scc_successors):
            assert all(j < i for j in js)  # callees first, no loop


def assert_matches_oracles(model):
    """``dependence`` against the name-set condensation and the reach oracles."""
    info, names = dependence(model), dependence_names(model)
    assert info.sccs == names.sccs  # order and members
    assert [info.sccs[i] for i in info.scc_of.tolist()] == [
        names.sccs[names.scc_of[sym]] for sym in model.alphabet]
    assert [set(js) for js in info.scc_successors] == [set(js) for js in names.scc_successors]
    assert info.scc_height == names.scc_height
    assert info.scc_cyclic == tuple(names.on_cycle(comp[0]) for comp in names.sccs)
    edges = {x: set(ys) for x, ys in names.direct_edges.items()}
    assert max(info.scc_height) == longest_scc_chain(edges)
    for k, sym in enumerate(model.alphabet):
        below = _reached(info, int(info.scc_of[k]))
        assert sum(len(info.sccs[i]) for i in below) == len(closure(sym, edges) | {sym})
        assert (not any(info.scc_cyclic[i] for i in below)) == is_bounded_case(model, sym)
    return info


@given(small_bpas(max_symbols=4))
@settings(max_examples=80, deadline=None)
def test_reach_sets_and_height_match_oracles(model):
    assert_matches_oracles(model)


@given(small_bpas(max_symbols=4), st.data())
@settings(max_examples=80, deadline=None)
def test_condensation_matches_oracles_under_renaming(model, data):
    # successors are visited in name order, which here differs from index order
    names = data.draw(st.permutations(model.alphabet))
    to = dict(zip(model.alphabet, names))
    assert_matches_oracles(Pda(model.states, tuple(names), tuple(
        Rule(r.lhs_state, to[r.lhs_symbol], r.rhs_state, tuple(to[y] for y in r.rhs_word), r.prob)
        for r in model.rules), kind=model.kind))


@given(relaxed_bpas())
@settings(max_examples=60, deadline=None)
def test_condensation_matches_oracles_relaxed(model):
    assert_matches_oracles(model)


@given(acyclic_bpas())
@settings(max_examples=40, deadline=None)
def test_condensation_matches_oracles_acyclic(model):
    assert_matches_oracles(model)


def transformed_random_part():
    pda = random_pda(2, 6, seed=2)
    return to_bpa(pda, termination_probs(pda)).part


def test_reach_sets_and_height_on_transformed_random_model():
    info = assert_matches_oracles(transformed_random_part())
    singletons = [i for i, c in enumerate(info.sccs) if len(c) == 1]
    assert sum(len(c) > 1 for c in info.sccs) >= 3
    assert any(info.scc_cyclic[i] for i in singletons)
    assert not all(info.scc_cyclic[i] for i in singletons)
    assert max(info.scc_height) >= 5


def test_restricted_info_matches_recomputed(delta3):
    for model in (transformed_random_part(), delta3):
        full = dependence(model)
        for k, start in enumerate(model.alphabet):
            fresh = dependence(restrict_to_reachable(model, start))
            i = int(full.scc_of[k])
            assert full.scc_height[i] == max(fresh.scc_height)
            bounded = not any(full.scc_cyclic[j] for j in _reached(full, i))
            assert bounded == (not any(fresh.scc_cyclic)) == is_bounded_case(model, start)


def deep_chain(n: int):
    """X_i -> X_(i-1) X_(i-1) and X_i -> eps, each 1/2, above X_0 -> eps."""
    rules = [(("X0",), Fraction(1))]
    for i in range(1, n):
        rules += [((f"X{i}", f"X{i - 1}", f"X{i - 1}"), Fraction(1, 2)),
                  ((f"X{i}",), Fraction(1, 2))]
    return make_bpa(rules)


def test_dependence_scales_on_a_deep_chain():
    # a reach set per symbol made this quadratic: 1.9 s and 665 MB at 4,000
    model = deep_chain(4000)
    model.rule_arrays
    began = time.perf_counter()
    info = dependence(model)
    assert time.perf_counter() - began < 0.25
    assert info.scc_height == tuple(range(1, 4001))
    # linear in symbols and edges: per SCC one member and one successor
    assert all(len(c) == 1 for c in info.sccs)
    assert sum(map(len, info.scc_successors)) == 3999
    assert len(info.scc_of) == 4000 and not any(info.scc_cyclic)
    assert vars(info).keys() == {"sccs", "scc_of", "scc_successors", "scc_height",
                                 "scc_cyclic"}
