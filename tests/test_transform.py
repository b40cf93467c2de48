import copy
import dataclasses
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ppda import (
    Configuration,
    dependence,
    exact_distribution_pda,
    exact_distribution_word,
    make_bpa,
    moment_matrix,
    parse_model,
    serialize,
    simulate,
    simulate_heads,
    termination_probs,
    to_bpa,
    validate,
)
from ppda.model import BPA_STATE, Pda, Rule, start_problems
from ppda.transform import TransformError

from appendix import cone_vector, make_u_progressive, rule_weight_change
from conftest import load_model
from helpers import (
    CRITICAL_PDAS,
    chained_critical,
    is_almost_surely_terminating,
    p_min,
    perfbench_gen,
    random_pda,
    rules_by_pair,
    rules_for,
    serialize_loop,
    small_bpas,
    small_pdas,
    solve_unchecked,
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
# p.X.up -> p.X.up sums 1/10 and 1/5 exactly: 0.3, where the doubles give
# 0.30000000000000004
@example(parse_model("pda\nstates: p\nalphabet: X Y\n"
                     "rule: p X -> p X : 1/10\nrule: p X -> p X X : 1/5\n"
                     "rule: p X -> p Y Y : 7/10\nrule: p Y -> p Y Y : 1\n"))
def test_to_bpa_matches_rule_loop(model):
    """The rules read off the compiled monomials are the loop's, in its order."""
    model = dataclasses.replace(model, start=Configuration(model.states[-1],
                                                           (model.alphabet[-1],)))
    table = solve_unchecked(model)
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


def test_transformed_model_is_read_without_decoding_its_rules():
    """The start check, both walkers and a second transform read only the
    arrays of a model built from them: no ``Rule`` is decoded."""
    model = load_model("ab.ppda")
    bpa = to_bpa(model, termination_probs(model)).bpa
    start = Configuration(BPA_STATE, ("p.X.up",))
    assert start_problems(bpa, start) == []
    assert simulate(bpa, start, 50, step_cap=40, seed=3).samples == 50
    simulate_heads(bpa, start, 50, horizon=8, seed=3)
    again = to_bpa(bpa, termination_probs(bpa)).bpa
    assert "rules" not in bpa.__dict__
    assert "rules" not in again.__dict__


def test_one_rule_pda_transform():
    m = Pda(("p",), ("X",), (Rule("p", "X", "p", (), Fraction(1)),), kind="pda")
    result = to_bpa(m, termination_probs(m))
    assert result.bpa.alphabet == ("p.X.p",)
    assert rules_as_set(result.bpa) == {("p.X.p", (), 1.0)}


def test_transform_row_sums(tree, twostate):
    for model in (tree, twostate):
        result = to_bpa(model, termination_probs(model))
        for (_, sym), row in rules_by_pair(result.bpa).items():
            assert float(sum(r.prob for r in row)) == pytest.approx(1.0, abs=1e-9)


def test_to_bpa_rejects_a_row_that_misses_one(ab):
    table = termination_probs(ab)
    values = table.values.copy()
    values[ab.state_index["p"], ab.symbol_index["X"], ab.state_index["q"]] += 1e-6
    with pytest.raises(TransformError, match="row for .* sums to"):
        to_bpa(ab, dataclasses.replace(table, values=values))


def test_terminating_part_is_clean_and_certain(tree, ab, twostate):
    for model in (tree, ab, twostate):
        result = to_bpa(model, termination_probs(model))
        part = result.part
        assert all(not result.symbols[s].diverging for s in part.alphabet)
        for rule in part.rules:
            for sym in rule.rhs_word:
                assert not result.symbols[sym].diverging
        t = termination_probs(part)
        assert is_almost_surely_terminating(part, t)


def test_terminating_part_sizes(tree, ab):
    tree_part = to_bpa(tree, termination_probs(tree)).part
    assert len(tree_part.alphabet) == 10
    ab_part = to_bpa(ab, termination_probs(ab)).part
    assert sorted(ab_part.alphabet) == ["p.X.q", "q.X.p"]
    assert len(ab_part.rules) == 4


def test_transform_omits_all_zero_triples():
    grow = make_bpa([(("X", "X", "X"), Fraction(1))], start="X")
    result = to_bpa(grow, termination_probs(grow))
    assert result.bpa.alphabet == ("_.X.up",)
    # every pair diverges: the part is the empty model, and behaves as a parsed one
    part = result.part
    assert part == Pda((BPA_STATE,), (), (), kind="bpa")
    assert hash(part) == hash(Pda((BPA_STATE,), (), (), kind="bpa"))
    assert validate(part) == []
    assert serialize(part) == serialize_loop(part) == "bpa\nalphabet: \n"
    assert pickle.loads(pickle.dumps(part)) == part


@pytest.mark.parametrize("name", ["ab", "tree", "twostate", "random_4_20", "random_6_20"])
def test_serialize_writes_the_result_as_its_bpa(name):
    """The stateless model and its part, written from their arrays, are the
    bytes of a loop over their decoded Rules, on dense solves and, past 512
    variables (random (6, 20)), GMRES ones."""
    if name.startswith("random"):
        n_states, n_symbols = map(int, name.split("_")[1:])
        model = random_pda(n_states, n_symbols, seed=1)
    else:
        model = load_model(f"{name}.ppda")
    result = to_bpa(model, termination_probs(model))
    for stateless in (result.bpa, result.part):
        text = serialize(stateless)
        assert "rules" not in vars(stateless)  # written without decoding a Rule
        assert text == serialize_loop(stateless)
        assert text.count("\nrule: ") == len(stateless.rule_arrays.prob) == len(stateless.rules)


def traced_peak(call) -> int:
    """The peak of the memory traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serialize_to_a_file_never_holds_the_text(tmp_path):
    # random (6, 30) seed 1002 of the benchmark's generator: 7,740 rules, 8 chunks
    model = parse_model(perfbench_gen().random_pda(6, 30, 1002))
    bpa = to_bpa(model, termination_probs(model)).bpa
    length = len(serialize(bpa))
    assert len(bpa.rule_arrays.prob) == 7740
    with open(tmp_path / "out.bpa", "w", encoding="utf-8") as out:
        assert traced_peak(lambda: serialize(bpa, out)) < length / 4
    assert (tmp_path / "out.bpa").stat().st_size == length
    assert traced_peak(lambda: serialize(bpa)) > length


@given(st.one_of(small_pdas(), small_pdas(max_states=3, max_symbols=3)))
@settings(max_examples=60, deadline=None)
@example(load_model("ab.ppda"))
@example(TWO_HEADS)
@example(CRITICAL_PDAS["with_bystander"])
@example(make_bpa([(("X", "X", "X"), Fraction(1))]))  # the part is empty: 'alphabet: '
def test_serialized_result_parses_back_to_its_bpa(model):
    model = dataclasses.replace(model, start=Configuration(model.states[0],
                                                           (model.alphabet[0],)))
    try:
        result = to_bpa(model, solve_unchecked(model))
    except TransformError:
        return
    for stateless in (result.bpa, result.part):
        text = serialize(stateless)
        assert text == serialize_loop(stateless)
        parsed = parse_model(text)
        assert parsed == stateless and hash(parsed) == hash(stateless)
        assert repr(parsed) == repr(stateless)
        # the probabilities are the doubles themselves, not roundings of them
        assert parsed.rule_arrays.prob.tolist() == stateless.rule_arrays.prob.tolist()


@pytest.mark.parametrize("name", ["ab", "twostate"])
def test_models_built_from_arrays_behave_as_parsed_ones(name):
    """Copies of a model built over the transform's arrays, made before and
    after its Rules are decoded, equal it; replacing a field gives a model
    with Rules, and the same arrays."""
    model = load_model(f"{name}.ppda")
    result = to_bpa(model, termination_probs(model))
    for stateless in (result.bpa, result.part):
        copies = [pickle.loads(pickle.dumps(stateless)), copy.deepcopy(stateless)]
        assert "rules" not in vars(stateless) and "rules" not in vars(copies[0])
        assert len(stateless.rules) == len(stateless.rule_arrays.prob)
        copies += [pickle.loads(pickle.dumps(stateless)), copy.deepcopy(stateless)]
        for clone in copies:
            assert clone == stateless and hash(clone) == hash(stateless)
            assert repr(clone) == repr(stateless)
        assert validate(stateless) == []
        moved = dataclasses.replace(stateless, start=None)
        assert moved == Pda(stateless.states, stateless.alphabet, stateless.rules, kind="bpa")
        # the arrays of its Rules are the ones it was built over, padding included
        for field in ("lhs_state", "lhs_symbol", "rhs_state", "length", "words", "prob"):
            assert np.array_equal(getattr(moved.rule_arrays, field),
                                  getattr(stateless.rule_arrays, field))


def test_distribution_equality_all_positive_triples(tree, ab, twostate):
    """Conditioned stateful mass equals the triple symbol's stateless mass."""
    for model in (tree, ab, twostate):
        table = termination_probs(model)
        result = to_bpa(model, table)
        part = result.part
        for name in part.alphabet:
            trip = result.symbols[name]
            norm = table.probs[trip]
            pda_mass = exact_distribution_pda(model, trip, 30, norm=norm).mass / norm
            bpa_mass = exact_distribution_word(part, (name,), 30).mass
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
    table = solve_unchecked(model)
    assume(table.converged and table.residual <= 1e-11)
    result = to_bpa(model, table)
    part = result.part
    for name in part.alphabet:
        trip = result.symbols[name]
        norm = table.probs[trip]
        if norm < 1e-2:  # conditioning amplifies solver noise below this
            continue
        conditional = exact_distribution_pda(model, trip, 12, norm=norm).mass / norm
        stateless = exact_distribution_word(part, (name,), 12).mass
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
        to_bpa(tree, termination_probs(tree)).part,
        to_bpa(ab, termination_probs(ab)).part,
        delta3,
    ):
        u = cone_vector(model)
        assert all(v > 0 for v in u.values())
        assert max(u.values()) == pytest.approx(1.0)
        pmin = p_min(model)
        ratio = min(u.values()) / max(u.values())
        assert ratio >= pmin ** len(model.alphabet) - 1e-9


def test_cone_vector_rejects_supercritical():
    bad = make_bpa([(("X", "X", "X"), Fraction(7, 10)), (("X",), Fraction(3, 10))])
    with pytest.raises(TransformError):
        cone_vector(bad)


def progressive_posts(model, prog, u):
    u_min = min(u.values())
    for sym in prog.alphabet:
        rules = rules_for(prog, prog.only_state, sym)
        assert any(abs(rule_weight_change(r, u)) >= u_min / 2 - 1e-12 for r in rules), sym
    assert p_min(prog) >= p_min(model) ** len(model.alphabet) - 1e-12
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


def test_progressive_merges_a_contracted_rule_into_its_twin():
    # Y owns no margin rule; contracting Y -> X with X's rules yields a second
    # Y -> Y, which joins the first: 1/3 + 2/3 * 4/9 = 17/27
    model = make_bpa([(("X", "Y"), Fraction(4, 9)), (("X", "X"), Fraction(1, 3)),
                      (("X",), Fraction(2, 9)), (("Y", "X"), Fraction(2, 3)),
                      (("Y", "Y"), Fraction(1, 3))], start="X")
    prog = make_u_progressive(model, cone_vector(model))
    assert [(r.lhs_symbol, r.rhs_word, r.prob) for r in prog.rules] == [
        ("X", ("Y",), Fraction(4, 9)), ("X", ("X",), Fraction(1, 3)), ("X", (), Fraction(2, 9)),
        ("Y", ("Y",), Fraction(17, 27)), ("Y", ("X",), Fraction(2, 9)),
        ("Y", (), Fraction(4, 27))]


def test_progressive_stops_short_of_a_neutral_erasing_rule():
    # u is all ones: X -> Z -> Y Y -> Y keeps X's weight, so the chain drops
    # its erasing rule and X -> Z is contracted into Z's two rules
    model = make_bpa([(("X", "Z"), Fraction(1)), (("Y",), Fraction(1)),
                      (("Z", "Z", "X"), Fraction(1, 2)), (("Z", "Y", "Y"), Fraction(1, 2))],
                     start="X")
    u = cone_vector(model)
    assert u == {"X": 1.0, "Y": 1.0, "Z": 1.0}
    prog = make_u_progressive(model, u)
    assert [(r.lhs_symbol, r.rhs_word, r.prob) for r in prog.rules] == [
        ("X", ("Z", "X"), Fraction(1, 2)), ("X", ("Y", "Y"), Fraction(1, 2)),
        ("Z", ("Z", "X"), Fraction(1, 2)), ("Z", ("Y", "Y"), Fraction(1, 2)),
        ("Y", (), Fraction(1))]
    progressive_posts(model, prog, u)


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
    table = solve_unchecked(model)
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
