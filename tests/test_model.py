import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppda
from ppda import (
    Configuration,
    ModelError,
    make_bpa,
    parse_model,
    serialize,
    simulate,
    validate,
)
from ppda.model import BPA_STATE, Rule, Pda, start_problems

from helpers import (NEVER_ON_TOP, POP_ORPHAN_TEXTS, missing_reachable_rows, relaxed_bpas,
                     rules_for, serialize_loop, small_bpas, small_pdas, step_distribution)

TWOSTATE = """
pda                      # comments allowed everywhere
states: p q
alphabet: X Y
start: p X
rule: p X -> p : 1/4
rule: p X -> p X X : 1/4
rule: p X -> q Y : 1/2
rule: p Y -> p Y : 1
rule: q Y -> q X : 1/2
rule: q Y -> q : 1/2
rule: q X -> q Y : 1
"""


def test_parse_twostate_example():
    m = parse_model(TWOSTATE)
    assert m.kind == "pda"
    assert m.states == ("p", "q")
    assert m.alphabet == ("X", "Y")
    assert len(m.rules) == 7
    assert m.start == Configuration("p", ("X",))
    assert m.rules[0].rhs_word == ()
    assert m.rules[1].prob == Fraction(1, 4)


def test_parse_single_rule_bpa():
    m = parse_model("bpa\nalphabet: X\nrule: X -> : 1\n")
    assert m.kind == "bpa"
    assert len(m.states) == 1
    assert m.rules[0].rhs_word == ()
    assert m.rules[0].prob == 1


def test_parse_decimal_probabilities_are_exact():
    m = parse_model("bpa\nalphabet: X\nrule: X -> X X : 0.25\nrule: X -> : 0.75\n")
    assert m.rules[0].prob == Fraction(1, 4)


def test_parse_accepts_split_rows_summing_to_one():
    m = parse_model(
        "pda\nstates: q r1 r0\nalphabet: A O\n"
        "rule: q A -> r1 : 1/4\nrule: q A -> r0 : 1/4\nrule: q A -> q O A : 1/2\n"
        "rule: q O -> r0 : 1\nrule: r1 A -> r1 : 1\nrule: r0 A -> r0 : 1\n"
        "rule: r1 O -> r1 : 1\nrule: r0 O -> r0 : 1\n"
    )
    assert len(rules_for(m, "q", "A")) == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bpa\nalphabet: X\nrule: X -> : 3/4\n", "sum"),
        ("bpa\nalphabet: X\nrule: X -> : 1\nrule: X -> : 1\n", "duplicate"),
        ("bpa\nalphabet: X\nrule: X -> Y : 1\n", "unknown"),
        ("bpa\nalphabet: X\nrule: X : 1\n", "->"),
        ("pda\nstates: p\nalphabet: X\nrule: p X -> p X X X : 1\n", "longer than 2"),
        ("bpa\nalphabet: X\nrule: X -> : 5/4\n", "outside"),
        ("huh\n", "kind"),
        ("pda\nstates: p.q\nalphabet: X\nrule: p.q X -> p.q : 1\n", "contain '.'"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ModelError) as err:
        parse_model("bpa\nalphabet: X\nrule: X broken\n")
    assert "line 3" in str(err.value)


def _pda(states, alphabet, rules=(), kind="pda"):
    return lambda: Pda(states, alphabet, rules, kind=kind)


# (model text, or a thunk building a Pda, and the message it is rejected with)
MODEL_ERRORS = [
    ("bpa\nalphabet: X\nfoo: bar\n", "line 3: unknown directive 'foo'"),
    ("# only a comment\n", "empty model: missing kind line"),
    ("pda\nalphabet: X\n", "pda model missing 'states:' line"),
    ("bpa\n", "missing 'alphabet:' line"),
    ("bpa\nalphabet: X\nrule: X -> X\n", "line 3: rule missing ': probability'"),
    ("pda\nstates: p\nalphabet: X\nrule: X -> p : 1\n",
     "line 4: expected 'state symbol' before '->', got 'X'"),
    ("pda\nstates: p\nalphabet: X\nrule: p X -> : 1\n",
     "line 4: pda rule needs a control state after '->'"),
    ("bpa\nalphabet: X\nrule: X X -> : 1\n",
     "line 3: expected one symbol before '->', got 'X X'"),
    ("bpa\nalphabet: X\nrule: X -> : half\n", "line 3: bad probability 'half'"),
    ("bpa\nalphabet: X\nrule: X -> : 1/0\n", "line 3: bad probability '1/0'"),
    ("bpa\nalphabet: X->Y\n", "line 2: symbol token 'X->Y' contains reserved '->'"),
    ("pda\nstates: p:q\nalphabet: X\n", "line 2: state token 'p:q' contains reserved ':'"),
    (_pda(("p", "p"), ("X",)), "duplicate control state"),
    (_pda(("p",), ("X", "X")), "duplicate stack symbol"),
    (_pda(("p",), ("X",), kind="npda"), "unknown model kind 'npda'"),
    # the parser splits on whitespace, so only a built model holds such tokens
    (_pda(("p",), ("X Y",)), "invalid symbol token 'X Y'"),
    (_pda(("p",), ("X",), (Rule("q", "X", "p", (), Fraction(1)),)),
     "rule 'q X -> p : 1': unknown state 'q'"),
    (_pda(("p",), ("X",), (Rule("p", "X", "q", (), Fraction(1)),)),
     "rule 'p X -> q : 1': unknown state 'q'"),
    (_pda(("_", "r"), ("X",), (Rule("_", "X", "_", (), Fraction(1)),), kind="bpa"),
     "kind bpa requires exactly one control state"),
]


@pytest.mark.parametrize("source,message", MODEL_ERRORS, ids=[m for _, m in MODEL_ERRORS])
def test_model_errors_and_their_messages(source, message):
    """Text fails to parse with ``message``; a built model has it as its one
    ``validate`` problem, or fails to build with it."""
    if isinstance(source, str):
        with pytest.raises(ModelError) as err:
            parse_model(source)
        assert str(err.value) == message
    else:
        try:
            problems = validate(source())
        except ModelError as exc:
            problems = [str(exc)]
        assert problems == [message]


def test_validate_flags_bad_row_by_pair():
    m = Pda(("p",), ("X",), (Rule("p", "X", "p", (), Fraction(3, 4)),), kind="pda")
    problems = validate(m)
    assert len(problems) == 1
    assert "(p, X)" in problems[0]


def test_validate_flags_long_rhs_under_pda_kind():
    m = Pda(
        ("p",), ("X",),
        (Rule("p", "X", "p", ("X", "X", "X"), Fraction(1)),),
        kind="pda",
    )
    assert any("longer than 2" in v for v in validate(m))


def test_validate_ruleless_pair_needs_unreachability():
    # (p, Y) has no rules; fine without a start, flagged when reachable.
    m = Pda(
        ("p",), ("X", "Y"),
        (Rule("p", "X", "p", ("Y",), Fraction(1, 2)),
         Rule("p", "X", "p", (), Fraction(1, 2))),
        kind="pda",
    )
    assert validate(m) == []
    problems = validate(m, start=Configuration("p", ("X",)))
    assert any("(p, Y)" in v for v in problems)


@pytest.mark.parametrize("stack", [(), ("X",)])
def test_validate_with_a_start_lists_an_unknown_symbol_in_a_rule(stack):
    m = Pda(("p",), ("X",), (Rule("p", "X", "p", ("Y",), Fraction(1)),), kind="pda")
    assert validate(m, start=Configuration("p", stack)) == [
        "rule 'p X -> p Y : 1': unknown symbol 'Y'"]


@pytest.mark.parametrize("text", POP_ORPHAN_TEXTS.values(), ids=POP_ORPHAN_TEXTS)
def test_validate_follows_pops_to_ruleless_pair(text):
    model = parse_model(text)
    assert any("(q, Y)" in v for v in validate(model, model.start))


@st.composite
def starts_with_ruleless_pairs(draw):
    """A model with the rules of some pairs dropped, and a start of 0-3 symbols."""
    model = draw(st.one_of(small_pdas(), small_pdas(max_states=3, max_symbols=3),
                           relaxed_bpas(max_symbols=4)))
    dropped = draw(st.sets(st.sampled_from([(p, X) for p in model.states
                                            for X in model.alphabet])))
    rules = tuple(r for r in model.rules if (r.lhs_state, r.lhs_symbol) not in dropped)
    start = Configuration(draw(st.sampled_from(model.states)),
                          tuple(draw(st.lists(st.sampled_from(model.alphabet), max_size=3))))
    return Pda(model.states, model.alphabet, rules, kind=model.kind), start


@given(starts_with_ruleless_pairs())
@settings(max_examples=200, deadline=None)
@example((parse_model(NEVER_ON_TOP), Configuration(BPA_STATE, ("X",))))
@example((parse_model(NEVER_ON_TOP), Configuration(BPA_STATE, ("B", "C"))))
def test_start_problems_match_the_name_walk(case):
    model, start = case
    assert start_problems(model, start) == missing_reachable_rows(model, start)


def test_rule_word_exposes_a_symbol_only_past_what_may_empty():
    # A never empties, so C, below it in X's word, never comes on top
    model = parse_model(NEVER_ON_TOP)
    assert start_problems(model, Configuration(BPA_STATE, ("X",))) == []
    assert start_problems(model, Configuration(BPA_STATE, ("A", "C"))) == []
    assert start_problems(model, Configuration(BPA_STATE, ("B", "C"))) == [
        "pair (_, C) reachable from start but has no rules"]
    stats = simulate(model, Configuration(BPA_STATE, ("X",)), 20, step_cap=30, seed=1)
    assert stats.censored == 20


def test_package_exports_names_not_submodules():
    for name in ppda.__all__:
        assert not isinstance(getattr(ppda, name), types.ModuleType), name
    # the paper's appendix constructions are test code (tests/appendix.py)
    moved = {"cone_vector", "make_u_progressive", "g_function", "estimate_lower_constant",
             "upper_bound_azuma_loose", "step_distribution", "rule_weight_change"}
    assert not moved & set(ppda.__all__)
    for module in (ppda.bounds, ppda.model, ppda.moments, ppda.transform):
        assert not moved & set(vars(module)), module.__name__


def test_validate_clean_on_example_models(tree, ab, twostate):
    for m in (tree, ab, twostate):
        assert validate(m, start=m.start) == []


def test_step_distribution_absorbs_empty_stack(ab):
    empty = Configuration("p", ())
    assert step_distribution(ab, empty) == [(empty, Fraction(1))]


def test_step_distribution_twostate_top():
    m = parse_model(TWOSTATE)
    steps = dict(step_distribution(m, Configuration("p", ("X",))))
    assert steps[Configuration("p", ())] == Fraction(1, 4)
    assert steps[Configuration("p", ("X", "X"))] == Fraction(1, 4)
    assert steps[Configuration("q", ("Y",))] == Fraction(1, 2)
    deeper = dict(step_distribution(m, Configuration("p", ("X", "X"))))
    assert deeper[Configuration("p", ("X",))] == Fraction(1, 4)
    assert deeper[Configuration("p", ("X", "X", "X"))] == Fraction(1, 4)
    assert deeper[Configuration("q", ("Y", "X"))] == Fraction(1, 2)


def test_step_distribution_requires_rule():
    m = make_bpa([(("X",), Fraction(1))])
    cfg = Configuration("_", ("Z",))
    with pytest.raises(ModelError):
        step_distribution(Pda(("_",), ("X", "Z"), m.rules, kind="bpa"), cfg)


@given(small_pdas())
@settings(max_examples=60, deadline=None)
def test_step_distribution_sums_to_one(model):
    for p in model.states:
        for X in model.alphabet:
            cfg = Configuration(p, (X, X))
            total = sum(prob for _, prob in step_distribution(model, cfg))
            assert total == 1
            for succ, _ in step_distribution(model, cfg):
                assert succ.stack[-1:] == (X,)  # below-top symbol untouched


@given(small_pdas())
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip_pda(model):
    assert parse_model(serialize(model)) == model


@given(small_bpas())
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip_bpa(model):
    assert parse_model(serialize(model)) == model


@given(st.one_of(small_pdas(), small_bpas(), relaxed_bpas()))
@settings(max_examples=100, deadline=None)
def test_serialize_writes_the_bytes_of_the_rule_loop(model):
    """The writer reads the rule arrays; a loop over the Rules is its oracle."""
    assert serialize(model) == serialize_loop(model)


def test_serialize_round_trip_examples(tree, ab, twostate, delta3):
    for m in (tree, ab, twostate, delta3):
        assert parse_model(serialize(m)) == m


def test_relaxed_round_trip():
    m = make_bpa(
        [(("X", "Y", "Y", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
         (("Y",), Fraction(1))],
        relaxed=True,
    )
    assert m.kind == "relaxed-bpa"
    again = parse_model(serialize(m))
    assert again == m
