from fractions import Fraction

import pytest
from hypothesis import given, settings

from ppda import (
    Configuration,
    ModelError,
    make_bpa,
    parse_model,
    serialize,
    step_distribution,
    validate,
)
from ppda.model import Rule, Pda

from helpers import POP_ORPHAN_TEXTS, small_bpas, small_pdas

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
    assert len(m.rules_for("q", "A")) == 3


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


@pytest.mark.parametrize("text", POP_ORPHAN_TEXTS.values(), ids=POP_ORPHAN_TEXTS)
def test_validate_follows_pops_to_ruleless_pair(text):
    model = parse_model(text)
    assert any("(q, Y)" in v for v in validate(model, model.start))


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
