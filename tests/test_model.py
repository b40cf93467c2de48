import dataclasses
import pickle
import types
from fractions import Fraction

import numpy as np
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
    termination_probs,
    to_bpa,
    validate,
)
from ppda.model import BPA_STATE, Rule, Pda, start_problems

from helpers import (CHUNK_EDGES, MODELS, NEVER_ON_TOP, POP_ORPHAN_TEXTS,
                     missing_reachable_rows, parse_loop, perfbench_gen, relaxed_bpas,
                     rule_arrays_of, rule_count_models, rules_for, serialize_loop, small_bpas,
                     small_pdas, step_distribution, written)

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
    # a directive given twice is refused, not overridden by the last
    ("bpa\nalphabet: X\nalphabet: Y\nrule: Y -> : 1\n", "line 3: repeated 'alphabet:' line"),
    ("pda\nstates: p\nalphabet: X\nstates: q\nrule: q X -> q : 1\n",
     "line 4: repeated 'states:' line"),
    ("bpa\nalphabet: X\nstart: X\nrule: X -> : 1\nstart: X X\n",
     "line 5: repeated 'start:' line"),
    # a stateless model has the one state BPA_STATE, so it names none
    ("bpa\nstates: p q\nalphabet: X\nrule: X -> : 1\n",
     "line 2: 'states:' applies to pda models only"),
    ("relaxed-bpa\nalphabet: X\nstates: _\nrule: X -> : 1\n",
     "line 3: 'states:' applies to pda models only"),
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


def halving_chain(k: int) -> Pda:
    """X_i -> X_(i-1) X_(i-1) and X_i -> at 1/2 each, for i = 1..k-1; X0 has no
    rules.  From the top the reachable pairs form a chain k deep."""
    return make_bpa([rule for i in range(1, k) for rule in
                     (((f"X{i}", f"X{i - 1}", f"X{i - 1}"), Fraction(1, 2)),
                      ((f"X{i}",), Fraction(1, 2)))])


@given(starts_with_ruleless_pairs())
@settings(max_examples=200, deadline=None)
@example((parse_model(NEVER_ON_TOP), Configuration(BPA_STATE, ("X",))))
@example((parse_model(NEVER_ON_TOP), Configuration(BPA_STATE, ("B", "C"))))
@example((halving_chain(4000), Configuration(BPA_STATE, ("X3999",))))
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
# parsed probabilities not in lowest terms, which the writer reduces
@example(parse_model("bpa\nalphabet: X\nstart: X\nrule: X -> X X : 2/4\nrule: X -> : 10/20\n"))
@example(parse_model("pda\nstates: p q\nalphabet: X\nstart: p X\n"
                     "rule: p X -> q X X : 10/20\nrule: p X -> p : 6/12\nrule: q X -> q : 4/4\n"))
def test_serialize_writes_the_bytes_of_the_rule_loop(model):
    """The writer reads the rule arrays; a loop over the Rules is its oracle,
    of the text written into a sink and of the text returned."""
    assert written(serialize, model) == serialize_loop(model)


@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_serialize_writes_the_bytes_of_the_rule_loop_at_the_chunk_edges(n):
    for model in rule_count_models(n):
        text = written(serialize, model)
        assert text == serialize_loop(model)
        assert text.count("\nrule: ") == n
        assert parse_model(text) == model


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


# ---------------------------------------------------------------------------
# the parser against the Rule path (helpers.parse_loop, rule_arrays_of)

def assert_same_arrays(got, want):
    for name in ("lhs_state", "lhs_symbol", "rhs_state", "length", "words"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.prob.tobytes() == want.prob.tobytes()
    assert [Fraction(p) for p in got.exact] == [Fraction(p) for p in want.exact]


def assert_parses_as_the_rule_path(text: str) -> None:
    """``parse_model`` gives the arrays and the model of ``parse_loop``, or
    fails with its message."""
    try:
        want = parse_loop(text)
    except ModelError as exc:
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert str(err.value) == str(exc)
        return
    got = parse_model(text)
    assert_same_arrays(got.rule_arrays, rule_arrays_of(want))
    assert "rules" not in got.__dict__  # the parse decodes no Rule
    assert got == want


@pytest.mark.parametrize("name", [path.name for path in sorted(MODELS.iterdir())]
                         + ["random_q4g20_s1", "random_q4g20_s1001", "transform_q4g20_s1"])
def test_parse_gives_the_arrays_of_the_rule_path(name):
    if name.startswith("random"):
        text = perfbench_gen().random_pda(4, 20, int(name.rpartition("_s")[2]))
    elif name.startswith("transform"):
        # the text of `ppda transform`: doubles written n/2^k, k past 53
        model = parse_model(perfbench_gen().random_pda(4, 20, 1))
        text = serialize(to_bpa(model, termination_probs(model)).bpa)
    else:
        text = (MODELS / name).read_text()
    assert_parses_as_the_rule_path(text)


@given(st.one_of(small_pdas(), small_pdas(max_states=3, max_symbols=3), relaxed_bpas()))
@settings(max_examples=100, deadline=None)
def test_parse_of_generated_models_matches_the_rule_path(model):
    assert_parses_as_the_rule_path(serialize(model))


def probability_text(prob: str) -> str:
    """A model whose first rule has probability ``prob``, the rest of its row
    on a second rule where ``prob`` is a number in (0, 1) whose complement
    has a text within the interpreter's limit on integer digits."""
    try:
        value = Fraction(prob)
        rest = f"rule: X -> Y : {1 - value}\n" if 0 < value < 1 else ""
    except (ValueError, ZeroDivisionError):
        rest = ""
    return f"bpa\nalphabet: X Y\nrule: X -> : {prob}\n{rest}rule: Y -> : 1\n"


PROBABILITY_TEXTS = st.one_of(
    st.fractions(min_value=0, max_value=1).map(str),
    st.floats(min_value=0, max_value=1).map(repr),
    st.decimals(min_value=0, max_value=1, places=4).map(str),
    st.text(alphabet="0123456789/._eE+- ", max_size=8),
)


@given(PROBABILITY_TEXTS)
@settings(max_examples=200, deadline=None)
@example("0.5")
@example("5e-1")
@example("1_0/2_0")
@example("1")
# a double of a to_bpa output, written n/d with d = 2**56, past 2**53
@example("6840815095424681/72057594037927936")
@example("1 / 2")
@example("half")
@example("1/0")
@example("-1/2")
@example("0")
# past the interpreter's limit on the digits of an integer made into text
@example("1E5000")
@example("1E-5000")
@example("0" * 4300 + "1/2")
@example("1/" + "0" * 4300 + "2")
def test_probability_syntax_is_that_of_fraction(prob):
    """A probability is read as ``Fraction(text)`` reads it: the same forms
    accepted, the same double and exact value, the same messages.  A value
    that ``str()`` cannot write back is a bad probability."""
    assert_parses_as_the_rule_path(probability_text(prob))


@pytest.mark.parametrize("prob,message", [
    ("1 / 2", "line 3: bad probability '1 / 2'"),
    ("half", "line 3: bad probability 'half'"),
    ("1/0", "line 3: bad probability '1/0'"),
    ("-1/2", "line 3: probability -1/2 outside (0, 1]"),
    ("0", "line 3: probability 0 outside (0, 1]"),
    ("1E5000", "line 3: bad probability '1E5000'"),
    ("1E-5000", "line 3: bad probability '1E-5000'"),
    pytest.param("1/" + "0" * 4300 + "2", f"line 3: bad probability '1/{'0' * 4300}2'",
                 id="4301-digit denominator"),
])
def test_rejected_probabilities_and_their_messages(prob, message):
    with pytest.raises(ModelError) as err:
        parse_model(probability_text(prob))
    assert str(err.value) == message


@st.composite
def mutated_texts(draw):
    """The text of a model with one to three edits: a rule line dropped,
    repeated or given a bad probability, a name in a rule replaced, or a
    line inserted."""
    model = draw(st.one_of(small_pdas(), small_bpas(), relaxed_bpas()))
    lines = serialize(model).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        rules = [i for i, line in enumerate(lines) if line.startswith("rule: ")]
        edit = draw(st.sampled_from(["drop", "repeat", "name", "prob", "insert"]))
        if edit == "insert" or not rules:
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from([
                "states: u", "alphabet: S0", "start: S0", "foo: bar", "nonsense",
                "rule: S0 -> S0 :", "rule: u S0 -> : 1 # c", "  rule : S0 ->  : 1/1"])))
            continue
        i = draw(st.sampled_from(rules))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "prob":
            lines[i] = lines[i].rpartition(" : ")[0] + " : " + draw(PROBABILITY_TEXTS)
        else:
            tokens = lines[i].split(" ")
            at = draw(st.sampled_from([k for k, tok in enumerate(tokens[:-1])
                                       if k and tok not in ("->", ":")]))
            tokens[at] = draw(st.sampled_from(["Z", "w", "S0", "u", "_", "X-Y", "a->b", "up"]))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(mutated_texts())
@settings(max_examples=300, deadline=None)
@example("bpa\nalphabet: X Y\nrule: X -> Y : 1/2\nrule: X -> Y : 1/2\nrule: Y -> Z : 5/4\n")
@example("pda\nstates: p q\nalphabet: X\nrule: p X->X -> q : 1\nrule: q X -> q : 1\n")
@example("pda\nstates: p\nalphabet: X\nrule: p X -> p : 5/4\nfoo: bar\n")
@example("pda\nstates: p\nalphabet: X\nfoo: bar\nrule: p X -> p : 5/4\n")
def test_parse_errors_match_the_rule_path(text):
    assert_parses_as_the_rule_path(text)


def test_parse_of_a_transform_output_is_the_built_model():
    model = parse_model(perfbench_gen().random_pda(4, 20, 1))
    bpa = to_bpa(model, termination_probs(model)).bpa
    again = parse_model(serialize(bpa))
    assert_same_arrays(again.rule_arrays, bpa.rule_arrays)
    assert again == bpa


def test_a_parsed_model_behaves_as_one_built_from_rules():
    """Equality, hashing, repr, pickling and dataclasses.replace see the rules
    a parsed model decodes on first read."""
    built, parsed = parse_loop(TWOSTATE), parse_model(TWOSTATE)
    again = pickle.loads(pickle.dumps(parsed))
    assert "rules" not in again.__dict__
    assert parsed == built == again
    assert hash(parsed) == hash(built) and repr(parsed) == repr(built)
    start = Configuration("q", ("Y", "X"))
    moved = dataclasses.replace(parsed, start=start)
    assert moved == dataclasses.replace(built, start=start) and moved.start == start
    assert_same_arrays(moved.rule_arrays, parsed.rule_arrays)
