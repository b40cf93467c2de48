import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppda.moments
from ppda import (
    NotAlmostSurelyTerminating,
    classify,
    exact_distribution_word,
    lower_bound_pmin,
    make_bpa,
    tail,
    tail_bounds,
    termination_probs,
    threshold_for_epsilon,
    to_bpa,
    upper_bound_azuma,
    upper_bound_poly,
)
from ppda.model import Pda

from appendix import cone_vector, g_function, make_u_progressive, upper_bound_azuma_loose
from conftest import load_model
from helpers import (
    classify_restricted,
    dependence_names,
    p_min,
    random_pda,
    relaxed_bpas,
    restricted_analysis,
    scc_restriction,
    small_bpas,
    subcritical_unit,
    suffix_tail,
    table_residual,
)


def test_classify_case1():
    m = make_bpa([(("X", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
                  (("Y",), Fraction(1))])
    rep = classify(m, "X")
    assert rep.case == 1
    assert rep.bounded_horizon == 4
    assert threshold_for_epsilon(rep, 0.5).n == 4
    assert threshold_for_epsilon(rep, 1.5).n == 4  # eps >= 1 stays structural


def test_classify_case2():
    rep = classify(subcritical_unit(), "X")
    assert rep.case == 2
    assert rep.e_start == pytest.approx(2.0)
    assert rep.e_max == pytest.approx(2.0)
    assert rep.b_constant == pytest.approx(3.0)
    assert rep.azuma_threshold == pytest.approx(4.0)


def test_classify_case3_delta1(delta1):
    rep = classify(delta1, "X1")
    assert rep.case == 3
    assert rep.height == 1
    assert rep.gamma_size == 1
    assert rep.p_min == pytest.approx(0.5)
    assert rep.d1 == pytest.approx(144.0)
    assert rep.d2 == pytest.approx(0.5)
    assert rep.lower_exponent == 0.5
    assert rep.n0_caveat


def test_classify_case3_delta2(delta2):
    rep = classify(delta2, "X2")
    assert rep.d1 == pytest.approx(4608.0)
    assert rep.d2 == pytest.approx(1 / 6)


@pytest.mark.parametrize("depth,d2", [(1022, 2.0 ** -1024), (1100, 0.0)],
                         ids=["height_1023", "height_1101"])
def test_classify_on_a_chain_past_the_double_exponent_range(depth, d2):
    # a critical X0 under a chain of height depth + 1: 2^(h+1) passes the
    # largest double, p_min^(3 |alphabet|) underflows, and at 1100 so does d2
    chain = [(("Y1", "X0"), Fraction(1, 2))] + [
        ((f"Y{i}", f"Y{i - 1}"), Fraction(1, 2)) for i in range(2, depth + 1)]
    model = make_bpa([(("X0", "X0", "X0"), Fraction(1, 2)), (("X0",), Fraction(1, 2)),
                      *chain, *(((f"Y{i}",), Fraction(1, 2)) for i in range(1, depth + 1))])
    rep = classify(model, f"Y{depth}")
    assert (rep.case, rep.height, rep.d1) == (3, depth + 1, math.inf)
    assert rep.d2 == d2
    assert tail_bounds(rep, 10**6) == (0.5 ** 10**6, 1.0)
    with pytest.raises(OverflowError):
        threshold_for_epsilon(rep, 0.01)


def test_classify_requires_certain_termination():
    biased = make_bpa([(("X", "X", "X"), Fraction(7, 10)), (("X",), Fraction(3, 10))])
    with pytest.raises(NotAlmostSurelyTerminating):
        classify(biased, "X")


def test_classify_restricts_before_judging(delta3):
    # from the bottom symbol the chain above is invisible: h = 1 again
    rep = classify(delta3, "X1")
    assert rep.gamma_size == 1
    assert rep.d1 == pytest.approx(144.0)


def test_classify_invariant_under_renaming_and_reordering(delta2):
    rep = classify(delta2, "X2")
    renamed_rules = tuple(
        type(r)(r.lhs_state, r.lhs_symbol.replace("X", "B"), r.rhs_state,
                tuple(w.replace("X", "B") for w in r.rhs_word), r.prob)
        for r in reversed(delta2.rules)
    )
    renamed = Pda(delta2.states, tuple(s.replace("X", "B") for s in delta2.alphabet),
                  renamed_rules, kind="bpa")
    rep2 = classify(renamed, "B2")
    assert (rep2.case, rep2.d1, rep2.d2, rep2.height) == (rep.case, rep.d1, rep.d2, rep.height)


def test_moment_record_lets_its_model_go():
    # the model caches its moment record; a reference back would keep both
    # alive in a cycle after the last outside reference to the model is gone
    model = load_model("delta2.bpa")
    report, gone = classify(model, "X2"), weakref.ref(model)
    moments = model.moments
    del model
    assert gone() is None
    assert report.case == 3 and moments.certain == {"X1", "X2"}


EXACT_FIELDS = ("start", "case", "gamma_size", "p_min", "height", "d1", "d2",
                "lower_exponent", "n0_caveat")
SOLVED_FIELDS = ("e_start", "e_max", "b_constant")


def assert_matches_per_start(model):
    """classify on the model-wide moment record agrees with the per-start path, every symbol."""
    deps, solved = dependence_names(model), {}
    for sym in model.alphabet:
        keep = deps.reachable_from[sym] | {sym}
        if keep not in solved:
            solved[keep] = restricted_analysis(model, sym)
        try:
            want = classify_restricted(*solved[keep], sym)
        except NotAlmostSurelyTerminating:
            with pytest.raises(NotAlmostSurelyTerminating):
                classify(model, sym)
            continue
        got = classify(model, sym)
        for field in EXACT_FIELDS:
            assert getattr(got, field) == getattr(want, field), (sym, field)
        for field in SOLVED_FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None) == (b is None), (sym, field)
            if a is not None:
                assert a == pytest.approx(b, rel=1e-12, abs=0), (sym, field)


@pytest.fixture
def memo_power_iteration(monkeypatch):
    """Compute each distinct SCC block's spectral data once.

    A restriction keeps its SCC blocks bit for bit, and the power iteration
    is deterministic, so the cache changes no value; it only spares the
    per-start oracle the same slow blocks in every restriction.
    """
    original, cache = ppda.moments._power_iteration, {}

    def cached(block):
        key = (block.shape, block.tobytes())
        if key not in cache:
            cache[key] = original(block)
        rho, vec = cache[key]
        return rho, vec.copy()

    monkeypatch.setattr(ppda.moments, "_power_iteration", cached)


@pytest.mark.parametrize("source", ["tree.ppda", "ab.ppda", "twostate.ppda", "random"])
def test_classify_matches_per_start_oracle(source, memo_power_iteration):
    model = random_pda(4, 20, seed=1) if source == "random" else load_model(source)
    part = to_bpa(model, termination_probs(model)).part
    assert_matches_per_start(part)


# the strategy rarely draws a critical SCC: case 3 comes from these, and the
# last one mixes a finite symbol with one above a critical SCC
@example(load_model("delta4.bpa"))
@example(make_bpa([(("X", "X", "X"), Fraction(3, 5)), (("X", "Y"), Fraction(2, 5)),
                   (("Y", "Y", "Y"), Fraction(1, 2)), (("Y",), Fraction(1, 2))]))
@example(make_bpa([(("Z", "Z", "Z"), Fraction(1, 4)), (("Z",), Fraction(1, 2)),
                   (("Z", "Y"), Fraction(1, 4)), (("Y", "Y", "Y"), Fraction(1, 2)),
                   (("Y",), Fraction(1, 2)), (("W", "W", "W"), Fraction(1, 4)),
                   (("W",), Fraction(3, 4))]))
@example(make_bpa([(("X", "X", "Y", "Y"), Fraction(1, 5)), (("X",), Fraction(4, 5)),
                   (("Y", "Y", "Y"), Fraction(1, 4)), (("Y",), Fraction(3, 4))]))
@given(st.one_of(small_bpas(), relaxed_bpas()))
@settings(max_examples=80, deadline=None)
def test_classify_matches_per_start_oracle_small(model):
    assert_matches_per_start(model)


def test_lower_bound_on_transformed_ab(ab):
    part = to_bpa(ab, termination_probs(ab)).part
    rep = classify(part, "p.X.q")
    assert rep.p_min == pytest.approx(0.4, abs=1e-9)
    assert lower_bound_pmin(rep, 2) == pytest.approx(0.16, abs=1e-9)


def test_bound_values():
    rep = classify(subcritical_unit(), "X")
    assert lower_bound_pmin(rep, 0) == 1.0
    assert lower_bound_pmin(rep, 4) == pytest.approx(0.25 ** 4)
    assert upper_bound_azuma(rep, 36) == pytest.approx(math.exp(-16 / 9), rel=1e-12)
    assert upper_bound_azuma(rep, 4) == 1.0
    assert upper_bound_azuma(rep, 3) == 1.0
    assert upper_bound_azuma_loose(rep, 36) == pytest.approx(math.exp(1 - 36 / 32), rel=1e-12)
    assert rep.azuma_threshold == 4.0 and upper_bound_azuma_loose(rep, 3) == 1.0


def test_poly_bound_values(delta1):
    rep = classify(delta1, "X1")
    assert upper_bound_poly(rep, 10**6) == pytest.approx(0.144, rel=1e-12)
    assert upper_bound_poly(rep, 1) == 1.0


def test_threshold_values(delta1):
    rep2 = classify(subcritical_unit(), "X")
    got = threshold_for_epsilon(rep2, math.exp(-16 / 9))
    assert got.n == 36 and not got.n0_caveat

    rep3 = classify(delta1, "X1")
    got3 = threshold_for_epsilon(rep3, 0.144)
    assert got3.n == 10**6 and got3.n0_caveat

    # threshold really clears the bound
    assert upper_bound_azuma(rep2, got.n) <= math.exp(-16 / 9) * (1 + 1e-9)
    assert upper_bound_poly(rep3, got3.n) <= 0.144 * (1 + 1e-9)


def test_case2_sandwich_subcritical_unit():
    m = subcritical_unit()
    rep = classify(m, "X")
    dist = exact_distribution_word(m, ("X",), 430)
    resid = table_residual(dist)
    for n in range(4, 401):
        t_lower = suffix_tail(dist, n)                # truncated: never overshoots
        t_upper = suffix_tail(dist, n) + resid        # adds back the horizon cut
        assert rep.p_min ** n <= t_lower + 1e-300
        assert t_upper <= upper_bound_azuma(rep, n) + 1e-12


def test_case3_empirical_band(delta1):
    rep = classify(delta1, "X1")
    dist = exact_distribution_word(delta1, ("X1",), 4096)
    for n in (16, 64, 256, 1024, 4096):
        t = tail(dist, n)
        assert 0.3 <= t * math.sqrt(n) <= 1.0
        assert t <= upper_bound_poly(rep, n)
        assert lower_bound_pmin(rep, n) <= t


def test_lower_constant_estimate(delta1):
    from appendix import estimate_lower_constant

    c = estimate_lower_constant(delta1, "X1")
    # the depth-1 walk's true asymptotic constant is sqrt(2/pi)
    assert 0.3 <= c <= 1.0
    assert c == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)


def g_suite(model, u, theta_grid=(0.01, 0.1, 0.5, 1.0), h=1e-4):
    pmin = p_min(model)
    u_min = min(u.values())
    for sym in model.alphabet:
        g0, g1_0, g2_0 = g_function(model, u, sym, 0.0)
        assert g0 == pytest.approx(1.0, abs=1e-12)
        assert g1_0 >= -1e-9
        assert g2_0 >= pmin * u_min**2 / 4 - 1e-12
        for theta in theta_grid:
            g, g1, g2 = g_function(model, u, sym, theta)
            assert g > 1.0
            assert g1 > g1_0 - 1e-12
            assert g2 > 0.0
            gp, _, _ = g_function(model, u, sym, theta + h)
            gm, _, _ = g_function(model, u, sym, theta - h)
            fd1 = (gp - gm) / (2 * h)
            fd2 = (gp - 2 * g + gm) / (h * h)
            assert fd1 == pytest.approx(g1, rel=1e-6)
            assert fd2 == pytest.approx(g2, rel=1e-6)


def test_g_function_cosh_shape(delta1):
    u = cone_vector(delta1)
    g, g1, g2 = g_function(delta1, u, "X1", 0.7)
    assert g == pytest.approx(math.cosh(0.7), rel=1e-12)
    assert g1 == pytest.approx(math.sinh(0.7), rel=1e-12)
    assert g2 == pytest.approx(math.cosh(0.7), rel=1e-12)
    g_suite(delta1, u)


def test_g_function_properties_on_progressive_models(tree, ab, delta2, delta3):
    # per SCC, as in the layered analysis: the cone inequality g' needs is
    # only available blockwise on reducible critical models
    from ppda import dependence

    models = [delta2, delta3]
    for pda_model in (tree, ab):
        models.append(to_bpa(pda_model, termination_probs(pda_model)).part)
    for model in models:
        u = cone_vector(model)
        for comp in dependence(model).sccs:
            sub = scc_restriction(model, comp)
            sub_u = {s: u[s] for s in comp}
            top = max(sub_u.values())
            sub_u = {s: v / top for s, v in sub_u.items()}
            prog = make_u_progressive(sub, sub_u)
            g_suite(prog, sub_u)
