from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppda import (
    Configuration,
    ModelError,
    Triple,
    exact_distribution_bpa,
    exact_distribution_pda,
    exact_distribution_word,
    make_bpa,
    parse_model,
    simulate,
    simulate_heads,
    tail,
    termination_probs,
)
import ppda.distribution
from ppda.distribution import dist_csv, sample_csv

from conftest import MODELS, load_model
from helpers import (
    CRITICAL_PDAS,
    ORPHAN_TEXT,
    brute_mass,
    brute_total_mass,
    heads_loop,
    random_pda,
    relaxed_bpas,
    simulate_loop,
    small_bpas,
    small_pdas,
    subcritical_unit,
    term_dp_masses,
)

BUNDLED = sorted(path.name for path in MODELS.iterdir())


def test_single_step_mass():
    m = make_bpa([(("X",), Fraction(1))])
    t = exact_distribution_bpa(m, "X", 4)
    assert t.mass[1] == 1.0
    assert float(np.sum(t.mass)) == 1.0
    assert tail(t, 1) == 1.0
    assert tail(t, 2) == 0.0


def test_delta1_catalan_prefix(delta1):
    # P(T = 2k+1) = Catalan(k) / 2^(2k+1), frozen from the closed form
    t = exact_distribution_bpa(delta1, "X1", 16)
    assert t.mass[1] == pytest.approx(1 / 2, abs=1e-15)
    assert t.mass[2] == 0.0
    assert t.mass[3] == pytest.approx(1 / 8, abs=1e-15)
    assert t.mass[5] == pytest.approx(1 / 16, abs=1e-15)
    assert t.mass[7] == pytest.approx(5 / 128, abs=1e-15)
    assert tail(t, 5) == pytest.approx(0.375, abs=1e-15)


def test_subcritical_single_tree_shape():
    t = exact_distribution_bpa(subcritical_unit(), "X", 8)
    assert t.mass[1] == pytest.approx(3 / 4, abs=1e-15)
    assert t.mass[3] == pytest.approx((1 / 4) * (3 / 4) ** 2, abs=1e-15)


def test_pda_one_step():
    from ppda.model import Pda, Rule

    m = Pda(("p", "q"), ("X",), (Rule("p", "X", "q", (), Fraction(1)),), kind="pda")
    t = exact_distribution_pda(m, Triple("p", "X", "q"), 3, norm=1.0)
    assert t.mass[1] == 1.0
    assert tail(t, 2) == 0.0


def test_pda_ab_first_step(ab):
    solved = termination_probs(ab)
    trip = Triple("p", "X", "q")
    t = exact_distribution_pda(ab, trip, 30, norm=solved.probs[trip])
    assert t.mass[1] == pytest.approx(0.4, abs=1e-15)


def test_tree_truncated_conditional_mean_approaches_expectation(tree):
    solved = termination_probs(tree)
    trip = Triple("q", "A", "r0")
    norm = solved.probs[trip]
    t = exact_distribution_pda(tree, trip, 2000, norm=norm)
    mean = sum(n * t.mass[n] for n in range(2001)) / norm
    assert mean < 7.155113
    assert mean == pytest.approx(7.155113, abs=1e-4)


@given(small_bpas())
@settings(max_examples=40, deadline=None)
def test_bpa_dp_matches_exact_enumeration(model):
    start = model.alphabet[0]
    table = exact_distribution_bpa(model, start, 9)
    truth = brute_total_mass(model, Configuration("_", (start,)), 9)
    for n in range(10):
        assert table.mass[n] == pytest.approx(float(truth[n]), abs=1e-12)


@given(small_pdas())
@settings(max_examples=40, deadline=None)
def test_pda_dp_matches_exact_enumeration(model):
    start = Configuration(model.states[0], (model.alphabet[0],))
    truth = brute_mass(model, start, 8)
    for q in model.states:
        table = exact_distribution_pda(model, Triple(start.state, start.stack[0], q), 8)
        for n in range(9):
            assert table.mass[n] == pytest.approx(float(truth[q][n]), abs=1e-12)


@given(small_pdas(max_symbols=3))
@settings(max_examples=40, deadline=None)
@example(CRITICAL_PDAS["symmetric"])
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["unary"])
def test_pda_dp_all_targets_matches_per_term_dp(model):
    tables = exact_distribution_pda(model, None, 40)
    oracle = term_dp_masses(model, 40)
    assert set(tables) == set(oracle)
    for triple, table in tables.items():
        assert table.subject == triple and table.norm is None
        np.testing.assert_allclose(table.mass, oracle[triple], rtol=1e-13, atol=0)
        single = exact_distribution_pda(model, triple, 40, norm=0.5)
        assert np.array_equal(single.mass, table.mass) and single.norm == 0.5


@pytest.mark.parametrize("block", [1, 5, 64])
def test_pda_dp_pair_blocks_match_per_term_dp(monkeypatch, tree, block):
    # rows of up to DOT_BLOCK // step pairs: here one to a few dozen per block
    monkeypatch.setattr(ppda.distribution, "DOT_BLOCK", block)
    for model in (tree, random_pda(2, 6, seed=2)):
        tables = exact_distribution_pda(model, None, 60)
        oracle = term_dp_masses(model, 60)
        for triple, table in tables.items():
            np.testing.assert_allclose(table.mass, oracle[triple], rtol=1e-13, atol=0)


def test_word_distribution_is_convolution():
    m = subcritical_unit()
    pair = exact_distribution_word(m, ("X", "X"), 12)
    single = exact_distribution_bpa(m, "X", 12)
    manual = np.convolve(single.mass, single.mass)[:13]
    assert np.allclose(pair.mass, manual, atol=1e-15)
    truth = brute_total_mass(m, Configuration("_", ("X", "X")), 8)
    for n in range(9):
        assert pair.mass[n] == pytest.approx(float(truth[n]), abs=1e-12)


def test_relaxed_rhs_dp_matches_enumeration():
    m = make_bpa(
        [(("X", "Y", "Y", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
         (("Y",), Fraction(2, 3)), (("Y", "Y", "Y"), Fraction(1, 3))],
        relaxed=True,
    )
    table = exact_distribution_bpa(m, "X", 10)
    truth = brute_total_mass(m, Configuration("_", ("X",)), 10)
    for n in range(11):
        assert table.mass[n] == pytest.approx(float(truth[n]), abs=1e-12)


def test_mass_conservation(tree, delta1):
    d = exact_distribution_bpa(delta1, "X1", 256)
    assert d.mass.min() >= 0.0
    assert float(np.sum(d.mass)) <= 1 + 1e-12
    assert np.sum(d.mass) + d.residual_mass == pytest.approx(1.0, abs=1e-12)

    solved = termination_probs(tree)
    trip = Triple("q", "A", "r1")
    t = exact_distribution_pda(tree, trip, 400, norm=solved.probs[trip])
    assert np.sum(t.mass) + t.residual_mass == pytest.approx(solved.probs[trip], abs=1e-12)
    # residual shrinks with the horizon on a.s. terminating subjects
    shorter = exact_distribution_pda(tree, trip, 50, norm=solved.probs[trip])
    assert t.residual_mass < shorter.residual_mass


def test_tail_beyond_horizon_raises(delta1):
    t = exact_distribution_bpa(delta1, "X1", 8)
    with pytest.raises(ModelError):
        tail(t, 12)


def test_tail_needs_attached_norm(ab):
    t = exact_distribution_pda(ab, Triple("p", "X", "q"), 8)
    with pytest.raises(ModelError):
        tail(t, 2)


def test_simulate_trivial_terminator():
    m = make_bpa([(("X",), Fraction(1))], start="X")
    stats = simulate(m, Configuration("_", ("X",)), samples=500, step_cap=10, seed=3)
    assert stats.censored == 0
    assert stats.outcomes["_"] == {1: 500}


def test_simulate_never_terminates():
    m = make_bpa([(("X", "X", "X"), Fraction(1))], start="X")
    stats = simulate(m, Configuration("_", ("X",)), samples=200, step_cap=50, seed=1)
    assert stats.censored == 200
    assert stats.terminated == 0


def test_simulate_deterministic_and_seed_sensitive(delta1):
    start = Configuration("_", ("X1",))
    a = simulate(delta1, start, samples=2_000, step_cap=500, seed=11)
    b = simulate(delta1, start, samples=2_000, step_cap=500, seed=11)
    c = simulate(delta1, start, samples=2_000, step_cap=500, seed=12)
    assert a.outcomes == b.outcomes and a.censored == b.censored
    assert a.outcomes != c.outcomes
    assert sample_csv(a) == sample_csv(b)


@pytest.mark.slow
def test_simulation_tail_matches_dp(tree, ab, delta1):
    cases = [
        (tree, Configuration("q", ("A",)), 600),
        (ab, Configuration("p", ("X",)), 200),
        (delta1, Configuration("_", ("X1",)), 2_000),
    ]
    for model, start, cap in cases:
        stats = simulate(model, start, samples=100_000, step_cap=cap, seed=77)
        if model.stateless:
            exact = exact_distribution_bpa(model, start.stack[0], 64)
            true_tail = lambda n: tail(exact, n)
        else:
            solved = termination_probs(model)
            tables = [
                exact_distribution_pda(model, Triple(start.state, start.stack[0], q), 64,
                                       norm=solved.probs[Triple(start.state, start.stack[0], q)])
                for q in model.states
            ]
            true_tail = lambda n: 1.0 - sum(float(np.sum(t.mass[:n])) for t in tables)
        for n in (1, 2, 4, 8, 16, 32):
            est, se = stats.empirical_tail(n)
            assert abs(est - true_tail(n)) <= 4 * max(se, 1e-5), (model.kind, n)


def test_dist_csv_shape(delta1, tree):
    t = exact_distribution_bpa(delta1, "X1", 4)
    lines = dist_csv(t).splitlines()
    assert lines[0] == "n,mass,cumulative,tail"
    assert len(lines) == 6
    assert lines[1] == "0,0.0,0.0,1.0"

    solved = termination_probs(tree)
    trip = Triple("q", "A", "r0")
    tt = exact_distribution_pda(tree, trip, 4, norm=solved.probs[trip])
    header = dist_csv(tt).splitlines()[0]
    assert header.endswith(",cond_tail")


# ---------------------------------------------------------------------------
# the lockstep walker against the scalar one

SEEDS = st.sampled_from([0, 1, -7, 2**64 + 5])


@contextmanager
def walker_sizes(batch: int, budget: int):
    """At most ``batch`` runs at once, ``budget`` bytes of uniforms and
    stacks, and 64 times that for the stacks alone."""
    with mock.patch.object(ppda.distribution, "WALK_BATCH", batch), \
            mock.patch.object(ppda.distribution, "WALK_BYTES", budget), \
            mock.patch.object(ppda.distribution, "STACK_BYTES", 64 * budget):
        yield


def start_of(model, state: int, word: list[int] | None) -> Configuration:
    """The declared start for ``word`` None, else a start picked by indices."""
    if word is None:
        return model.start
    return Configuration(model.states[state % len(model.states)],
                         tuple(model.alphabet[i % len(model.alphabet)] for i in word))


# A budget of 1 byte gives blocks of 4 uniforms and stacks of 64 bytes, so
# runs are set aside and walked again once their stacks pass 8 symbols;
# 300 bytes shrink the cohorts of simulate_heads as the cap grows; 2**20
# leaves blocks to double.  Batches of 1 to 5 runs let samples join the
# walk at many steps within a dozen samples.
WALKS = dict(
    seed=SEEDS, samples=st.integers(1, 12),
    batch=st.integers(1, 5), budget=st.sampled_from([1, 300, 2**20]),
    state=st.integers(0, 2), word=st.lists(st.integers(0, 3), max_size=4),
)


def on_bundled(**fixed):
    """One ``@example`` per bundled model from its declared start, seeds cycling."""
    seeds = [1, -3, 2**64 + 1, 0]

    def apply(test):
        for k, name in enumerate(BUNDLED):
            test = example(model=load_model(name), seed=seeds[k % 4], state=0, word=None,
                           **fixed)(test)
        return test
    return apply


@given(model=st.one_of(small_pdas(max_symbols=3), relaxed_bpas(max_length=4)),
       cap=st.integers(1, 80), **WALKS)
@settings(max_examples=80, deadline=None)
@on_bundled(cap=300, samples=30, batch=7, budget=300)
@example(model=load_model("twostate.ppda"), seed=0, cap=1, samples=3, batch=2,
         budget=2**20, state=0, word=[])
def test_simulate_matches_scalar_walker(model, seed, cap, samples, batch, budget, state, word):
    start = start_of(model, state, word)
    with walker_sizes(batch, budget):
        stats = simulate(model, start, samples=samples, step_cap=cap, seed=seed)
    assert stats == simulate_loop(model, start, samples=samples, step_cap=cap, seed=seed)


@given(model=st.one_of(small_pdas(max_symbols=3), relaxed_bpas(max_length=4)),
       horizon=st.integers(1, 12), beyond=st.none() | st.integers(0, 40), **WALKS)
@settings(max_examples=80, deadline=None)
@on_bundled(horizon=6, beyond=60, samples=40, batch=9, budget=1)
@on_bundled(horizon=8, beyond=None, samples=40, batch=9, budget=2**20)
def test_simulate_heads_matches_scalar_walker(model, horizon, beyond, seed, samples,
                                              batch, budget, state, word):
    start = start_of(model, state, word)
    divergence_cap = None if beyond is None else horizon + beyond
    with walker_sizes(batch, budget):
        got = simulate_heads(model, start, samples, horizon, seed, divergence_cap)
    assert got == heads_loop(model, start, samples, horizon, seed, divergence_cap)


@pytest.mark.parametrize("name", BUNDLED)
def test_sample_csv_matches_scalar_walker_on_bundled_models(name):
    # 1,100 samples are more than one batch at the shipped sizes
    model = load_model(name)
    for seed in (3, 2**64 + 3):
        stats = simulate(model, model.start, samples=1_100, step_cap=3_000, seed=seed)
        oracle = simulate_loop(model, model.start, samples=1_100, step_cap=3_000, seed=seed)
        assert sample_csv(stats) == sample_csv(oracle)
        assert stats.censored == oracle.censored


def test_walk_refills_its_batch_at_large_caps(delta1):
    # samples join as runs end, whatever the cap: the first step walks a full
    # batch, and later samples start long before the first runs reach the cap
    batch = ppda.distribution.WALK_BATCH
    walk = ppda.distribution._walk(delta1, Configuration("_", ("X1",)), samples=4 * batch,
                                   cap=10**9, seed=1, batch=batch)
    steps = [(len(ids), int(ids.max(initial=0))) for _, (_, ids, *_) in zip(range(300), walk)]
    assert steps[0][0] > batch // 4
    assert max(top for _, top in steps) >= 2 * batch


def test_simulate_matches_scalar_walker_at_a_large_cap(delta1):
    start = Configuration("_", ("X1",))
    stats = simulate(delta1, start, samples=300, step_cap=10**5, seed=4)
    assert stats == simulate_loop(delta1, start, samples=300, step_cap=10**5, seed=4)


@contextmanager
def stack_bound(limit: int):
    """STACK_BYTES set to ``limit``; yields the sizes of the stacks allocated."""
    real = ppda.distribution._restack
    sizes = []

    def restack(stacks, pos, depth, rows, width):
        sizes.append(rows * width * stacks.itemsize)
        return real(stacks, pos, depth, rows, width)

    with mock.patch.object(ppda.distribution, "STACK_BYTES", limit), \
            mock.patch.object(ppda.distribution, "_restack", restack):
        yield sizes


def test_simulate_sets_aside_deep_runs_and_walks_them_again(delta1):
    # from 12 symbols, under a 512-byte bound, 32 runs fit in stacks of 16
    # symbols; when a stack passes 16 only 16 runs fit and the youngest are
    # set aside, to be walked again from step 0, and most of them still
    # empty their stacks before the cap
    start = Configuration("_", ("X1",) * 12)
    with stack_bound(512) as sizes:
        stats = simulate(delta1, start, samples=60, step_cap=5_000, seed=2)
    assert max(sizes) <= 512
    assert stats == simulate_loop(delta1, start, samples=60, step_cap=5_000, seed=2)


def test_simulate_heads_cohorts_fit_the_deepest_stacks(delta1):
    # simulate_heads never sets runs aside: its cohorts are small enough
    # for the deepest stacks the cap allows, here one run at a time
    start = Configuration("_", ("X1",) * 12)
    with stack_bound(512) as sizes:
        got = simulate_heads(delta1, start, 30, 5, seed=3, divergence_cap=200)
    assert max(sizes) <= 512
    assert got == heads_loop(delta1, start, 30, 5, seed=3, divergence_cap=200)


def test_simulators_reject_reachable_pair_without_rules():
    orphan = parse_model(ORPHAN_TEXT)
    start = Configuration("q", ("X",))
    with pytest.raises(ModelError, match=r"pair \(q, Y\) reachable"):
        simulate(orphan, start, samples=5, step_cap=10)
    with pytest.raises(ModelError, match=r"pair \(q, Y\) reachable"):
        simulate_heads(orphan, start, samples=5, horizon=3)
    with pytest.raises(ModelError, match="unknown symbol"):
        simulate(orphan, Configuration("p", ("Z",)), samples=5, step_cap=10)
    # (q, Y) lies out of reach from the declared start
    assert simulate(orphan, orphan.start, samples=5, step_cap=10).samples == 5


@pytest.mark.parametrize("samples,horizon", [(0, 3), (5, 0), (-1, 3)])
def test_simulate_heads_rejects_empty_requests(delta1, samples, horizon):
    with pytest.raises(ModelError):
        simulate_heads(delta1, Configuration("_", ("X1",)), samples=samples, horizon=horizon)
