import tracemalloc
from collections import Counter
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
from ppda.distribution import DistTable, SampleStats, dist_csv, sample_csv

from conftest import MODELS, load_model
from helpers import (
    CHUNK_EDGES,
    CRITICAL_PDAS,
    ORPHAN_TEXT,
    bpa_masses_loop,
    brute_mass,
    brute_total_mass,
    dist_csv_loop,
    heads_loop,
    perfbench_gen,
    random_pda,
    relaxed_bpas,
    sample_csv_loop,
    simulate_loop,
    small_bpas,
    small_pdas,
    subcritical_unit,
    term_dp_masses,
    written,
)

BUNDLED = sorted(path.name for path in MODELS.iterdir())


def test_single_step_mass():
    m = make_bpa([(("X",), Fraction(1))])
    t = exact_distribution_word(m, ("X",), 4)
    assert t.mass[1] == 1.0
    assert float(np.sum(t.mass)) == 1.0
    assert tail(t, 1) == 1.0
    assert tail(t, 2) == 0.0


def test_delta1_catalan_prefix(delta1):
    # P(T = 2k+1) = Catalan(k) / 2^(2k+1), frozen from the closed form
    t = exact_distribution_word(delta1, ("X1",), 16)
    assert t.mass[1] == pytest.approx(1 / 2, abs=1e-15)
    assert t.mass[2] == 0.0
    assert t.mass[3] == pytest.approx(1 / 8, abs=1e-15)
    assert t.mass[5] == pytest.approx(1 / 16, abs=1e-15)
    assert t.mass[7] == pytest.approx(5 / 128, abs=1e-15)
    assert tail(t, 5) == pytest.approx(0.375, abs=1e-15)


def test_subcritical_single_tree_shape():
    t = exact_distribution_word(subcritical_unit(), ("X",), 8)
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
    table = exact_distribution_word(model, (start,), 9)
    truth = brute_total_mass(model, Configuration("_", (start,)), 9)
    for n in range(10):
        assert table.mass[n] == pytest.approx(float(truth[n]), abs=1e-12)


# Three terms a step per symbol, whose sum depends on the order they are added in
THREE_TERMS = make_bpa([(("X", "X", "X"), Fraction(1, 3)), (("X", "Y"), Fraction(1, 3)),
                        (("X", "X", "Y", "X"), Fraction(1, 6)), (("X",), Fraction(1, 6)),
                        (("Y", "X"), Fraction(1, 2)), (("Y",), Fraction(1, 2))],
                       start="X", relaxed=True)


@given(model=st.one_of(small_bpas(), relaxed_bpas(max_length=4)),
       n_max=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 300)))
@settings(max_examples=80, deadline=None)
@example(model=load_model("delta1.bpa"), n_max=4096)
@example(model=load_model("delta2.bpa"), n_max=4096)
@example(model=load_model("delta3.bpa"), n_max=4096)
@example(model=load_model("delta4.bpa"), n_max=4096)
@example(model=load_model("delta4.bpa"), n_max=16384)  # dots past BLAS's threading cutoff
@example(model=THREE_TERMS, n_max=300)
def test_bpa_dp_is_bit_identical_to_the_loop(model, n_max):
    # the mirror rows feed BLAS the products of the reversed-slice dots, in order
    new, old = ppda.distribution._bpa_masses(model, n_max), bpa_masses_loop(model, n_max)
    for sym in model.alphabet:
        assert np.array_equal(new[sym], old[sym])


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
    single = exact_distribution_word(m, ("X",), 12)
    manual = np.convolve(single.mass, single.mass)[:13]
    assert np.allclose(pair.mass, manual, atol=1e-15)
    truth = brute_total_mass(m, Configuration("_", ("X", "X")), 8)
    for n in range(9):
        assert pair.mass[n] == pytest.approx(float(truth[n]), abs=1e-12)


@pytest.mark.parametrize("dp,start", [(exact_distribution_word, ("Q",)),
                                      (exact_distribution_word, ("X1", "Q"))],
                         ids=["exact_distribution_word-start1", "exact_distribution_word-start2"])
def test_dp_rejects_an_unknown_start_symbol(delta1, dp, start):
    with pytest.raises(ModelError, match="^unknown start symbol 'Q'$"):
        dp(delta1, start, 5)


def test_dp_beyond_the_byte_budget_is_refused(delta1, tree):
    # refused before any row is allocated: the rows alone would take 149 and 745 GiB
    with pytest.raises(ModelError, match=r"needs 2 rows of 10000000001 doubles, 149 GiB"):
        exact_distribution_word(delta1, ("X1",), 10**10)
    with pytest.raises(ModelError, match=r"needs 10 rows of 10000000001 doubles, 745 GiB"):
        exact_distribution_pda(tree, None, 10**10)
    # a law and a mirror row per symbol, and a row per inner prefix of a word:
    # 2 * 2 + (2 + 1) rows, where a row per symbol and per word position past
    # the first made 2 + (3 + 1 + 1 + 2) = 9
    relaxed = make_bpa(
        [(("X", "X", "Y", "Y", "Y"), Fraction(1, 4)), (("X", "Y", "Y"), Fraction(1, 4)),
         (("X",), Fraction(1, 2)), (("Y", "Y", "Y"), Fraction(1, 4)),
         (("Y", "Y", "Y", "Y"), Fraction(1, 4)), (("Y",), Fraction(1, 2))],
        relaxed=True,
    )
    with pytest.raises(ModelError, match=r"needs 7 rows of 10000000001 doubles, 522 GiB"):
        exact_distribution_word(relaxed, ("X",), 10**10)


def test_bpa_dp_allocates_only_its_counted_rows():
    delta4 = load_model("delta4.bpa")
    n_max, rows = 4096, 2 * len(delta4.alphabet)  # delta4's words hold at most 2 symbols
    delta4.rule_arrays  # cached before the count starts
    tracemalloc.start()
    try:
        ppda.distribution._bpa_masses(delta4, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no dot copies a reversed operand (32 KiB each at this horizon)
    assert peak <= 8 * rows * (n_max + 1) + 8 * 1024


def test_relaxed_rhs_dp_matches_enumeration():
    m = make_bpa(
        [(("X", "Y", "Y", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
         (("Y",), Fraction(2, 3)), (("Y", "Y", "Y"), Fraction(1, 3))],
        relaxed=True,
    )
    table = exact_distribution_word(m, ("X",), 10)
    truth = brute_total_mass(m, Configuration("_", ("X",)), 10)
    for n in range(11):
        assert table.mass[n] == pytest.approx(float(truth[n]), abs=1e-12)


def test_mass_conservation(tree, delta1):
    d = exact_distribution_word(delta1, ("X1",), 256)
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
    t = exact_distribution_word(delta1, ("X1",), 8)
    with pytest.raises(ModelError):
        tail(t, 12)


@pytest.mark.parametrize("n", [-1, 0])
def test_tail_below_one_is_the_whole_mass(delta1, ab, n):
    """P(T >= n) = 1 for every n <= 0, as ``SampleStats.empirical_tail`` has it."""
    assert tail(exact_distribution_word(delta1, ("X1",), 8), n) == 1.0
    trip = Triple("p", "X", "q")
    norm = termination_probs(ab).probs[trip]
    assert tail(exact_distribution_pda(ab, trip, 8, norm=norm), n) == 1.0


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
            exact = exact_distribution_word(model, (start.stack[0],), 64)
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
    t = exact_distribution_word(delta1, ("X1",), 4)
    lines = dist_csv(t).splitlines()
    assert lines[0] == "n,mass,cumulative,tail"
    assert len(lines) == 6
    assert lines[1] == "0,0.0,0.0,1.0"

    solved = termination_probs(tree)
    trip = Triple("q", "A", "r0")
    tt = exact_distribution_pda(tree, trip, 4, norm=solved.probs[trip])
    header = dist_csv(tt).splitlines()[0]
    assert header.endswith(",cond_tail")


MODEL_HORIZONS = dict(model=st.one_of(small_bpas(), relaxed_bpas(max_length=4), small_pdas()),
                      horizon=st.integers(1, 300))
SUBJECT = Triple("p", "X", "q")


@st.composite
def dist_tables(draw):
    """Tables of a stateless start word, or of a triple with its termination
    probability or with no norm, as ``ppda dist`` builds them."""
    model, n_max = draw(MODEL_HORIZONS["model"]), draw(MODEL_HORIZONS["horizon"])
    if model.stateless:
        word = draw(st.lists(st.sampled_from(model.alphabet), min_size=1, max_size=3))
        return exact_distribution_word(model, tuple(word), n_max)
    triple = Triple(draw(st.sampled_from(model.states)), draw(st.sampled_from(model.alphabet)),
                    draw(st.sampled_from(model.states)))
    norm = None
    if draw(st.booleans()):
        norm = termination_probs(model).prob(triple.state, triple.symbol, triple.target)
    return exact_distribution_pda(model, triple, n_max, norm=norm)


@given(dist_tables())
@settings(max_examples=80, deadline=None)
@example(DistTable(SUBJECT, np.zeros(4), 3, norm=0.0))
@example(DistTable(SUBJECT, np.array([0.0, 0.25, 0.5]), 2, norm=None))  # nan tails
@example(DistTable(SUBJECT, np.array([0.0, 0.1, 0.2, 0.7, 0.3]), 4, norm=1.0))  # gaps below 0
@example(DistTable("X", np.array([0.0, 0.5, 0.75]), 2, norm=1.0))
@example(DistTable("X", np.zeros(3), 2, norm=-0.0))  # gaps of -0.0, which max keeps
@example(exact_distribution_word(load_model("delta4.bpa"), ("X4",), 16384))
def test_dist_csv_matches_the_row_loop(table):
    assert written(dist_csv, table) == dist_csv_loop(table)


@given(seed=st.integers(0, 2**64 - 1), samples=st.integers(1, 30), **MODEL_HORIZONS)
@settings(max_examples=60, deadline=None)
@example(model=make_bpa([(("X", "X", "X"), Fraction(1))], start="X"), horizon=20, samples=5,
         seed=0)  # all censored
@example(model=load_model("tree.ppda"), horizon=300, samples=30, seed=1)
def test_sample_csv_matches_the_row_loop(model, horizon, samples, seed):
    start = Configuration(model.states[0], (model.alphabet[0],))
    stats = simulate(model, start, samples=samples, step_cap=horizon, seed=seed)
    assert written(sample_csv, stats) == sample_csv_loop(stats)


@pytest.mark.parametrize("rows", CHUNK_EDGES)
def test_csv_writers_match_the_row_loops_at_the_chunk_edges(rows):
    mass = np.random.default_rng(rows).random(rows) / rows
    for table in (DistTable(SUBJECT, mass, rows - 1, norm=0.75),
                  DistTable("X", mass, rows - 1, norm=1.0)):
        text = written(dist_csv, table)
        assert text == dist_csv_loop(table) and text.count("\n") == rows + 1
    # a run ending at each step from 1 to ``rows``, and one at 0 besides
    for first in (1, 0):
        stats = SampleStats(samples=rows + 1 - first, seed=0, step_cap=rows,
                            outcomes={"_": Counter(range(first, rows + 1))}, censored=0)
        text = written(sample_csv, stats)
        assert text == sample_csv_loop(stats) and text.count("\n") == rows + 2 - first


def test_sample_csv_of_an_empty_start_matches_the_row_loop():
    stats = SampleStats(samples=7, seed=0, step_cap=5, outcomes={"_": Counter({0: 7})},
                        censored=0)
    assert sample_csv(stats) == sample_csv_loop(stats)
    assert sample_csv(stats).splitlines()[1].startswith("0,7,1.0,")


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_tail_is_the_tail_column_of_dist_csv(h):
    # both read one sequential prefix sum, so they agree to the last digit
    table = exact_distribution_word(load_model(f"delta{h}.bpa"), (f"X{h}",), 1024)
    column = [float(row.split(",")[3]) for row in dist_csv(table).splitlines()[1:]]
    assert [tail(table, n) for n in range(table.n_max + 1)] == column
    assert tail(table, table.n_max + 1) == table.residual_mass


# ---------------------------------------------------------------------------
# the lockstep walker against the scalar one

SEEDS = st.sampled_from([0, 1, 2**64 - 7, 2**64 - 1])


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
    seeds = [1, 2**64 - 3, 2**64 - 1, 0]

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
    for seed in (3, 2**64 - 1):
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


def test_seeds_span_the_high_word_of_the_stream_key(ab):
    # each end of the range keys its own streams; one past either end raises
    for seed in (0, 2**64 - 1):
        stats = simulate(ab, ab.start, samples=40, step_cap=50, seed=seed)
        assert stats == simulate_loop(ab, ab.start, samples=40, step_cap=50, seed=seed)
    for seed in (-1, 2**64):
        with pytest.raises(ModelError, match=r"outside 0 \.\. 2\*\*64 - 1"):
            simulate(ab, ab.start, samples=40, step_cap=50, seed=seed)
        with pytest.raises(ModelError, match=r"outside 0 \.\. 2\*\*64 - 1"):
            simulate_heads(ab, ab.start, samples=40, horizon=5, seed=seed)


@pytest.mark.parametrize("samples,horizon", [(0, 3), (5, 0), (-1, 3)])
def test_simulate_heads_rejects_empty_requests(delta1, samples, horizon):
    with pytest.raises(ModelError):
        simulate_heads(delta1, Configuration("_", ("X1",)), samples=samples, horizon=horizon)


# ---------------------------------------------------------------------------
# outcome ranks: the walker compares ranks among the cumulatives, not doubles

EDGE = Fraction(1, ppda.distribution.RANK_BUCKETS)  # the width of a bucket of [0, 1)
# X: 10 cuts on bucket edges and one between; Y: two cuts in bucket 0 and one
# at 1/2; Z: one rule, so no cut; W: a row summing to just over 1, within
# ROW_SUM_TOL, whose second cumulative is 1.0, which no draw reaches.  12
# cuts in all, past the compared few.
EDGE_CUTS = make_bpa([*[(("X", "X", "X"), EDGE)] * 10, (("X", "Y"), Fraction(1, 3)),
                      (("X", "W"), 1 - 10 * EDGE - Fraction(1, 3)),
                      (("Y", "Z"), Fraction(1, 10**6)), (("Y",), Fraction(1, 10**6)),
                      (("Y", "Y", "Y"), Fraction(1, 2) - Fraction(2, 10**6)),
                      (("Y",), Fraction(1, 2)), (("Z",), Fraction(1)),
                      (("W",), Fraction(1, 2)), (("W", "W"), Fraction(1, 2)),
                      (("W", "W", "W"), Fraction(1, 10**10))], start="X")
# two cuts, one on a bucket edge: the comparison path
FEW_CUTS = make_bpa([(("X", "X", "X"), Fraction(1, 2)), (("X", "X"), Fraction(1, 4)),
                     (("X",), Fraction(1, 4)), (("Y",), Fraction(1))], start="X")


def float_cumulatives(model) -> list[list[float]]:
    """Per pair, its rule probabilities summed in rule order as doubles, the
    last the sentinel 1 + 1e-12: what a walk over doubles compares."""
    rules, n_sym = model.rule_arrays, len(model.alphabet)
    sums: dict[int, list[float]] = {}
    for pair, prob in zip((rules.lhs_state * n_sym + rules.lhs_symbol).tolist(),
                          rules.prob.tolist()):
        row = sums.setdefault(pair, [])
        row.append((row[-1] if row else 0.0) + prob)
    for row in sums.values():
        row[-1] = 1.0 + 1e-12
    return [sums.get(pair, []) for pair in range(len(model.states) * n_sym)]


def edge_draws(cuts) -> np.ndarray:
    """0, the largest double below 1, every bucket edge, and each cut with
    its neighbours one double below and above."""
    points = [*cuts.tolist(), *(np.arange(ppda.distribution.RANK_BUCKETS)
                                / ppda.distribution.RANK_BUCKETS).tolist()]
    draws = [0.0, np.nextafter(1.0, 0.0)]
    for x in points:
        draws += [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
    return np.array([d for d in draws if 0.0 <= d < 1.0])


@pytest.mark.parametrize("model", [EDGE_CUTS, FEW_CUTS], ids=["table", "compared"])
def test_ranks_pick_as_the_doubles_at_the_edges(model):
    table = ppda.distribution._outcomes(model)
    cumulatives = float_cumulatives(model)
    assert model is FEW_CUTS or [0.5, 1.0, 1.0 + 1e-12] in cumulatives
    assert table.cuts.tolist() == sorted({c for row in cumulatives for c in row if c < 1.0})
    assert table.cum.dtype == np.uint8
    u = edge_draws(table.cuts)
    ranks = table.ranks(u.reshape(1, -1)).reshape(-1)  # a block's scratch is 2-d
    assert ranks.tolist() == [sum(c <= x for c in table.cuts.tolist()) for x in u.tolist()]
    assert ranks.max() <= len(table.cuts) < table.cum.max()  # no draw reaches the sentinel
    for pair, row in enumerate(cumulatives):
        for j in range(table.k - 1):
            stored = table.cum[j][pair]
            if j < len(row):
                assert (stored == len(table.cuts) + 1) == (row[j] >= 1.0)
            picked = (stored <= ranks).tolist()
            assert picked == [j < len(row) and row[j] <= x for x in u.tolist()]


def many_cut_bpa(rules: int = 300):
    """A relaxed bpa whose one symbol has ``rules`` rules of the distinct
    probabilities i/(1 + ... + rules), with words of 0 to 3 symbols (5/6
    expected): rules - 1 cuts, whose ranks need uint16."""
    total, lengths = rules * (rules + 1) // 2, (0, 0, 0, 0, 2, 3)
    return make_bpa([(("X",) + ("X",) * lengths[i % 6], Fraction(i, total))
                     for i in range(1, rules + 1)], start="X", relaxed=True)


MANY_CUTS = many_cut_bpa()


def test_many_cuts_rank_in_uint16():
    table = ppda.distribution._outcomes(MANY_CUTS)
    assert len(table.cuts) == 299 and table.cum.dtype == np.uint16
    u = edge_draws(table.cuts)
    assert table.ranks(u).tolist() == np.searchsorted(table.cuts, u, side="right").tolist()


@given(model=st.just(MANY_CUTS), seed=SEEDS, samples=st.integers(1, 12),
       batch=st.integers(1, 5), budget=st.sampled_from([1, 2**20]), cap=st.integers(1, 80),
       horizon=st.integers(1, 12))
@settings(max_examples=20, deadline=None)
@example(model=parse_model(perfbench_gen().random_pda(4, 20, 1)), seed=1, samples=30, batch=7,
         budget=1, cap=300, horizon=8)
@example(model=parse_model(perfbench_gen().random_pda(4, 20, 1)), seed=2**64 - 1, samples=30,
         batch=7, budget=2**20, cap=300, horizon=8)
def test_walker_on_many_cuts_matches_scalar_walker(model, seed, samples, batch, budget, cap,
                                                   horizon):
    # a budget of 1 byte gives blocks of 4 draws; 2**20 lets blocks grow
    with walker_sizes(batch, budget):
        stats = simulate(model, model.start, samples=samples, step_cap=cap, seed=seed)
        heads = simulate_heads(model, model.start, samples, horizon, seed, horizon + cap)
    assert stats == simulate_loop(model, model.start, samples=samples, step_cap=cap, seed=seed)
    assert heads == heads_loop(model, model.start, samples, horizon, seed, horizon + cap)


@pytest.mark.parametrize("name,samples,cap", [("delta4.bpa", 1_000, 10_000),
                                              ("ab.ppda", 2_000, 2_000)])
def test_rank_blocks_stay_within_the_walk_budget(name, samples, cap):
    # the rank block gets half of what the stacks leave of WALK_BYTES, and the
    # doubles pass through the scratch: no call allocates more than two
    # scratches' worth
    real_block, real_restack = ppda.distribution._Streams.block, ppda.distribution._restack
    stacks, calls = [0], []

    def restack(*args):
        new, pos = real_restack(*args)
        stacks[0] = new.nbytes
        return new, pos

    def block(self, ids, t, size):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = real_block(self, ids, t, size)
        calls.append((out.nbytes, ppda.distribution.WALK_BYTES - stacks[0], self.scratch.size,
                      tracemalloc.get_traced_memory()[1] - before))
        return out

    model = load_model(name)
    tracemalloc.start()
    try:
        with mock.patch.object(ppda.distribution, "_restack", restack), \
                mock.patch.object(ppda.distribution._Streams, "block", block):
            stats = simulate(model, model.start, samples=samples, step_cap=cap, seed=7)
    finally:
        tracemalloc.stop()
    assert 0 < stats.censored < samples and len(calls) > 5
    assert all(nbytes <= room // 2 for nbytes, room, _, _ in calls)
    assert max(scratch for _, _, scratch, _ in calls) <= 8_192
    assert max(peak for *_, peak in calls) <= 2 * 8_192 * 8
