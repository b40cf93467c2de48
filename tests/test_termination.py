import math
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ppda import (
    Configuration,
    Triple,
    exact_distribution_word,
    exact_distribution_pda,
    make_bpa,
    parse_model,
    qualitative_zero,
    simulate,
    termination_probs,
)
from ppda.model import Pda, Rule
import ppda.termination
from ppda.termination import CompiledSystem, NewtonDivergedError, _gmres, may_terminate

from helpers import (
    CRITICAL_PDAS,
    chain_monomials,
    critical_pda_chain,
    dense_newton,
    extended_newton_rows,
    f_prime_names,
    is_almost_surely_terminating,
    may_terminate_loop,
    near_critical_pda,
    random_pda,
    relaxed_bpas,
    small_bpas,
    small_pdas,
    solve_unchecked,
    term_system,
)

# the critical models of the benchmark, read from its directory
BLOCKING = {
    name: parse_model((Path(__file__).parent.parent / "perfbench" / "models" / f"{name}.ppda")
                      .read_text(encoding="utf-8"))
    for name in ("blocking_one_state", "blocking_two_state")
}

GRID = [Fraction(11, 20), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)]


def ab_model(a: Fraction, b: Fraction) -> Pda:
    rules = (
        Rule("p", "X", "q", ("X", "X"), a),
        Rule("p", "X", "q", (), 1 - a),
        Rule("q", "X", "p", ("X", "X"), b),
        Rule("q", "X", "p", (), 1 - b),
    )
    return Pda(("p", "q"), ("X",), rules, kind="pda",
               start=Configuration("p", ("X",)))


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("b", GRID)
def test_ab_grid_matches_closed_form(a, b):
    m = ab_model(a, b)
    t = termination_probs(m)
    assert t.prob("p", "X", "q") == pytest.approx(float((1 - a) / b), abs=1e-10)
    assert t.prob("q", "X", "p") == pytest.approx(float((1 - b) / a), abs=1e-10)
    assert t.prob("p", "X", "p") == pytest.approx(0.0, abs=1e-10)
    assert t.prob("q", "X", "q") == pytest.approx(0.0, abs=1e-10)


def test_single_epsilon_rule_terminates():
    m = make_bpa([(("X",), Fraction(1))])
    t = termination_probs(m)
    assert t.symbol_prob(m, "X") == 1.0
    assert t.diverge("_", "X") == 0.0


def test_tree_rows_sum_to_one(tree):
    t = termination_probs(tree)
    for p in tree.states:
        for X in tree.alphabet:
            total = sum(t.prob(p, X, q) for q in tree.states) + t.diverge(p, X)
            assert total == pytest.approx(1.0, abs=1e-9)
    assert t.prob("q", "A", "r0") + t.prob("q", "A", "r1") == pytest.approx(1.0, abs=1e-10)
    assert t.prob("q", "A", "r0") == pytest.approx(math.sqrt(2.5) - 1, abs=1e-10)


def test_probs_key_every_pair_by_target_then_up(tree, ab):
    for model in (tree, ab):
        table = termination_probs(model)
        expected = {}
        for p in model.states:
            for X in model.alphabet:
                for q in model.states:
                    expected[Triple(p, X, q)] = table.prob(p, X, q)
                expected[Triple(p, X, None)] = table.diverge(p, X)
        assert list(table.probs.items()) == list(expected.items())
        assert table.probs is table.probs  # built once


def test_divergence_masses_add_the_targets_in_state_order():
    # with 8 states a pairwise sum over the targets rounds differently in 15
    # of the 40 pairs; the masses are those of a loop over the target states
    model = random_pda(8, 5, seed=2)
    table = termination_probs(model)
    for p in model.states:
        for X in model.alphabet:
            total = 0.0
            for q in model.states:
                total += table.prob(p, X, q)
            assert table.diverge(p, X) == min(1.0, max(0.0, 1.0 - total))


def test_qualitative_zero_ab(ab):
    zeros = qualitative_zero(ab)
    assert Triple("p", "X", "p") in zeros
    assert Triple("q", "X", "q") in zeros
    assert Triple("p", "X", "q") not in zeros


def test_qualitative_zero_trivial_cases():
    assert qualitative_zero(make_bpa([(("X",), Fraction(1))])) == frozenset()
    grow = make_bpa([(("X", "X", "X"), Fraction(1))])
    assert qualitative_zero(grow) == frozenset({Triple("_", "X", "_")})


def test_almost_sure_examples(delta1):
    t1 = termination_probs(delta1)
    assert t1.symbol_prob(delta1, "X1") == 1.0
    assert is_almost_surely_terminating(delta1, t1)

    grow = make_bpa([(("X", "X", "X"), Fraction(1))])
    assert not is_almost_surely_terminating(grow, termination_probs(grow))

    super_crit = make_bpa([(("X", "X", "X"), Fraction(7, 10)), (("X",), Fraction(3, 10))])
    t3 = termination_probs(super_crit)
    assert t3.symbol_prob(super_crit, "X") == pytest.approx(3 / 7, abs=1e-12)
    assert not is_almost_surely_terminating(super_crit, t3)


def test_delta_family_snaps_to_certainty():
    from conftest import load_model

    for h in (1, 2, 3, 4):
        m = load_model(f"delta{h}.bpa")
        t = termination_probs(m)
        assert t.symbol_prob(m, f"X{h}") == 1.0
        assert t.residual <= 1e-12


def test_snap_resolves_symbols_above_a_critical_one():
    # Y is critical; X = 3/5 X^2 + 2/5 [Y] has least root 2/3 once [Y] = 1,
    # but Newton computed X from the stalled [Y], 1.5e-8 short of 1.
    m = make_bpa([(("X", "X", "X"), Fraction(3, 5)), (("X", "Y"), Fraction(2, 5)),
                  (("Y", "Y", "Y"), Fraction(1, 2)), (("Y",), Fraction(1, 2))])
    t = termination_probs(m)
    assert t.symbol_prob(m, "Y") == 1.0
    assert t.symbol_prob(m, "X") == pytest.approx(2 / 3, abs=1e-15)
    assert t.diverge("_", "X") == pytest.approx(1 / 3, abs=1e-15)
    assert t.residual <= t.tol


@pytest.mark.parametrize("k", [1, 2, 3])
def test_critical_pda_chains_solve_exactly(k):
    # each link is critical once the one below is exact; the decimal solve
    # with its doubled final step must get every value to exactly 1
    table = termination_probs(critical_pda_chain(k))
    assert [table.prob("u", f"X{i}", "u") for i in range(k + 1)] == [1.0] * (k + 1)


def test_extended_newton_matches_per_member_rows(monkeypatch, models_dir):
    # every decimal refinement on the models that reach it, against the
    # per-member encoding of F it replaced
    models = [parse_model(path.read_text(encoding="utf-8"))
              for path in sorted(models_dir.iterdir())]
    models += [*BLOCKING.values(), *CRITICAL_PDAS.values(),
               *(critical_pda_chain(k) for k in range(1, 5))]
    real, calls = ppda.termination._extended_newton, []

    def recorded(system, members, start, exact):
        before = dict(exact)
        iterates, error = real(system, members, start, exact)
        calls.append((system, members, start.copy(), before, iterates, dict(exact)))
        return iterates, error

    monkeypatch.setattr(ppda.termination, "_extended_newton", recorded)
    for model in models:
        solve_unchecked(model)
    assert len(calls) == 22
    for system, members, start, before, iterates, after in calls:
        exact = dict(before)
        expected, _ = extended_newton_rows(system, members, start, exact)
        assert len(iterates) == len(expected)
        assert iterates[-1] == expected[-1]
        assert max(abs(after[g] - exact[g]) for g in members) <= Decimal("1e-35")


def check_compiled_system(model: Pda, seed: int):
    """F and I - F' of the compiled system equal the term-list ones exactly."""
    system = CompiledSystem(model)
    triples, apply_f, newton_matrix = term_system(model)
    # the table numbers the triples that may terminate in (state, symbol, target) order
    states, alphabet = model.states, model.alphabet
    numbered = np.argwhere(system.table < system.n)
    assert system.table[tuple(numbered.T)].tolist() == list(range(system.n))
    assert [Triple(states[p], alphabet[x], states[q])
            for p, x, q in numbered.tolist()] == triples
    rng = np.random.default_rng(seed)
    n = len(triples)
    for v in (np.zeros(n), np.ones(n), rng.random(n)):
        assert np.array_equal(system.apply(v), apply_f(v))
        for free in (np.arange(n), np.sort(rng.permutation(n)[: n // 2]),
                     rng.permutation(n)[: (n + 1) // 2]):
            assert np.array_equal(system.newton_matrix(v, free), newton_matrix(v, free))


@given(small_pdas(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
@example(CRITICAL_PDAS["one_state"], 0)
@example(CRITICAL_PDAS["symmetric"], 1)
@example(CRITICAL_PDAS["with_bystander"], 2)
@example(CRITICAL_PDAS["alternating"], 3)
@example(CRITICAL_PDAS["unary"], 4)
def test_compiled_system_matches_term_lists(model, seed):
    check_compiled_system(model, seed)


def test_compiled_system_relaxed_words():
    m = make_bpa(
        [(("X", "Y", "Y", "Y"), Fraction(1, 2)), (("X", "X", "Y", "Z", "Y"), Fraction(1, 4)),
         (("X",), Fraction(1, 4)), (("Y",), Fraction(2, 3)), (("Y", "Y", "Z", "Y"), Fraction(1, 3)),
         (("Z", "Y"), Fraction(1, 2)), (("Z", "Z", "Z"), Fraction(1, 2))],
        relaxed=True,
    )
    assert {len(r.rhs_word) for r in m.rules} == {0, 1, 2, 3, 4}
    check_compiled_system(m, 5)


def test_compiled_system_lets_its_model_go():
    # the model caches its system; a reference back would keep both alive
    # in a cycle after the last outside reference to the model is gone
    model = critical_pda_chain(2)
    system, gone = model.compiled, weakref.ref(model)
    termination_probs(model)
    del model
    assert gone() is None
    assert system.n == 3


def test_newton_iterates_monotone_bounded(tree, ab):
    for model in (tree, ab):
        trace: list[np.ndarray] = []
        termination_probs(model, trace=trace)
        for prev, cur in zip(trace, trace[1:]):
            assert np.all(cur >= prev - 1e-12)
            assert np.all(cur <= 1.0 + 1e-12)


@given(small_pdas())
@settings(max_examples=40, deadline=None)
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_newton_monotone_and_consistent_random(model):
    check_newton_monotone_and_consistent(model)


def check_newton_monotone_and_consistent(model: Pda):
    trace: list[np.ndarray] = []
    table = termination_probs(model, trace=trace)
    for prev, cur in zip(trace, trace[1:]):
        assert np.all(cur >= prev - 1e-12)
    assert table.residual <= 1e-12
    for p in model.states:
        for X in model.alphabet:
            row = sum(table.prob(p, X, q) for q in model.states) + table.diverge(p, X)
            assert row == pytest.approx(1.0, abs=1e-9)
    return table


@pytest.fixture
def krylov(monkeypatch):
    """Every Newton step goes through GMRES."""
    monkeypatch.setattr(ppda.termination, "DENSE_MAX", 0)


@given(small_pdas())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_newton_monotone_and_consistent_random_krylov(krylov, model):
    check_newton_monotone_and_consistent(model)


def dense_table(model: Pda):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ppda.termination, "DENSE_MAX", math.inf)
        return termination_probs(model)


@pytest.mark.parametrize("name", [*CRITICAL_PDAS, *BLOCKING])
def test_critical_models_krylov_match_dense(krylov, name):
    model = {**CRITICAL_PDAS, **BLOCKING}[name]
    table = check_newton_monotone_and_consistent(model)
    dense = dense_table(model)
    for t, value in dense.probs.items():
        assert table.probs[t] == pytest.approx(value, abs=1e-13)


def test_blocking_models_exact_under_krylov(krylov):
    one = termination_probs(BLOCKING["blocking_one_state"])
    assert one.prob("u", "S", "u") == pytest.approx(1.0, abs=1e-15)
    table = termination_probs(BLOCKING["blocking_two_state"])
    for p in "pq":
        for q in "pq":
            assert table.prob(p, "X", q) == pytest.approx(0.5, abs=1e-15)


NEAR_CRITICAL_MODELS = {**CRITICAL_PDAS, **BLOCKING,
                        **{f"chain_{k}": critical_pda_chain(k) for k in range(1, 5)}}


@pytest.mark.parametrize("name", NEAR_CRITICAL_MODELS)
def test_near_critical_matches_name_set_oracle(monkeypatch, name):
    # each member list the decimal refinement receives is one SCC of the
    # name-set condensation of F', refined once and after every SCC it
    # depends on; every model refines at least one
    real, refined = ppda.termination._extended_newton, []

    def recorded(system, members, start, exact):
        refined.append(members)
        return real(system, members, start, exact)

    monkeypatch.setattr(ppda.termination, "_extended_newton", recorded)
    model = NEAR_CRITICAL_MODELS[name]
    solve_unchecked(model)
    info = f_prime_names(model.compiled)
    sccs = [sorted(comp) for comp in info.sccs]
    assert refined and all(members in sccs for members in refined)
    order = [sccs.index(members) for members in refined]
    assert len(set(order)) == len(order)
    for k, i in enumerate(order):
        assert info.scc_successors[i] <= set(order[:k])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
def test_critical_pda_chains_are_exact_or_refused(k):
    # a wrong value with a passing residual is the one outcome ruled out
    try:
        table = termination_probs(critical_pda_chain(k))
    except NewtonDivergedError:
        return
    assert np.all(np.abs(table.values - 1.0) <= 1e-12)


def test_krylov_above_crossover_matches_dense_newton():
    model = random_pda(6, 20, seed=1)
    system = CompiledSystem(model)
    assert system.n > ppda.termination.DENSE_MAX
    solves = []

    def counted(*args, **kwargs):
        x, solved = _gmres(*args, **kwargs)
        solves.append(solved)
        return x, solved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ppda.termination, "_gmres", counted)
        table = check_newton_monotone_and_consistent(model)
    assert solves and all(solves)
    oracle = dense_newton(model)
    for t, value in table.probs.items():
        if not t.diverging:
            assert value == pytest.approx(oracle.get(t, 0.0), abs=1e-13)


def count_products(mp) -> list:
    """Count the products of every ``newton_operator`` made under ``mp``."""
    products, operator = [], CompiledSystem.newton_operator

    def counted_operator(self, v, free):
        apply = operator(self, v, free)

        def counted(x):
            products.append(len(x))
            return apply(x)

        return counted

    mp.setattr(CompiledSystem, "newton_operator", counted_operator)
    return products


def test_deflated_newton_steps_take_fewer_products_and_still_climb():
    solve, tables, counts = ppda.termination._solve, {}, {}

    def undeflated(system, v, free, b, u=None):
        return solve(system, v, free, b)

    for deflate in (True, False):
        model = random_pda(6, 20, seed=1)
        assert model.compiled.n > ppda.termination.DENSE_MAX  # Newton steps by GMRES
        with pytest.MonkeyPatch.context() as mp:
            products = count_products(mp)
            if not deflate:
                mp.setattr(ppda.termination, "_solve", undeflated)
            tables[deflate] = check_newton_monotone_and_consistent(model)
        counts[deflate] = len(products)
    assert counts[True] < counts[False]
    np.testing.assert_allclose(tables[True].values, tables[False].values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("args,n", [((4, 20, 3), 324), ((6, 30, 1), 1086), ((6, 30, 6), 1079)])
def test_near_critical_pda_sizes(args, n):
    assert near_critical_pda(*args).compiled.n == n


def test_missed_gmres_steps_keep_their_iterate(monkeypatch):
    """GMRES steps that miss KRYLOV_RTOL, here under a cap of 60 products,
    each keep their iterate, no Newton matrix above DENSE_MAX is formed, and
    the values still match the dense solve's and climb."""
    model = near_critical_pda(4, 20, 3)
    monkeypatch.setattr(ppda.termination, "KRYLOV_MAX_PRODUCTS", 60)
    solves, sizes, matrix = [], [], CompiledSystem.newton_matrix

    def counted(*args, **kwargs):
        x, solved = _gmres(*args, **kwargs)
        solves.append(solved)
        return x, solved

    def measured(self, v, free):
        sizes.append(len(free))
        return matrix(self, v, free)

    monkeypatch.setattr(ppda.termination, "_gmres", counted)
    monkeypatch.setattr(CompiledSystem, "newton_matrix", measured)
    table = check_newton_monotone_and_consistent(model)
    assert not all(solves)
    assert max(sizes, default=0) <= ppda.termination.DENSE_MAX
    monkeypatch.undo()
    dense = dense_table(near_critical_pda(4, 20, 3))
    np.testing.assert_allclose(table.values, dense.values, rtol=0, atol=1e-15)
    np.testing.assert_allclose(table.up, dense.up, rtol=0, atol=1e-15)


# operator products of each solve when one Newton ran over all variables
# and then restarted the near-critical SCCs from its warm iterate
@pytest.mark.parametrize("args,products_before", [((4, 20, 3), 8_178), ((6, 30, 1), 9_919),
                                                  ((6, 30, 6), 5_652)])
def test_near_critical_family_solves_scc_by_scc(args, products_before):
    with pytest.MonkeyPatch.context() as mp:
        products = count_products(mp)
        table = check_newton_monotone_and_consistent(near_critical_pda(*args))
    assert 5 * len(products) <= products_before
    dense = dense_table(near_critical_pda(*args))
    np.testing.assert_allclose(table.values, dense.values, rtol=0, atol=1e-15)
    np.testing.assert_allclose(table.up, dense.up, rtol=0, atol=1e-15)


def cyclic_sccs(system: CompiledSystem) -> list[np.ndarray]:
    """The sorted cyclic SCCs of the graph of F'."""
    info = f_prime_names(system)
    return [np.array(sorted(comp)) for comp in info.sccs if info.on_cycle(comp[0])]


def uneven_pda() -> Pda:
    """A model whose pair p X0 has 33 rules and every other pair 2: two rows
    of its Newton operator hold 128 entries, the other fourteen one each, so
    the operator cannot lay them out as one matrix."""
    states, syms = ("p", "q"), ("X0", "X1", "X2", "X3")
    rules = [Rule("p", "X0", "q", (), Fraction(1, 33))]
    rules += [Rule("p", "X0", r, (Y, Z), Fraction(1, 33))
              for r in states for Y in syms for Z in syms]
    rules += [Rule(p, X, r, word, Fraction(1, 2))
              for p in states for X in syms if (p, X) != ("p", "X0")
              for r, word in ((p, ()), ("q" if p == "p" else "p", (X,)))]
    return Pda(states, syms, tuple(rules), kind="pda")


@pytest.mark.parametrize("model", [random_pda(6, 20, seed=1), random_pda(4, 12, seed=3),
                                   uneven_pda(), *CRITICAL_PDAS.values()],
                         ids=["random_6_20", "random_4_12", "uneven", *CRITICAL_PDAS])
def test_newton_operator_sums_rows_as_bincount(model):
    system = model.compiled
    rng = np.random.default_rng(11)
    v = rng.random(system.n) * 0.5 + 0.25
    comps = cyclic_sccs(system)
    assert comps
    for free in (np.arange(system.n), *comps):
        rows, cols, weights = system._jacobian(v, free)
        x = rng.random(len(free)) + 0.5
        sums = np.bincount(rows, weights * x[cols], minlength=len(free))
        got = system.newton_operator(v, free)(x)
        # every entry of -F' is negative, so no row sum cancels, but x plus
        # its row sum may: the bound is relative to both terms
        assert np.all(np.abs(got - (x + sums)) <= 1e-15 * (np.abs(x) + np.abs(sums)))


def test_newton_operator_refuses_unsorted_variables():
    system = random_pda(2, 6, seed=2).compiled
    v = np.full(system.n, 0.5)
    with pytest.raises(ValueError, match="sorted"):
        system.newton_operator(v, np.arange(system.n)[::-1])


def test_gmres_solves_nonsymmetric_systems_across_restarts(monkeypatch):
    rng = np.random.default_rng(7)
    a = np.eye(40) - 0.9 * rng.random((40, 40)) / 40
    b = rng.random(40)
    for restart in (3, 40):
        monkeypatch.setattr(ppda.termination, "KRYLOV_RESTART", restart)
        x, solved = _gmres(lambda y: a @ y, b)
        assert solved
        assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-11)
    # near-singular, as I - F' is near a critical fixed point: I - 0.999 S with
    # S column-stochastic has condition number about 1e3
    stochastic = rng.random((40, 40))
    stochastic /= stochastic.sum(axis=0)
    near = np.eye(40) - 0.999 * stochastic
    for restart in (3, 10, 40):
        monkeypatch.setattr(ppda.termination, "KRYLOV_RESTART", restart)
        x, solved = _gmres(lambda y: near @ y, b)
        assert solved
        assert np.linalg.norm(b - near @ x) <= 1e-12 * np.linalg.norm(b)
        np.testing.assert_allclose(x, np.linalg.solve(near, b), rtol=1e-8)
    # deflating the right Perron vector of S, which I - 0.999 S shrinks to
    # 0.001 of its length, saves products in every restart setting
    values, vectors = np.linalg.eig(stochastic)
    perron = np.real(vectors[:, np.argmax(np.real(values))])
    u = perron / np.linalg.norm(perron)
    for restart in (3, 10, 40):
        monkeypatch.setattr(ppda.termination, "KRYLOV_RESTART", restart)
        counts = []
        for deflate in (None, u):
            products = []
            x, solved = _gmres(lambda y: products.append(y) or near @ y, b, deflate)
            counts.append(len(products))
            assert solved
            assert np.linalg.norm(b - near @ x) <= 1e-12 * np.linalg.norm(b)
            np.testing.assert_allclose(x, np.linalg.solve(near, b), rtol=1e-8)
        assert counts[1] < counts[0]
    # u.(A u) <= 0: the solve runs undeflated, after the one product that tells
    skew = near.copy()
    skew[0, 0] = -0.5
    unit = np.eye(40)[0]
    plain, products = _gmres(lambda y: skew @ y, b), []
    deflated = _gmres(lambda y: products.append(y) or skew @ y, b, unit)
    assert deflated[1] and np.array_equal(deflated[0], plain[0])
    assert np.array_equal(products[0], unit)
    # theta = 1e-4 < DEFLATE_MIN: the rounding of A u / theta would come near
    # KRYLOV_RTOL (deflated, the solve takes three times the products), so
    # the solve runs undeflated
    critical = np.eye(40) - (1 - 1e-4) * stochastic
    theta = float(u @ critical @ u)
    assert 0 < theta < ppda.termination.DEFLATE_MIN
    plain, products = _gmres(lambda y: critical @ y, b), []
    deflated = _gmres(lambda y: products.append(y) or critical @ y, b, u)
    assert plain[1] and deflated[1] and np.array_equal(deflated[0], plain[0])
    assert np.array_equal(products[0], u)
    monkeypatch.setattr(ppda.termination, "KRYLOV_MAX_PRODUCTS", 2)
    x, solved = _gmres(lambda y: a @ y, b)
    assert not solved


def nonsymmetric_systems():
    """The matrices of ``test_gmres_solves_nonsymmetric_systems_across_restarts``:
    a, near = I - 0.999 S with S column-stochastic, the right side b and the
    unit right Perron vector u of S."""
    rng = np.random.default_rng(7)
    a = np.eye(40) - 0.9 * rng.random((40, 40)) / 40
    b = rng.random(40)
    stochastic = rng.random((40, 40))
    stochastic /= stochastic.sum(axis=0)
    values, vectors = np.linalg.eig(stochastic)
    perron = np.real(vectors[:, np.argmax(np.real(values))])
    return a, np.eye(40) - 0.999 * stochastic, b, perron / np.linalg.norm(perron)


def counted_gmres(matrix: np.ndarray, b: np.ndarray, u=None):
    """``_gmres`` on ``matrix``: x, whether solved, and the number of products."""
    products = []
    x, solved = _gmres(lambda y: products.append(y) or matrix @ y, b, u)
    return x, solved, len(products)


@pytest.mark.parametrize("degree", range(4))
def test_gmres_reaches_the_tolerance_at_every_neumann_degree(monkeypatch, degree):
    monkeypatch.setattr(ppda.termination, "NEUMANN_DEGREE", degree)
    a, near, b, u = nonsymmetric_systems()
    assert float(u @ near @ u) >= ppda.termination.DEFLATE_MIN  # u is recycled
    for restart in (3, 10, 40):
        monkeypatch.setattr(ppda.termination, "KRYLOV_RESTART", restart)
        for matrix, recycle in ((a, None), (a, u), (near, None), (near, u)):
            x, solved, _ = counted_gmres(matrix, b, recycle)
            assert solved
            residual = np.linalg.norm(b - matrix @ x)
            assert residual <= ppda.termination.KRYLOV_RTOL * np.linalg.norm(b)
        # near shrinks the Perron vector to 0.001 of its length: recycling it
        # saves products at every degree and restart
        plain, recycled = counted_gmres(near, b)[2], counted_gmres(near, b, u)[2]
        assert recycled < plain
    # at restart 40 one cycle holds every step, and the corrected updates
    # leave no part along A u for a second: the recycled solve takes the
    # product of u, NEUMANN_DEGREE + 1 per Arnoldi step and one residual
    assert (recycled - 2) % (degree + 1) == 0


@pytest.mark.parametrize("degree", range(4))
def test_gmres_stops_within_one_product_past_the_cap(monkeypatch, degree):
    # Arnoldi steps take NEUMANN_DEGREE + 1 products each and none starts past
    # KRYLOV_MAX_PRODUCTS; the last cycle's residual is the one product more.
    # So a solve stopped by the cap has made between cap - NEUMANN_DEGREE and
    # cap + 1 products.
    monkeypatch.setattr(ppda.termination, "NEUMANN_DEGREE", degree)
    monkeypatch.setattr(ppda.termination, "KRYLOV_RESTART", 3)
    _, near, b, u = nonsymmetric_systems()
    for cap in (5, 8, 10):
        monkeypatch.setattr(ppda.termination, "KRYLOV_MAX_PRODUCTS", cap)
        for recycle in (None, u):
            _, solved, products = counted_gmres(near, b, recycle)
            assert not solved
            assert cap - degree <= products <= cap + 1


def may_terminate_triples(model: Pda) -> frozenset[Triple]:
    """The true entries of ``may_terminate(model)`` as triples."""
    states, alphabet = model.states, model.alphabet
    return frozenset(Triple(states[p], alphabet[x], states[q])
                     for p, x, q in np.argwhere(may_terminate(model)).tolist())


@given(small_pdas())
@settings(max_examples=60, deadline=None)
@example(CRITICAL_PDAS["with_bystander"])
def test_may_terminate_matches_rule_sweeps(model):
    assert may_terminate_triples(model) == may_terminate_loop(model)


def check_chain_monomials(model: Pda):
    system = CompiledSystem(model)
    oracle = chain_monomials(model)
    for name, want in oracle.items():
        assert np.array_equal(getattr(system, name), want), name


@given(small_pdas())
@settings(max_examples=60, deadline=None)
@example(CRITICAL_PDAS["one_state"])
@example(CRITICAL_PDAS["symmetric"])
@example(CRITICAL_PDAS["with_bystander"])
@example(CRITICAL_PDAS["alternating"])
@example(CRITICAL_PDAS["unary"])
def test_compiled_monomials_match_chain_loop(model):
    check_chain_monomials(model)


@given(relaxed_bpas())
@settings(max_examples=60, deadline=None)
def test_compiled_monomials_match_chain_loop_relaxed(model):
    assert may_terminate_triples(model) == may_terminate_loop(model)
    check_chain_monomials(model)


@given(small_bpas())
@settings(max_examples=40, deadline=None)
def test_qualitative_zero_agrees_with_newton(model):
    table = termination_probs(model)
    zeros = qualitative_zero(model)
    for t, value in table.probs.items():
        if t.diverging:
            continue
        if t in zeros:
            assert value == 0.0
        else:
            assert value > 0.0


@pytest.mark.slow
def test_monte_carlo_consistency_with_probabilities(tree, ab, twostate, delta1):
    """Estimates of [pXq] agree with Newton within sampling noise.

    The comparison quantity is the probability of terminating at q within
    the step cap: the DP gives it exactly, so censoring of heavy tails
    introduces no bias.  Where the beyond-cap remainder is negligible the
    estimate is also checked against [pXq] itself.
    """
    cases = [
        (tree, Configuration("q", ("A",)), 1_000),
        (ab, Configuration("p", ("X",)), 200),
        (twostate, Configuration("p", ("X",)), 400),
        (delta1, Configuration("_", ("X1",)), 10_000),
    ]
    samples = 100_000
    for model, start, cap in cases:
        table = termination_probs(model)
        stats = simulate(model, start, samples=samples, step_cap=cap, seed=20240817)
        for q in model.states:
            triple = Triple(start.state, start.stack[0], q)
            truth = table.probs[triple]
            if model.stateless:
                dist = exact_distribution_word(model, (start.stack[0],), cap)
            else:
                dist = exact_distribution_pda(model, triple, cap, norm=truth)
            if model.stateless:
                truncated = float(np.sum(dist.mass[: cap + 1])) if q == start.state else 0.0
            else:
                truncated = float(np.sum(dist.mass[: cap + 1]))
            estimate = stats.termination_rate(q)
            se = math.sqrt(max(truncated * (1 - truncated), 1e-12) / samples)
            assert abs(estimate - truncated) <= 4 * se, (
                f"{model.kind} target {q}: {estimate} vs truncated {truncated}"
            )
            remainder = truth - truncated
            if remainder <= se / 4:
                assert abs(estimate - truth) <= 4 * se + remainder
