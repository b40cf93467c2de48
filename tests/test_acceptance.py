"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).  Every tolerance is pinned here; the
statistical checks use fixed seeds.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from ppda import (
    Configuration,
    classify,
    exact_distribution_pda,
    exact_distribution_word,
    lower_bound_pmin,
    make_bpa,
    moment_matrix,
    simulate_heads,
    tail,
    termination_probs,
    to_bpa,
    upper_bound_azuma,
)
from ppda.cli import main

from appendix import cone_vector, g_function, make_u_progressive, rule_weight_change
from conftest import load_model
from helpers import (brute_total_mass, p_min, scc_restriction, subcritical_unit, suffix_tail,
                     table_residual)

TREE_EXPECTATIONS = {
    "q.A.r0": 7.155113,
    "q.A.r1": 7.172218,
    "q.O.r0": 7.172218,
    "q.O.r1": 7.155113,
    "r0.A.r0": 1.000000,
    "r1.A.r0": 8.172218,
    "r1.A.r1": 8.155113,
    "r1.O.r1": 1.000000,
    "r0.O.r1": 8.172218,
    "r0.O.r0": 8.155113,
}


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self, label: str):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.2f}s (budget {self.limit}s)"
        return elapsed


def announce(n: int, label: str, elapsed: float):
    print(f"ACCEPTANCE {n}: PASS  {label}  [{elapsed:.2f}s]")


def test_criterion_1_andor_tree_expectations(models_dir, tmp_path):
    budget = Budget(1.0)
    out = tmp_path / "tree.json"
    code = main(["analyze", str(models_dir / "tree.ppda"), "--start", "q.A",
                 "--json", str(out)])
    assert code == 0
    values = json.loads(out.read_text())["expectations"]["values"]
    assert len(values) == 10
    for name, expected in TREE_EXPECTATIONS.items():
        assert abs(values[name] - expected) <= 1e-5, name
    elapsed = budget.check("criterion 1")
    announce(1, "And/Or-tree conditional expectations within 1e-5", elapsed)


def test_criterion_2_symbolic_termination_grid():
    budget = Budget(1.0)
    from ppda.model import Pda, Rule

    grid = [Fraction(11, 20), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)]
    for a in grid:
        for b in grid:
            rules = (
                Rule("p", "X", "q", ("X", "X"), a),
                Rule("p", "X", "q", (), 1 - a),
                Rule("q", "X", "p", ("X", "X"), b),
                Rule("q", "X", "p", (), 1 - b),
            )
            m = Pda(("p", "q"), ("X",), rules, kind="pda")
            t = termination_probs(m)
            assert abs(t.prob("p", "X", "q") - float((1 - a) / b)) <= 1e-10
            assert abs(t.prob("q", "X", "p") - float((1 - b) / a)) <= 1e-10
            assert abs(t.prob("p", "X", "p")) <= 1e-10
            assert abs(t.prob("q", "X", "q")) <= 1e-10
    elapsed = budget.check("criterion 2")
    announce(2, "a/b grid termination probabilities within 1e-10", elapsed)


def test_criterion_3_transformation_preserves_distributions(tree, ab, twostate):
    budget = Budget(5.0)
    checked = 0
    for model in (tree, ab, twostate):
        table = termination_probs(model)
        result = to_bpa(model, table)
        part = result.part
        for name in part.alphabet:
            trip = result.symbols[name]
            norm = table.probs[trip]
            conditional = exact_distribution_pda(model, trip, 30, norm=norm).mass / norm
            stateless = exact_distribution_word(part, (name,), 30).mass
            assert float(np.max(np.abs(conditional - stateless))) <= 1e-9, name
            checked += 1
    assert checked >= 16
    elapsed = budget.check("criterion 3")
    announce(3, f"conditional = transformed distribution, {checked} triples, n<=30, 1e-9", elapsed)


def test_criterion_4_projection_head_pairs(ab):
    budget = Budget(30.0)
    table = termination_probs(ab)
    result = to_bpa(ab, table)
    assert table.diverge("p", "X") > 0
    samples, horizon = 100_000, 20

    original, kept = simulate_heads(
        ab, Configuration("p", ("X",)), samples=samples, horizon=horizon,
        seed=24601, divergence_cap=600,
    )
    image, total = simulate_heads(
        result.bpa, Configuration("_", ("p.X.up",)), samples=samples,
        horizon=horizon, seed=24602,
    )
    # divergence share itself should sit near [pX^]
    share = kept / samples
    d = table.diverge("p", "X")
    assert abs(share - d) <= 4 * math.sqrt(d * (1 - d) / samples) + 1e-3

    for k in range(horizon):
        mapped: dict = {}
        for (_, sym), cnt in image[k].items():
            trip = result.symbols[sym]
            key = (trip.state, trip.symbol)
            mapped[key] = mapped.get(key, 0) + cnt
        for pair in set(original[k]) | set(mapped):
            p1 = original[k].get(pair, 0) / kept
            p2 = mapped.get(pair, 0) / total
            se = math.sqrt(p1 * (1 - p1) / kept + p2 * (1 - p2) / total)
            assert abs(p1 - p2) <= 4 * max(se, 1e-5), (k, pair, p1, p2)
    elapsed = budget.check("criterion 4")
    announce(4, "head-pair laws of runs vs transformed chain agree to 4 SE", elapsed)


def test_criterion_5_case2_sandwich(tree):
    budget = Budget(5.0)
    cases = [(subcritical_unit(), "X")]
    part = to_bpa(tree, termination_probs(tree)).part
    cases.append((part, "q.A.r0"))
    for model, start in cases:
        report = classify(model, start)
        assert report.case == 2
        dist = exact_distribution_word(model, (start,), 440)
        resid = table_residual(dist)
        lo = math.ceil(2 * report.e_start)
        for n in range(lo, 401):
            truncated = suffix_tail(dist, n)
            assert lower_bound_pmin(report, n) <= truncated + 1e-300, n
            assert truncated + resid <= upper_bound_azuma(report, n) + 1e-12, n
    elapsed = budget.check("criterion 5")
    announce(5, "exponential sandwich holds for 2E <= n <= 400", elapsed)


def test_criterion_6_case3_tail_behavior(delta1, delta2, delta3):
    budget = Budget(60.0)
    report = classify(delta1, "X1")
    dist = exact_distribution_word(delta1, ("X1",), 4096)
    for n in (16, 64, 256, 1024, 4096):
        t = tail(dist, n)
        assert 0.3 <= t * math.sqrt(n) <= 1.0, n
    for n in range(1, 4097):
        assert tail(dist, n) <= 144.0 / math.sqrt(n) + 1e-12

    for model, h, start in ((delta2, 2, "X2"), (delta3, 3, "X3")):
        dp = exact_distribution_word(model, (start,), 4096)
        grid = [2**k for k in range(6, 13)]
        xs = np.log([float(n) for n in grid])
        ys = np.log([tail(dp, n) for n in grid])
        slope = float(np.polyfit(xs, ys, 1)[0])
        lower = -1.0 / 2**h - 0.1
        upper = -1.0 / (2 ** (h + 1) - 2) + 0.1
        assert lower <= slope <= upper, (h, slope)
    elapsed = budget.check("criterion 6")
    announce(6, "heavy-tail family: sqrt band for depth 1, slope brackets for 2-3", elapsed)


def test_criterion_7_case_classification(tree):
    budget = Budget(5.0)
    acyclic = make_bpa([(("X", "Y", "Y"), Fraction(1, 2)), (("X",), Fraction(1, 2)),
                        (("Y", "Z"), Fraction(1, 3)), (("Y",), Fraction(2, 3)),
                        (("Z",), Fraction(1))])
    rep = classify(acyclic, "X")
    assert rep.case == 1
    horizon = 2 ** len(acyclic.alphabet)
    mass = brute_total_mass(acyclic, Configuration("_", ("X",)), horizon)
    assert sum(mass) == 1 and all(m == 0 for m in mass[horizon:])

    part = to_bpa(tree, termination_probs(tree)).part
    for model, start in ((subcritical_unit(), "X"), (part, "q.A.r0")):
        assert classify(model, start).case == 2

    for h in (1, 2, 3, 4):
        model = load_model(f"delta{h}.bpa")
        assert classify(model, f"X{h}").case == 3
        assert abs(moment_matrix(model).spectral_radius - 1.0) <= 1e-9
    elapsed = budget.check("criterion 7")
    announce(7, "case 1/2/3 classification across the model zoo", elapsed)


def _bundled_certain_models(tree, ab, twostate):
    out = [(f"delta{h}", load_model(f"delta{h}.bpa")) for h in (1, 2, 3, 4)]
    for name, model in (("tree", tree), ("ab", ab), ("twostate", twostate)):
        part = to_bpa(model, termination_probs(model)).part
        out.append((f"{name}-terminating", part))
    return out


def test_criterion_8_appendix_properties(tree, ab, twostate):
    budget = Budget(10.0)
    for name, model in _bundled_certain_models(tree, ab, twostate):
        u = cone_vector(model)
        mm = moment_matrix(model)
        deps = mm.deps
        pmin = p_min(model)
        gamma = len(model.alphabet)

        # cone vector: blockwise contraction and the global ratio bound
        for comp in deps.sccs:
            rows = [model.symbol_index[s] for s in comp]
            vec = np.array([u[s] for s in comp])
            assert np.all(mm.A[np.ix_(rows, rows)] @ vec <= vec + 1e-9), name
        assert min(u.values()) / max(u.values()) >= pmin**gamma - 1e-9, name

        # progressivity: margin, probability floor, contraction, preservation
        prog = make_u_progressive(model, u)
        u_min = min(u.values())
        for sym in prog.alphabet:
            margins = [abs(rule_weight_change(r, u)) for r in prog.rules_for("_", sym)]
            assert max(margins) >= u_min / 2 - 1e-12, (name, sym)
        assert p_min(prog) >= pmin**gamma - 1e-12, name
        A_prog = moment_matrix(prog).A
        for comp in deps.sccs:
            rows = [model.symbol_index[s] for s in comp]
            p_rows = [prog.symbol_index[s] for s in comp]
            vec = np.array([u[s] for s in comp])
            before = mm.A[np.ix_(rows, rows)] @ vec
            after = A_prog[np.ix_(p_rows, p_rows)] @ vec
            assert np.all(after <= vec + 1e-9), name
            if np.allclose(before, vec, atol=1e-12):
                assert np.allclose(after, vec, atol=1e-9), name

        # speed sandwich by exact DP on both sides
        words = [(model.alphabet[0],), tuple(model.alphabet[: min(3, gamma)])]
        for word in words:
            base = exact_distribution_word(model, word, 60)
            fast = exact_distribution_word(prog, word, 60)
            for a in range(1, 41):
                lo = 1.0 - float(np.sum(fast.mass[:a]))
                mid = 1.0 - float(np.sum(base.mass[:a]))
                hi = 1.0 - float(np.sum(fast.mass[: math.ceil(a / gamma)]))
                assert lo <= mid + 1e-12 and mid <= hi + 1e-12, (name, word, a)

        # one-step transform analytics per strongly connected block
        for comp in deps.sccs:
            sub = scc_restriction(model, comp)
            top = max(u[s] for s in comp)
            sub_u = {s: u[s] / top for s in comp}
            sprog = make_u_progressive(sub, sub_u)
            spmin = p_min(sub)
            smin = min(sub_u.values())
            h = 1e-4
            for sym in sprog.alphabet:
                g0, g1_0, g2_0 = g_function(sprog, sub_u, sym, 0.0)
                assert abs(g0 - 1.0) <= 1e-12
                assert g1_0 >= -1e-9
                assert g2_0 >= spmin * smin**2 / 4 - 1e-12
                for theta in (0.01, 0.1, 0.5, 1.0):
                    g, g1, g2 = g_function(sprog, sub_u, sym, theta)
                    assert g > 1.0 and g2 > 0.0 and g1 > g1_0 - 1e-12
                    gp, _, _ = g_function(sprog, sub_u, sym, theta + h)
                    gm, _, _ = g_function(sprog, sub_u, sym, theta - h)
                    assert abs((gp - gm) / (2 * h) - g1) <= 1e-6 * abs(g1)
                    assert abs((gp - 2 * g + gm) / (h * h) - g2) <= 1e-6 * abs(g2)
    elapsed = budget.check("criterion 8")
    announce(8, "cone vector, progressivity, sandwich, transform analytics", elapsed)


_ONE, _TREE_A, _TREE_B, _TREE_C = ("0x1.0000000000000p+0", "0x1.eac8a038a1018p-1",
                                   "0x1.b03a8433d7649p-1", "0x1.9e515ea359170p-1")
CONE_VECTORS = {
    "delta1": {"X1": _ONE},
    "delta2": {"X1": _ONE, "X2": _ONE},
    "delta3": {"X1": _ONE, "X2": _ONE, "X3": _ONE},
    "delta4": {"X1": _ONE, "X2": _ONE, "X3": _ONE, "X4": _ONE},
    "tree-terminating": {
        "r1.O.r1": _ONE, "r0.A.r0": _ONE, "r1.A.r0": _ONE, "r0.O.r1": _ONE,
        "r1.A.r1": _TREE_A, "q.A.r1": _TREE_B, "q.O.r1": _TREE_C, "r0.O.r0": _TREE_A,
        "q.O.r0": _TREE_B, "q.A.r0": _TREE_C},
    "ab-terminating": {"q.X.p": _ONE, "p.X.q": _ONE},
    "twostate-terminating": {"p.X.p": _ONE, "q.Y.q": "0x1.6a09e667f409dp-1", "q.X.q": _ONE,
                             "p.X.q": _ONE},
}


def test_criterion_8_cone_vectors_are_pinned(tree, ab, twostate):
    # the weights of the power iteration, bit for bit, as float.hex
    for name, model in _bundled_certain_models(tree, ab, twostate):
        assert {s: w.hex() for s, w in cone_vector(model).items()} == CONE_VECTORS[name], name


def test_criterion_9_simulation_determinism(models_dir, tmp_path):
    budget = Budget(30.0)
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(["simulate", str(models_dir / "ab.ppda"), "--start", "p.X",
                     "--samples", "20000", "--seed", "4242", "--cap", "500",
                     "--csv", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    elapsed = budget.check("criterion 9")
    announce(9, "same seed, byte-identical simulation CSV", elapsed)
