import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ppda.bounds
import ppda.cli
import ppda.distribution
import ppda.graph
import ppda.model
import ppda.moments
import ppda.termination
import ppda.transform
from ppda import Triple, exact_distribution_word, parse_model, serialize, termination_probs, to_bpa
from ppda.cli import main

from helpers import (CRITICAL_PDAS, NEVER_ON_TOP, ORPHAN_TEXT, POP_ORPHAN_TEXTS, brute_total_mass,
                     critical_pda_chain, dense_newton, perfbench_gen, random_pda,
                     term_dp_masses)

GOLDEN = Path(__file__).parent / "golden"

BUNDLED = [
    ("tree.ppda", "q.A"),
    ("ab.ppda", "p.X"),
    ("twostate.ppda", "p.X"),
    ("delta1.bpa", "X1"),
    ("delta2.bpa", "X2"),
    ("delta3.bpa", "X3"),
    ("delta4.bpa", "X4"),
]


def run_analyze(models_dir, tmp_path, name, start):
    out = tmp_path / f"{name}.json"
    code = main(["analyze", str(models_dir / name), "--start", start, "--json", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def canonical(report: dict) -> dict:
    report = dict(report)
    report.pop("timings", None)
    report["model"] = {k: v for k, v in report["model"].items() if k != "path"}
    return report


@pytest.mark.parametrize("name,start", BUNDLED)
def test_analyze_matches_golden(models_dir, tmp_path, name, start):
    report = canonical(run_analyze(models_dir, tmp_path, name, start))
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert report == golden


def test_analyze_tree_values(models_dir, tmp_path):
    report = run_analyze(models_dir, tmp_path, "tree.ppda", "q.A")
    values = report["expectations"]["values"]
    assert values["q.A.r0"] == pytest.approx(7.155113, abs=1e-5)
    cases = {t["start"]: t["case"] for t in report["tails"]}
    assert cases["q.A.r0"] == 2 and cases["q.A.r1"] == 2


def test_analyze_delta1_case3(models_dir, tmp_path):
    report = run_analyze(models_dir, tmp_path, "delta1.bpa", "X1")
    (tail_report,) = report["tails"]
    assert tail_report["case"] == 3
    assert tail_report["d1"] == pytest.approx(144.0)
    assert tail_report["d2"] == pytest.approx(0.5)
    assert report["expectations"]["values"]["X1"] == "inf"


def test_analyze_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.ppda"
    bad.write_text("pda\nstates: p\nalphabet: X\nrule: p X -> p : 3/4\n")
    code = main(["analyze", str(bad), "--start", "p.X"])
    assert code == 2
    err = capsys.readouterr().err
    assert "(p, X)" in err


def test_analyze_rejects_state_named_up(tmp_path, capsys):
    # p.X.up would name both a terminating and a diverging triple symbol
    path = tmp_path / "up.ppda"
    path.write_text("pda\nstates: p up\nalphabet: X\nstart: p X\n"
                    "rule: p X -> up : 1/3\nrule: p X -> up X X : 2/3\n"
                    "rule: up X -> up : 1/3\nrule: up X -> up X X : 2/3\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: state 'up' clashes with the transformed symbols "
                   "p.X.q and p.X.up: no state may be 'up' or contain '.'"]


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    (tmp_path / "latin1.bpa").write_bytes(b"bpa\nalphabet: X\xff\n")
    for path in (tmp_path / "nope.ppda", tmp_path / "latin1.bpa"):
        assert main(["analyze", str(path), "--start", "X"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {path}: ")


def test_transform_round_trip(models_dir, tmp_path, capsys):
    out = tmp_path / "ab.bpa"
    assert main(["transform", str(models_dir / "ab.ppda"), "--out", str(out)]) == 0
    emitted = parse_model(out.read_text())
    assert emitted.kind == "bpa"
    assert len(emitted.rules) == 8
    probs = {
        (r.lhs_symbol, r.rhs_word): float(r.prob) for r in emitted.rules
    }
    assert probs[("p.X.q", ())] == pytest.approx(0.6, abs=1e-9)
    assert probs[("p.X.q", ("q.X.p", "p.X.q"))] == pytest.approx(0.4, abs=1e-9)
    # serialization is exact: parsing reproduces the rule multiset bit for bit
    twice = tmp_path / "ab2.bpa"
    assert main(["transform", str(models_dir / "ab.ppda"), "--out", str(twice)]) == 0
    assert out.read_text() == twice.read_text()


def test_transform_single_rule(tmp_path):
    src = tmp_path / "one.ppda"
    src.write_text("pda\nstates: p q\nalphabet: X\nstart: p X\nrule: p X -> q : 1\n")
    out = tmp_path / "one.bpa"
    assert main(["transform", str(src), "--out", str(out)]) == 0
    m = parse_model(out.read_text())
    assert m.alphabet == ("p.X.q",)
    assert len(m.rules) == 1


def test_transform_tree_symbol_count(models_dir, tmp_path):
    out = tmp_path / "tree.bpa"
    assert main(["transform", str(models_dir / "tree.ppda"), "--out", str(out)]) == 0
    m = parse_model(out.read_text())
    ups = [s for s in m.alphabet if s.endswith(".up")]
    assert len(m.alphabet) - len(ups) == 10
    assert not ups  # every reachable pair of the evaluator terminates a.s.


def test_dist_csv_values(models_dir, tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dist", str(models_dir / "delta1.bpa"), "--start", "X1",
                 "--nmax", "16", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,mass,cumulative,tail"
    mass3 = float(rows[4].split(",")[1])
    assert mass3 == pytest.approx(0.125, abs=1e-15)


def test_dist_single_row(models_dir, tmp_path):
    out = tmp_path / "d1.csv"
    assert main(["dist", str(models_dir / "delta1.bpa"), "--start", "X1",
                 "--nmax", "1", "--csv", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3  # header + n=0 + n=1


def test_dist_conditional_column(models_dir, tmp_path):
    out = tmp_path / "tree.csv"
    assert main(["dist", str(models_dir / "tree.ppda"), "--start", "q.A",
                 "--target", "r0", "--nmax", "50", "--csv", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "n,mass,cumulative,tail,cond_tail"


def test_dist_unconditioned_target_none(models_dir, tmp_path):
    out = tmp_path / "ab.csv"
    assert main(["dist", str(models_dir / "ab.ppda"), "--start", "p.X",
                 "--target", "none", "--nmax", "8", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,mass,cumulative,tail"
    mass1 = float(rows[2].split(",")[1])
    assert mass1 == pytest.approx(0.4, abs=1e-12)  # only the pop rule ends in 1 step


def test_simulate_byte_identical_output(models_dir, tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["simulate", str(models_dir / "delta1.bpa"), "--start", "X1",
                     "--samples", "5000", "--seed", "99", "--cap", "2000",
                     "--csv", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# sha256 of the simulate CSV of each bundled model at seed 2024, 3,000
# samples, cap 2,000.  The walker decides every step by comparing floats
# built by sequential adds, so the bytes depend on neither BLAS nor the CPU;
# a digest that moves means the output of a given seed moved.
SIMULATE_SHA256 = {
    "ab.ppda": "3071c203b94b678cf6feb056039e51050753675ee6370bd31e914562d3f11fdb",
    "delta1.bpa": "91e84db9ffef98b9491aef8f4d1e84527ec23ceed309f8bdc82f00c3e96cea71",
    "delta2.bpa": "bd07eff0cfc12b17706386fd26c38b502fb806d81634aca1e7409e7c6cbda661",
    "delta3.bpa": "97ecb91d91a01d5c13928726716684c8050dc557dfcdca25b733060e8f2c6934",
    "delta4.bpa": "4b10025f19412dbbe9ed46165e8a9fbfe63775fb55daf39a4fc730e89dda746a",
    "tree.ppda": "89f695003a9483d25cb0b73a9e3b5cf3e0f0dcc7754253aa1f1662f45961930f",
    "twostate.ppda": "263b74e9535a5ad123e6e615d62ce210d5f8bde06afa1adc16a4eac9ccee64df",
}


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_output_is_pinned(models_dir, tmp_path, name):
    out = tmp_path / "sample.csv"
    assert main(["simulate", str(models_dir / name), "--samples", "3000", "--seed", "2024",
                 "--cap", "2000", "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256[name]


# sha256 of the dist CSV of delta1-4 at horizon 4,096 and of a relaxed model
# with a start word; recorded with numpy's bundled OpenBLAS on x86-64.  The
# stateless DP's sums are BLAS dot products, so another BLAS may round them
# differently; on one BLAS a digest that moves means the DP's sums moved.
RELAXED_WORD_BPA = """relaxed-bpa
alphabet: X Y Z
start: X Z Y
rule: X -> X Y Y Z : 1/5
rule: X -> Z : 1/5
rule: X -> : 3/5
rule: Y -> Y Y Y : 1/4
rule: Y -> : 3/4
rule: Z -> Y X : 1/4
rule: Z -> Z : 1/4
rule: Z -> : 1/2
"""
DIST_SHA256 = {
    "delta1.bpa": "663376012fa18d7ecf4e8cb1c7546f2125e9f4ff6315e832c3e77c3fc3342b74",
    "delta2.bpa": "366bc2e77c072aa9160bb06d6fbb3c7d8c5409516fb320cb855166443998755f",
    "delta3.bpa": "cf223c0030b224dd8ad68dd983ab6c2b0e7a47bf44723228ff55315478cfacb8",
    "delta4.bpa": "b31c68fc13034e25c0d8993333e27e3da091f7888567ca6c6721d5deb6557ad1",
    "relaxed": "a65c67621ed73dab0dd681cefb8fabe2c9aec58d471a1a740d2e2fa50ccd9454",
}


@pytest.mark.parametrize("name", sorted(DIST_SHA256))
def test_dist_output_is_pinned(models_dir, tmp_path, name):
    out = tmp_path / "dist.csv"
    path, horizon = models_dir / name, "4096"
    if name == "relaxed":
        path, horizon = tmp_path / "relaxed.bpa", "2000"
        path.write_text(RELAXED_WORD_BPA)
    assert main(["dist", str(path), "--nmax", horizon, "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIST_SHA256[name]


def benchmark_model(tmp_path, name: str) -> Path:
    """A Blocking model of the benchmark, or "random_q<Q>g<G>_s<seed>" written
    by the benchmark's seeded generator, ``perfbench/gen.py``."""
    bench = Path(__file__).parent.parent / "perfbench"
    if name.startswith("blocking"):
        return bench / "models" / name
    shape, seed = name.split("_s")
    n_states, n_symbols = map(int, shape.removeprefix("random_q").split("g"))
    path = tmp_path / f"{name}.ppda"
    path.write_text(perfbench_gen().random_pda(n_states, n_symbols, int(seed)))
    return path


# sha256 of `analyze --json` without its timings and path, on the stateful
# models of the benchmark's analyze workload; reports round to 12 digits.
ANALYZE_SHA256 = {
    "blocking_one_state.ppda": "13905ba0db0249e49665d26171c8c26a84f0067b9e488c117cb4e779dbfeb9a2",
    "blocking_two_state.ppda": "ce4880434371f025ab87ae4f2e17b92501d48a2a145312f3694a7b0ef91c8327",
    "random_q4g20_s1": "b7a0a1d00ab31e509a8dfb43a254062be00676ade5de59e133d6d157e6864766",
    "random_q4g20_s1001": "504d3c1f59fcf15f94646ba824f6eb95b40ac0a88b20829b82cdaa7bf24d0d93",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_output_is_pinned(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["analyze", str(benchmark_model(tmp_path, name)), "--json", str(out)]) == 0
    text = json.dumps(canonical(json.loads(out.read_text())), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == ANALYZE_SHA256[name]


# sha256 of the `ppda transform` output of the stateful bundled models and of
# the benchmark's random (4, 20) seed 1.  The bundled models are solved
# densely, one LAPACK call per Newton step; the random one has 320 variables,
# past DENSE_MAX, and takes GMRES steps.  Each probability prints as the
# fraction the double equals.
TRANSFORM_SHA256 = {
    "ab.ppda": "713a7bf76dfdc65064cca6d66a9124da214413c7b888ca3daef48c8673dc197e",
    "random_q4g20_s1": "ec4c40ff7716965eace673e28b26194f6af0398b8ae07abeed90658dc98cb982",
    "tree.ppda": "2b7888cce9563b4a72a0cb1e014c99eb33f54c742d4088b53ceb2be4f8814338",
    "twostate.ppda": "2dec6c6e4be7a16e57e2baad965884c6704be3240ff1cb3b50f41873764a438b",
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_SHA256))
def test_transform_output_is_pinned(models_dir, tmp_path, name):
    path = models_dir / name if name.endswith(".ppda") else benchmark_model(tmp_path, name)
    out = tmp_path / "out.bpa"
    assert main(["transform", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRANSFORM_SHA256[name]


@pytest.mark.parametrize("name", ["random_q4g20_s1", "random_q4g20_s1001"])
def test_random_pins_by_gmres_match_dense_newton(tmp_path, name):
    model = parse_model(benchmark_model(tmp_path, name).read_text())
    assert model.compiled.n > ppda.termination.DENSE_MAX  # Newton steps by GMRES
    table, oracle = termination_probs(model), dense_newton(model)
    for t, value in table.probs.items():
        if not t.diverging:
            assert abs(value - oracle.get(t, 0.0)) <= 1e-15


@pytest.mark.parametrize("command,name", [("analyze", "random_q4g20_s1"),
                                          ("analyze", "random_q4g20_s1001"),
                                          ("transform", "random_q4g20_s1")])
def test_random_pins_do_not_depend_on_blas_threads(tmp_path, command, name):
    # one, two and four OpenBLAS threads, each in a fresh interpreter, since
    # OpenBLAS reads the setting when numpy loads it
    path = benchmark_model(tmp_path, name)
    flag, pins = {"analyze": ("--json", ANALYZE_SHA256),
                  "transform": ("--out", TRANSFORM_SHA256)}[command]
    outputs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"out-{threads}"
        proc = subprocess.run([sys.executable, "-m", "ppda", command, str(path), flag, str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        if command == "analyze":
            text = json.dumps(canonical(json.loads(text)), indent=2)
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == pins[name]


def test_transform_at_2560_variables_does_not_depend_on_blas_threads(tmp_path):
    # random (8, 40) seed 1 takes GMRES steps on 2,560 variables, past the
    # (4, 20) pins, in three fresh interpreters as above
    path = benchmark_model(tmp_path, "random_q8g40_s1")
    outputs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"out-{threads}.bpa"
        proc = subprocess.run([sys.executable, "-m", "ppda", "transform", str(path), "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def rule_lines(text: str) -> tuple[list[str], list[float]]:
    """The rule lines of a model text without their probabilities, and those."""
    heads, probs = [], []
    for line in text.splitlines():
        if line.startswith("rule: "):
            head, _, prob = line.rpartition(" : ")
            heads.append(head)
            probs.append(float(Fraction(prob)))
    return heads, probs


def test_transform_by_gmres_matches_the_dense_solve(tmp_path, monkeypatch):
    model = random_pda(6, 20, seed=1)
    assert model.compiled.n > ppda.termination.DENSE_MAX  # Newton steps by GMRES
    path = tmp_path / "random.ppda"
    path.write_text(serialize(model))
    texts = []
    for dense_max in (ppda.termination.DENSE_MAX, math.inf):
        monkeypatch.setattr(ppda.termination, "DENSE_MAX", dense_max)
        out = tmp_path / "out.bpa"
        assert main(["transform", str(path), "--out", str(out)]) == 0
        texts.append(out.read_text())
    (krylov_heads, krylov), (dense_heads, dense) = map(rule_lines, texts)
    assert krylov_heads == dense_heads
    np.testing.assert_allclose(krylov, dense, rtol=1e-12, atol=0)


def count_rules(monkeypatch) -> Counter:
    """Count the ``Rule``s made, under "Rule"."""
    made = Counter()
    post_init = ppda.model.Rule.__post_init__

    def counted(self):
        made["Rule"] += 1
        post_init(self)

    monkeypatch.setattr(ppda.model.Rule, "__post_init__", counted)
    return made


def test_transform_builds_no_rule(tmp_path, monkeypatch):
    model = random_pda(6, 20, seed=1)
    path = tmp_path / "random.ppda"
    path.write_text(serialize(model))
    made = count_rules(monkeypatch)
    out = tmp_path / "out.bpa"
    assert main(["transform", str(path), "--out", str(out)]) == 0
    assert out.read_text().count("\nrule: ") > len(model.rules)
    # the parse makes no Rule, and the transform none
    assert made["Rule"] == 0


@pytest.mark.parametrize("name,start", [("ab.ppda", "p.X"), ("twostate.ppda", "p.X")])
def test_analyze_counts_the_transform_without_building_it(models_dir, tmp_path, monkeypatch,
                                                          name, start):
    model = parse_model((models_dir / name).read_text())
    bpa = to_bpa(model, termination_probs(model)).bpa
    diverging = [sym for sym in bpa.alphabet if sym.endswith(".up")]
    assert diverging
    made = count_rules(monkeypatch)
    report = run_analyze(models_dir, tmp_path, name, start)
    # the parse, the transform and the analysis of its part make no Rule
    assert made["Rule"] == 0
    assert report["transform"]["rules"] == len(bpa.rules)
    assert report["transform"]["diverging_symbols"] == diverging


def load_tracer():
    """``perfbench/tracing.py``, the benchmark's tracer, imported by path."""
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("name", ["ab.ppda", "twostate.ppda", "random_q4g20_s1"])
def test_tracer_counts_the_rules_transform_writes(models_dir, tmp_path, name):
    path = models_dir / name if name.endswith(".ppda") else benchmark_model(tmp_path, name)
    tracer = load_tracer().Tracer()
    out = tmp_path / "out.bpa"
    tracer.install()
    try:
        assert main(["transform", str(path), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    written = sum(line.startswith("rule: ") for line in out.read_text().splitlines())
    assert tracer.counts["transform.rules_emitted"] == written > 0
    # the text was written through the function the tracer times as output
    assert ("output", "serialize") in tracer.self_times()


def test_simulate_censoring_reported(tmp_path, capsys):
    src = tmp_path / "grow.bpa"
    src.write_text("bpa\nalphabet: X\nstart: X\nrule: X -> X X : 1\n")
    out = tmp_path / "grow.csv"
    assert main(["simulate", str(src), "--samples", "100", "--seed", "1",
                 "--cap", "50", "--csv", str(out)]) == 0
    assert "censored=100" in capsys.readouterr().err


def test_simulate_accepts_a_start_whose_ruleless_symbol_never_comes_on_top(tmp_path, capsys):
    # C, below the A that never empties, has no rules and needs none
    src = tmp_path / "never_on_top.ppda"
    src.write_text(NEVER_ON_TOP)
    assert main(["simulate", str(src), "--samples", "20", "--cap", "30"]) == 0
    assert "censored=20" in capsys.readouterr().err


def test_simulate_csv_counts_runs_that_end_at_step_0(tmp_path):
    # an empty start stack: every run ends before its first step
    src = tmp_path / "empty.ppda"
    src.write_text(INLINE_MODELS["empty.ppda"])
    proc = subprocess.run([sys.executable, "-m", "ppda", "simulate", str(src), "--samples", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "terminated=3" in proc.stderr
    assert proc.stdout.splitlines() == ["n,count,mass,cumulative,tail,stderr",
                                        "0,3,1.0,1.0,1.0,0.0"]


def test_bounds_csv_and_threshold(models_dir, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["bounds", str(models_dir / "delta1.bpa"), "--start", "X1",
                 "--eps", "0.144", "--grid", "4,16,64", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,lower,upper,exact"
    assert len(rows) == 4
    n, lower, upper, exact = rows[1].split(",")
    assert (int(n), float(lower)) == (4, pytest.approx(0.0625))
    assert float(exact) == pytest.approx(0.375, abs=1e-12)
    assert "threshold(eps=0.144)=1000000" in capsys.readouterr().err


def test_bounds_threshold_case2(tmp_path, capsys):
    src = tmp_path / "sub.bpa"
    src.write_text("bpa\nalphabet: X\nstart: X\nrule: X -> : 3/4\nrule: X -> X X : 1/4\n")
    eps = math.exp(-16 / 9)
    assert main(["bounds", str(src), "--eps", str(eps), "--grid", "8,36"]) == 0
    err = capsys.readouterr().err
    assert "case=2" in err
    assert f"threshold(eps={eps})=36" in err


def test_analyze_diverging_bpa_rejected(tmp_path, capsys):
    src = tmp_path / "heavy.bpa"
    src.write_text("bpa\nalphabet: X\nstart: X\nrule: X -> X X : 7/10\nrule: X -> : 3/10\n")
    assert main(["analyze", str(src), "--start", "X"]) == 2
    assert "diverge" in capsys.readouterr().err
    # X diverges above the critical Y: the solve converges, and X is rejected
    src.write_text("bpa\nalphabet: X Y\nstart: X\nrule: X -> X X : 3/5\nrule: X -> Y : 2/5\n"
                   "rule: Y -> Y Y : 1/2\nrule: Y -> : 1/2\n")
    assert main(["analyze", str(src)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: symbols reachable from X may diverge; transform or condition first"]


def one_symbol_bpa(tmp_path, num: int, den: int) -> Path:
    """X -> X X at num/den and X -> eps at the rest, written out."""
    src = tmp_path / "near_one.bpa"
    src.write_text(f"bpa\nalphabet: X\nstart: X\nrule: X -> X X : {num}/{den}\n"
                   f"rule: X -> : {den - num}/{den}\n")
    return src


# Known defects: the moment matrix decides in doubles with fixed bands of
# 1e-9 around spectral radius 1, so both models below fall inside a band.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rho = 1 - 2e-11 lies in the critical band: case 3 with E = inf")
def test_analyze_subcritical_near_one_is_case_2(tmp_path):
    out = tmp_path / "out.json"
    src = one_symbol_bpa(tmp_path, 49_999_999_999, 100_000_000_000)
    assert main(["analyze", str(src), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tails"][0]["case"] == 2
    assert report["expectations"]["values"]["X"] == pytest.approx(5e10, rel=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rho = 1 + 2e-12 lies in the certain band: [X] is pinned to 1.0")
def test_analyze_refuses_supercritical_near_one(tmp_path, capsys):
    src = one_symbol_bpa(tmp_path, 500_000_000_001, 1_000_000_000_000)
    assert main(["analyze", str(src), "--json", str(tmp_path / "out.json")]) == 2
    assert "diverge" in capsys.readouterr().err


def test_analyze_reports_the_bounded_horizon(tmp_path):
    # X and Y lie on no cycle, so every run from X ends within the horizon
    src, out = tmp_path / "acyclic.bpa", tmp_path / "acyclic.json"
    src.write_text("bpa\nalphabet: X Y\nstart: X\nrule: X -> Y Y : 1/2\nrule: X -> : 1/2\n"
                   "rule: Y -> : 1\n")
    assert main(["analyze", str(src), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["tails"] == [
        {"start": "X", "case": 1, "gamma_size": 2, "p_min": 0.5, "height": 2,
         "bounded_horizon": 4}]


def test_analyze_model_that_never_terminates(tmp_path):
    src = tmp_path / "never.ppda"
    src.write_text("pda\nstates: p q\nalphabet: X\nstart: p X\n"
                   "rule: p X -> p X X : 1\nrule: q X -> q X X : 1\n")
    out = tmp_path / "never.json"
    assert main(["analyze", str(src), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["transform"]["terminating_symbols"] == []
    assert report["tails"] == []
    assert report["expectations"] == {"values": {}, "e_max": 0.0, "b_constant": None,
                                      "finite": True}
    assert "dependence" not in report


def test_bounds_case1_grid(tmp_path, capsys):
    src = tmp_path / "flat.bpa"
    src.write_text("bpa\nalphabet: X Y\nstart: X\n"
                   "rule: X -> Y : 1/2\nrule: X -> : 1/2\nrule: Y -> : 1\n")
    assert main(["bounds", str(src), "--eps", "0.5", "--grid", "1,2,4,8"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    uppers = {int(n): float(up) for n, _, up, _ in rows}
    assert uppers[2] == 1.0 and uppers[4] == 0.0 and uppers[8] == 0.0
    assert "threshold(eps=0.5)=4" in captured.err


def test_transform_then_analyze_pipeline(models_dir, tmp_path):
    mid = tmp_path / "ab_triples.bpa"
    assert main(["transform", str(models_dir / "ab.ppda"), "--out", str(mid)]) == 0
    out = tmp_path / "report.json"
    assert main(["analyze", str(mid), "--start", "p.X.q", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    (tail_report,) = report["tails"]
    assert tail_report["case"] == 2
    assert report["expectations"]["values"]["p.X.q"] == pytest.approx(5.0, abs=1e-6)


def test_parser_is_built_once(models_dir, tmp_path):
    ppda.cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["analyze", str(models_dir / "delta1.bpa"),
                     "--json", str(tmp_path / "out.json")]) == 0
    info = ppda.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_module_entry_point(models_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "ppda", "analyze", str(models_dir / "delta1.bpa"),
         "--start", "X1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"case": 3' in proc.stdout


# Critical models where Newton in doubles stalls about sqrt(eps) short of the
# fixed point; the solver refines them, so both terminate with certainty.
BLOCKING = {
    "one_state.ppda": ("pda\nstates: u\nalphabet: S\nstart: u S\n"
                       "rule: u S -> u : 1/2\nrule: u S -> u S S : 1/2\n",
                       {"u.S.u": 1.0}),
    "two_state.ppda": ("pda\nstates: p q\nalphabet: X\nstart: p X\n"
                       + "".join(f"rule: {a} X -> {b}{w} : 1/4\n"
                                 for a in "pq" for b in "pq" for w in ("", " X X")),
                       {f"{a}.X.{b}": 0.5 for a in "pq" for b in "pq"}),
}


@pytest.mark.parametrize("name", sorted(BLOCKING))
def test_analyze_critical_models_exit_cleanly(tmp_path, name):
    text, exact = BLOCKING[name]
    src = tmp_path / name
    src.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "ppda", "analyze", str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probs = json.loads(proc.stdout)["termination"]["probs"]
    assert set(probs) == set(exact)  # no diverging triple is reported
    for triple, value in exact.items():
        assert probs[triple] == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("error", [ppda.transform.TransformError("row for p.X.up sums to 0.9"),
                                   ppda.moments.PowerIterationError("no convergence")])
def test_numeric_failure_exits_3(models_dir, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error
    if isinstance(error, ppda.transform.TransformError):
        monkeypatch.setattr(ppda.cli, "to_bpa", fail)
    else:
        monkeypatch.setattr(ppda.moments, "moment_matrix", fail)
    assert main(["analyze", str(models_dir / "ab.ppda")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {error}"]


def count_calls(monkeypatch, *functions) -> Counter:
    """Count calls of each function under every ppda name bound to it, and
    the systems compiled and the rule arrays encoded from names, under
    "CompiledSystem" and "RuleArrays"."""
    counts: Counter = Counter()
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ppda"]
    for fn in functions:
        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    system_init, encode = ppda.termination.CompiledSystem.__init__, ppda.model._encode

    def counted_init(self, model):
        counts["CompiledSystem"] += 1
        system_init(self, model)

    def counted_encode(*args, **kwargs):
        counts["RuleArrays"] += 1
        return encode(*args, **kwargs)

    monkeypatch.setattr(ppda.termination.CompiledSystem, "__init__", counted_init)
    monkeypatch.setattr(ppda.model, "_encode", counted_encode)
    return counts


def model_path(models_dir, tmp_path, source: str) -> Path:
    """A bundled model, or "random": random_pda(2, 6, seed=2) written out."""
    if source != "random":
        return models_dir / source
    path = tmp_path / "random.ppda"
    path.write_text(serialize(random_pda(2, 6, seed=2)))
    return path


# power iterations of one analyze: the blocks of the random part and of tree's
# are all certified subcritical by the expectations solve; delta4 has four
# critical blocks
POWER_ITERATIONS = {"tree.ppda": 0, "random": 0, "delta4.bpa": 4}


@pytest.mark.parametrize("source,start", [("tree.ppda", "q.A"), ("random", "p0.X0"),
                                          ("delta4.bpa", "X4")])
def test_analyze_solves_and_condenses_once(models_dir, tmp_path, monkeypatch, source, start):
    path = model_path(models_dir, tmp_path, source)
    counts = count_calls(monkeypatch, ppda.termination.termination_probs,
                         ppda.graph.dependence, ppda.moments.moment_matrix,
                         ppda.moments._power_iteration,
                         ppda.bounds.classify, ppda.model._validate)
    # the solve's own condensations of F', apart from those of ``dependence``
    condense, condensed = ppda.termination._condense, []
    monkeypatch.setattr(ppda.termination, "_condense",
                        lambda *args: condensed.append(args) or condense(*args))
    made = count_rules(monkeypatch)
    assert main(["analyze", str(path), "--start", start,
                 "--json", str(tmp_path / "out.json")]) == 0
    # no step makes a Rule, the parse included
    assert made["Rule"] == 0
    # one tail report per target state
    assert counts["classify"] == (1 if path.suffix == ".bpa" else 2)
    assert counts["termination_probs"] == 1  # the model; its terminating part is not solved
    assert condensed == []  # no solve here is slow, so none condenses F'
    # the stateless model or the part, once for every start; a stateless solve
    # and its classification share them
    assert counts["dependence"] == 1
    assert counts["moment_matrix"] == 1
    assert counts["_power_iteration"] == POWER_ITERATIONS[source]
    # the model is compiled and validated once; the stateless transform
    # output is neither
    assert counts["CompiledSystem"] == 1
    assert counts["_validate"] == 1
    # the model's rules become arrays once; the part of a stateful one is
    # built over the transform's arrays
    assert counts["RuleArrays"] == 1


@pytest.mark.parametrize("source,start,target", [("ab.ppda", "p.X", "q"),
                                                 ("random", "p0.X0", "p0")])
@pytest.mark.parametrize("command", ["transform", "dist"])
def test_solve_and_transform_share_one_compile(models_dir, tmp_path, monkeypatch,
                                               source, start, target, command):
    path = model_path(models_dir, tmp_path, source)
    counts = count_calls(monkeypatch, ppda.termination.termination_probs, ppda.model._validate)
    argv = {"transform": ["transform", str(path), "--out", str(tmp_path / "out.bpa")],
            "dist": ["dist", str(path), "--start", start, "--target", target, "--nmax", "8",
                     "--csv", str(tmp_path / "out.csv")]}[command]
    assert main(argv) == 0
    assert counts["termination_probs"] == 1
    assert counts["CompiledSystem"] == 1
    assert counts["_validate"] == 1


def count_triples(monkeypatch) -> Counter:
    """Count the ``Triple``s made, under "Triple", and the ``probs`` dicts
    that termination tables build, under "probs"."""
    made = Counter()
    triple_init = ppda.model.Triple.__init__
    build = ppda.termination.TerminationTable.probs.func

    def counted_init(self, *args, **kwargs):
        made["Triple"] += 1
        triple_init(self, *args, **kwargs)

    def counted_probs(self):
        made["probs"] += 1
        return build(self)

    probs = functools.cached_property(counted_probs)
    probs.__set_name__(ppda.termination.TerminationTable, "probs")
    monkeypatch.setattr(ppda.model.Triple, "__init__", counted_init)
    monkeypatch.setattr(ppda.termination.TerminationTable, "probs", probs)
    return made


def test_triples_are_made_only_for_names(models_dir, tmp_path, monkeypatch):
    model = parse_model(benchmark_model(tmp_path, "random_q4g20_s1").read_text())
    made = count_triples(monkeypatch)
    table = termination_probs(model)
    result = to_bpa(model, table)
    # the solve and the transform index arrays: Triples name only the
    # qualitative zeros and the emitted symbols, 320 here
    assert made["probs"] == 0
    assert made["Triple"] <= len(table.qualitative_zero) + len(result.bpa.alphabet) == 320
    made.clear()
    assert main(["dist", str(models_dir / "tree.ppda"), "--start", "q.A", "--target", "q",
                 "--nmax", "8", "--csv", str(tmp_path / "out.csv")]) == 0
    assert made["probs"] == 0
    assert main(["analyze", str(models_dir / "tree.ppda"),
                 "--json", str(tmp_path / "out.json")]) == 0
    assert made["probs"] == 1  # the report's


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_critical_pda_chain_exit_codes(tmp_path, capsys, k):
    # four links end with the top value about 3.2e-12 above 1 and a zero
    # residual: the excess over 1 counts as residual, so the solve fails
    # instead of passing
    path = tmp_path / "chain.ppda"
    path.write_text(serialize(critical_pda_chain(k)))
    code = main(["analyze", str(path), "--json", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    if k < 4:
        assert (code, err) == (0, "")
    else:
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: termination solver")


WORD_START_BPA = "bpa\nalphabet: X\nstart: X X\nrule: X -> X X : 1/4\nrule: X -> : 3/4\n"

# models that the exit-2 inputs below write out before running
INLINE_MODELS = {
    "orphan.ppda": ORPHAN_TEXT,
    **POP_ORPHAN_TEXTS,
    "empty.bpa": "bpa\nalphabet: X\nstart:\nrule: X -> : 1\n",
    "empty.ppda": "pda\nstates: p\nalphabet: X\nstart: p\nrule: p X -> p : 1\n",
    "word.bpa": WORD_START_BPA,
    "word.ppda": ("pda\nstates: p\nalphabet: X\nstart: p X X\n"
                  "rule: p X -> p X X : 1/4\nrule: p X -> p : 3/4\n"),
    "diverging.bpa": "bpa\nalphabet: X\nstart: X\nrule: X -> X X : 3/4\nrule: X -> : 1/4\n",
    "nostart.bpa": "bpa\nalphabet: X\nrule: X -> : 1\n",
}


@pytest.mark.parametrize("argv", [
    ["analyze", "ab.ppda", "--tol", "0"],
    ["analyze", "ab.ppda", "--tol", "-1"],
    ["analyze", "ab.ppda", "--tol", "nan"],
    ["simulate", "ab.ppda", "--samples", "0"],
    ["simulate", "ab.ppda", "--cap", "0"],
    # a seed is the high word of a 128-bit key; an empty start walks no step
    ["simulate", "ab.ppda", "--seed", "-1"],
    ["simulate", "ab.ppda", "--seed", str(2**64)],
    ["simulate", "empty.bpa", "--seed", str(2**64)],
    ["bounds", "delta1.bpa", "--eps", "0"],
    ["bounds", "delta1.bpa", "--eps", "2"],
    ["dist", "delta1.bpa", "--target", "nowhere"],
    ["bounds", "delta1.bpa", "--grid", "x"],
    ["bounds", "delta1.bpa", "--grid", "0,4"],
    ["dist", "delta1.bpa", "--nmax", "0"],
    ["simulate", "ab.ppda", "--start", "p"],
    ["analyze", "ab.ppda", "--start", "p.Z"],
    ["bounds", "ab.ppda"],
    ["bounds", "diverging.bpa"],
    ["transform", "delta1.bpa"],
    # the declared start is valid; from --start the rule-less pair (q, Y) is reached
    ["simulate", "orphan.ppda", "--start", "q.X"],
    ["analyze", "orphan.ppda", "--start", "q.X"],
    ["dist", "orphan.ppda", "--start", "q.X"],
    # the declared start reaches (q, Y) only after a pop; a run that reaches it
    # has no step to take, so simulate gets a small budget
    *([command, name] for name in POP_ORPHAN_TEXTS
      for command in ("analyze", "transform", "dist", "bounds")),
    *(["simulate", name, "--samples", "5", "--cap", "100"] for name in POP_ORPHAN_TEXTS),
    # starts that do not hold exactly one symbol
    ["analyze", "empty.bpa"],
    ["analyze", "empty.ppda"],
    ["dist", "empty.bpa"],
    ["dist", "empty.ppda"],
    ["bounds", "empty.bpa"],
    ["analyze", "word.bpa"],
    ["analyze", "word.ppda"],
    ["bounds", "word.bpa"],
    ["dist", "word.ppda"],
    ["dist", "word.ppda", "--target", "p"],
], ids=" ".join)
def test_bad_flag_values_exit_2(models_dir, tmp_path, capsys, argv):
    err = run_exit_2(models_dir, tmp_path, capsys, argv)
    if argv[1].startswith("orphan"):
        assert "pair (q, Y) reachable from start but has no rules" in err


CLI_ERRORS = [
    (["dist", "ab.ppda", "--target", "zz"], "unknown target state 'zz'"),
    (["analyze", "delta1.bpa", "--start", "Q"], "unknown start symbol 'Q'"),
    (["analyze", "nostart.bpa"], "model declares no start; pass --start"),
]


@pytest.mark.parametrize("argv,message", CLI_ERRORS, ids=[" ".join(a) for a, _ in CLI_ERRORS])
def test_errors_exit_2_with_their_message(models_dir, tmp_path, capsys, argv, message):
    assert run_exit_2(models_dir, tmp_path, capsys, argv) == f"error: {message}"


def run_exit_2(models_dir, tmp_path, capsys, argv) -> str:
    """Run ``argv`` on a bundled or an inline model; expect exit 2 and one
    line on stderr, and return that line."""
    command, name, *flags = argv
    path = models_dir / name
    if name in INLINE_MODELS:
        path = tmp_path / name
        path.write_text(INLINE_MODELS[name])
    assert main([command, str(path), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


# each command with the flag that names its output file, on a model it accepts
OUTPUT_FLAGS = {
    "analyze": ["tree.ppda", "--json"],
    "transform": ["ab.ppda", "--out"],
    "dist": ["delta1.bpa", "--csv"],
    "simulate": ["tree.ppda", "--samples", "50", "--seed", "3", "--csv"],
    "bounds": ["delta1.bpa", "--csv"],
}


@pytest.mark.parametrize("command", ["analyze", "transform", "dist", "simulate"])
def test_stdout_equals_the_output_file(models_dir, tmp_path, capsys, command):
    name, *flags = OUTPUT_FLAGS[command]
    argv = [command, str(models_dir / name), *flags[:-1]]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "out"
    assert main([*argv, flags[-1], str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = out.read_text(encoding="utf-8")
    if command == "analyze":  # the timings differ from run to run
        shown, written = (json.dumps({**json.loads(text), "timings": None})
                          for text in (shown, written))
    assert shown == written


# outputs that cannot be written, a threshold and a grid value beyond a
# double, and DP horizons whose rows would pass the byte budget
ONE_LINE_FAILURES = [
    *(([command, *OUTPUT_FLAGS[command], "{tmp}/missing/out"], 2) for command in OUTPUT_FLAGS),
    (["analyze", "tree.ppda", "--json", "{tmp}"], 2),
    (["bounds", "delta1.bpa", "--eps", "1e-300"], 3),
    (["bounds", "delta1.bpa", "--grid", "1," + "9" * 400], 2),
    (["dist", "delta1.bpa", "--start", "X1", "--nmax", "1" + "0" * 23], 2),
    (["dist", "delta1.bpa", "--start", "X1", "--nmax", "10000000000"], 2),
    (["dist", "tree.ppda", "--nmax", "10000000000"], 2),
    (["dist", "tree.ppda", "--nmax", "1000000"], 2),
    (["dist", "tree.ppda", "--start", "q.A", "--target", "q", "--nmax", "1000000"], 2),
]


@pytest.mark.parametrize("argv,code", ONE_LINE_FAILURES,
                         ids=[" ".join(argv)[:60] for argv, _ in ONE_LINE_FAILURES])
def test_output_and_range_failures_exit_with_one_line(models_dir, tmp_path, argv, code):
    command, name, *flags = argv
    flags = [flag.replace("{tmp}", str(tmp_path)) for flag in flags]
    proc = subprocess.run([sys.executable, "-m", "ppda", command, str(models_dir / name), *flags],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_dp_over_its_work_budget_is_refused_at_once(models_dir):
    # 2 rows of 10^7 doubles pass the byte budget, but the DP would make
    # 5e13 products, hours of work
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ppda", "dist", str(models_dir / "delta1.bpa"),
                           "--start", "X1", "--nmax", "10000000"],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: the exact DP to horizon 10000000 makes 1 dot product(s) a step, "
        "about 5e+13 products in all; the budget is 1e+11"]


def test_long_start_word_over_the_work_budget_is_refused_at_once(tmp_path):
    # the DP of delta1 to 40,000 passes (8e8 products), but 127 convolutions
    # of the start word's laws would add 127 * 1.6e9
    path = tmp_path / "word.bpa"
    path.write_text("bpa\nalphabet: X1\nstart: " + " ".join(["X1"] * 128)
                    + "\nrule: X1 -> X1 X1 : 1/2\nrule: X1 -> : 1/2\n")
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ppda", "dist", str(path), "--nmax", "40000"],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: the exact DP to horizon 40000 makes 255 dot product(s) a step, "
        "about 2.04e+11 products in all; the budget is 1e+11"]


def test_short_start_word_within_the_work_budget_runs():
    # 1 + 2 * 3 dots a step: 5.6e9 products, within the budget
    model = parse_model("bpa\nalphabet: X1\nstart: X1 X1 X1 X1\n"
                        "rule: X1 -> X1 X1 : 1/2\nrule: X1 -> : 1/2\n")
    dist = exact_distribution_word(model, model.start.stack, 40000)
    assert dist.mass[4] == 1 / 16  # the four symbols each pop at once
    assert 0.0 < dist.mass.sum() < 1.0


def test_refused_target_horizon_skips_the_solve(models_dir, tmp_path, monkeypatch, capsys):
    counts = count_calls(monkeypatch, ppda.termination.termination_probs)
    assert main(["dist", str(models_dir / "tree.ppda"), "--start", "q.A", "--target", "q",
                 "--nmax", "10000000000", "--csv", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "needs 10 rows of 10000000001 doubles" in err
    assert counts["termination_probs"] == 0


def test_dist_of_a_word_start(tmp_path):
    path, out = tmp_path / "word.bpa", tmp_path / "word.csv"
    path.write_text(WORD_START_BPA)
    assert main(["dist", str(path), "--nmax", "12", "--csv", str(out)]) == 0
    model = parse_model(WORD_START_BPA)
    exact = brute_total_mass(model, model.start, 12)
    np.testing.assert_allclose(csv_column(out, 1), [float(m) for m in exact], rtol=0, atol=1e-15)


def csv_column(path, k: int) -> list[float]:
    return [float(row.split(",")[k]) for row in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("source,start", [("ab.ppda", "p.X"), ("tree.ppda", "q.A"),
                                          ("random", "p0.X0")])
def test_dist_runs_one_dp_for_all_targets(models_dir, tmp_path, monkeypatch, source, start):
    path = models_dir / source
    if source == "random":
        path = tmp_path / "random.ppda"
        path.write_text(serialize(random_pda(2, 6, seed=2)))
    model = parse_model(path.read_text())
    oracle = term_dp_masses(model, 60)
    state, symbol = start.split(".")
    rows = {q: oracle.get(Triple(state, symbol, q), np.zeros(61)) for q in model.states}
    counts = count_calls(monkeypatch, ppda.distribution.exact_distribution_pda)
    out = tmp_path / "all.csv"
    assert main(["dist", str(path), "--start", start, "--nmax", "60", "--csv", str(out)]) == 0
    assert counts["exact_distribution_pda"] == 1
    np.testing.assert_allclose(csv_column(out, 1), sum(rows.values()), rtol=1e-13, atol=0)

    solved = termination_probs(model)
    for q in model.states:
        out = tmp_path / f"{q}.csv"
        assert main(["dist", str(path), "--start", start, "--target", q, "--nmax", "60",
                     "--csv", str(out)]) == 0
        assert out.read_text().startswith("n,mass,cumulative,tail,cond_tail\n")
        np.testing.assert_allclose(csv_column(out, 1), rows[q], rtol=1e-13, atol=0)
        norm = solved.probs[Triple(state, symbol, q)]
        assert csv_column(out, 3)[1] == pytest.approx(norm, rel=1e-12)  # the tail at n = 1
    assert counts["exact_distribution_pda"] == 1 + len(model.states)


def deep_case3_text(depth: int) -> str:
    """A critical X0 under a chain Y1..Y<depth>, each rule 1/1000 down the chain:
    p_min^(3 |alphabet|) underflows to 0 from about Y35 on."""
    lines = ["bpa", "alphabet: X0 " + " ".join(f"Y{i}" for i in range(1, depth + 1)),
             "rule: X0 -> X0 X0 : 1/2", "rule: X0 -> : 1/2"]
    for i in range(1, depth + 1):
        lines += [f"rule: Y{i} -> {'X0' if i == 1 else f'Y{i - 1}'} : 1/1000",
                  f"rule: Y{i} -> : 999/1000"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("start", ["Y35", "Y40"])
def test_analyze_deep_case3_reports_an_infinite_d1(tmp_path, start):
    path = tmp_path / "deep.bpa"
    path.write_text(deep_case3_text(40))
    proc = subprocess.run([sys.executable, "-m", "ppda", "analyze", str(path), "--start", start],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    (tail_report,) = json.loads(proc.stdout)["tails"]
    assert tail_report["case"] == 3 and tail_report["d1"] == "inf"
    assert 0.0 < tail_report["d2"] < 1e-10


def test_bounds_deep_case3_threshold_exits_3_with_one_line(tmp_path):
    path = tmp_path / "deep.bpa"
    path.write_text(deep_case3_text(40))
    proc = subprocess.run([sys.executable, "-m", "ppda", "bounds", str(path), "--start", "Y35"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: the threshold for --eps 0.01 exceeds a double"]


def test_moment_matrix_over_its_byte_budget_exits_3(models_dir, tmp_path, monkeypatch, capsys):
    # tree's terminating part has 10 symbols: A would take 800 bytes
    monkeypatch.setattr(ppda.moments, "MOMENT_BYTES", 799)
    assert main(["analyze", str(models_dir / "tree.ppda"),
                 "--json", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: the moment matrix of 10 symbols needs 800 bytes; the budget is 799"]
    assert not (tmp_path / "out.json").exists()
    monkeypatch.setattr(ppda.moments, "MOMENT_BYTES", 800)
    assert main(["analyze", str(models_dir / "tree.ppda"),
                 "--json", str(tmp_path / "out.json")]) == 0


def test_analyze_refuses_an_over_budget_part_before_the_solve(models_dir, tmp_path, monkeypatch,
                                                               capsys):
    # tree has 10 triples that may terminate, so its part has at most 10 symbols
    monkeypatch.setattr(ppda.moments, "MOMENT_BYTES", 100)
    solves = []
    monkeypatch.setattr(ppda.cli, "termination_probs", lambda *args, **kw: solves.append(args))
    for name in ("tree.ppda", "delta4.bpa"):
        assert main(["analyze", str(models_dir / name), "--json", str(tmp_path / "out.json")]) == 3
    assert solves == []
    assert capsys.readouterr().err.splitlines() == [
        "error: the moment matrix of 10 symbols needs 800 bytes; the budget is 100",
        "error: the moment matrix of 4 symbols needs 128 bytes; the budget is 100"]
    assert not (tmp_path / "out.json").exists()


def test_decimal_refinement_over_its_budget_exits_3(tmp_path, monkeypatch, capsys):
    # the symmetric critical model refines one block of all 4 of its triples
    path = tmp_path / "symmetric.ppda"
    path.write_text(serialize(CRITICAL_PDAS["symmetric"]))
    analyze = ["analyze", str(path), "--start", "u.S0", "--json", str(tmp_path / "out.json")]
    transform = ["transform", str(path), "--out", str(tmp_path / "out.bpa")]
    monkeypatch.setattr(ppda.termination, "EXTENDED_MAX", 3)
    assert main(analyze) == 3 and main(transform) == 3
    assert capsys.readouterr().err.splitlines() == 2 * [
        "error: the decimal refinement of a near-critical block of 4 variables "
        "is over its budget of 3"]
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.bpa").exists()
    monkeypatch.setattr(ppda.termination, "EXTENDED_MAX", 4)
    assert main(analyze) == 0 and main(transform) == 0


@pytest.mark.parametrize("message", ["Unable to allocate 1.00 TiB for an array with shape "
                                     "(370727, 370727) and data type float64", ""])
def test_memory_error_exits_3_with_one_line(models_dir, tmp_path, monkeypatch, capsys, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(ppda.cli, "termination_probs", exhausted)
    assert main(["transform", str(models_dir / "tree.ppda"),
                 "--out", str(tmp_path / "out.bpa")]) == 3
    want = f"error: out of memory: {message}" if message else "error: out of memory"
    assert capsys.readouterr().err.splitlines() == [want]
    assert not (tmp_path / "out.bpa").exists()


# one call of each command on a parsed model
COMMANDS = {
    "analyze": ["analyze", "ab.ppda", "--json", "{tmp}/out.json"],
    "transform": ["transform", "twostate.ppda", "--out", "{tmp}/out.bpa"],
    "dist": ["dist", "ab.ppda", "--target", "q", "--nmax", "20", "--csv", "{tmp}/out.csv"],
    "dist-bpa": ["dist", "delta2.bpa", "--nmax", "50", "--csv", "{tmp}/out.csv"],
    "simulate": ["simulate", "tree.ppda", "--samples", "20", "--csv", "{tmp}/out.csv"],
    "bounds": ["bounds", "delta2.bpa", "--csv", "{tmp}/out.csv"],
}


def command_argv(models_dir, tmp_path, command: str) -> list[str]:
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in COMMANDS[command]]
    return [argv[0], str(models_dir / argv[1]), *argv[2:]]


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_decodes_the_rules(models_dir, tmp_path, monkeypatch, command):
    """Every step after the parse reads the rule arrays: no command makes the
    parsed model decode its ``Rule``s."""
    loaded = []

    def parse(text):
        loaded.append(parse_model(text))
        return loaded[-1]

    monkeypatch.setattr(ppda.cli, "parse_model", parse)
    assert main(command_argv(models_dir, tmp_path, command)) == 0
    assert len(loaded) == 1 and "rules" not in loaded[0].__dict__


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_numpy_ma(models_dir, tmp_path, command):
    """``numpy.ma`` costs 2.5 MB of memory; no command imports it (np.unique,
    np.isin and np.setdiff1d do).  Each runs in a fresh interpreter."""
    code = ("import sys\nfrom ppda.cli import main\ncode = main(sys.argv[1:])\n"
            "sys.exit('numpy.ma was imported' if 'numpy.ma' in sys.modules else code)")
    argv = command_argv(models_dir, tmp_path, command)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
