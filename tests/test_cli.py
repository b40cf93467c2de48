import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ppda.bounds
import ppda.cli
import ppda.distribution
import ppda.graph
import ppda.moments
import ppda.termination
import ppda.transform
from ppda import Triple, parse_model, serialize, termination_probs
from ppda.cli import main

from helpers import ORPHAN_TEXT, POP_ORPHAN_TEXTS, brute_total_mass, random_pda, term_dp_masses

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


def test_simulate_censoring_reported(tmp_path, capsys):
    src = tmp_path / "grow.bpa"
    src.write_text("bpa\nalphabet: X\nstart: X\nrule: X -> X X : 1\n")
    out = tmp_path / "grow.csv"
    assert main(["simulate", str(src), "--samples", "100", "--seed", "1",
                 "--cap", "50", "--csv", str(out)]) == 0
    assert "censored=100" in capsys.readouterr().err


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
    """Count calls of each function under every ppda name bound to it."""
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
    return counts


@pytest.mark.parametrize("source,start", [("tree.ppda", "q.A"), ("random", "p0.X0"),
                                          ("delta4.bpa", "X4")])
def test_analyze_solves_and_condenses_once(models_dir, tmp_path, monkeypatch, source, start):
    path = models_dir / source
    if source == "random":
        path = tmp_path / "random.ppda"
        path.write_text(serialize(random_pda(2, 6, seed=2)))
    counts = count_calls(monkeypatch, ppda.termination.termination_probs,
                         ppda.graph.dependence, ppda.moments.moment_matrix,
                         ppda.bounds.classify)
    assert main(["analyze", str(path), "--start", start,
                 "--json", str(tmp_path / "out.json")]) == 0
    # one tail report per target state
    assert counts["classify"] == (1 if path.suffix == ".bpa" else 2)
    assert counts["termination_probs"] == 1  # the model; its terminating part is not solved
    # the stateless model or the part, once for every start; a stateless solve
    # and its classification share them
    assert counts["dependence"] == 1
    assert counts["moment_matrix"] == 1


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
}


@pytest.mark.parametrize("argv", [
    ["analyze", "ab.ppda", "--tol", "0"],
    ["analyze", "ab.ppda", "--tol", "-1"],
    ["analyze", "ab.ppda", "--tol", "nan"],
    ["simulate", "ab.ppda", "--samples", "0"],
    ["simulate", "ab.ppda", "--cap", "0"],
    ["bounds", "delta1.bpa", "--eps", "0"],
    ["bounds", "delta1.bpa", "--eps", "2"],
    ["dist", "delta1.bpa", "--target", "nowhere"],
    ["bounds", "delta1.bpa", "--grid", "x"],
    ["bounds", "delta1.bpa", "--grid", "0,4"],
    ["dist", "delta1.bpa", "--nmax", "0"],
    ["simulate", "ab.ppda", "--start", "p"],
    ["analyze", "ab.ppda", "--start", "p.Z"],
    ["bounds", "ab.ppda"],
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
    command, name, *flags = argv
    path = models_dir / name
    if name in INLINE_MODELS:
        path = tmp_path / name
        path.write_text(INLINE_MODELS[name])
    assert main([command, str(path), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if name.startswith("orphan"):
        assert "pair (q, Y) reachable from start but has no rules" in err[0]


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
