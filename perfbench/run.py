#!/usr/bin/env python3
"""Benchmark of the ppda command line: analyze, transform, dist, simulate.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` in a child process (``worker.py``), which calls ``ppda.cli.main``
for every operation; this process generates nothing itself, computes the
reference values with ``oracles.py`` and checks every output the child
wrote.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload runs all four commands.  The command the workload is named
after gets its large inputs; the other three run on small inputs, so that
every end-to-end metric exists on every workload and a change aimed at one
command can be seen not to move the others.

A run repeats identical rounds of operations, at least ``MIN_ROUNDS``, and
reports for each operation the median of its repeats, in paced seconds.  On
the shared 2-core machine this was built on, stretches of seconds to a
minute run up to twice as slow, in CPU time as much as in wall time, so the
slowness is not time stolen from the process.  ``worker.py`` therefore
samples a fixed probe every 0.1 s while an operation runs and counts each
stretch in probe units; ``PROBE_REFERENCE_S`` turns units back into the
seconds the operation takes when the machine runs fast.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import ast
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402

WORKLOADS = ("analyze", "transform", "dist", "simulate")
TIME_LIMIT = 170.0          # seconds for the whole run, set-up included
SETUP_REPEATS = 5
PROBE_REFERENCE_S = 0.0018  # seconds of one probe in this machine's fast stretches
MIN_ROUNDS = 2              # rounds of an untraced run; a traced run does one or more pairs

# Inputs.  A random model is (|Q|, |Gamma|, generator seed); a generator seed
# of None is taken from the run's seed, the others are fixed so that the
# timing of a workload depends little on which seed it runs.
ANALYZE_RANDOM = ((4, 20, 1), (4, 20, None))
TRANSFORM_RANDOM = ((8, 40, 1), (6, 30, None))  # seed 1 at (8, 40): all 320 pairs diverge
TRANSFORM_LIGHT_RANDOM = ((4, 20, 1),)
DIST_BPA_HEAVY = (("delta3.bpa", 16384), ("delta4.bpa", 16384))
DIST_BPA_LIGHT = (("delta1.bpa", 2048), ("delta2.bpa", 2048), ("delta3.bpa", 2048),
                  ("delta4.bpa", 2048))
DIST_PDA_RANDOM = ((4, 20, 1), (4, 20, None))  # each without --target, horizon 100
DIST_PDA_HORIZON = 100
DIST_PDA_BUNDLED = (("tree.ppda", 400), ("ab.ppda", 400))  # the small dist_pda inputs
SIM_HEAVY = (("delta4.bpa", 1000, 10_000), ("ab.ppda", 2000, 2000), ("tree.ppda", 30_000, 10_000))
SIM_LIGHT = (("delta4.bpa", 100, 2000), ("ab.ppda", 300, 1000), ("tree.ppda", 3000, 10_000))
LIGHT_PASSES = 4            # passes per round over the inputs of the other three commands
BUNDLED = ("ab.ppda", "tree.ppda", "twostate.ppda",
           "delta1.bpa", "delta2.bpa", "delta3.bpa", "delta4.bpa")
STATEFUL_BUNDLED = ("ab.ppda", "tree.ppda", "twostate.ppda")
BLOCKING = ("blocking_one_state.ppda", "blocking_two_state.ppda")

# checking
PROB_TOL = 1e-9             # absolute, on termination probabilities and rule probabilities
MEAN_RTOL = 1e-6            # relative, on conditional expected times
MASS_RTOL = 1e-9            # relative, on exact distribution masses (float oracle)
EXACT_RTOL = 1e-12          # relative, against the exact rational prefix
EXACT_TERMS = 400           # exact prefix of the delta_h series
UNFOLD_STEPS = 9            # exact unfolding of stateful models
Z_SCORE = 5.0               # standard errors allowed on simulated frequencies
SIM_ORACLE_HORIZON = 512    # horizon of the float DP oracle for stateful simulations
CUTOFF = 1e-12              # the transform's omit cutoff for vanishing triples
KLEENE_RESOLUTION = 1e-10   # divergence masses the Kleene oracle cannot tell from 0

END_TO_END = {
    "setup_s": "s", "analyze_s": "s", "transform_s": "s", "dist_bpa_s": "s",
    "dist_pda_s": "s", "simulate_s": "s", "sim_steps_per_s": "steps/s", "peak_rss_mb": "MB",
}
GROUP_METRIC = {"analyze": "analyze_s", "transform": "transform_s", "dist_bpa": "dist_bpa_s",
                "dist_pda": "dist_pda_s", "simulate": "simulate_s"}
HEAVY_GROUPS = {"analyze": ("analyze",), "transform": ("transform",),
                "dist": ("dist_bpa", "dist_pda"), "simulate": ("simulate",)}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed child)."""


# ---------------------------------------------------------------------------
# the plan: inputs and operations


def make_plan(workload: str, seed: int, work: Path):
    """Inputs to generate, operations of one round, and every input path.

    A round makes LIGHT_PASSES passes over the small inputs and one over the
    large ones, split into as many slices and interleaved with the passes,
    so that the repeats of a small operation lie apart in time.
    """
    generate = []
    operations = []
    heavy = HEAVY_GROUPS[workload]

    def random_model(shape: tuple[int, int, int | None], salt: int) -> str:
        n_states, n_symbols, gen_seed = shape
        if gen_seed is None:
            gen_seed = 1000 * seed + salt
        path = work / "inputs" / f"random_q{n_states}g{n_symbols}_s{gen_seed}.ppda"
        item = {"path": str(path), "shape": [n_states, n_symbols], "seed": gen_seed}
        if item not in generate:
            generate.append(item)
        return str(path)

    def add(group: str, argv: list[str], model: str, **check):
        suffix = {"analyze": ".json", "transform": ".bpa"}.get(group, ".csv")
        flag = {"analyze": "--json", "transform": "--out"}.get(group, "--csv")
        operations.append({"key": len(operations), "group": group, "model": model,
                           "argv": [argv[0], model, *argv[1:], flag, "{out}/{id}" + suffix],
                           "check": check})

    analyze = [str(MODELS / n) for n in BUNDLED] + [str(BENCH / "models" / n) for n in BLOCKING]
    if "analyze" in heavy:
        analyze = [random_model(shape, 1) for shape in ANALYZE_RANDOM] + analyze
    for path in analyze:
        add("analyze", ["analyze"], path)

    shapes = TRANSFORM_RANDOM if "transform" in heavy else TRANSFORM_LIGHT_RANDOM
    for path in [random_model(shape, 2) for shape in shapes] + \
            [str(MODELS / n) for n in STATEFUL_BUNDLED]:
        add("transform", ["transform"], path)

    for name, nmax in (DIST_BPA_HEAVY if "dist_bpa" in heavy else DIST_BPA_LIGHT):
        add("dist_bpa", ["dist", "--nmax", str(nmax)], str(MODELS / name), nmax=nmax)

    dist_pda = [(str(MODELS / name), nmax) for name, nmax in DIST_PDA_BUNDLED]
    if "dist_pda" in heavy:
        dist_pda = [(random_model(shape, 3), DIST_PDA_HORIZON) for shape in DIST_PDA_RANDOM] \
            + dist_pda[:1]
    for path, nmax in dist_pda:
        add("dist_pda", ["dist", "--nmax", str(nmax)], path, nmax=nmax)

    for name, samples, cap in (SIM_HEAVY if "simulate" in heavy else SIM_LIGHT):
        add("simulate", ["simulate", "--samples", str(samples), "--cap", str(cap),
                         "--seed", str(seed)], str(MODELS / name), samples=samples, cap=cap)

    large = [op for op in operations if op["group"] in heavy]
    small = [op for op in operations if op["group"] not in heavy]
    ops = []
    for k in range(LIGHT_PASSES):
        chunk = large[k * len(large) // LIGHT_PASSES:(k + 1) * len(large) // LIGHT_PASSES]
        for op in chunk + small:
            op_id = f"{op['group']}{len(ops)}"
            ops.append({**op, "id": op_id,
                        "argv": [a.replace("{id}", op_id) for a in op["argv"]]})
    load = sorted({op["model"] for op in ops})
    return generate, ops, load


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def run_child(mode: str, job_path: Path, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the child started")
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), mode, str(job_path)],
                            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {mode} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


# ---------------------------------------------------------------------------
# reference values


class Reference:
    """Oracle values for one input model; the costlier ones on first use."""

    def __init__(self, path: str):
        self.name = name = Path(path).name
        self.model = model = O.parse_text(Path(path).read_text(encoding="utf-8"))
        self.system = system = O.System(model)
        if name.startswith("delta"):
            # delta_h terminates almost surely: f_k(1) = 1 solves f = f^2/2 + 1/2
            self.v = np.ones(system.n)
            return
        if name.startswith("blocking"):
            self.v = blocking_values(name, system)
            return
        self.v, _, step = system.kleene()
        if step > 1e-15:
            raise BenchError(f"Kleene iteration did not settle on {name}: step {step:.1e}")
        if name == "ab.ppda":
            # a = b = 3/5: [pXq] = [qXp] = (1 - a) / b = 2/3
            agree_or_fail(name, system, self.v,
                          {"p.X.q": 2 / 3, "q.X.p": 2 / 3, "p.X.p": 0.0, "q.X.q": 0.0})
        if name == "tree.ppda":
            agree_or_fail(name, system, self.v,
                          {k: float(x) for k, x in O.andor_probabilities(model).items()})

    @functools.cached_property
    def means(self) -> np.ndarray:
        return self.system.first_moments(self.v)

    @functools.cached_property
    def andor(self) -> dict[str, float]:
        return O.andor_expectations(self.model)

    @functools.cache
    def case(self, triple: str) -> int:
        return case_of(self, triple)

    @functools.cache
    def dist(self, nmax: int):
        return dist_reference(self, nmax)

    @functools.cache
    def simulation(self, cap: int):
        return simulate_reference(self, cap)


def blocking_values(name: str, system: O.System) -> np.ndarray:
    if name == "blocking_one_state.ppda":
        exact = {"u.S.u": 1.0}
    else:  # symmetric: every pair empties in either state with probability 1/2
        exact = {t: 0.5 for t in system.names}
    return np.array([exact.get(t, 0.0) for t in system.names])


def agree_or_fail(name, system, v, exact):
    for t, val in exact.items():
        got = v[system.names.index(t)]
        if abs(got - val) > 1e-12:
            raise BenchError(f"oracle disagreement on {name} {t}: Kleene {got} vs {val}")


def case_of(ref: Reference, triple: str) -> int:
    """1: no cycle reachable from the triple; 2: finite mean; 3: infinite mean."""
    system, v = ref.system, ref.v
    i = system.names.index(triple)
    if math.isinf(ref.means[i]):
        return 3
    pos = v > 0.0
    ext = np.append(pos, True)
    edges = {}
    for lhs, f1, f2 in zip(system.lhs, system.f1, system.f2):
        if pos[lhs] and ext[f1] and ext[f2]:
            edges.setdefault(int(lhs), set()).update(x for x in (int(f1), int(f2))
                                                     if x != system.n)
    seen, stack = set(), [i]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(edges.get(x, ()))
    for x in seen:  # a cycle through x exists iff x reaches itself
        frontier, visited = list(edges.get(x, ())), set()
        while frontier:
            y = frontier.pop()
            if y == x:
                return 2
            if y not in visited:
                visited.add(y)
                frontier.extend(edges.get(y, ()))
    return 1


# ---------------------------------------------------------------------------
# checks; each returns a list of problems


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def as_float(x) -> float:
    return math.inf if x == "inf" else float(x)


def check_analyze(ref: Reference, text: str) -> list[str]:
    rep = json.loads(text)
    system, v, means, model = ref.system, ref.v, ref.means, ref.model
    problems = []
    probs = rep["termination"]["probs"]
    expected = dict(zip(system.names, v))
    for p in model.states:
        for X in model.symbols:
            total = sum(expected[O.triple_name(p, X, q)] for q in model.states)
            expected[O.triple_name(p, X, None)] = max(0.0, 1.0 - total)
    for t, val in expected.items():
        got = probs.get(t, 0.0)
        if abs(got - val) > PROB_TOL:
            problems.append(f"[{t}] = {got}, oracle {val}")
    unknown = set(probs) - set(expected)
    if unknown:
        problems.append(f"unknown triples {sorted(unknown)[:3]}")
    start = model.start
    if model.stateless:
        expected_means = {X: means[system.names.index(O.triple_name(start[0], X, start[0]))]
                          for X in model.symbols}
        tail_triples = {start[1]: O.triple_name(start[0], start[1], start[0])}
    else:
        expected_means = {t: m for t, m, val in zip(system.names, means, v) if val > CUTOFF}
        tail_triples = {t: t for t in expected_means
                        if t.startswith(f"{start[0]}.{start[1]}.")}
    got_means = {k: as_float(x) for k, x in rep["expectations"]["values"].items()}
    if set(got_means) != set(expected_means):
        problems.append(f"expectation keys {sorted(got_means)[:4]} != {sorted(expected_means)[:4]}")
    for k, m in expected_means.items():
        if k in got_means and not close(got_means[k], m, MEAN_RTOL):
            problems.append(f"E[{k}] = {got_means[k]}, oracle {m}")
    tails = {t["start"]: t for t in rep["tails"]}
    if set(tails) != set(tail_triples):
        problems.append(f"tails for {sorted(tails)}, expected {sorted(tail_triples)}")
    for start_name, triple in tail_triples.items():
        t = tails.get(start_name)
        if t is None:
            continue
        case = ref.case(triple)
        if t["case"] != case:
            problems.append(f"case of {start_name} = {t['case']}, oracle {case}")
        elif case == 2 and not close(t["e_start"], means[system.names.index(triple)], MEAN_RTOL):
            problems.append(f"e_start of {start_name} = {t['e_start']}")
        if ref.name.startswith("delta") and t["height"] != int(ref.name[5]):
            problems.append(f"height of {start_name} = {t['height']}")
    if ref.name == "tree.ppda":
        for k, m in ref.andor.items():
            if not close(got_means.get(k, math.nan), m, MEAN_RTOL):
                problems.append(f"And/Or E[{k}] = {got_means.get(k)}, exact {m}")
    return problems


def check_transform(ref: Reference, text: str) -> list[str]:
    got = O.parse_transform_output(text)
    want = O.transform_expected(ref.model, ref.v, ref.system, CUTOFF)
    problems = []
    rows: dict[str, float] = {}
    for (lhs, _), prob in got.items():
        rows[lhs] = rows.get(lhs, 0.0) + prob
    bad = [(k, s) for k, s in rows.items() if abs(s - 1.0) > PROB_TOL]
    if bad:
        problems.append(f"{len(bad)} rows do not sum to 1, e.g. {bad[0]}")
    unsure = O.unresolved_divergence(ref.model, ref.v, ref.system, CUTOFF,
                                     KLEENE_RESOLUTION)
    got, want = ({k: p for k, p in rules.items() if unsure.isdisjoint((k[0], *k[1]))}
                 for rules in (got, want))
    if set(got) != set(want):
        extra, missing = set(got) - set(want), set(want) - set(got)
        problems.append(f"{len(extra)} unexpected rules {sorted(extra)[:2]}, "
                        f"{len(missing)} missing {sorted(missing)[:2]}")
    worst = max((abs(got[k] - want[k]) for k in set(got) & set(want)), default=0.0)
    if worst > PROB_TOL:
        problems.append(f"rule probability off by {worst:.3e}")
    return problems


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


def dist_reference(ref: Reference, nmax: int):
    """Exact masses for a prefix of the horizon, and float masses for all of it."""
    model, system = ref.model, ref.system
    start = model.start
    if ref.name.startswith("delta"):
        h = int(ref.name[5])
        exact = O.delta_series_exact(h, min(EXACT_TERMS, nmax + 1))
        if h == 1 and exact != O.catalan_delta1(len(exact)):
            raise BenchError("delta1 series disagrees with the Catalan closed form")
        return exact, O.delta_series_float(h, nmax + 1)
    unfolded = O.unfold_exact(model, start, min(UNFOLD_STEPS, nmax))
    exact = [sum(col) for col in zip(*unfolded.values())]
    dp = system.mass_dp(nmax)
    return exact, sum(dp[system.var(start[0], start[1], q)] for q in model.states)


def check_dist(ref: Reference, text: str, nmax: int) -> list[str]:
    rows = read_csv(text)
    mass = np.array([float(r["mass"]) for r in rows])
    if len(mass) != nmax + 1:
        return [f"{len(mass)} rows for horizon {nmax}"]
    exact, floats = ref.dist(nmax)
    problems = []
    for n, want in enumerate(exact):
        if not close(mass[n], float(want), EXACT_RTOL, 1e-300):
            problems.append(f"mass[{n}] = {mass[n]!r}, exact {want}")
            break
    bad = np.abs(mass - floats) > MASS_RTOL * np.abs(floats) + 1e-300
    if bad.any():
        n = int(np.flatnonzero(bad)[0])
        problems.append(f"mass[{n}] = {mass[n]!r}, oracle {floats[n]!r}")
    return problems


def simulate_reference(ref: Reference, cap: int):
    """Per-target mass by step up to a horizon, and whether it reaches the cap."""
    model, system = ref.model, ref.system
    start = model.start
    if ref.name.startswith("delta"):
        h = int(ref.name[5])
        series = O.delta_series_float(h, cap + 1)
        return {start[0]: series}, cap
    horizon = min(cap, SIM_ORACLE_HORIZON)
    dp = system.mass_dp(horizon)
    return {q: dp[system.var(start[0], start[1], q)] for q in model.states}, horizon


def check_simulate(ref: Reference, text: str, stderr: str, samples: int,
                   cap: int) -> tuple[list[str], int]:
    """Problems, and the number of steps the simulator took."""
    rows = read_csv(text)
    counts = {int(r["n"]): int(r["count"]) for r in rows}
    summary = dict(tok.split("=", 1) for tok in stderr.split("by_state=")[0].split())
    by_state = ast.literal_eval(stderr.split("by_state=")[1].split(" seed=")[0])
    censored = int(summary["censored"])
    steps = sum(n * c for n, c in counts.items()) + censored * cap
    problems = []
    if int(summary["samples"]) != samples or sum(counts.values()) + censored != samples:
        problems.append(f"sample accounting: {summary}")
    per_state, horizon = ref.simulation(cap)

    def within(observed: int, lo: float, hi: float) -> bool:
        p = min(max((lo + hi) / 2, 0.0), 1.0)
        se = max(math.sqrt(p * (1 - p) / samples), 1.0 / samples)
        rate = observed / samples
        return lo - Z_SCORE * se <= rate <= hi + Z_SCORE * se

    system, v = ref.system, ref.v
    start = ref.model.start
    for q, mass in per_state.items():
        lo = float(np.sum(mass))
        hi = lo if horizon >= cap else float(v[system.var(start[0], start[1], q)])
        if not within(by_state.get(q, 0), lo, hi):
            problems.append(f"rate to {q}: {by_state.get(q, 0)}/{samples}, oracle [{lo}, {hi}]")
    total = sum(per_state.values())
    n = 1
    while n <= horizon:
        expected = 1.0 - float(np.sum(total[:n]))
        observed = samples - sum(c for m, c in counts.items() if m < n)
        if not within(observed, expected, expected):
            problems.append(f"P(T >= {n}) = {observed}/{samples}, oracle {expected:.6g}")
        n *= 2
    return problems, steps


def check(op: dict, ref: Reference, text: str, stderr: str) -> tuple[list[str], int]:
    """Problems with one output, and the steps simulated (0 for other commands)."""
    group = op["group"]
    if group == "analyze":
        return check_analyze(ref, text), 0
    if group == "transform":
        return check_transform(ref, text), 0
    if group in ("dist_bpa", "dist_pda"):
        return check_dist(ref, text, op["check"]["nmax"]), 0
    return check_simulate(ref, text, stderr, op["check"]["samples"], op["check"]["cap"])


# ---------------------------------------------------------------------------
# the run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT

    if not (SRC / "ppda" / "cli.py").is_file() or not MODELS.is_dir():
        raise BenchError(f"no ppda sources under {SRC}; run from the root of a checkout")

    work = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    generate, ops, load = make_plan(args.workload, args.seed, work)

    setup_job = work / "setup.json"
    setup_job.write_text(json.dumps({"generate": generate, "load": load}), encoding="utf-8")
    setups = []

    def set_up(times: int):
        for _ in range(times):
            info = json.loads(run_child("setup", setup_job, deadline).splitlines()[-1])
            if Path(info["ppda_file"]).resolve() != (SRC / "ppda" / "cli.py").resolve():
                raise BenchError(f"ppda imported from {info['ppda_file']}, not from {SRC}")
            setups.append(paced(info["units"]))

    set_up(SETUP_REPEATS - SETUP_REPEATS // 2)  # the rest after the rounds, to span the run

    refs = {path: Reference(path) for path in load}

    job_path = work / "run.json"
    result_path = work / "result.json"
    job_path.write_text(json.dumps({"ops": ops, "seconds": args.seconds, "trace": args.trace,
                                    "min_rounds": 2 if args.trace else MIN_ROUNDS,
                                    "outdir": str(work), "result": str(result_path)}),
                        encoding="utf-8")
    run_child("run", job_path, deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    set_up(SETUP_REPEATS // 2)

    correct, attempted, failed = True, 0, 0
    sim_steps = {}
    verdicts: dict[tuple, tuple[list[str], int]] = {}
    for r, rnd in enumerate(result["rounds"]):
        outdir = work / f"round{r}"
        for op in ops:
            res = rnd["ops"][op["id"]]
            attempted += 1
            if res["code"] != 0:
                failed += 1
                if Path(op["model"]).name not in BLOCKING:
                    print(f"unexpected failure of {op['argv'][:2]}: {res['error'] or res['stderr']}",
                          file=sys.stderr)
                continue
            text = (outdir / op["argv"][-1].replace("{out}/", "")).read_text(encoding="utf-8")
            # repeats of an operation that wrote the same output share one verdict
            seen = (op["key"], hashlib.sha256((text + res["stderr"]).encode()).digest())
            if seen not in verdicts:
                verdicts[seen] = check(op, refs[op["model"]], text, res["stderr"])
            problems, steps = verdicts[seen]
            if op["group"] == "simulate" and sim_steps.setdefault(op["key"], steps) != steps:
                problems = problems + ["the step count changed between repeats"]
            if problems:
                correct = False
                print(f"check failed for {' '.join(op['argv'][:2])}: {problems[:3]}",
                      file=sys.stderr)

    for r in range(len(result["rounds"])):  # the outputs are checked; keep the record only
        shutil.rmtree(work / f"round{r}")
    if args.trace:
        metrics = layer_metrics(result, ops)
    else:
        metrics = end_to_end_metrics(result, ops, setups, sum(sim_steps.values()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def paced(units: float) -> float:
    """Probe units as seconds at the reference pace (see PROBE_REFERENCE_S)."""
    return units * PROBE_REFERENCE_S


def pass_seconds(result: dict, ops: list[dict]) -> dict[str, float]:
    """Paced seconds per group: the sum over its operations of their median untraced repeat."""
    samples: dict[int, list[float]] = {}
    for rnd in result["rounds"]:
        if not rnd["traced"]:
            for op in ops:
                r = rnd["ops"][op["id"]]
                samples.setdefault(op["key"], []).append(paced(r["units"]))
    out: dict[str, float] = {}
    for op in {op["key"]: op for op in ops}.values():
        out[op["group"]] = out.get(op["group"], 0.0) + statistics.median(samples[op["key"]])
    return out


def end_to_end_metrics(result, ops, setups, steps: int) -> dict:
    seconds = pass_seconds(result, ops)
    values = {"setup_s": statistics.median(setups)}
    for group, name in GROUP_METRIC.items():
        values[name] = seconds[group]
    values["sim_steps_per_s"] = steps / seconds["simulate"]
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


# per-layer self times: metric -> (layer, span names or None for all, names excluded)
LAYER_TIMES = {
    "model.parse_s": ("model", None, ()),
    "termination.solve_s": ("termination", None, ("may_terminate", "qualitative_zero")),
    "termination.may_terminate_s": ("termination", ("may_terminate", "qualitative_zero"), ()),
    "transform.to_bpa_s": ("transform", ("to_bpa",), ()),
    "transform.terminating_part_s": ("transform", ("terminating_part",), ()),
    "graph.dependence_s": ("graph", ("dependence",), ()),
    "graph.restrict_s": ("graph", ("restrict_to_reachable",), ()),
    "moments.moment_matrix_s": ("moments", ("moment_matrix",), ()),
    "moments.expectations_s": ("moments", ("expectations",), ()),
    "bounds.classify_self_s": ("bounds", ("classify",), ()),
    "distribution.dp_bpa_s": ("distribution", ("exact_distribution_bpa",
                                               "exact_distribution_word"), ()),
    "distribution.dp_pda_s": ("distribution", ("exact_distribution_pda",), ()),
    "distribution.simulate_s": ("distribution", ("simulate", "simulate_heads"), ()),
    "cli.output_s": ("output", None, ()),
    "cli.self_s": ("cli", None, ()),
}
LAYER_COUNTS = (
    "termination.solve_calls", "termination.newton_iterations", "termination.variables",
    "termination.may_terminate_calls", "transform.rules_emitted", "graph.dependence_calls",
    "bounds.classify_calls", "distribution.dp_pda_calls", "distribution.sim_steps",
    "distribution.sim_censored",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES}, **{name: "count" for name in LAYER_COUNTS},
    "trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.layer_share": "ratio",
    "trace.spans": "count",
}


def layer_metrics(result: dict, ops: list[dict]) -> dict:
    traced = [rnd for rnd in result["rounds"] if rnd["traced"]]
    walls = {flag: [sum(paced(rnd["ops"][op["id"]]["units"]) for op in ops)
                    for rnd in result["rounds"] if rnd["traced"] == flag]
             for flag in (False, True)}
    per_round = []
    for rnd in traced:
        selfs = rnd["self"]
        row = {}
        for metric, (layer, names, excluded) in LAYER_TIMES.items():
            row[metric] = sum(s for lay, name, s in selfs if lay == layer
                              and (names is None or name in names) and name not in excluded)
        library = sum(s for lay, _, s in selfs if lay not in ("cli", "output"))
        row["trace.layer_share"] = library / sum(s for _, _, s in selfs)
        per_round.append(row)
    values = {m: statistics.median(row[m] for row in per_round) for m in per_round[0]}
    counts = [rnd["counts"] for rnd in traced]
    if any(c != counts[0] for c in counts):
        print(f"per-layer counts differ between rounds: {counts}", file=sys.stderr)
    for name in LAYER_COUNTS:
        values[name] = counts[0].get(name, 0)
    values["trace.spans"] = statistics.median(rnd["spans"] for rnd in traced)
    plain, traced_wall = statistics.median(walls[False]), statistics.median(walls[True])
    values["trace.overhead_s"] = traced_wall - plain
    values["trace.overhead_share"] = (traced_wall - plain) / plain
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
