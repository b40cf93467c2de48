"""Child process of the benchmark: the only process that runs the program.

    python3 perfbench/worker.py setup JOB.json   # one timed set-up
    python3 perfbench/worker.py run JOB.json     # the measured rounds

``setup`` times, in this fresh interpreter, the import of ``ppda.cli``,
the generation of the inputs and their loading by ``ppda.model``, and
prints the seconds.  ``run`` repeats rounds of CLI calls through
``ppda.cli.main`` until the job's seconds are used up and at least
``min_rounds`` rounds are done, then writes the per-call seconds, the
outcome of every call and the peak resident memory to the job's result
file.  With tracing on, untraced and traced rounds alternate so that the
tracing overhead can be read off.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


TICK_S = 0.1  # how often the pace is sampled while an operation runs


def probe() -> float:
    """Seconds of a fixed mix of interpreter and NumPy work: the machine's pace.

    The mix mirrors the program's: bytecode loops and dict updates, and dot
    products of reversed slices as in the distribution DP.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 8192)
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += (i * i) % 7
    table: dict[int, int] = {}
    for i in range(4_000):
        table[i & 1023] = table.get(i & 1023, 0) + acc % 3
    for k in range(1, 8192, 256):
        acc += float(np.dot(a[1:k], a[k - 1:0:-1]))
    return time.perf_counter() - t0


def steady_probe() -> float:
    """The median of three probes, which keeps one interruption out."""
    return sorted(probe() for _ in range(3))[1]


class Pacer:
    """Measures one operation in probe units as well as in seconds.

    Every TICK_S seconds a timer signal runs one probe.  Each stretch of the
    operation between two probes counts its seconds divided by the mean of
    the probes at its ends, so a stretch run while the machine is slow counts
    the same as it would have run fast.  The probes' own time is left out of
    both figures.
    """

    def __init__(self, before: float):
        self.pace = before
        self.units = 0.0
        self.seconds = 0.0

    def _close_stretch(self, end: float, pace: float):
        self.seconds += end - self.last
        self.units += (end - self.last) / ((self.pace + pace) / 2)
        self.pace = pace

    def _tick(self, signum, frame):
        now = time.perf_counter()
        self._close_stretch(now, probe())
        self.last = time.perf_counter()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)  # before reading the clock: no tick after it
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.after = steady_probe()
        self._close_stretch(end, self.after)
        return False


def setup(job: dict) -> None:
    import gen

    t0 = time.perf_counter()
    import ppda.cli  # noqa: F401  (the import is part of what is timed)
    from ppda.model import parse_model

    for item in job["generate"]:
        Path(item["path"]).write_text(gen.random_pda(*item["shape"], item["seed"]),
                                      encoding="utf-8")
    for path in job["load"]:
        parse_model(Path(path).read_text(encoding="utf-8"))
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds,
                      "units": seconds / steady_probe(),
                      "ppda_file": ppda.cli.__file__}))


def run_round(main, ops: list[dict], outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    results = {}
    pace = steady_probe()
    for op in ops:
        argv = [a.replace("{out}", str(outdir)) for a in op["argv"]]
        err = io.StringIO()
        error = None
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                Pacer(pace) as pacer:
            try:
                code = main(argv)
            except Exception as exc:  # the benchmark counts a crash as a failed call
                code, error = None, f"{type(exc).__name__}: {exc}"
        results[op["id"]] = {"seconds": pacer.seconds, "units": pacer.units, "code": code,
                             "error": error, "stderr": err.getvalue()}
        pace = pacer.after
    return results


def run(job: dict) -> None:
    import ppda.cli as cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    per_cycle = 2 if tracer is not None else 1
    t_start = time.perf_counter()
    while True:
        traced = len(rounds) % per_cycle == 1
        outdir = Path(job["outdir"]) / f"round{len(rounds)}"
        record = {"traced": traced}
        if traced:
            tracer.install()
            before = tracer.counts.copy()
            spans_from = len(tracer.spans)
            record["ops"] = run_round(
                lambda argv: tracer.span("cli", "main", cli.main, argv), job["ops"], outdir)
            tracer.uninstall()
            record["self"] = [[layer, name, s] for (layer, name), s
                              in sorted(tracer.self_times(spans_from).items())]
            record["counts"] = dict(tracer.counts - before)
            record["spans"] = len(tracer.spans) - spans_from
        else:
            record["ops"] = run_round(cli.main, job["ops"], outdir)
        rounds.append(record)
        if (len(rounds) % per_cycle == 0 and len(rounds) >= job["min_rounds"]
                and time.perf_counter() - t_start >= job["seconds"]):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rounds": rounds, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        spans_path = Path(job["outdir"]) / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    mode, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    {"setup": setup, "run": run}[mode](job)
