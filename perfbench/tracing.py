"""Spans and counts recorded from outside the program.

``Tracer.install`` wraps every public function defined in a ``ppda`` layer
module and rebinds the wrapper under every name in every ``ppda`` module
that refers to the original, so calls made through ``from .x import f``
are seen too.  Each call records a span (layer, name, start, end, parent)
in memory; ``uninstall`` puts the originals back.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("model", "termination", "transform", "graph", "moments", "bounds", "distribution")

# functions the CLI uses to render its output; spans under layer "output"
OUTPUT_NAMES = ("_report_json", "serialize", "dist_csv", "sample_csv")


def _count_solve(counts, table):
    counts["termination.solve_calls"] += 1
    counts["termination.newton_iterations"] += table.iterations
    triples = sum(1 for t in table.probs if t.target is not None)
    counts["termination.variables"] += triples - len(table.qualitative_zero)


def _count_simulate(counts, stats):
    counts["distribution.sim_steps"] += (
        sum(n * c for ctr in stats.outcomes.values() for n, c in ctr.items())
        + stats.censored * stats.step_cap
    )
    counts["distribution.sim_censored"] += stats.censored


COUNTERS = {
    ("termination", "termination_probs"): _count_solve,
    ("termination", "may_terminate"):
        lambda c, r: c.update({"termination.may_terminate_calls": 1}),
    ("transform", "to_bpa"):
        lambda c, r: c.update({"transform.rules_emitted": len(r.bpa.rules)}),
    ("graph", "dependence"): lambda c, r: c.update({"graph.dependence_calls": 1}),
    ("bounds", "classify"): lambda c, r: c.update({"bounds.classify_calls": 1}),
    ("distribution", "exact_distribution_pda"):
        lambda c, r: c.update({"distribution.dp_pda_calls": 1}),
    ("distribution", "simulate"): _count_simulate,
}


class Tracer:
    """Records spans and counts of the ppda layers while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, layer, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, layer, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[5] = time.perf_counter()

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(layer, name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ppda" or n.startswith("ppda.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"ppda.{layer}")
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._rebind(modules, fn, self._wrap(layer, name, fn))
        cli = importlib.import_module("ppda.cli")
        for name in OUTPUT_NAMES:
            fn = vars(cli)[name]
            original = getattr(fn, "__wrapped__", fn)
            self._patch(cli, name, self._wrap("output", name, original))

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, mod, attr, value):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def self_times(self, first: int = 0) -> dict[tuple[str, str], float]:
        """Self seconds per (layer, name) over spans[first:]."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, _, layer, name, start, end in self.spans[first:]:
            out[(layer, name)] += (end - start) - child[sid]
        return dict(out)
