#!/usr/bin/env python3
"""Sweep exact tails against the generic bound curves for one model.

Writes a CSV with the exact tail, the matching lower/upper bounds, and an
empirical tail from a seeded simulation, over a geometric grid of n.

  python scripts/tail_curves.py models/delta2.bpa --start X2 --out curves.csv
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from ppda import (
    Configuration,
    classify,
    exact_distribution_word,
    parse_model,
    simulate,
    tail,
    tail_bounds,
)


def run(path: str, start: str, n_max: int, samples: int, seed: int, out: str | None):
    model = parse_model(Path(path).read_text(encoding="utf-8"))
    report = classify(model, start)
    dist = exact_distribution_word(model, (start,), n_max)
    stats = simulate(model, Configuration(model.only_state, (start,)),
                     samples=samples, step_cap=n_max, seed=seed)

    grid = sorted({2**k for k in range(2, int(math.log2(n_max)) + 1)} | {n_max})
    lines = ["n,lower,upper,exact,empirical,empirical_se"]
    for n in grid:
        low, up = tail_bounds(report, n)
        est, se = stats.empirical_tail(n)
        lines.append(f"{n},{low!r},{up!r},{tail(dist, n)!r},{est!r},{se!r}")
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"case {report.case}; wrote {len(grid)} rows to {out}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("model")
    ap.add_argument("--start", required=True)
    ap.add_argument("--nmax", type=int, default=4096)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    run(args.model, args.start, args.nmax, args.samples, args.seed, args.out)
