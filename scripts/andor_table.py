#!/usr/bin/env python3
"""Print the conditional expected termination times of the And/Or evaluator.

Solves the termination system of models/tree.ppda, reduces it to the
stateless triple model, and tabulates the expectation of every triple next
to a truncated-mean cross-check from the exact distribution.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from ppda import (
    conditional_expectations,
    exact_distribution_pda,
    parse_model,
    termination_probs,
)

HORIZON = 2000


def main():
    path = Path(__file__).parent.parent / "models" / "tree.ppda"
    model = parse_model(path.read_text(encoding="utf-8"))
    table = termination_probs(model)
    cond = conditional_expectations(model, table)

    dists = exact_distribution_pda(model, None, HORIZON)  # every triple in one pass

    print(f"{'triple':<12} {'[pXq]':>12} {'E[pXq]':>12} {'trunc mean':>12}")
    for trip in sorted(cond, key=str):
        norm = table.probs[trip]
        truncated = sum(n * dists[trip].mass[n] for n in range(HORIZON + 1)) / norm
        print(f"{str(trip):<12} {norm:>12.6f} {cond[trip]:>12.6f} {truncated:>12.6f}")


if __name__ == "__main__":
    main()
