#!/usr/bin/env python3
"""Classify every bundled model and print its tail regime and constants.

Stateful models are reduced first; each terminating triple symbol of the
start pair gets its own row.  The moment record each model keeps
(``Pda.moments``) serves every row.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from ppda import classify, parse_model, termination_probs, to_bpa

BUNDLED = [
    ("tree.ppda", "q", "A"),
    ("ab.ppda", "p", "X"),
    ("twostate.ppda", "p", "X"),
    ("delta1.bpa", None, "X1"),
    ("delta2.bpa", None, "X2"),
    ("delta3.bpa", None, "X3"),
    ("delta4.bpa", None, "X4"),
]


def describe(report):
    if report.case == 1:
        return f"case 1  horizon=2^{report.gamma_size}"
    if report.case == 2:
        return (f"case 2  E={report.e_start:.6f} E_max={report.e_max:.6f} "
                f"B={report.b_constant:.6f}")
    return (f"case 3  h={report.height} d1={report.d1:.6g} d2={report.d2:.6g} "
            f"(upper valid beyond unknown n0)")


def main():
    models = Path(__file__).parent.parent / "models"
    for name, state, symbol in BUNDLED:
        model = parse_model((models / name).read_text(encoding="utf-8"))
        print(f"== {name}")
        if model.stateless:
            print(f"  {symbol:<10} {describe(classify(model, symbol))}")
            continue
        result = to_bpa(model, termination_probs(model))
        part = result.part
        for sym in part.alphabet:
            trip = result.symbols[sym]
            if (trip.state, trip.symbol) == (state, symbol):
                print(f"  {sym:<10} {describe(classify(part, sym))}")

if __name__ == "__main__":
    main()
