"""Seeded input generator for the benchmark.

``random_pda(n_states, n_symbols, seed)`` builds one model of the random
family: every (state, symbol) pair gets exactly three rules, a pop, a unary
and a binary rule, each with a uniformly drawn target state (and symbols),
with integer weights 1..5 normalised to exact fractions.  The program under
test only ever sees the text this module writes.
"""

from __future__ import annotations

import random
from fractions import Fraction


def random_rules(n_states: int, n_symbols: int, seed: int):
    """Rules (p, X, r, word, prob) of one random model, in a fixed order."""
    rng = random.Random(seed)
    states = [f"p{i}" for i in range(n_states)]
    symbols = [f"X{i}" for i in range(n_symbols)]
    rules = []
    for p in states:
        for X in symbols:
            weights = [rng.randint(1, 5) for _ in range(3)]
            total = sum(weights)
            words = ((), (rng.choice(symbols),), (rng.choice(symbols), rng.choice(symbols)))
            for w, word in zip(weights, words):
                rules.append((p, X, rng.choice(states), word, Fraction(w, total)))
    return states, symbols, rules


def model_text(states, symbols, rules, start=None, comment="") -> str:
    lines = [f"# {comment}"] if comment else []
    lines += ["pda", "states: " + " ".join(states), "alphabet: " + " ".join(symbols)]
    if start is not None:
        lines.append(f"start: {start[0]} {start[1]}")
    for p, X, r, word, prob in rules:
        rhs = " ".join((r, *word))
        lines.append(f"rule: {p} {X} -> {rhs} : {prob.numerator}/{prob.denominator}")
    return "\n".join(lines) + "\n"


def random_pda(n_states: int, n_symbols: int, seed: int) -> str:
    states, symbols, rules = random_rules(n_states, n_symbols, seed)
    return model_text(states, symbols, rules, start=(states[0], symbols[0]),
                      comment=f"random family |Q|={n_states} |Gamma|={n_symbols} seed={seed}")
