"""Reduction of stateful models to stateless ones.

Each stack symbol of the constructed stateless model is a triple symbol:
``p.X.q`` carries the obligation to empty X starting in state p and end in
state q, ``p.X.up`` the obligation to never empty it.  Rule probabilities
are the source probabilities reweighted by the termination masses of the
obligations they spawn, so they are irrational in general and live in
floats.  The terminating rules are the monomials of the compiled
termination system divided by the value of their left-hand side:
pX -> rYZ gives [pXq] -> [rYs][sZq] with probability x [rYs] [sZq] / [pXq].
It also gives [pX up] -> [rYs][sZ up] with x [rYs] [sZ up] / [pX up], and
the rules of pX that push rY on top give [pX up] -> [rY up] with the exact
sum of their probabilities.  Terminating symbols never depend on diverging
ones, and the restriction to terminating symbols terminates almost surely.
``to_bpa`` emits the terminating symbols and their rules first, so that
restriction, the terminating part, is a prefix of the stateless model and
comes back with it.

The stateless model is built directly over its ``RuleArrays``
(``Pda.from_arrays``) by array passes over the compiled monomials, the
source's ``rule_arrays`` and its compiled triples: no step reads a ``Rule``.
``ppda transform`` writes the text from the arrays (``model.serialize``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import BPA_STATE, Configuration, Pda, RuleArrays, Triple
from .termination import CompiledSystem, TerminationTable

__all__ = ["TransformResult", "TransformError", "to_bpa"]

OMIT_BELOW = 1e-12


class TransformError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class TransformResult:
    """The stateless model, its terminating part, and the triple of each symbol.

    The part's symbols and rules come first in ``bpa``: its arrays are the
    first rows of the model's, with the padding index of its own alphabet.
    """

    bpa: Pda
    part: Pda
    symbols: dict[str, Triple]


def to_bpa(model: Pda, table: TerminationTable) -> TransformResult:
    """Construct the stateless model over terminating and diverging triples.

    Triples whose probability falls below OMIT_BELOW are omitted entirely;
    every emitted rule row sums to one within 1e-9, which follows from the
    first-step identity when the table residual is small.  The terminating
    part keeps the model's start only when that start is terminating.
    """
    probs = table.probs
    system = model.compiled
    n, nq, ng = system.n, len(model.states), len(model.alphabet)
    v = np.array([probs[t] for t in system.triples] + [1.0])
    kept_triples = np.flatnonzero(v[:n] > OMIT_BELOW)
    term_syms = [system.triples[i] for i in kept_triples.tolist()]
    up = np.array([probs[Triple(p, X, None)] for p in model.states for X in model.alphabet])
    rules = model.rule_arrays
    # A pair without rules is stuck, not running forever; it neither gets a
    # diverging symbol nor appears in one.
    ruled = np.bincount(rules.lhs_state * ng + rules.lhs_symbol, minlength=nq * ng) > 0
    div_pairs = np.flatnonzero((up > OMIT_BELOW) & ruled)
    div_syms = [Triple(model.states[c // ng], model.alphabet[c % ng], None)
                for c in div_pairs.tolist()]
    syms = (*term_syms, *div_syms)
    alphabet = tuple(str(t) for t in syms)
    pad = len(alphabet)
    # the symbol of each kept triple; the padding factor n becomes the padding symbol
    symbol = np.full(n + 1, pad, dtype=np.intp)
    symbol[kept_triples] = np.arange(len(term_syms))

    # The monomials whose left-hand side and factors all stay, by left-hand
    # side and then by rule; the sort is stable, so the chains of a rule keep
    # their split-state order.
    kept = np.flatnonzero((v[system.lhs] > OMIT_BELOW)
                          & (v[system.factors] > OMIT_BELOW).all(axis=1))
    order = kept[np.lexsort((system.rule[kept], system.lhs[kept]))]
    lhs, factors = system.lhs[order], system.factors[order]
    weight = system.coef[order]
    for column in v[factors].T:
        weight = weight * column
    width = factors.shape[1]
    parts = [(symbol[lhs], symbol[factors], system.degree[order], weight / v[lhs])]
    if len(div_pairs):
        parts.append(_diverging_rows(rules, system, symbol, v, up, div_pairs, width))
    lhs, words, length, prob = (np.concatenate(column) for column in zip(*parts))
    # a lone rule's reweighted probability can overshoot 1 by an ulp
    keep = prob > 0.0
    lhs, words, length = lhs[keep], words[keep], length[keep]
    prob = np.minimum(prob[keep], 1.0)

    # Each symbol's rules are consecutive.  Each probability is a double held
    # exactly: fsum rounds their exact sum.
    heads_at = np.flatnonzero(np.diff(lhs, prepend=-1)).tolist()
    values = prob.tolist()
    for begin, end in zip(heads_at, heads_at[1:] + [len(values)]):
        total = math.fsum(values[begin:end])
        if abs(total - 1.0) > 1e-9:
            raise TransformError(f"row for {alphabet[lhs[begin]]} sums to {total!r}; "
                                 "table residual too large")

    start = None
    if model.start is not None and len(model.start.stack) == 1:
        pair = (model.start.state, model.start.stack[0])
        start = next((Configuration(BPA_STATE, (str(t),)) for t in syms
                      if (t.state, t.symbol) == pair), None)
    zeros = np.zeros_like(lhs)  # the one state
    bpa = Pda.from_arrays(alphabet, RuleArrays(zeros, lhs, zeros, length, words, prob, prob),
                          start)
    # the monomial rules come first and name terminating symbols only, so the
    # padding is the only index past the part's alphabet
    count, terminating = int(np.count_nonzero(keep[:len(order)])), alphabet[:len(term_syms)]
    if start is not None and start.stack[0] not in terminating:
        start = None
    part = Pda.from_arrays(terminating, RuleArrays(
        zeros[:count], lhs[:count], zeros[:count], length[:count],
        np.minimum(words[:count], len(terminating)), prob[:count], prob[:count]), start)
    return TransformResult(bpa=bpa, part=part, symbols=dict(zip(alphabet, syms)))


def _diverging_rows(rules: RuleArrays, system: CompiledSystem, symbol: np.ndarray, v: np.ndarray,
                    up: np.ndarray, div_pairs: np.ndarray, width: int):
    """The rules of the diverging symbols as (lhs, words, length, probability):
    each symbol's binary rows by rule and split state, then its unary ones by
    pair (r, Y).  ``up`` holds [pX up] by pair p |alphabet| + X."""
    nq, ng = system.table.shape[:2]
    pad = int(symbol[-1])
    div_symbol = np.full(len(up), pad, dtype=np.intp)  # of each pair, or the padding
    div_symbol[div_pairs] = np.arange(pad - len(div_pairs), pad)
    pair = rules.lhs_state * ng + rules.lhs_symbol
    at = div_symbol[pair]

    twos = np.flatnonzero((at < pad) & (rules.length == 2))
    binary, split = np.repeat(twos, nq), np.tile(np.arange(nq), len(twos))
    first = system.table[rules.rhs_state[binary], rules.words[binary, 0], split]
    second = split * ng + rules.words[binary, 1]
    keep = (symbol[first] < pad) & (div_symbol[second] < pad)
    binary, first, second = binary[keep], first[keep], second[keep]

    # the rules that push a diverging head, grouped by symbol and head in rule order
    push = np.flatnonzero((at < pad) & (rules.length > 0))
    head = rules.rhs_state[push] * ng + rules.words[push, 0]
    push, head = push[div_symbol[head] < pad], head[div_symbol[head] < pad]
    by_group = np.lexsort((head, pair[push]))
    push, head = push[by_group], head[by_group]
    begins = np.flatnonzero(np.diff(pair[push] * len(up) + head, prepend=-1))
    ends = np.append(begins[1:], len(push))
    mass = rules.prob[push[begins]]
    for k in np.flatnonzero(ends - begins > 1).tolist():
        mass[k] = float(sum(Fraction(rules.exact[i]) for i in push[begins[k]:ends[k]].tolist()))
    push, head = push[begins], head[begins]

    lhs = np.concatenate((at[binary], at[push]))
    words = np.full((len(lhs), width), pad, dtype=np.intp)
    words[:, 0] = np.concatenate((symbol[first], div_symbol[head]))
    words[:len(binary), 1] = div_symbol[second]
    length = np.repeat([2, 1], [len(binary), len(push)])
    prob = np.concatenate((rules.prob[binary] * v[first] * up[second] / up[pair[binary]],
                           up[head] * mass / up[pair[push]]))
    order = np.lexsort((lhs,))  # stable: each symbol's binary rows come first
    return lhs[order], words[order], length[order], prob[order]
