"""Reduction of stateful models to stateless ones.

Each stack symbol of the constructed stateless model is a triple symbol:
``p.X.q`` carries the obligation to empty X starting in state p and end in
state q, ``p.X.up`` the obligation to never empty it.  Rule probabilities
are the source probabilities reweighted by the termination masses of the
obligations they spawn, so they are irrational in general and live in
floats.  The terminating rules are the monomials of the compiled
termination system divided by the value of their left-hand side:
pX -> rYZ gives [pXq] -> [rYs][sZq] with probability x [rYs] [sZq] / [pXq].
Terminating symbols never depend on diverging ones, and the restriction to
terminating symbols terminates almost surely.  ``to_bpa`` emits the
terminating symbols and their rules first, so that restriction, the
terminating part, is a prefix of the stateless model and comes back with it.

The stateless model is built directly over its ``RuleArrays``
(``Pda.from_arrays``): the terminating rules are read off the compiled
monomials in one pass of array operations, the diverging ones by a loop over
the pairs.  Its ``Rule``s are decoded only when a caller reads them;
``ppda transform`` writes the text from the arrays (``model.serialize``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import BPA_STATE, Configuration, Pda, RuleArrays, Triple
from .termination import TerminationTable

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
    n = system.n
    v = np.array([probs[t] for t in system.triples] + [1.0])
    kept_triples = np.flatnonzero(v[:n] > OMIT_BELOW)
    term_syms = [system.triples[i] for i in kept_triples.tolist()]
    # A pair without rules is stuck, not running forever; it neither gets a
    # diverging symbol nor appears in one.
    div_syms = [
        Triple(p, X, None)
        for p in model.states
        for X in model.alphabet
        if probs[Triple(p, X, None)] > OMIT_BELOW and model.rules_for(p, X)
    ]
    syms = (*term_syms, *div_syms)
    alphabet = tuple(str(t) for t in syms)
    index = {t: i for i, t in enumerate(syms)}
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

    # the diverging rules as (lhs, first, second, length, probability)
    rows: list[tuple[int, int, int, int, float]] = []
    for t in div_syms:
        denom, at = probs[t], index[t]
        heads: dict[Triple, Fraction] = {}
        for rule in model.rules_for(t.state, t.symbol):
            if len(rule.rhs_word) == 2:
                x, r = float(rule.prob), rule.rhs_state
                Y, Z = rule.rhs_word
                for s in model.states:
                    a, b = Triple(r, Y, s), Triple(s, Z, None)
                    if probs[a] > OMIT_BELOW and b in index:
                        rows.append((at, index[a], index[b], 2,
                                     x * probs[a] * probs[b] / denom))
            if rule.rhs_word:
                head = Triple(rule.rhs_state, rule.rhs_word[0], None)
                heads[head] = heads.get(head, Fraction(0)) + rule.prob
        # Heads that keep running forever aggregate over all rules pushing
        # the same (state, symbol) on top.
        for head in sorted(heads.keys() & index.keys(), key=lambda h: (
                model.state_index[h.state], model.symbol_index[h.symbol])):
            rows.append((at, index[head], pad, 1, probs[head] * float(heads[head]) / denom))
    if rows:
        columns = [np.array(column) for column in zip(*rows)]
        words = np.full((len(rows), width), pad, dtype=np.intp)
        words[:, 0], words[:, 1] = columns[1], columns[2]
        parts.append((columns[0], words, columns[3], columns[4]))
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
        for cand in syms:
            if (cand.state, cand.symbol) == (model.start.state, model.start.stack[0]):
                start = Configuration(BPA_STATE, (str(cand),))
                break
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

