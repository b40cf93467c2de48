"""Reduction of stateful models to stateless ones, and the progressivity
normal form used by the polynomial tail analysis.

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

from .model import BPA_STATE, Configuration, Pda, Rule, RuleArrays, Triple
from .moments import rule_weight_change
from .termination import TerminationTable

__all__ = [
    "TransformResult",
    "TransformError",
    "to_bpa",
    "cone_vector",
    "make_u_progressive",
]

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


# ---------------------------------------------------------------------------
# cone vector and progressivity

def cone_vector(model: Pda) -> dict[str, float]:
    """Positive weights with A u <= u on every SCC block, scaled to max 1.

    Computed per irreducible block from the dominant eigenvector, then
    assembled.  The blockwise inequality is the strongest available for
    reducible critical models: a cross-block critical row can make a global
    positive solution impossible.  The ratio min/max still dominates
    p_min^|alphabet| because each block obeys its own bound.
    """
    mm = model.moments
    for i, rho in enumerate(mm.block_radii):
        if rho > 1.0 + 1e-9:
            raise TransformError(
                f"supercritical block {mm.deps.sccs[i]}: not almost surely terminating"
            )
    return dict(mm.dominant_vector)


def _derivation_chains(model: Pda) -> dict[str, list[tuple[Rule, int | None]]]:
    """Shortest rule chain from each symbol to the empty word.

    Entry k of a chain is (rule, position of the next chain symbol in its
    right-hand side); the final rule carries position None.  Level-by-level
    search keeps ties resolved by declaration order; chain length is at most
    the alphabet size for a.s. terminating models, and symbols along a
    shortest chain are pairwise distinct.
    """
    chains: dict[str, list[tuple[Rule, int | None]]] = {}
    for sym in model.alphabet:
        for rule in model.rules_for(model.only_state, sym):
            if not rule.rhs_word:
                chains[sym] = [(rule, None)]
                break
    for _ in range(len(model.alphabet)):
        added = {}
        for sym in model.alphabet:
            if sym in chains or sym in added:
                continue
            best = None
            for ri, rule in enumerate(model.rules_for(model.only_state, sym)):
                for k, y in enumerate(rule.rhs_word):
                    if y in chains:
                        cand = (len(chains[y]), ri, k, rule)
                        if best is None or cand[:3] < best[:3]:
                            best = cand
            if best is not None:
                _, _, k, rule = best
                added[sym] = [(rule, k)] + chains[rule.rhs_word[k]]
        if not added:
            break
        chains.update(added)
    return chains


def _induced_word(chain: list[tuple[Rule, int | None]]) -> tuple[str, ...]:
    word: tuple[str, ...] = (chain[0][0].lhs_symbol,)
    pos = 0
    for rule, nxt in chain:
        word = word[:pos] + rule.rhs_word + word[pos + 1 :]
        if nxt is not None:
            pos += nxt
    return word


def _contract(model: Pda, chain: list[tuple[Rule, int | None]]) -> list[Rule]:
    """Inline a derivation chain into its first rule.

    Recursively substitutes the chain's tail for the marked occurrence,
    keeping all alternative rules of the substituted symbol; probabilities
    multiply along the chain, so each stays at least p_min^len(chain).
    """
    rule, pos = chain[0]
    if len(chain) == 1:
        return [rule]
    inner = _contract(model, chain[1:])
    follow = chain[1][0]
    sub = [
        r for r in model.rules_for(model.only_state, follow.lhs_symbol) if r != follow
    ] + inner
    out = []
    for alt in sub:
        word = rule.rhs_word[:pos] + alt.rhs_word + rule.rhs_word[pos + 1 :]
        out.append(Rule(BPA_STATE, rule.lhs_symbol, BPA_STATE, word,
                        rule.prob * alt.prob))
    return out


def make_u_progressive(model: Pda, u: dict[str, float]) -> Pda:
    """Rebuild rules so every symbol has one changing total weight by u_min/2.

    Symbols already owning such a rule keep their rows; for the rest, the
    first rule of a shortest derivation chain to the empty word is replaced
    by its contraction, choosing between the full chain and the chain
    without its final erasing rule, whichever clears the margin (the full
    chain is preferred when both do).
    """
    if not model.stateless:
        raise TransformError("progressivity applies to stateless models")
    u_min = min(u.values())
    margin = u_min / 2.0
    chains = _derivation_chains(model)

    new_rules: dict[str, list[Rule]] = {
        sym: list(model.rules_for(model.only_state, sym)) for sym in model.alphabet
    }
    for sym in model.alphabet:
        rules = new_rules[sym]
        if any(abs(rule_weight_change(r, u)) >= margin for r in rules):
            continue
        if sym not in chains:
            raise TransformError(
                f"symbol {sym} has no derivation to the empty word; "
                "model is not almost surely terminating"
            )
        chain = chains[sym]
        full = _induced_word(chain)
        weight = lambda w: u[sym] - sum(u[y] for y in w)
        if abs(weight(full)) >= margin or len(chain) == 1:
            chosen = chain
        else:
            chosen = chain[:-1]
        replaced = _contract(model, chosen)
        head = chain[0][0]
        at = rules.index(head)
        rules[at : at + 1] = replaced
        new_rules[sym] = _merge_duplicates(rules)

    flattened = tuple(r for sym in model.alphabet for r in new_rules[sym])
    return Pda(model.states, model.alphabet, flattened, kind="relaxed-bpa",
               start=model.start)


def _merge_duplicates(rules: list[Rule]) -> list[Rule]:
    merged: dict[tuple, Rule] = {}
    order: list[tuple] = []
    for r in rules:
        key = (r.rhs_state, r.rhs_word)
        if key in merged:
            old = merged[key]
            merged[key] = Rule(r.lhs_state, r.lhs_symbol, r.rhs_state, r.rhs_word,
                               old.prob + r.prob)
        else:
            merged[key] = r
            order.append(key)
    return [merged[k] for k in order]
