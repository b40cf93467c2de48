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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import BPA_STATE, Configuration, Pda, Rule, Triple
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


@dataclass(frozen=True)
class TransformResult:
    """The stateless model, its triple of each symbol, and its terminating part."""

    bpa: Pda
    symbols: dict[str, Triple]
    part: Pda


def to_bpa(model: Pda, table: TerminationTable) -> TransformResult:
    """Construct the stateless model over terminating and diverging triples.

    Triples whose probability falls below OMIT_BELOW are omitted entirely;
    every emitted rule row sums to one within 1e-9, which follows from the
    first-step identity when the table residual is small.  The terminating
    part keeps the model's start only when that start is terminating.
    """
    probs = table.probs
    system = model.compiled
    term_syms = [t for t in system.triples if probs[t] > OMIT_BELOW]
    # A pair without rules is stuck, not running forever; it neither gets a
    # diverging symbol nor appears in one.
    div_syms = [
        Triple(p, X, None)
        for p in model.states
        for X in model.alphabet
        if probs[Triple(p, X, None)] > OMIT_BELOW and model.rules_for(p, X)
    ]
    div_set = set(div_syms)

    rules: list[Rule] = []

    def emit(lhs: str, rhs: tuple[str, ...], prob: float):
        if prob > 0.0:
            # a lone rule's reweighted probability can overshoot 1 by an ulp
            rules.append(Rule(BPA_STATE, lhs, BPA_STATE, rhs, Fraction(min(prob, 1.0))))

    # The monomials whose left-hand side and factors all stay, by left-hand
    # side and then by rule; the sort is stable, so the chains of a rule keep
    # their split-state order.
    v = np.array([probs[t] for t in system.triples] + [1.0])
    kept = np.flatnonzero((v[system.lhs] > OMIT_BELOW)
                          & (v[system.factors] > OMIT_BELOW).all(axis=1))
    order = kept[np.lexsort((system.rule[kept], system.lhs[kept]))]
    lhs, factors = system.lhs[order], system.factors[order]
    weight = system.coef[order]
    for column in v[factors].T:
        weight = weight * column
    names = [str(t) for t in system.triples]
    for i, row, degree, prob in zip(lhs.tolist(), factors.tolist(),
                                    system.degree[order].tolist(), (weight / v[lhs]).tolist()):
        emit(names[i], tuple(names[f] for f in row[:degree]), prob)
    term_rules = len(rules)

    for t in div_syms:
        denom = probs[t]
        heads: dict[Triple, Fraction] = {}
        for rule in model.rules_for(t.state, t.symbol):
            if len(rule.rhs_word) == 2:
                x, r = float(rule.prob), rule.rhs_state
                Y, Z = rule.rhs_word
                for s in model.states:
                    a, b = Triple(r, Y, s), Triple(s, Z, None)
                    if probs[a] > OMIT_BELOW and b in div_set:
                        emit(str(t), (str(a), str(b)), x * probs[a] * probs[b] / denom)
            if rule.rhs_word:
                head = Triple(rule.rhs_state, rule.rhs_word[0], None)
                heads[head] = heads.get(head, Fraction(0)) + rule.prob
        # Heads that keep running forever aggregate over all rules pushing
        # the same (state, symbol) on top.
        for head in sorted(heads.keys() & div_set, key=lambda h: (
                model.state_index[h.state], model.symbol_index[h.symbol])):
            emit(str(t), (str(head),), probs[head] * float(heads[head]) / denom)

    alphabet = tuple(str(t) for t in (*term_syms, *div_syms))
    start = None
    if model.start is not None and len(model.start.stack) == 1:
        for cand in (*term_syms, *div_syms):
            if (cand.state, cand.symbol) == (model.start.state, model.start.stack[0]):
                start = Configuration(BPA_STATE, (str(cand),))
                break
    bpa = Pda((BPA_STATE,), alphabet, tuple(rules), kind="bpa", start=start)

    for (_, sym), row in bpa.rules_by_pair.items():
        # each probability is a float held exactly: fsum rounds their exact sum
        total = math.fsum(float(r.prob) for r in row)
        if abs(total - 1.0) > 1e-9:
            raise TransformError(f"row for {sym} sums to {total!r}; table residual too large")

    # the monomial rules come first and name terminating symbols only
    terminating = alphabet[:len(term_syms)]
    if start is not None and start.stack[0] not in terminating:
        start = None
    part = Pda((BPA_STATE,), terminating, bpa.rules[:term_rules], kind="bpa", start=start)
    return TransformResult(bpa=bpa, symbols={str(t): t for t in (*term_syms, *div_syms)},
                           part=part)


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
