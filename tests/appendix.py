"""The paper's appendix constructions behind the case-3 polynomial bound.

The library never runs these: ``classify`` takes d1 and d2 straight from
the structure.  The tests use them to check the proof's claims on concrete
models (criterion 8): the cone vector, the u-progressive normal form, the
one-step weight transform g, the loose Azuma form and an empirical case-3
lower constant.
"""

from __future__ import annotations

import math

import numpy as np

from ppda.bounds import TailReport
from ppda.distribution import exact_distribution_word, tail
from ppda.model import BPA_STATE, Pda, Rule
from ppda.moments import _power_iteration
from ppda.transform import TransformError


def rule_weight_change(rule: Rule, weights: dict[str, float]) -> float:
    """weight(lhs) - total weight pushed by the rule."""
    return weights[rule.lhs_symbol] - sum(weights[sym] for sym in rule.rhs_word)


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
    u: dict[str, float] = {}
    for comp in mm.deps.sccs:
        rows = [model.symbol_index[s] for s in comp]
        rho, vec = _power_iteration(mm.A[np.ix_(rows, rows)])
        if rho > 1.0 + 1e-9:
            raise TransformError(f"supercritical block {comp}: not almost surely terminating")
        u.update(zip(comp, (vec / np.max(vec)).tolist()))
    return u


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


# ---------------------------------------------------------------------------
# bound forms and the one-step transform

def upper_bound_azuma_loose(report: TailReport, n: int) -> float:
    """The weaker exp(1 - n / (8 E_max^2)) form of the same bound."""
    if report.case != 2:
        raise ValueError("exponential upper bound needs finite expectations")
    if n < report.azuma_threshold:
        return 1.0
    return min(1.0, math.exp(1.0 - n / (8.0 * report.e_max ** 2)))


def estimate_lower_constant(model: Pda, start: str, grid=(64, 256, 1024, 4096)) -> float:
    """Empirical estimate of the case-3 lower-bound constant.

    The true constant in c / sqrt(n) has no closed form; this samples the
    exact tail on a grid and returns min over n of tail(n) * sqrt(n).  An
    estimate only: the asymptotic constant may sit below it.
    """
    table = exact_distribution_word(model, (start,), max(grid))
    return min(tail(table, n) * math.sqrt(n) for n in grid)


def g_function(
    model: Pda, u: dict[str, float], symbol: str, theta: float
) -> tuple[float, float, float]:
    """One-step weight-change transform g, g', g'' at theta for one symbol.

    g(theta) = sum_rules p * exp(-theta * (pushed weight - weight(symbol)));
    its curvature at zero is what forces polynomial tails on progressive
    critical models.
    """
    g = g1 = g2 = 0.0
    for rule in model.rules_for(model.only_state, symbol):
        p = float(rule.prob)
        drop = u[symbol] - sum(u[sym] for sym in rule.rhs_word)
        weight = math.exp(theta * drop)
        g += p * weight
        g1 += p * drop * weight
        g2 += p * drop * drop * weight
    return g, g1, g2
