"""Shared test utilities: independent oracles and model strategies.

The distribution oracle unfolds the induced Markov chain one step at a time
(``step_distribution``) with exact rational weights, merging identical
configurations.  It shares no code with the convolution dynamic program it
is used to check.  The reachability oracles walk the dependence graph once
per symbol, apart from the SCC pass of ``ppda.graph``; the condensation
over sets of names (``dependence_names``, ``f_prime_names``) is the
oracle for that pass, which works on integer arrays.  The per-start path
(``restrict_to_reachable`` and the checks on the restriction) is the oracle
for ``classify``, which reads the moment record the model keeps; it takes B
rule by rule with ``appendix.rule_weight_change``.  The paper's appendix
constructions live in ``appendix``, not here.  The library reads only rule
arrays; the lookup of ``Rule``s by pair (``rules_for``) and the start check
over sets of names (``missing_reachable_rows``) live here.  So does the
``Rule`` path of the parser, the oracle of its arrays and messages: a line
loop that makes one ``Rule`` per rule line (``parse_loop``), the checks of
a model over its ``Rule``s (``validate_loop``) and the arrays of its
``Rule``s (``rule_arrays_of``).  The CSV writers' row loops
(``dist_csv_loop``, ``sample_csv_loop``) are the byte oracle of the writers,
which format by column; ``written`` checks that a writer writes into a
sink the text it returns without one, and ``CHUNK_EDGES`` are the rule and
row counts about the edges of the writers' chunks.
"""

import dataclasses
import functools
import importlib.util
import io
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox
from hypothesis import strategies as st

from ppda import (
    Configuration,
    NotAlmostSurelyTerminating,
    Pda,
    TailReport,
    Triple,
    make_bpa,
    parse_model,
    termination_probs,
)
from ppda.bounds import CASE3_LOWER_EXPONENT
from ppda.distribution import SampleStats, _check_budget
from ppda.model import (BPA_STATE, CHUNK_ROWS, KINDS, ROW_SUM_TOL, ModelError, Rule,
                        RuleArrays, _check_configuration, _check_token)
from ppda.moments import CRITICAL_EPS, _expectations, _power_iteration
from ppda.termination import (DOUBLING_BELOW, EXTENDED_DIGITS, EXTENDED_ITERATIONS,
                              EXTENDED_TOL, NewtonDivergedError, _solve_decimal)
from ppda.transform import OMIT_BELOW, TransformError


def rules_by_pair(model: Pda) -> dict[tuple[str, str], tuple[Rule, ...]]:
    """The rules of ``model`` by left-hand pair (state, symbol), in rule
    order; built once per model and kept in its ``__dict__``."""
    table = model.__dict__.get("_rules_by_pair")
    if table is None:
        rows: dict[tuple[str, str], list[Rule]] = {}
        for rule in model.rules:
            rows.setdefault((rule.lhs_state, rule.lhs_symbol), []).append(rule)
        table = model.__dict__["_rules_by_pair"] = {pair: tuple(rs) for pair, rs in rows.items()}
    return table


def rules_for(model: Pda, state: str, symbol: str) -> tuple[Rule, ...]:
    """The rules of ``model`` for the pair (state, symbol), in rule order."""
    return rules_by_pair(model).get((state, symbol), ())


def solve_unchecked(model: Pda):
    """The termination table of ``model``, also when Newton did not converge."""
    try:
        return termination_probs(model)
    except NewtonDivergedError as exc:
        return exc.table


def missing_reachable_rows(model: Pda, start: Configuration) -> list[str]:
    """``start_problems`` for a start of known names, by a walk over sets of
    names.  A word's symbol j comes on top in the states its first j symbols
    may empty into from the word's state; the start word's symbols from the
    outset, a rule's once its left-hand pair is reached."""
    can, sidx, aidx = model.terminating_triples, model.state_index, model.symbol_index
    reach: set[tuple[str, str]] = set()
    frontier: list[tuple[str, str]] = []

    def visit(state: str, word: tuple[str, ...]):
        entry_states = {state}
        for sym in word:
            for q in entry_states:
                if (q, sym) not in reach:
                    reach.add((q, sym))
                    frontier.append((q, sym))
            entry_states = {model.states[q] for s in entry_states
                            for q in can[sidx[s], aidx[sym]].nonzero()[0]}

    visit(start.state, start.stack)
    while frontier:
        for rule in rules_for(model, *frontier.pop()):
            visit(rule.rhs_state, rule.rhs_word)
    return [f"pair ({state}, {symbol}) reachable from start but has no rules"
            for state, symbol in sorted(reach) if not rules_for(model, state, symbol)]


def step_distribution(model: Pda, cfg: Configuration) -> list[tuple[Configuration, Fraction]]:
    """Distribution over successor configurations of ``cfg``.

    The empty stack is absorbing; otherwise the top symbol is expanded by
    every applicable rule and the stack below the top is untouched.
    """
    if cfg.empty:
        return [(cfg, Fraction(1))]
    top, rest = cfg.stack[0], cfg.stack[1:]
    rules = rules_for(model, cfg.state, top)
    if not rules:
        raise ModelError(f"no rule for pair ({cfg.state}, {top})")
    return [
        (Configuration(rule.rhs_state, rule.rhs_word + rest), rule.prob)
        for rule in rules
    ]


def brute_mass(model: Pda, cfg: Configuration, n_max: int):
    """Exact termination mass per step, split by terminal control state.

    Returns dict state -> list of Fractions indexed by step (0..n_max).
    """
    out = {q: [Fraction(0)] * (n_max + 1) for q in model.states}
    frontier = {cfg: Fraction(1)}
    for step in range(1, n_max + 1):
        nxt = defaultdict(Fraction)
        for c, weight in frontier.items():
            for succ, p in step_distribution(model, c):
                nxt[succ] += weight * p
        frontier = {}
        for c, weight in nxt.items():
            if c.empty:
                out[c.state][step] += weight
            else:
                frontier[c] = weight
    return out


def brute_total_mass(model: Pda, cfg: Configuration, n_max: int):
    """Exact termination mass per step over all terminal states."""
    by_state = brute_mass(model, cfg, n_max)
    return [sum(col) for col in zip(*by_state.values())]


def scc_restriction(model: Pda, members) -> Pda:
    """Sub-model on one SCC: outside symbols are erased from all words.

    Mirrors the high/low split of the layered analysis; the result is
    strongly connected and terminates at least as surely as the original.
    """
    keep = set(members)
    alphabet = tuple(s for s in model.alphabet if s in keep)
    rules = tuple(
        Rule(r.lhs_state, r.lhs_symbol, r.rhs_state,
             tuple(y for y in r.rhs_word if y in keep), r.prob)
        for r in model.rules
        if r.lhs_symbol in keep
    )
    return Pda(model.states, alphabet, rules, kind=model.kind)


def _dependence_at(model: Pda, start: str):
    info = dependence_names(model)
    if start not in model.symbol_index:
        raise ModelError(f"unknown start symbol {start!r}")
    return info


def restrict_to_reachable(model: Pda, start: str) -> Pda:
    """Sub-model over the start symbol and everything it depends on."""
    keep = {start} | _dependence_at(model, start).reachable_from[start]
    alphabet = tuple(sym for sym in model.alphabet if sym in keep)
    rules = tuple(rule for rule in model.rules if rule.lhs_symbol in keep)
    return Pda(model.states, alphabet, rules, kind=model.kind,
               start=Configuration(model.only_state, (start,)))


def p_min(model: Pda, start: str | None = None) -> float:
    """Least rule probability, over the reachable restriction when start is given."""
    if start is not None and model.stateless:
        model = restrict_to_reachable(model, start)
    return float(min((rule.prob for rule in model.rules), default=Fraction(1)))


def is_bounded_case(model: Pda, start: str) -> bool:
    """True iff no symbol reachable from start depends on itself.

    For an almost surely terminating model this is exactly the regime where
    all termination mass sits below 2^|alphabet| steps: a repeated symbol on
    a derivation path could otherwise be pumped into arbitrarily long runs.
    """
    return _dependence_at(model, start).bounded(start)


def is_almost_surely_terminating(model: Pda, table, eps: float = 1e-9) -> bool:
    """True iff every symbol of a stateless model terminates a.s."""
    return all(table.symbol_prob(model, sym) >= 1.0 - eps for sym in model.alphabet)


def restricted_analysis(model: Pda, start: str):
    """The per-start path: restrict ``model`` to the reach set of ``start``,
    then run ``dependence_names``, ``termination_probs`` and ``moment_matrix``
    on the restriction.

    Starts with one reach set (the members of one cyclic SCC) share it.
    """
    restricted = restrict_to_reachable(model, start)
    deps = dependence_names(restricted)
    table = termination_probs(restricted)
    exp = restricted.moments.expectations
    return restricted, deps, table, exp


def classify_restricted(restricted: Pda, deps, table, exp, start: str,
                        eps: float = 1e-9) -> TailReport:
    """The tail regime of ``start`` from its restriction's own analysis.

    Judges certainty from the solved probabilities and takes B rule by rule;
    the oracle for ``classify``, which reads per-SCC reductions of one
    model-wide analysis instead.
    """
    if not is_almost_surely_terminating(restricted, table, eps=eps):
        raise NotAlmostSurelyTerminating(f"symbols reachable from {start} may diverge")
    from appendix import rule_weight_change  # appendix reads rules_for from here

    pmin = p_min(restricted)
    gamma = len(restricted.alphabet)
    h = deps.height
    if deps.bounded(start):
        return TailReport(start=start, case=1, gamma_size=gamma, p_min=pmin, height=h)
    if exp.finite:
        return TailReport(
            start=start, case=2, gamma_size=gamma, p_min=pmin, height=h,
            e_start=exp[start], e_max=exp.e_max,
            b_constant=max(abs(1.0 - rule_weight_change(rule, exp.values))
                           for rule in restricted.rules),
        )
    return TailReport(
        start=start, case=3, gamma_size=gamma, p_min=pmin, height=h,
        d1=18.0 * h * gamma / pmin ** (3 * gamma),
        d2=1.0 / (2 ** (h + 1) - 2),
        lower_exponent=CASE3_LOWER_EXPONENT,
        n0_caveat=True,
    )


def suffix_tail(table, n: int) -> float:
    """P(T >= n) as a horizon-truncated suffix sum: a safe lower estimate.

    Avoids the catastrophic cancellation of norm - prefix when the true
    tail sits far below float resolution.
    """
    return float(np.sum(table.mass[n:]))


def table_residual(table) -> float:
    return max(table.norm - float(np.sum(table.mass)), 0.0)


def closure(sym: str, edges) -> set[str]:
    """Every symbol reachable from sym by one or more dependence edges."""
    seen: set[str] = set()
    stack = list(edges[sym])
    while stack:
        y = stack.pop()
        if y not in seen:
            seen.add(y)
            stack.extend(edges[y])
    return seen


def longest_scc_chain(edges) -> int:
    """Most SCCs on one dependence path, from mutual reachability alone."""
    reach = {x: closure(x, edges) for x in edges}
    scc = {x: frozenset({x} | {y for y in reach[x] if x in reach[y]}) for x in edges}

    @functools.lru_cache(maxsize=None)
    def chain(comp) -> int:
        below = {scc[y] for x in comp for y in edges[x]} - {comp}
        return 1 + max((chain(c) for c in below), default=0)

    return max((chain(c) for c in set(scc.values())), default=0)


# ---------------------------------------------------------------------------
# the condensation over sets of names: the oracle for ``graph._condense``

@dataclass(frozen=True)
class NameDependence:
    """Direct edges, SCC partition (reverse-topological), condensation, height.

    ``scc_height[i]`` counts the SCCs on the longest path down from SCC i:
    the height of the relation restricted to what SCC i reaches.
    """

    direct_edges: dict
    sccs: tuple
    scc_of: dict
    scc_dag_edges: frozenset
    height: int
    reachable_from: dict
    scc_successors: tuple  # the DAG edges, per source SCC
    scc_height: tuple

    def on_cycle(self, symbol) -> bool:
        return symbol in self.reachable_from[symbol]

    def bounded(self, start) -> bool:
        """No symbol reachable from start, itself included, is on a cycle."""
        return not any(self.on_cycle(sym) for sym in self.reachable_from[start])


def dependence_names(model: Pda) -> NameDependence:
    """``graph.dependence`` over dicts of name sets, edges read from the rules."""
    edges: dict[str, set[str]] = {sym: set() for sym in model.alphabet}
    for rule in model.rules:
        edges[rule.lhs_symbol].update(rule.rhs_word)
    return condense_names(edges, tarjan_names(model.alphabet, edges))


def condense_names(edges, sccs) -> NameDependence:
    """Condensation, height and reach sets in one pass over the SCCs.

    The SCCs come callees-first, so every successor is final when its
    predecessors are visited.  A symbol reaches the members of its own SCC
    when that SCC is cyclic, and every successor SCC together with all that
    successor reaches; members of one SCC share one reach set.
    """
    scc_of = {sym: i for i, comp in enumerate(sccs) for sym in comp}
    succ = [frozenset({scc_of[y] for x in comp for y in edges[x]} - {i})
            for i, comp in enumerate(sccs)]
    longest: list[int] = []  # SCCs on the longest path from each SCC down
    below: list[frozenset] = []  # each SCC's members and all they reach
    reach: dict = {}
    for i, comp in enumerate(sccs):
        longest.append(max((longest[j] for j in succ[i]), default=0) + 1)
        cyclic = len(comp) > 1 or comp[0] in edges[comp[0]]
        shared = frozenset(comp if cyclic else ()).union(*(below[j] for j in succ[i]))
        below.append(shared.union(comp))
        reach.update(dict.fromkeys(comp, shared))
    return NameDependence(
        direct_edges={x: frozenset(ys) for x, ys in edges.items()},
        sccs=tuple(tuple(c) for c in sccs),
        scc_of=scc_of,
        scc_dag_edges=frozenset((i, j) for i, js in enumerate(succ) for j in js),
        height=max(longest, default=1),
        reachable_from={x: reach[x] for x in edges},
        scc_successors=tuple(succ),
        scc_height=tuple(longest),
    )


def tarjan_names(nodes, edges) -> list[list]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
    return sccs


def f_prime_names(system) -> NameDependence:
    """The graph of F' of a compiled system, as a dict of edge sets, condensed."""
    edges: dict[int, set[int]] = {i: set() for i in range(system.n)}
    for i, a in zip(system._rows.tolist(), system._cols.tolist()):
        edges[i].add(a)
    return condense_names(edges, tarjan_names(tuple(edges), edges))


def random_pda(n_states: int, n_symbols: int, seed: int, band: int = 2) -> Pda:
    """Seeded stateful model whose words only push symbols X_i .. X_(i+band-1).

    Each (p, X_i) gets a pop, a unary and a binary rule with random target
    states and integer weights 1..5; the banded words give the transformed
    model a long dependence DAG of mixed SCCs.
    """
    rng = random.Random(seed)
    states = tuple(f"p{i}" for i in range(n_states))
    syms = tuple(f"X{i}" for i in range(n_symbols))
    rules = []
    for p in states:
        for i, X in enumerate(syms):
            pool = syms[i:i + band]
            words = ((), (rng.choice(pool),), (rng.choice(pool), rng.choice(pool)))
            weights = [rng.randint(1, 5) for _ in words]
            merged: dict = {}
            for w, word in zip(weights, words):
                key = (rng.choice(states), word)
                merged[key] = merged.get(key, Fraction(0)) + Fraction(w, sum(weights))
            rules += [Rule(p, X, r, word, prob) for (r, word), prob in merged.items()]
    return Pda(states, syms, tuple(rules), kind="pda")


def near_critical_pda(n_states: int, n_symbols: int, seed: int) -> Pda:
    """Seeded stateful model with a critical symbol C in every state.

    Each state p has p C -> p and p C -> p C C, each 1/2: a fair walk, so
    the fixed point is critical.  Each (p, X_i) gets a pop, a unary and a
    binary rule with random target states and integer weights 1..5, whose
    word symbols are C with probability 1/5 and a random X otherwise.  The
    solve of such a model takes GMRES steps near a critical fixed point,
    where some of them miss KRYLOV_RTOL.
    """
    rng = random.Random(seed)
    states = tuple(f"p{i}" for i in range(n_states))
    syms = tuple(f"X{i}" for i in range(n_symbols))
    rules = [Rule(p, "C", p, word, Fraction(1, 2)) for p in states for word in ((), ("C", "C"))]

    def symbol():
        return "C" if rng.random() < 0.2 else rng.choice(syms)

    for p in states:
        for X in syms:
            weights = [rng.randint(1, 5) for _ in range(3)]
            words = ((), (symbol(),), (symbol(), symbol()))
            rules += [Rule(p, X, rng.choice(states), word, Fraction(w, sum(weights)))
                      for w, word in zip(weights, words)]
    return Pda(states, syms + ("C",), tuple(rules), kind="pda")


# ---------------------------------------------------------------------------
# hypothesis strategies

SYMS = ("S0", "S1", "S2", "S3")
STATES = ("u", "v", "w")


def _rows(draw, lhs_pool, rhs_state_pool, symbol_pool, max_alts, eps_bias):
    rules = []
    for lhs_state, lhs_sym in lhs_pool:
        alts = draw(st.integers(1, max_alts))
        weights = [draw(st.integers(1, 6)) for _ in range(alts)]
        total = sum(weights)
        seen = {}
        for w in weights:
            lengths = [0, 0, 1, 2] if eps_bias else [0, 1, 2]
            length = draw(st.sampled_from(lengths))
            word = tuple(draw(st.sampled_from(symbol_pool)) for _ in range(length))
            rhs_state = draw(st.sampled_from(rhs_state_pool))
            key = (rhs_state, word)
            seen[key] = seen.get(key, Fraction(0)) + Fraction(w, total)
        for (rhs_state, word), prob in seen.items():
            rules.append(Rule(lhs_state, lhs_sym, rhs_state, word, prob))
    return rules


@st.composite
def small_bpas(draw, max_symbols=3, max_alts=3, eps_bias=True):
    k = draw(st.integers(1, max_symbols))
    syms = SYMS[:k]
    rules = _rows(draw, [("_", s) for s in syms], ("_",), syms, max_alts, eps_bias)
    return Pda(("_",), syms, tuple(rules), kind="bpa")


@st.composite
def small_pdas(draw, max_states=2, max_symbols=2, max_alts=3, eps_bias=True):
    ns = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_symbols))
    states, syms = STATES[:ns], SYMS[:k]
    pool = [(p, s) for p in states for s in syms]
    rules = _rows(draw, pool, states, syms, max_alts, eps_bias)
    return Pda(states, syms, tuple(rules), kind="pda")


@st.composite
def acyclic_bpas(draw, max_symbols=4):
    """Stateless models whose dependence relation is forced acyclic."""
    k = draw(st.integers(1, max_symbols))
    syms = SYMS[:k]
    rules = []
    for i, lhs in enumerate(syms):
        below = syms[i + 1 :]
        alts = draw(st.integers(1, 2))
        weights = [draw(st.integers(1, 4)) for _ in range(alts)]
        total = sum(weights)
        seen = {}
        for w in weights:
            length = draw(st.sampled_from([0, 1, 2] if below else [0]))
            word = tuple(draw(st.sampled_from(below)) for _ in range(length))
            seen[word] = seen.get(word, Fraction(0)) + Fraction(w, total)
        for word, prob in seen.items():
            rules.append(Rule("_", lhs, "_", word, prob))
    return Pda(("_",), syms, tuple(rules), kind="bpa")


# A valid declared start; from q X the pair (q, Y), which has no rules, is reached.
ORPHAN_TEXT = ("pda\nstates: p q\nalphabet: X Y\nstart: p X\nrule: p X -> p : 1/2\n"
               "rule: p X -> p X X : 1/2\nrule: q X -> q Y : 1\n")

# X pushes A B C; A never empties, so C never comes on top and needs no rules
NEVER_ON_TOP = ("relaxed-bpa\nalphabet: X A B C\nstart: X\n"
                "rule: X -> A B C : 1\nrule: A -> A : 1\nrule: B -> : 1\n")

# (q, Y) has no rules and only surfaces once the symbol above Y empties into q
POP_ORPHAN_TEXTS = {
    "orphan_push.ppda": ("pda\nstates: p q\nalphabet: X Y Z\nstart: p X\n"
                         "rule: p X -> p Z Y : 1\nrule: p Z -> q : 1\nrule: p Y -> p : 1\n"),
    "orphan_word.ppda": ("pda\nstates: p q\nalphabet: Y Z\nstart: p Z Y\n"
                         "rule: p Z -> q : 1\nrule: p Y -> p : 1\n"),
}


def symmetric_pair():
    """X and Y feeding each other, both with escape hatches."""
    return make_bpa([
        (("X", "Y", "Y"), Fraction(1, 2)),
        (("X",), Fraction(1, 2)),
        (("Y", "X", "X"), Fraction(1, 2)),
        (("Y",), Fraction(1, 2)),
    ])


def chained_critical():
    """X defers to a critical Y; X itself never changes stack weight."""
    return make_bpa([
        (("X", "Y"), Fraction(1)),
        (("Y", "Y", "Y"), Fraction(1, 2)),
        (("Y",), Fraction(1, 2)),
    ])


# Stateful models with critical fixed points, where Newton in doubles stalls
# about sqrt(eps) short: Hypothesis counterexamples of the random-model
# tests (non-monotone iterates, rows summing to 1 +- 2.5e-9, spurious
# diverging triples that to_bpa rejects).
CRITICAL_PDAS = {
    name: parse_model("pda\n" + text)
    for name, text in {
        "one_state": "states: u\nalphabet: S0\n"
                     "rule: u S0 -> u : 1/2\nrule: u S0 -> u S0 S0 : 1/2\n",
        "symmetric": "states: u v\nalphabet: S0\n"
                     + "".join(f"rule: {a} S0 -> {b}{w} : 1/4\n"
                               for a in "uv" for b in "uv" for w in ("", " S0 S0")),
        "with_bystander": "states: u v\nalphabet: S0 S1\n"
                          "rule: u S0 -> u S0 S0 : 2/3\nrule: u S0 -> v : 1/3\n"
                          "rule: u S1 -> u : 1\nrule: v S0 -> u S0 : 1/2\n"
                          "rule: v S0 -> v : 1/2\nrule: v S1 -> u : 1\n",
        "alternating": "states: u v\nalphabet: S0\n"
                       "rule: u S0 -> u : 2/3\nrule: u S0 -> v S0 S0 : 1/3\n"
                       "rule: v S0 -> u S0 S0 : 1\n",
        "unary": "states: u v\nalphabet: S0\n"
                 "rule: u S0 -> v : 1/4\nrule: u S0 -> v S0 : 1/8\n"
                 "rule: u S0 -> u S0 S0 : 5/8\nrule: v S0 -> u : 1\n",
    }.items()
}


def critical_pda_chain(k: int) -> Pda:
    """One-state pda chain of k critical links: u Xi -> u Xi Xi and
    u Xi -> u X(i-1), each 1/2, above u X0 -> u : 1; every [u Xi u] is 1."""
    rules = "".join(f"rule: u X{i} -> u X{i} X{i} : 1/2\nrule: u X{i} -> u X{i - 1} : 1/2\n"
                    for i in range(1, k + 1))
    return parse_model(f"pda\nstates: u\nalphabet: {' '.join(f'X{i}' for i in range(k + 1))}\n"
                       f"start: u X{k}\nrule: u X0 -> u : 1\n{rules}")


def subcritical_unit():
    return make_bpa([(("X",), Fraction(3, 4)), (("X", "X", "X"), Fraction(1, 4))],
                    start="X")


def critical_chain(h: int) -> Pda:
    """Depth-h fair chain: same family as the bundled delta models."""
    rules = []
    for i in range(h, 0, -1):
        rules.append(((f"X{i}", f"X{i}", f"X{i}"), Fraction(1, 2)))
        if i > 1:
            rules.append(((f"X{i}", f"X{i-1}"), Fraction(1, 2)))
        else:
            rules.append((("X1",), Fraction(1, 2)))
    return make_bpa(rules, start=f"X{h}")


# ---------------------------------------------------------------------------
# per-term references for the compiled polynomial system


def _sorted_triples(model: Pda):
    can = may_terminate_loop(model)
    return sorted(
        (t for t in can if not t.diverging),
        key=lambda t: (model.state_index[t.state], model.symbol_index[t.symbol],
                       model.state_index[t.target]),
    )


def term_dp_masses(model: Pda, n_max: int) -> dict:
    """Stateful DP with one dot product per pair term per step.

    Returns triple -> mass array for every triple that may terminate; the
    mass of the others is zero.
    """
    D = {t: np.zeros(n_max + 1) for t in _sorted_triples(model)}
    eps_terms, lin_terms, pair_terms = [], [], []
    for rule in model.rules:
        p, X, x = rule.lhs_state, rule.lhs_symbol, float(rule.prob)
        r, word = rule.rhs_state, rule.rhs_word
        if len(word) == 0:
            t = Triple(p, X, r)
            if t in D:
                eps_terms.append((D[t], x))
        elif len(word) == 1:
            for q in model.states:
                t, a = Triple(p, X, q), Triple(r, word[0], q)
                if t in D and a in D:
                    lin_terms.append((D[t], x, D[a]))
        else:
            Y, Z = word
            for q in model.states:
                t = Triple(p, X, q)
                if t not in D:
                    continue
                for s in model.states:
                    a, b = Triple(r, Y, s), Triple(s, Z, q)
                    if a in D and b in D:
                        pair_terms.append((D[t], x, D[a], D[b]))
    for target, x in eps_terms:
        target[1] += x
    for n in range(2, n_max + 1):
        for target, x, a in lin_terms:
            target[n] += x * a[n - 1]
        for target, x, a, b in pair_terms:
            target[n] += x * float(np.dot(a[1 : n - 1], b[n - 2 : 0 : -1]))
    return D


def bpa_masses_loop(model: Pda, n_max: int) -> dict[str, np.ndarray]:
    """The stateless DP as it was before its mirror rows: each convolution
    dots a forward prefix slice with a reversed slice of a law."""
    if not model.stateless:
        raise ModelError("use exact_distribution_pda for stateful models")
    if n_max < 1:
        raise ModelError("n_max must be at least 1")
    rules = model.rule_arrays
    # a row per symbol, and one per prefix convolution below
    _check_budget(len(model.alphabet) + int(np.maximum(rules.length - 1, 0).sum()),
                  int(np.maximum(rules.length - 1, 0).sum()), n_max)
    D = [np.zeros(n_max + 1) for _ in model.alphabet]

    # Running prefix convolutions per rule; prefix[k][j] is final once the
    # step loop passes j, so each entry is filled exactly once.
    plans = []
    for prob, lhs, length, word in zip(rules.prob.tolist(), rules.lhs_symbol.tolist(),
                                       rules.length.tolist(), rules.words.tolist()):
        word = word[:length]
        prefixes = [D[sym] for sym in word[:1]]
        for k in range(1, length):
            prefixes.append(np.zeros(n_max + 1))
        plans.append((prob, D[lhs], word, prefixes))

    for n in range(1, n_max + 1):
        for prob, target, word, prefixes in plans:
            m = len(word)
            if m == 0:
                if n == 1:
                    target[1] += prob
                continue
            if n >= 3:
                for k in range(1, m):
                    left, sym = prefixes[k - 1], word[k]
                    prefixes[k][n - 1] = float(
                        np.dot(left[1 : n - 1], D[sym][n - 2 : 0 : -1])
                    )
            target[n] += prob * prefixes[m - 1][n - 1]
    return dict(zip(model.alphabet, D))


def term_system(model: Pda):
    """F and I - F' of the termination system from per-variable term lists.

    Returns (triples, apply_f, newton_matrix); each equation sums its
    monomials in rule order, one multiplication at a time.
    """
    positive = _sorted_triples(model)
    idx = {t: i for i, t in enumerate(positive)}
    n = len(positive)
    const = np.zeros(n)
    terms = [[] for _ in range(n)]
    for rule in model.rules:
        p, X = rule.lhs_state, rule.lhs_symbol
        x = float(rule.prob)
        chains = [(rule.rhs_state, ())]
        for sym in rule.rhs_word:
            chains = [
                (q, factors + (idx[Triple(s, sym, q)],))
                for s, factors in chains
                for q in model.states
                if Triple(s, sym, q) in idx
            ]
        for q, factors in chains:
            t = Triple(p, X, q)
            if t not in idx:
                continue
            if factors:
                terms[idx[t]].append((x, factors))
            else:
                const[idx[t]] += x

    def apply_f(v):
        out = const.copy()
        for i in range(n):
            acc = 0.0
            for x, factors in terms[i]:
                prod = x
                for a in factors:
                    prod *= v[a]
                acc += prod
            out[i] += acc
        return out

    def newton_matrix(v, free):
        jac = np.zeros((n, n))
        for i in range(n):
            for x, factors in terms[i]:
                for k, a in enumerate(factors):
                    prod = x
                    for j, b in enumerate(factors):
                        if j != k:
                            prod *= v[b]
                    jac[i, a] += prod
        return np.eye(len(free)) - jac[np.ix_(free, free)]

    return positive, apply_f, newton_matrix


# ---------------------------------------------------------------------------
# per-rule loops: references for the vectorised set-up and for Newton


@st.composite
def relaxed_bpas(draw, max_symbols=3, max_alts=3, max_length=4):
    """Stateless models with words of length 0 to ``max_length``."""
    k = draw(st.integers(1, max_symbols))
    syms = SYMS[:k]
    rules = []
    for lhs in syms:
        alts = draw(st.integers(1, max_alts))
        weights = [draw(st.integers(1, 6)) for _ in range(alts)]
        seen = {}
        for w in weights:
            length = draw(st.integers(0, max_length))
            word = tuple(draw(st.sampled_from(syms)) for _ in range(length))
            seen[word] = seen.get(word, Fraction(0)) + Fraction(w, sum(weights))
        rules += [Rule("_", lhs, "_", word, prob) for word, prob in seen.items()]
    return Pda(("_",), syms, tuple(rules), kind="relaxed-bpa")


def serialize_loop(model: Pda) -> str:
    """``model.serialize`` by a loop over the ``Rule``s of ``model``."""
    lines = [model.kind]
    if model.kind == "pda":
        lines.append("states: " + " ".join(model.states))
        rows = ((f"{r.lhs_state} {r.lhs_symbol}", " ".join((r.rhs_state, *r.rhs_word)), r.prob)
                for r in model.rules)
    else:
        rows = ((r.lhs_symbol, " ".join(r.rhs_word), r.prob) for r in model.rules)
    lines.append("alphabet: " + " ".join(model.alphabet))
    if model.start is not None:
        if model.kind == "pda":
            lines.append("start: " + " ".join((model.start.state, *model.start.stack)))
        else:
            lines.append("start: " + " ".join(model.start.stack))
    for lhs, rhs, prob in rows:
        lines.append(f"rule: {lhs} -> {rhs} : {prob}")
    return "\n".join(lines) + "\n"


def written(writer, *args) -> str:
    """The text ``writer(*args, out)`` writes into a sink, checked to be the
    text ``writer(*args)`` returns."""
    sink = io.StringIO()
    assert writer(*args, sink) is None
    assert sink.getvalue() == writer(*args)
    return sink.getvalue()


# rule or row counts one short of a chunk, at one, one past it and one past two
CHUNK_EDGES = (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1)


def rule_count_models(n: int) -> tuple[Pda, Pda]:
    """A pda of ``n`` rules with exact rationals, and the bpa of as many
    rules over doubles, as the transform's models hold them.  Each symbol
    X<i> but the last has three rules, one of each line form: a pop, one
    symbol pushed and two pushed."""
    symbols = [f"X{i}" for i in range(-(-n // 3))]
    weights = {1: ["1"], 2: ["1/4", "3/4"], 3: ["1/3", "1/6", "1/2"]}
    pda_lines, bpa_lines = [], []
    for i, lhs in enumerate(symbols):
        words = ("", f" {symbols[(i + 1) % len(symbols)]}", f" {lhs} X0")
        group = min(3, n - 3 * i)
        for word, prob in zip(words, weights[group]):
            pda_lines.append(f"rule: p {lhs} -> q{word} : {prob}")
            bpa_lines.append(f"rule: {lhs} ->{word} : {prob}")
    alphabet = "alphabet: " + " ".join(symbols)
    pda = parse_model("\n".join(["pda", "states: p q", alphabet, *pda_lines]) + "\n")
    bpa = parse_model("\n".join(["bpa", alphabet, *bpa_lines]) + "\n")
    doubles = dataclasses.replace(bpa.rule_arrays, exact=bpa.rule_arrays.prob)
    return pda, Pda.from_arrays(bpa.states, bpa.alphabet, doubles, "bpa")


MODELS = Path(__file__).parent.parent / "models"


@functools.cache
def perfbench_gen():
    """The benchmark's seeded input generator, ``perfbench/gen.py``."""
    path = Path(__file__).parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def rule_arrays_of(model: Pda) -> RuleArrays:
    """``model.rule_arrays`` built from the ``Rule``s of ``model`` directly,
    one table row per rule: the oracle of the parser's columns and of the
    name lookup of ``ppda.model._encode``."""
    sidx, aidx = model.state_index, model.symbol_index
    rules, pad = model.rules, len(model.alphabet)
    width = max([2] + [len(rule.rhs_word) for rule in rules])
    table = np.array(
        [(sidx[rule.lhs_state], aidx[rule.lhs_symbol], sidx[rule.rhs_state],
          len(rule.rhs_word), *(aidx[sym] for sym in rule.rhs_word),
          *(pad,) * (width - len(rule.rhs_word))) for rule in rules],
        dtype=np.intp,
    ).reshape(len(rules), 4 + width)
    exact = tuple(rule.prob for rule in rules)
    return RuleArrays(*table[:, :4].T, words=table[:, 4:],
                      prob=np.array([float(p) for p in exact], dtype=float), exact=exact)


def validate_loop(model: Pda) -> list[str]:
    """``validate`` without a start, by a loop over the ``Rule``s of ``model``
    that sums each row in ``Fraction``s."""
    violations: list[str] = []
    states, alphabet = set(model.states), set(model.alphabet)
    for what, names in (("state", model.states), ("symbol", model.alphabet)):
        for name in names:
            try:
                _check_token(name, what)
            except ModelError as exc:
                violations.append(str(exc))
    if model.kind == "pda":
        for name in model.states:
            if name == "up" or "." in name:
                violations.append(f"state {name!r} clashes with the transformed symbols "
                                  "p.X.q and p.X.up: no state may be 'up' or contain '.'")
    if model.stateless and len(model.states) != 1:
        violations.append(f"kind {model.kind} requires exactly one control state")

    max_rhs = 2 if model.kind in ("pda", "bpa") else None
    seen_rules: set = set()
    totals: dict[tuple[str, str], Fraction] = {}
    for rule in model.rules:
        where = f"rule '{rule}'"
        for state in (rule.lhs_state, rule.rhs_state):
            if state not in states:
                violations.append(f"{where}: unknown state {state!r}")
        for sym in (rule.lhs_symbol, *rule.rhs_word):
            if sym not in alphabet:
                violations.append(f"{where}: unknown symbol {sym!r}")
        if max_rhs is not None and len(rule.rhs_word) > max_rhs:
            violations.append(f"{where}: right-hand side longer than {max_rhs} "
                              f"under kind {model.kind}")
        key = (rule.lhs_state, rule.lhs_symbol, rule.rhs_state, rule.rhs_word)
        if key in seen_rules:
            violations.append(f"{where}: duplicate rule")
        seen_rules.add(key)
        totals[key[:2]] = totals.get(key[:2], Fraction(0)) + rule.prob
    for (state, symbol), total in totals.items():
        if abs(total - 1) > ROW_SUM_TOL:
            violations.append(f"row ({state}, {symbol}): probabilities sum to {total}, not 1")
    if model.start is not None:
        violations.extend(_check_configuration(model, model.start))
    return violations


def parse_loop(text: str) -> Pda:
    """``parse_model`` by a loop over the lines that makes one ``Rule`` per
    rule line, with ``Fraction(text)`` for every probability, and checks the
    model built from them with ``validate_loop``."""
    kind = None
    given: dict[str, tuple[int, list[str]]] = {}
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            if line not in KINDS:
                raise ModelError(f"expected model kind {KINDS}, got {line!r}", lineno)
            kind = line
            continue
        if ":" not in line:
            raise ModelError(f"expected 'directive: ...', got {line!r}", lineno)
        directive, _, body = line.partition(":")
        directive = directive.strip()
        if directive == "rule":
            rules.append(_rule_of_line(body, kind, lineno))
        elif directive not in ("states", "alphabet", "start"):
            raise ModelError(f"unknown directive {directive!r}", lineno)
        elif directive == "states" and kind != "pda":
            raise ModelError("'states:' applies to pda models only", lineno)
        elif directive in given:
            raise ModelError(f"repeated '{directive}:' line", lineno)
        else:
            what = {"states": "state", "alphabet": "symbol"}.get(directive)
            tokens = body.split()
            for tok in tokens if what else ():
                try:
                    _check_token(tok, what)
                except ModelError as exc:
                    raise ModelError(str(exc), lineno) from None
            given[directive] = (lineno, tokens)
    if kind is None:
        raise ModelError("empty model: missing kind line")
    if kind == "pda" and "states" not in given:
        raise ModelError("pda model missing 'states:' line")
    if "alphabet" not in given:
        raise ModelError("missing 'alphabet:' line")
    states = given["states"][1] if kind == "pda" else [BPA_STATE]
    start = None
    if "start" in given:
        start_line, tokens = given["start"]
        if kind != "pda":
            start = Configuration(BPA_STATE, tuple(tokens))
        elif not tokens:
            raise ModelError("empty start configuration", start_line)
        else:
            start = Configuration(tokens[0], tuple(tokens[1:]))
    model = Pda(tuple(states), tuple(given["alphabet"][1]), tuple(rules), kind=kind, start=start)
    problems = validate_loop(model)
    if problems:
        raise ModelError("; ".join(problems))
    return model


def _rule_of_line(body: str, kind: str, lineno: int) -> Rule:
    head, arrow, tail = body.partition("->")
    if not arrow:
        raise ModelError("rule missing '->'", lineno)
    rhs_text, colon, prob_text = tail.rpartition(":")
    if not colon:
        raise ModelError("rule missing ': probability'", lineno)
    lhs, rhs = head.split(), rhs_text.split()
    if kind == "pda":
        if len(lhs) != 2:
            raise ModelError(f"expected 'state symbol' before '->', got {head.strip()!r}", lineno)
        if not rhs:
            raise ModelError("pda rule needs a control state after '->'", lineno)
        (lhs_state, lhs_symbol), rhs_state, rhs_word = lhs, rhs[0], tuple(rhs[1:])
    else:
        if len(lhs) != 1:
            raise ModelError(f"expected one symbol before '->', got {head.strip()!r}", lineno)
        lhs_state, lhs_symbol, rhs_state, rhs_word = BPA_STATE, lhs[0], BPA_STATE, tuple(rhs)
    if kind in ("pda", "bpa") and len(rhs_word) > 2:
        raise ModelError(f"right-hand side longer than 2 under kind {kind}", lineno)
    try:
        prob = Fraction(prob_text.strip())
        # a value such as 1E-5000 that str() cannot write back, past the
        # interpreter's limit on integer digits, is as bad as a digit
        # string past that limit, which Fraction() rejects
        str(prob)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"bad probability {prob_text.strip()!r}", lineno) from None
    if not (0 < prob <= 1):
        raise ModelError(f"probability {prob} outside (0, 1]", lineno)
    return Rule(lhs_state, lhs_symbol, rhs_state, rhs_word, prob)


def may_terminate_loop(model: Pda) -> frozenset[Triple]:
    """``may_terminate`` by sweeps over the rules until nothing changes."""
    can: set[tuple[str, str, str]] = set()
    changed = True
    while changed:
        changed = False
        for rule in model.rules:
            p, X = rule.lhs_state, rule.lhs_symbol
            reachable = {rule.rhs_state}
            for sym in rule.rhs_word:
                reachable = {
                    q for s in reachable for q in model.states if (s, sym, q) in can
                }
            for q in reachable:
                if (p, X, q) not in can:
                    can.add((p, X, q))
                    changed = True
    return frozenset(Triple(*t) for t in can)


def chain_monomials(model: Pda) -> dict:
    """``lhs``, ``factors``, ``degree``, ``rule`` and ``coef`` of the compiled
    system, from a loop over the rules and their segment chains."""
    triples = _sorted_triples(model)
    index = {t: i for i, t in enumerate(triples)}
    n = len(triples)
    width = max([2] + [len(rule.rhs_word) for rule in model.rules])
    lhs, rules, factors = [], [], []
    for k, rule in enumerate(model.rules):
        chains = [(rule.rhs_state, ())]
        for sym in rule.rhs_word:
            chains = [
                (q, chain + (index[Triple(s, sym, q)],))
                for s, chain in chains
                for q in model.states
                if Triple(s, sym, q) in index
            ]
        for q, chain in chains:
            t = Triple(rule.lhs_state, rule.lhs_symbol, q)
            if t in index:
                lhs.append(index[t])
                rules.append(k)
                factors.append(chain + (n,) * (width - len(chain)))
    lhs = np.array(lhs, dtype=np.intp)
    factors = np.array(factors, dtype=np.intp).reshape(-1, width)
    degree = np.count_nonzero(factors < n, axis=1)
    order = np.lexsort((lhs, degree > 0))
    rule = np.array(rules, dtype=np.intp)[order]
    return {
        "lhs": lhs[order], "factors": factors[order], "degree": degree[order],
        "rule": rule, "coef": np.array([float(model.rules[k].prob) for k in rule]),
    }


def moment_decisions_loop(model: Pda):
    """The decisions of ``moment_matrix`` by power iteration on every SCC block.

    Returns the radius of each SCC of the model's dependence, the certain
    symbols, a per-symbol flag of infinite expectation and the expectations,
    as the moment record decided them before its blocks were certified by
    their own expectations solve.
    """
    mm = model.moments  # for A and the dependence, which that change kept
    deps, index = mm.deps, model.symbol_index
    can_empty = model.terminating_triples.any(axis=(0, 2))
    radii, certain, infinite = [], [], []
    for comp, succ in zip(deps.sccs, deps.scc_successors):
        rows = [index[s] for s in comp]
        rho, _ = _power_iteration(mm.A[np.ix_(rows, rows)])
        radii.append(rho)
        certain.append(bool(can_empty[rows].all()) and rho <= 1.0 + 1e-9
                       and all(certain[j] for j in succ))
        infinite.append(rho >= 1.0 - CRITICAL_EPS or any(infinite[j] for j in succ))
    flags = np.array(infinite, dtype=bool)[deps.scc_of]
    return (radii, frozenset(sym for sym, i in zip(model.alphabet, deps.scc_of.tolist())
                             if certain[i]),
            flags, _expectations(mm.A, flags))


def dense_newton(model: Pda, tol: float = 1e-12, max_steps: int = 200) -> dict:
    """Least fixed point by undamped dense Newton from zero on the term lists.

    Returns triple -> value for every triple that may terminate; a model
    with a critical fixed point stalls short of it.
    """
    triples, apply_f, newton_matrix = term_system(model)
    free = np.arange(len(triples))
    v = np.zeros(len(triples))
    for _ in range(max_steps):
        delta = np.linalg.solve(newton_matrix(v, free), apply_f(v) - v)
        v = np.clip(v + delta, 0.0, 1.0)
        if not len(delta) or np.max(np.abs(delta)) <= tol:
            break
    return dict(zip(triples, v.tolist()))


def extended_newton_rows(system, members: list[int], start: np.ndarray, exact: dict):
    """``termination._extended_newton`` from a per-member encoding of F.

    Each member's constant is folded in exact ``Fraction``s and each of its
    monomials is pre-multiplied by its factors outside ``members``, read
    from ``exact``; the rest of the iteration is the library's.  Returns the
    iterates in doubles and the error estimate, and fills ``exact``.
    """
    local = {g: k for k, g in enumerate(members)}
    m = len(members)
    probs = system.exact
    iterates: list[list[float]] = []
    with localcontext() as ctx:
        ctx.prec = EXTENDED_DIGITS
        zero, one = Decimal(0), Decimal(1)

        def dec(c: Fraction) -> Decimal:
            return Decimal(c.numerator) / Decimal(c.denominator)

        # per member: the constant, then each monomial as its coefficient
        # times its fixed factors, with the local indices of the others
        base, rows = [], []
        for g in members:
            const, row, fixed = Fraction(0), [], []
            for k in np.flatnonzero(system.lhs == g):
                factors = system.factors[k, : system.degree[k]].tolist()
                if factors:
                    fixed.append((Fraction(probs[system.rule[k]]), factors))
                else:
                    const += Fraction(probs[system.rule[k]])
            total = dec(const)
            for c, factors in fixed:
                coef = dec(c) * math.prod(exact[a] for a in factors if a not in local)
                mine = [local[a] for a in factors if a in local]
                if mine:
                    row.append((coef, mine))
                else:
                    total += coef
            base.append(total)
            rows.append(row)
        x = [Decimal(float(value)) for value in start]
        error = previous = one
        while error > EXTENDED_TOL and len(iterates) < EXTENDED_ITERATIONS:
            residual = [b - xi for b, xi in zip(base, x)]
            matrix = [[one if i == j else zero for j in range(m)] for i in range(m)]
            for i, row in enumerate(rows):
                for c, factors in row:
                    residual[i] += c * math.prod(x[k] for k in factors)
                    for pos, k in enumerate(factors):
                        others = (x[l] for j, l in enumerate(factors) if j != pos)
                        matrix[i][k] -= c * math.prod(others)
            delta = _solve_decimal(matrix, residual) or residual
            error = max(abs(d) for d in delta)
            final = error <= DOUBLING_BELOW and abs(2 * error - previous) <= previous / 8
            previous = error
            x = [xi + (2 * d if final else d) for xi, d in zip(x, delta)]
            iterates.append([float(xi) for xi in x])
            if final:
                error *= error
                break
    exact.update(zip(members, x))
    return iterates, float(error)


def to_bpa_loop(model: Pda, table) -> Pda:
    """``to_bpa(model, table).bpa`` by a loop over the triples, their rules
    and the split states of each rule."""
    probs = table.probs

    def positive(t: Triple) -> bool:
        return probs.get(t, 0.0) > OMIT_BELOW

    term_syms = [
        Triple(p, X, q)
        for p in model.states
        for X in model.alphabet
        for q in model.states
        if positive(Triple(p, X, q))
    ]
    div_syms = [
        Triple(p, X, None)
        for p in model.states
        for X in model.alphabet
        if positive(Triple(p, X, None)) and rules_for(model, p, X)
    ]
    div_set = set(div_syms)
    rules: list[Rule] = []

    def emit(lhs: Triple, rhs: tuple[Triple, ...], prob: float):
        if prob > 0.0:
            rules.append(Rule(BPA_STATE, str(lhs), BPA_STATE, tuple(str(t) for t in rhs),
                              Fraction(min(prob, 1.0))))

    for t in term_syms:
        p, X, q = t.state, t.symbol, t.target
        denom = probs[t]
        for rule in rules_for(model, p, X):
            x, r = float(rule.prob), rule.rhs_state
            word = rule.rhs_word
            if len(word) == 0:
                if r == q:
                    emit(t, (), x / denom)
            elif len(word) == 1:
                a = Triple(r, word[0], q)
                if positive(a):
                    emit(t, (a,), x * probs[a] / denom)
            else:
                Y, Z = word
                for s in model.states:
                    a, b = Triple(r, Y, s), Triple(s, Z, q)
                    if positive(a) and positive(b):
                        emit(t, (a, b), x * probs[a] * probs[b] / denom)

    for t in div_syms:
        p, X = t.state, t.symbol
        denom = probs[t]
        for rule in rules_for(model, p, X):
            if len(rule.rhs_word) == 2:
                x, r = float(rule.prob), rule.rhs_state
                Y, Z = rule.rhs_word
                for s in model.states:
                    a, b = Triple(r, Y, s), Triple(s, Z, None)
                    if positive(a) and b in div_set:
                        emit(t, (a, b), x * probs[a] * probs[b] / denom)
        for r in model.states:
            for Y in model.alphabet:
                head = Triple(r, Y, None)
                if head not in div_set:
                    continue
                sources = [rule for rule in rules_for(model, p, X)
                           if rule.rhs_state == r and rule.rhs_word[:1] == (Y,)]
                if sources:
                    x = float(sum((rule.prob for rule in sources), Fraction(0)))
                    emit(t, (head,), probs[head] * x / denom)

    start = None
    if model.start is not None and len(model.start.stack) == 1:
        for cand in (*term_syms, *div_syms):
            if (cand.state, cand.symbol) == (model.start.state, model.start.stack[0]):
                start = Configuration(BPA_STATE, (str(cand),))
                break
    bpa = Pda((BPA_STATE,), tuple(str(t) for t in (*term_syms, *div_syms)), tuple(rules),
              kind="bpa", start=start)
    for (_, lhs), row in rules_by_pair(bpa).items():
        total = float(sum((r.prob for r in row), Fraction(0)))
        if abs(total - 1.0) > 1e-9:
            raise TransformError(f"row for {lhs} sums to {total!r}")
    return bpa


# ---------------------------------------------------------------------------
# scalar walkers: references for the lockstep simulator
#
# The walkers as they were before ``distribution._walk``: one sample at a
# time, each from a new Philox generator keyed (seed << 64) | index.

def _compile_rules(model: Pda):
    """Per-(state, symbol) outcome rows as (cumulative, next state, reversed push)."""
    rows: dict[tuple[int, int], list[tuple[float, int, tuple[int, ...]]]] = {}
    sidx, aidx = model.state_index, model.symbol_index
    for (p, X), rules in rules_by_pair(model).items():
        acc = 0.0
        row = []
        for rule in rules:
            acc += float(rule.prob)
            push = tuple(aidx[sym] for sym in reversed(rule.rhs_word))
            row.append((acc, sidx[rule.rhs_state], push))
        row[-1] = (1.0 + 1e-12, row[-1][1], row[-1][2])
        rows[(sidx[p], aidx[X])] = row
    return rows


def _sample_stream(seed: int, index: int) -> Generator:
    key = (seed << 64) | index
    return Generator(Philox(key=key))


def _run_one(rows, state: int, stack: list[int], cap: int, gen: Generator):
    """Walk one run; returns (terminated, final state index, steps)."""
    steps = 0
    buf = gen.random(32)
    used, size = 0, 32
    while stack:
        if steps >= cap:
            return False, state, steps
        if used == size:
            size = min(4096, size * 2)
            buf = gen.random(size)
            used = 0
        r = buf[used]
        used += 1
        top = stack.pop()
        for cum, nxt, push in rows[(state, top)]:
            if r < cum:
                state = nxt
                stack.extend(push)
                break
        steps += 1
    return True, state, steps


def simulate_loop(
    model: Pda,
    start: Configuration,
    samples: int,
    step_cap: int = 10**6,
    seed: int = 0,
) -> SampleStats:
    """``simulate`` one sample at a time: the scalar walker the lockstep one replaced."""
    if samples < 1 or step_cap < 1:
        raise ModelError("samples and step_cap must be positive")
    rows = _compile_rules(model)
    sidx, aidx = model.state_index, model.symbol_index
    state0 = sidx[start.state]
    stack0 = [aidx[sym] for sym in reversed(start.stack)]

    outcomes: dict[str, Counter] = {}
    censored = 0
    for i in range(samples):
        gen = _sample_stream(seed, i)
        ok, state, steps = _run_one(rows, state0, list(stack0), step_cap, gen)
        if not ok:
            censored += 1
            continue
        name = model.states[state]
        outcomes.setdefault(name, Counter())[steps] += 1
    return SampleStats(
        samples=samples, seed=seed, step_cap=step_cap, outcomes=outcomes, censored=censored
    )


def heads_loop(
    model: Pda,
    start: Configuration,
    samples: int,
    horizon: int,
    seed: int = 0,
    divergence_cap: int | None = None,
) -> tuple[list[Counter], int]:
    """``simulate_heads`` one sample at a time, as it was before the lockstep walker.

    With ``divergence_cap`` set, only runs still alive at the cap contribute,
    which conditions the counts on (approximate) divergence.  Returns the
    per-step counters (index k-1 holds step k) and the contributing runs.
    """
    if divergence_cap is not None and divergence_cap < horizon:
        raise ModelError("divergence_cap must reach past the recorded horizon")
    rows = _compile_rules(model)
    sidx, aidx = model.state_index, model.symbol_index
    state0 = sidx[start.state]
    stack0 = [aidx[sym] for sym in reversed(start.stack)]
    cap = divergence_cap if divergence_cap is not None else horizon

    counts: list[Counter] = [Counter() for _ in range(horizon)]
    kept = 0
    for i in range(samples):
        gen = _sample_stream(seed, i)
        stack = list(stack0)
        state = state0
        heads: list[tuple[int, int] | None] = []
        steps = 0
        buf = gen.random(64)
        used, size = 0, 64
        while stack and steps < cap:
            if used == size:
                size = min(4096, size * 2)
                buf = gen.random(size)
                used = 0
            r = buf[used]
            used += 1
            top = stack.pop()
            for cum, nxt, push in rows[(state, top)]:
                if r < cum:
                    state = nxt
                    stack.extend(push)
                    break
            steps += 1
            if steps <= horizon:
                heads.append((state, stack[-1]) if stack else None)
        if divergence_cap is not None and not stack:
            continue
        kept += 1
        for k, head in enumerate(heads):
            if head is not None:
                counts[k][(model.states[head[0]], model.alphabet[head[1]])] += 1
    return counts, kept


def dist_csv_loop(table) -> str:
    """``dist_csv`` one row at a time, as it was before the column writers."""
    conditional = isinstance(table.subject, Triple)
    header = "n,mass,cumulative,tail"
    if conditional:
        header += ",cond_tail"
    lines = [header]
    gaps = table.tails if table.norm is not None else np.full(table.n_max + 1, np.nan)
    running = 0.0
    for n in range(table.n_max + 1):
        gap = max(float(gaps[n]), 0.0)
        running += float(table.mass[n])
        cells = [str(n), repr(float(table.mass[n])), repr(running), repr(gap)]
        if conditional:
            cells.append(repr(gap / table.norm if table.norm else 0.0))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sample_csv_loop(stats: SampleStats) -> str:
    """``sample_csv`` one row at a time, as it was before the column writers."""
    merged = Counter()
    for counter in stats.outcomes.values():
        merged.update(counter)
    top = max(merged, default=1)
    lines = ["n,count,mass,cumulative,tail,stderr"]
    running = 0
    for n in range(min(1, min(merged, default=1)), top + 1):
        still = stats.samples - running
        count = merged.get(n, 0)
        running += count
        p = still / stats.samples
        se = math.sqrt(p * (1.0 - p) / stats.samples)
        lines.append(",".join((str(n), str(count), repr(count / stats.samples),
                               repr(running / stats.samples), repr(p), repr(se))))
    return "\n".join(lines) + "\n"
