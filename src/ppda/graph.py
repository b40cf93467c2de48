"""Dependence structure of stateless models.

A symbol X depends directly on Y when some rule of X mentions Y on its
right-hand side.  The SCC condensation of that relation, its height, and
reachability sets drive the tail-regime classification: an acyclic
(reachable) dependence relation means no run can revisit a symbol on a
derivation path, so termination time is bounded by the tree of size
2^|alphabet| - 1.

One ``DependenceInfo`` serves every start symbol of a model: a start's
regime reads its reach set (``bounded``) and the height of its SCC, so
nothing is restricted or recomputed per start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelError, Pda

__all__ = ["DependenceInfo", "dependence"]


@dataclass(frozen=True)
class DependenceInfo:
    """Direct edges, SCC partition (reverse-topological), condensation, height.

    ``scc_height[i]`` counts the SCCs on the longest path down from SCC i:
    the height of the relation restricted to what SCC i reaches.
    """

    direct_edges: dict[str, frozenset[str]]
    sccs: tuple[tuple[str, ...], ...]
    scc_of: dict[str, int]
    scc_dag_edges: frozenset[tuple[int, int]]
    height: int
    reachable_from: dict[str, frozenset[str]]
    scc_successors: tuple[frozenset[int], ...]  # the DAG edges, per source SCC
    scc_height: tuple[int, ...]

    def on_cycle(self, symbol: str) -> bool:
        return symbol in self.reachable_from[symbol]

    def bounded(self, start: str) -> bool:
        """No symbol reachable from start, itself included, is on a cycle."""
        return not any(self.on_cycle(sym) for sym in self.reachable_from[start])


def dependence(model: Pda) -> DependenceInfo:
    """Compute the dependence relation, its SCC DAG, and the DAG height."""
    if not model.stateless:
        raise ModelError("dependence analysis is defined on stateless models; transform first")
    syms, rules = model.alphabet, model.rule_arrays
    real = rules.words < len(syms)
    lhs = np.broadcast_to(rules.lhs_symbol[:, None], real.shape)[real]
    edges: dict[str, set[str]] = {sym: set() for sym in syms}
    for x, y in zip(lhs.tolist(), rules.words[real].tolist()):
        edges[syms[x]].add(syms[y])
    return _condense(edges, _tarjan(syms, edges))


def _condense(edges, sccs) -> DependenceInfo:
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
    below: list[frozenset[str]] = []  # each SCC's members and all they reach
    reach: dict[str, frozenset[str]] = {}
    for i, comp in enumerate(sccs):
        longest.append(max((longest[j] for j in succ[i]), default=0) + 1)
        cyclic = len(comp) > 1 or comp[0] in edges[comp[0]]
        shared = frozenset(comp if cyclic else ()).union(*(below[j] for j in succ[i]))
        below.append(shared.union(comp))
        reach.update(dict.fromkeys(comp, shared))
    return DependenceInfo(
        direct_edges={x: frozenset(ys) for x, ys in edges.items()},
        sccs=tuple(tuple(c) for c in sccs),
        scc_of=scc_of,
        scc_dag_edges=frozenset((i, j) for i, js in enumerate(succ) for j in js),
        height=max(longest, default=1),
        reachable_from={x: reach[x] for x in edges},
        scc_successors=tuple(succ),
        scc_height=tuple(longest),
    )


def _tarjan(nodes: tuple[str, ...], edges: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
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

