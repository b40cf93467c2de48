"""Dependence structure of stateless models.

A symbol X depends directly on Y when some rule of X mentions Y on its
right-hand side.  The SCC condensation of that relation drives the
tail-regime classification: a start that reaches no cyclic SCC can revisit
no symbol on a derivation path, so its termination time is bounded by the
tree of size 2^|alphabet| - 1, and the height of its SCC gives d2.

``_condense`` condenses any graph given as integer edge arrays, so the
same routine serves ``dependence`` and the SCC-by-SCC Newton solve of slow
stateful systems.  It keeps per SCC only its successors, its height and
whether it is cyclic: the record is linear in the size of the graph.  One
``DependenceInfo`` serves every start symbol of a model; what a start
reaches is one walk of the successors from its SCC (``_reached``), so
nothing is restricted or recomputed per start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ModelError, Pda

__all__ = ["DependenceInfo", "dependence"]


@dataclass(frozen=True)
class DependenceInfo:
    """SCC partition (reverse-topological) and, per SCC, its condensation.

    ``sccs`` holds each SCC's members in the order Tarjan pops them: symbol
    names from ``dependence``, node indices from ``_condense``.
    ``scc_of[k]`` is the SCC of symbol (node) k, ``scc_successors[i]`` the
    SCCs that SCC i depends on directly, in increasing order, and
    ``scc_height[i]`` counts the SCCs on the longest path down from SCC i.
    """

    sccs: tuple[tuple, ...]
    scc_of: np.ndarray
    scc_successors: tuple[tuple[int, ...], ...]
    scc_height: tuple[int, ...]
    scc_cyclic: tuple[bool, ...]


def dependence(model: Pda) -> DependenceInfo:
    """Compute the dependence relation's SCCs, their DAG and heights."""
    if not model.stateless:
        raise ModelError("dependence analysis is defined on stateless models; transform first")
    syms, rules = model.alphabet, model.rule_arrays
    n = len(syms)
    real = rules.words < n
    lhs = np.broadcast_to(rules.lhs_symbol[:, None], real.shape)[real]
    # successors are visited in the order of their names
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=syms.__getitem__)] = np.arange(n)
    info = _condense(n, lhs, rules.words[real], rank)
    return replace(info, sccs=tuple(tuple(syms[k] for k in comp) for comp in info.sccs))


def _condense(n: int, src: np.ndarray, dst: np.ndarray, rank: np.ndarray) -> DependenceInfo:
    """Iterative Tarjan over the nodes 0 .. n-1 and the edges src -> dst.

    Roots are taken in index order and each node's successors in the order
    of their ``rank``; the components come out in reverse topological order.
    A component is cyclic when it has an edge inside it.  The edges are
    sorted by ``np.lexsort``, which the pipeline already runs (the default
    sort kernels page in about 0.3 MB more, and ``np.unique`` imports
    ``numpy.ma``), and a repeated edge is dropped where it follows itself.
    """
    order = np.lexsort((rank[dst], src))
    src, dst = src[order], dst[order]
    keep = np.diff(src * n + dst, prepend=-1) != 0  # repeats are adjacent
    starts = np.searchsorted(src[keep], np.arange(n + 1)).tolist()
    targets = dst[keep].tolist()
    index, low, comp = [-1] * n, [0] * n, [-1] * n  # on the stack: indexed, no comp yet
    cursor, stack, sccs, counter = starts[:-1], [], [], 0
    for root in range(n):
        work = [root] if index[root] < 0 else []
        while work:
            node = work[-1]
            if index[node] < 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
            k, end = cursor[node], starts[node + 1]
            while k < end and index[targets[k]] >= 0:
                y = targets[k]
                if comp[y] < 0 and low[y] < low[node]:  # on the stack: in this SCC
                    low[node] = low[y]
                k += 1
            cursor[node] = k
            if k < end:
                work.append(targets[k])
                continue
            work.pop()
            if low[node] == index[node]:
                members = [stack.pop()]
                while members[-1] != node:
                    members.append(stack.pop())
                for x in members:
                    comp[x] = len(sccs)
                sccs.append(tuple(members))
    successors, height, cyclic = [], [], []
    for i, members in enumerate(sccs):
        below = {comp[y] for x in members for y in targets[starts[x]:starts[x + 1]]}
        cyclic.append(i in below)
        below.discard(i)
        successors.append(tuple(sorted(below)))
        height.append(max((height[j] for j in below), default=0) + 1)
    return DependenceInfo(tuple(sccs), np.array(comp, dtype=np.intp), tuple(successors),
                          tuple(height), tuple(cyclic))


def _reached(info: DependenceInfo, i: int) -> set[int]:
    """SCC i and every SCC it depends on, by one walk of the successors."""
    seen, todo = {i}, [i]
    while todo:
        for j in info.scc_successors[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen
