"""Exact termination-time distributions and a seeded stack simulator.

The dynamic program decomposes the time-to-empty mass by the first rewrite:
an epsilon rule contributes at step one, a unary rule shifts by one, and a
binary rule convolves the two obligations it leaves on the stack (longer
relaxed right-hand sides convolve iteratively).  The stateless DP keeps
each symbol's law twice, forward and mirrored (mirror[s, n_max - j] =
D[s, j]), so that every convolution term is one BLAS dot of two forward
slices; a reversed slice would make NumPy copy it before each dot.  The dot
sums the same products in the same order either way, so the mirror changes
no bit of the masses.  A step adds its terms as Python floats, per symbol in
rule order, and writes each sum once to the law and once to its mirror.
All masses are kept unconditioned; conditioning on the terminal state
divides by the triple's termination probability only at the reporting
boundary.  A stateless start of several symbols empties its entries one
after another, so ``exact_distribution_word`` convolves their laws; it is
the one stateless entry, and a single symbol is a one-symbol word.
``dist_csv`` and ``sample_csv`` write the tables the CLI prints, CSV its
only format, a column at a time over chunks of rows, each chunk straight
to the destination.

The simulator walks the induced Markov chain.  Randomness comes from Philox
streams keyed per sample as (seed << 64) | sample_index; step t of sample i
reads draw t of stream i, so results are reproducible and mergeable
regardless of execution order.  One walker, ``_walk``, serves ``simulate``
and ``simulate_heads``: it advances a batch of runs in lockstep, one NumPy
step for all live runs, with the stacks as rows of small unsigned integers
and the rules as a table of cumulative probabilities that makes every
``r < cum`` decision of a one-run-at-a-time walk, on ranks among the
cumulatives instead of the doubles.  Runs that end leave by compaction, and
for ``simulate`` samples not yet walked take their places, so that heavy
tails do not leave a few runs stepping alone.  Uniforms come in blocks per
run, kept as their ranks, step by step; Philox is counter-based, so a block
can start any stream at any step that is a multiple of 4, and neither the
batching nor the block lengths change a single draw.  ``WALK_BYTES`` caps
the rank block plus the stacks; ``STACK_BYTES`` bounds the stacks: a walk
whose stacks would pass it sets its youngest runs aside, to walk them again
from step 0.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import TextIO

import numpy as np
from numpy.random import Generator, Philox

from .model import (CHUNK_ROWS, Configuration, ModelError, Pda, Triple, _triples,
                    start_problems)
from .termination import CompiledSystem

__all__ = [
    "DistTable",
    "SampleStats",
    "exact_distribution_word",
    "exact_distribution_pda",
    "tail",
    "simulate",
    "simulate_heads",
    "dist_csv",
    "sample_csv",
]


# The exact DP holds every mass row to the horizon at once: a symbol's law
# and its mirror, or a triple's law, and for a stateless word longer than
# two a row per inner prefix convolution.  A horizon whose rows would pass
# this many bytes is refused before any is allocated.
DP_BYTES = 1 << 30
# Step n of the DP takes one dot product of about n terms per word position
# past the first (stateless) or per pair monomial (stateful), so a horizon
# costs about dots * n_max^2 / 2 products.  One that would pass this many is
# refused as well: on a 2.1 GHz Xeon the stateless DP ran 3-4e9 products/s
# and the stateful one 5-6e8, so the limit is about half a minute and three.
DP_PRODUCTS = 10**11


@dataclass(frozen=True)
class DistTable:
    """Unconditioned mass table: mass[i] = P(T = i and the subject's event)."""

    subject: str | Triple
    mass: np.ndarray
    n_max: int
    norm: float | None  # 1.0 for stateless symbols, [pXq] for triples

    @cached_property
    def tails(self) -> np.ndarray:
        """norm - P(T < n) for n = 0..n_max + 1, summed in order as the CSV's
        cumulative column is; ``tail``, ``residual_mass`` and ``dist_csv`` read it."""
        if self.norm is None:
            raise ModelError("table has no termination probability attached")
        tails = np.zeros(len(self.mass) + 1)
        np.cumsum(self.mass, out=tails[1:])
        return np.subtract(self.norm, tails, out=tails)

    @property
    def residual_mass(self) -> float:
        return float(self.tails[-1])


def tail(table: DistTable, n: int) -> float:
    """P(T >= n), conditioned on the subject's event for triple subjects; P(T >= 0) for n < 0."""
    if n > table.n_max + 1:
        raise ModelError(f"tail at {n} beyond horizon {table.n_max}")
    gap = min(max(float(table.tails[max(n, 0)]), 0.0), table.norm if table.norm > 0 else 0.0)
    if isinstance(table.subject, Triple):
        return gap / table.norm if table.norm > 0 else 0.0
    return gap


# ---------------------------------------------------------------------------
# exact dynamic programming

def exact_distribution_word(model: Pda, word: tuple[str, ...], n_max: int) -> DistTable:
    """Exact P(T = n) for a stack word, or one symbol, of a stateless model.

    The times of the entries add up.
    """
    if not word:
        raise ModelError("empty start word")
    for sym in word:
        if sym not in model.symbol_index:
            raise ModelError(f"unknown start symbol {sym!r}")
    masses = _bpa_masses(model, n_max, convolutions=len(word) - 1)
    acc = masses[word[0]]
    for sym in word[1:]:
        acc = np.convolve(acc, masses[sym])[: n_max + 1]
    out = np.zeros(n_max + 1)
    out[: len(acc)] = acc
    return DistTable(subject=" ".join(word), mass=out, n_max=n_max, norm=1.0)


def _check_budget(rows: int, dots: int, n_max: int) -> None:
    """Refuse a DP to horizon ``n_max`` of ``rows`` mass rows above DP_BYTES,
    or of ``dots`` dot products a step above DP_PRODUCTS."""
    size = 8 * rows * (n_max + 1)
    if size > DP_BYTES:
        raise ModelError(f"the exact DP to horizon {n_max} needs {rows} rows of "
                         f"{n_max + 1} doubles, {size / 2**30:.3g} GiB; "
                         f"the budget is {DP_BYTES / 2**30:g} GiB")
    work = dots * n_max * n_max // 2
    if work > DP_PRODUCTS:
        raise ModelError(f"the exact DP to horizon {n_max} makes {dots} dot product(s) a step, "
                         f"about {work:.3g} products in all; the budget is {DP_PRODUCTS:.3g}")


def _bpa_masses(model: Pda, n_max: int, convolutions: int = 0) -> dict[str, np.ndarray]:
    if not model.stateless:
        raise ModelError("use exact_distribution_pda for stateful models")
    if n_max < 1:
        raise ModelError("n_max must be at least 1")
    rules = model.rule_arrays
    # a law and its mirror per symbol, and a row per inner prefix convolution;
    # each full convolution of a start word's laws costs 2 dots a step
    _check_budget(2 * len(model.alphabet) + int(np.maximum(rules.length - 2, 0).sum()),
                  int(np.maximum(rules.length - 1, 0).sum()) + 2 * convolutions, n_max)
    D = np.zeros((len(model.alphabet), n_max + 1))
    mirror = np.zeros_like(D)  # mirror[s, n_max - j] = D[s, j]

    # Running prefix convolutions per rule: a word of m symbols keeps a row
    # for each prefix of 2 .. m-1 symbols, whose entry j is final once the
    # step loop passes j, so each entry is filled exactly once.  The whole
    # word's term is added to its symbol's sum as soon as it is dotted, and
    # needs no row.  Each symbol keeps its rules' plans in rule order.
    plans = [[] for _ in model.alphabet]
    for prob, lhs, length, word in zip(rules.prob.tolist(), rules.lhs_symbol.tolist(),
                                       rules.length.tolist(), rules.words.tolist()):
        if length == 0:
            D[lhs, 1] += prob  # the only mass an epsilon rule adds, in rule order
            continue
        inner = [(mirror[sym], np.zeros(n_max + 1)) for sym in word[1 : length - 1]]
        last = mirror[word[length - 1]] if length > 1 else None
        plans[lhs].append((prob, D[word[0]], inner, last))
    mirror[:, n_max - 1] = D[:, 1]
    laws = [law for law in zip(D, mirror, plans) if law[2]]

    # At step n the dots read laws and prefixes at 1 .. n-2 only: left[1 : n-1]
    # against mirror[n_max-n+2 : n_max], which holds D[n-2], ..., D[1] in
    # that order, so a symbol's sum is final once its own terms are added.
    for n in range(2, n_max + 1):
        lo = n_max - n + 2
        for law, mirrored, terms in laws:
            total = 0.0
            for prob, first, inner, last in terms:
                left = first
                for right, row in inner:
                    row[n - 1] = left[1 : n - 1].dot(right[lo:n_max])
                    left = row
                if last is None:
                    total += prob * left.item(n - 1)
                else:
                    total += prob * float(left[1 : n - 1].dot(last[lo:n_max]))
            law[n] = mirrored[lo - 2] = total
    return dict(zip(model.alphabet, D))


def exact_distribution_pda(
    model: Pda, triple: Triple | None, n_max: int, norm: float | None = None
) -> DistTable | dict[Triple, DistTable]:
    """Exact unconditioned mass P(T = n, terminate in triple.target).

    One pass computes the mass of every triple; with ``triple`` None the
    tables of all triples that may terminate come back, keyed by triple,
    without a norm.
    """
    if triple is not None and triple.diverging:
        raise ModelError("distributions are defined for terminating triples only")
    if n_max < 1:
        raise ModelError("n_max must be at least 1")
    if (model.rule_arrays.length > 2).any():
        raise ModelError("stateful DP expects right-hand sides of length <= 2")
    system = model.compiled
    _check_budget(system.n, int(np.count_nonzero(system.degree == 2)), n_max)
    mass = _pda_masses(system, n_max)
    if triple is None:
        return {t: DistTable(subject=t, mass=row, n_max=n_max, norm=None)
                for t, row in zip(_triples(model, model.terminating_triples), mass)}
    sidx = model.state_index
    i = system.table[sidx[triple.state], model.symbol_index[triple.symbol], sidx[triple.target]]
    row = mass[i].copy() if i < system.n else np.zeros(n_max + 1)
    return DistTable(subject=triple, mass=row, n_max=n_max, norm=norm)


# Pair terms are dotted in blocks of about this many products, so that the
# gathered rows (64 KB each) stay in cache and do not grow with pairs times
# horizon; on the random (4, 20) models at horizon 100, blocks of 2^13 to
# 2^14 products ran fastest.
DOT_BLOCK = 1 << 13


def _pda_masses(system: CompiledSystem, n_max: int) -> np.ndarray:
    """mass[i, n] = P(T = n, terminate as triple i), for every triple at once.

    Epsilon monomials put their mass at step 1; a unary one shifts its
    factor by one step, a pair one convolves its two factors.
    """
    n, degree = system.n, system.degree
    mass = np.zeros((n, n_max + 1))
    mass[:, 1] = system.const
    unary, pair = degree == 1, degree == 2
    u_arg = system.factors[unary, 0]
    p_left, p_right = system.factors[pair, 0], system.factors[pair, 1]
    lhs = np.concatenate([system.lhs[unary], system.lhs[pair]])
    coef = np.concatenate([system.coef[unary], system.coef[pair]])
    weights = np.empty(len(lhs))
    u_out = weights[: len(u_arg)]
    p_out = weights[len(u_arg):, None, None]  # one 1x1 product per pair
    for step in range(2, n_max + 1):
        if len(u_arg):
            np.take(mass[:, step - 1], u_arg, out=u_out)
        block = max(1, DOT_BLOCK // step)
        for lo in range(0, len(p_left), block):
            hi = lo + block
            left = mass[p_left[lo:hi], None, 1 : step - 1]
            right = mass[p_right[lo:hi], step - 2 : 0 : -1, None]
            np.matmul(left, right, out=p_out[lo:hi])
        weights *= coef
        mass[:, step] = np.bincount(lhs, weights, minlength=n)
    return mass


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass(frozen=True)
class SampleStats:
    """Outcome counts of a batch of simulated runs."""

    samples: int
    seed: int
    step_cap: int
    outcomes: dict[str, Counter]  # terminal control state -> Counter of step counts
    censored: int

    @property
    def terminated(self) -> int:
        return self.samples - self.censored

    def termination_rate(self, state: str) -> float:
        return sum(self.outcomes.get(state, Counter()).values()) / self.samples

    def empirical_tail(self, n: int) -> tuple[float, float]:
        """Estimate of P(T >= n) with its standard error; censored runs count as long."""
        if n > self.step_cap:
            raise ModelError(f"tail at {n} beyond step cap {self.step_cap}")
        hits = self.censored + sum(
            count
            for counter in self.outcomes.values()
            for steps, count in counter.items()
            if steps >= n
        )
        p = hits / self.samples
        return p, sqrt(p * (1.0 - p) / self.samples)


# Runs walked at once: when runs end, samples not yet walked take their
# places at the next block of uniforms.  WALK_BYTES caps the block of the
# uniforms' ranks plus the stacks: the block gets half of what the stacks
# leave (at least 4 uniforms a run), so deep stacks shorten the blocks
# instead of adding memory.  (A block of ranks over all of it, 8 times the
# draws of a block of doubles, raised the peak memory of repeated walks by
# 0.3 MB; half of it, 4 times the draws, did not.)  Blocks start at
# FIRST_BLOCK uniforms a run and double with the age of the youngest run.
# Stacks alone may outgrow WALK_BYTES up to STACK_BYTES; past that the
# youngest runs are set aside and walked again from step 0 later.
WALK_BATCH = 1024
WALK_BYTES = 3 << 18
FIRST_BLOCK = 32
STACK_BYTES = 1 << 26
# Past a few cuts, a uniform's rank is read from a table of this many equal
# buckets of [0, 1), unless a cut lies in its bucket (_Outcomes.ranks).
RANK_BUCKETS = 1 << 12


@dataclass(frozen=True)
class _Outcomes:
    """The rules as arrays: pair = state·|Γ| + symbol, outcome = pair·k + j.

    Row ``pair`` of the cumulatives holds the pair's rule probabilities
    accumulated in rule order, the last replaced by the sentinel 1 + 1e-12
    and padded with +inf, so the outcome a uniform r < 1 picks, the first j
    with r < cum[j], is the number of entries <= r.  The last column is
    never <= r and is not stored; ``cum`` is stored column by column.

    ``cum`` holds ranks, not doubles: the rank of a cumulative below 1 is
    its place among ``cuts``, the sorted distinct cumulatives below 1,
    counted from 1, and the rank of a uniform r is the number of cuts <= r.
    So c <= r exactly when rank(c) <= rank(r).  Entries of 1 or more (the
    sentinel, the padding) get len(cuts) + 1, which no uniform reaches.
    Ranks take the smallest unsigned type that holds len(cuts) + 1.
    """

    symbols: int  # |Γ|
    k: int  # most rules of one pair
    cuts: np.ndarray  # the distinct cumulatives below 1, ascending
    cum: np.ndarray  # [k - 1, |Q|·|Γ|] ranks
    state: np.ndarray  # next state times |Γ|, per outcome
    shift: np.ndarray  # pushed length minus one, per outcome
    push: np.ndarray  # [longest word, outcomes] the word reversed, its head last

    def ranks(self, u: np.ndarray) -> np.ndarray:
        """The rank of each uniform in ``u``, of ``cum``'s type and ``u``'s shape.

        Up to 8 cuts, one comparison per cut, 0.4 ns a uniform each on a 2.1
        GHz Xeon.  Past that, a table of ``RANK_BUCKETS`` equal buckets of
        [0, 1) gives the rank of every uniform whose bucket holds no cut, and
        a binary search the others, about 3 ns a uniform in all; u·RANK_BUCKETS
        is exact, so a uniform falls in its bucket exactly.
        """
        if len(self.cuts) <= 8:
            out = np.zeros(u.shape, self.cum.dtype)
            for cut in self.cuts.tolist():
                out += u >= cut
            return out
        out = self._buckets[(u * RANK_BUCKETS).astype(np.intp)]
        exact = np.flatnonzero(out == len(self.cuts) + 1)
        if len(exact):
            out.reshape(-1)[exact] = np.searchsorted(self.cuts, u.reshape(-1)[exact], side="right")
        return out

    @cached_property
    def _buckets(self) -> np.ndarray:
        """Per bucket, the cuts below it, or len(cuts) + 1 if a cut lies in it."""
        below = np.searchsorted(self.cuts, np.arange(RANK_BUCKETS + 1) / RANK_BUCKETS)
        table = below[:-1].astype(self.cum.dtype)
        table[below[1:] > below[:-1]] = len(self.cuts) + 1
        return table


def _outcomes(model: Pda) -> _Outcomes:
    n_sym, rules = len(model.alphabet), model.rule_arrays
    pair = rules.lhs_state * n_sym + rules.lhs_symbol
    count = np.bincount(pair, minlength=len(model.states) * n_sym)
    k = int(count.max(initial=1))
    # j: the place of each rule among its pair's rules, in rule order
    order = np.argsort(pair, kind="stable")
    j = np.empty_like(pair)
    j[order] = np.arange(len(pair)) - (np.cumsum(count) - count)[pair[order]]
    o = pair * k + j
    cum = np.zeros((len(count), k))
    cum[pair, j] = rules.prob
    cum = np.cumsum(cum, axis=1)  # sequential adds, as a running sum over the rules
    cum[np.arange(k) >= count[:, None]] = np.inf
    used = np.flatnonzero(count)
    cum[used, count[used] - 1] = 1.0 + 1e-12
    below = np.sort(cum[cum < 1.0])  # not np.unique, which imports numpy.ma
    cuts = below[np.flatnonzero(np.diff(below, prepend=-1.0))]
    ranks = np.searchsorted(cuts, cum[:, :-1], side="right")
    ranks[cum[:, :-1] >= 1.0] = len(cuts) + 1
    ranks = np.ascontiguousarray(ranks.T, np.min_scalar_type(len(cuts) + 1))
    state = np.zeros(cum.size, np.intp)
    state[o] = rules.rhs_state * n_sym
    shift = np.zeros(cum.size, np.intp)
    shift[o] = rules.length - 1
    longest = int(rules.length.max(initial=0))
    push = np.zeros((longest, cum.size), np.min_scalar_type(max(n_sym - 1, 0)))
    at = rules.length[:, None] - 1 - np.arange(longest)  # word position of each push row
    r, row = np.nonzero(at >= 0)
    push[row, o[r]] = rules.words[r, at[r, row]]
    return _Outcomes(n_sym, k, cuts, ranks, state, shift, push)


class _Streams:
    """Blocks of outcome ranks of the uniforms of the per-sample Philox streams.

    Sample i reads the stream keyed (seed << 64) | i, for 0 <= seed < 2**64.
    Philox turns one counter into four words, one double each, so after t
    draws, t a multiple of 4, a stream stands at counter t/4 with an empty
    buffer.  Setting one generator to that key and counter continues any
    stream at step t, bit for bit, at a tenth of the cost of a new generator.
    The doubles pass through a scratch of 8,192 (a few runs' rows, or part of
    one) on their way to ``table.ranks``; only their ranks are kept.
    """

    def __init__(self, seed: int, table: _Outcomes):
        self.bits = Philox(0)
        self.gen = Generator(self.bits)
        self.counter = [0, 0, 0, 0]
        self.key = [0, seed]
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": self.counter, "key": self.key},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.table = table
        self.scratch = np.empty(1 << 13)
        self.buffer = np.empty(WALK_BYTES // (2 * table.cum.itemsize), table.cum.dtype)

    def block(self, ids: np.ndarray, t: np.ndarray, size: int) -> np.ndarray:
        """Step-major ranks: entry [s, r] ranks draw t[r] + s of sample ids[r]'s stream."""
        n, span = len(ids), len(self.scratch)
        if len(self.buffer) < n * size:  # 4 uniforms a run top a tiny budget
            self.buffer = np.empty(n * size, self.buffer.dtype)
        out = self.buffer[: n * size].reshape(size, n)
        key, counter, bits, state, random = (self.key, self.counter, self.bits, self.state,
                                             self.gen.random)
        ids, at = ids.tolist(), (t // 4).tolist()
        runs = max(1, span // size)  # whole rows a fill, or one row in pieces
        for lo in range(0, n, runs):
            hi = min(lo + runs, n)
            for a in range(0, size, span):
                u = self.scratch[: (hi - lo) * min(span, size - a)].reshape(hi - lo, -1)
                for row, i, c in zip(u, ids[lo:hi], at[lo:hi]):
                    key[0] = i
                    counter[0] = c
                    bits.state = state
                    random(out=row)
                out[a : a + u.shape[1], lo:hi] = self.table.ranks(u).T
                at[lo] += span // 4  # where a row longer than the scratch goes on
        return out


def _width(symbols: int) -> int:
    """The stack width for ``symbols`` symbols: a power of two, at least 8."""
    return max(8, 1 << (symbols - 1).bit_length())


def _restack(stacks: np.ndarray, pos: np.ndarray, depth: np.ndarray, rows: int,
             width: int) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` stacks of ``width`` symbols, the first holding the stacks whose
    tops lie at flat index ``pos`` of ``stacks``, in order; their new tops."""
    new = np.empty((rows, width), stacks.dtype)
    source, kept = pos // stacks.shape[1], min(width, stacks.shape[1])
    for lo in range(0, len(pos), 64):  # a few rows at a time
        hi = min(lo + 64, len(pos))
        new[lo:hi, :kept] = stacks[source[lo:hi], :kept]
    return new, np.arange(len(pos)) * width + depth - 1


def _walk(model: Pda, start: Configuration, samples: int, cap: int, seed: int,
          batch: int, refill: bool = True):
    """Seeded runs of ``model`` from ``start``, up to ``batch`` of them in lockstep.

    Yields ``(g, ids, born, pair, ended, ended_born)`` after every step g of
    the walk: the live runs, the step at which each joined (a run's own step
    count is g - born), their (state, top) as state·|Γ| + top, and the
    state·|Γ| and joining step of the runs that emptied their stack at step
    g (None if none did).  A run that reaches ``cap`` is yielded live once
    more and then dropped.  With ``refill`` samples join whenever a block of
    uniforms starts and fewer than ``batch`` runs are live, so heavy tails
    do not leave a few runs stepping alone; without it they join only when
    no run is live, in cohorts of one age.  Runs join at the start of a
    block, so every block starts each stream at a multiple of 4 draws.
    """
    problems = start_problems(model, start)
    if problems:
        raise ModelError("; ".join(problems))
    if not 0 <= seed < 2**64:  # the high word of every stream's key
        raise ModelError(f"seed {seed} is outside 0 .. 2**64 - 1")
    table = _outcomes(model)
    stack0 = [model.symbol_index[sym] for sym in reversed(start.stack)]
    state0 = model.state_index[start.state] * table.symbols
    if not stack0:  # every run ends at step 0
        none = np.empty(0, np.intp)
        yield 0, none, none, none, np.full(samples, state0), np.zeros(samples, np.intp)
        return
    k, longest, itemsize = table.k, len(table.push), table.push.itemsize
    if not refill:  # a cohort is never split, so the deepest stacks the cap allows must fit
        deepest = len(stack0) + cap * max(longest - 1, 0) + longest
        batch = min(batch, STACK_BYTES // (2 * max(deepest, 8) * itemsize))
    batch = max(1, batch)
    streams = _Streams(seed, table)
    # A step's ranks of its draws and of one column of cumulatives go into
    # these: new arrays of a few hundred bytes each step would be kept by
    # NumPy's cache of small buffers, up to 7 for each size the live runs
    # pass through.  "clip", since take writes an ``out`` through a copy in
    # its default mode.
    drawn, cut = np.empty(batch, table.cum.dtype), np.empty(batch, table.cum.dtype)
    columns, next_state, shifts, push = list(table.cum), table.state, table.shift, table.push
    fresh, shed = 0, []  # the first sample not yet walked; samples to walk again
    # per live run: sample, step joined, state·|Γ|, depth, flat index of the top, block row
    ids = born = state = depth = pos = row = pair = np.empty(0, np.intp)
    stacks = np.empty((0, 8), table.push.dtype)
    cols = np.arange(longest)[:, None]
    deepest = width = 0  # deepest is an upper bound on depth.max()
    g = block_start = block_end = 0
    while True:
        if g == block_end or not len(ids):
            if refill or not len(ids):
                deepest = max(int(depth.max(initial=0)), len(stack0))
                wide = _width(deepest + longest - 1)
                room = min(batch, max(1, STACK_BYTES // (wide * itemsize))) - len(ids)
                if room > 0 and (shed or fresh < samples):
                    again = shed[-room:]
                    del shed[-room:]
                    extra = min(room - len(again), samples - fresh)
                    new = np.concatenate([np.array(again, np.intp),
                                          np.arange(fresh, fresh + extra)])
                    fresh += extra
                    live, width = len(ids), wide
                    stacks, pos = _restack(stacks, pos, depth, live + len(new), width)
                    stacks[live:, : len(stack0)] = stack0
                    flat = stacks.reshape(-1)
                    pos = np.concatenate([pos, np.arange(live, live + len(new)) * width
                                          + (len(stack0) - 1)])
                    ids = np.concatenate([ids, new])
                    born, state, depth = (np.concatenate([a, np.full(len(new), v)]) for a, v in
                                          ((born, g), (state, state0), (depth, len(stack0))))
                    pair = state + flat[pos]
            if not len(ids):
                return
            age = g - int(born[-1])  # of the youngest run
            room = max(WALK_BYTES - stacks.nbytes, 0) // (2 * table.cum.itemsize * len(ids))
            size = max(4, min(room, max(FIRST_BLOCK, age), cap - age + 3) // 4 * 4)
            if k > 1:  # one rule a pair needs no uniforms
                block = streams.block(ids, g - born, size)
            row = np.arange(len(ids))
            block_start, block_end = g, g + size
        if k == 1:
            o = pair
        else:
            n = len(row)
            r = block[g - block_start].take(row, out=drawn[:n], mode="clip")
            o = pair * k
            for column in columns:
                o += column.take(pair, out=cut[:n], mode="clip") <= r
        state = next_state[o]
        if longest:
            flat[pos + cols] = push.take(o, axis=1)
        shift = shifts[o]
        depth += shift
        pos += shift
        g += 1
        ended = ended_born = None
        if np.count_nonzero(depth) < len(depth):
            done = depth == 0
            ended, ended_born = state[done], born[done]
            keep = depth.nonzero()[0]
            ids, born, state, depth, pos, row = (
                a[keep] for a in (ids, born, state, depth, pos, row))
        pair = state + flat[pos]
        yield g, ids, born, pair, ended, ended_born
        if len(ids) and born[0] == g - cap:  # the oldest runs reached the cap
            n = int(np.searchsorted(born, g - cap, side="right"))
            ids, born, state, depth, pos, row, pair = (
                a[n:] for a in (ids, born, state, depth, pos, row, pair))
        deepest += longest - 1
        if deepest + longest - 1 > width:
            deepest = int(depth.max(initial=0))
            if deepest + longest - 1 > width:
                width = _width(deepest + longest - 1)
                fit = max(1, STACK_BYTES // (width * itemsize))
                if refill and len(ids) > fit:  # set the youngest aside, to walk again
                    shed.extend(ids[fit:].tolist())
                    ids, born, state, depth, pos, row, pair = (
                        a[:fit] for a in (ids, born, state, depth, pos, row, pair))
                stacks, pos = _restack(stacks, pos, depth, len(ids), width)
                flat = stacks.reshape(-1)


def simulate(
    model: Pda,
    start: Configuration,
    samples: int,
    step_cap: int = 10**6,
    seed: int = 0,
) -> SampleStats:
    """Deterministic Monte Carlo estimate of the termination-time law."""
    if samples < 1 or step_cap < 1:
        raise ModelError("samples and step_cap must be positive")
    n_sym = len(model.alphabet)
    ends: Counter = Counter()  # (state index, steps) -> runs
    for g, _, _, _, ended, born in _walk(model, start, samples, step_cap, seed, WALK_BATCH):
        if ended is not None:
            ends.update(zip((ended // n_sym).tolist(), (g - born).tolist()))
    outcomes: dict[str, Counter] = {}
    for (q, steps), count in sorted(ends.items()):
        outcomes.setdefault(model.states[q], Counter())[steps] = count
    return SampleStats(samples=samples, seed=seed, step_cap=step_cap, outcomes=outcomes,
                       censored=samples - sum(ends.values()))


def simulate_heads(
    model: Pda,
    start: Configuration,
    samples: int,
    horizon: int,
    seed: int = 0,
    divergence_cap: int | None = None,
) -> tuple[list[Counter], int]:
    """Counts of the (state, top symbol) pair after each of the first steps.

    With ``divergence_cap`` set, only runs still alive at the cap contribute,
    which conditions the counts on (approximate) divergence.  Returns the
    per-step counters (index k-1 holds step k) and the contributing runs.
    """
    if samples < 1 or horizon < 1:
        raise ModelError("samples and horizon must be positive")
    if divergence_cap is not None and divergence_cap < horizon:
        raise ModelError("divergence_cap must reach past the recorded horizon")
    n_sym = len(model.alphabet)
    cap = horizon if divergence_cap is None else divergence_cap
    # a cohort's heads, two int arrays a step, wait for the cap to learn which runs count
    batch = min(WALK_BATCH, WALK_BYTES // (16 * horizon))
    counts: list[Counter] = [Counter() for _ in range(horizon)]
    kept = samples if divergence_cap is None else 0
    heads = []
    for g, alive, born, pair, _, _ in _walk(model, start, samples, cap, seed, batch,
                                            refill=False):
        t = g - int(born[0]) if len(alive) else 0
        if 1 <= t <= horizon:
            heads.append((alive, pair))
        if t and t < cap:
            continue
        # the cohort is over; the runs still live, if any, are those alive at the cap
        if divergence_cap is not None:
            kept += len(alive)
            heads = [(ids, pair[np.isin(ids, alive)]) for ids, pair in heads]
        for counter, (_, pair) in zip(counts, heads):
            codes, seen = np.unique(pair, return_counts=True)
            for code, count in zip(codes.tolist(), seen.tolist()):
                counter[(model.states[code // n_sym], model.alphabet[code % n_sym])] += count
        heads = []
    return counts, kept


# ---------------------------------------------------------------------------
# CSV export

def dist_csv(table: DistTable, out: TextIO | None = None) -> str | None:
    """Rows n, mass, cumulative, tail; triples get a conditional tail column.
    Written to ``out``, or returned without it (``_csv``)."""
    gaps = table.tails[:-1] if table.norm is not None else np.full(len(table.mass), np.nan)
    gaps = np.where(gaps < 0.0, 0.0, gaps)  # max(gap, 0.0), which keeps -0.0 and nan
    # + 0.0: a running sum from +0.0, as the row loop's, never reads -0.0
    columns = [table.mass, np.cumsum(table.mass) + 0.0, gaps]
    header = "n,mass,cumulative,tail"
    if isinstance(table.subject, Triple):
        header += ",cond_tail"
        columns.append(gaps / table.norm if table.norm else np.zeros(len(gaps)))
    return _csv(header, 0, columns, out)


def sample_csv(stats: SampleStats, out: TextIO | None = None) -> str | None:
    """Empirical mass/tail rows from step 1, or 0 when a run ends there (an
    empty start), up to the largest observed termination time.  Written to
    ``out``, or returned without it (``_csv``)."""
    merged = Counter()
    for counter in stats.outcomes.values():
        merged.update(counter)
    first = min(1, min(merged, default=1))
    count = np.zeros(max(merged, default=1) - first + 1, np.int64)
    count[np.fromiter(merged, np.int64, len(merged)) - first] = list(merged.values())
    running = np.cumsum(count)
    p = (stats.samples - (running - count)) / stats.samples
    return _csv("n,count,mass,cumulative,tail,stderr", first,
                [count, count / stats.samples, running / stats.samples, p,
                 np.sqrt(p * (1.0 - p) / stats.samples)], out)


def _csv(header: str, first: int, columns: list[np.ndarray],
         out: TextIO | None = None) -> str | None:
    """``header``, then a row per entry of the columns led by n from ``first``,
    written to ``out`` ``CHUNK_ROWS`` rows at a time, or returned without it:
    ``repr`` a column at a time, so that no column is ever a full-length
    list of Python numbers (``str`` for n), and no text written to ``out``
    is ever whole."""
    sink = io.StringIO() if out is None else out
    sink.write(header + "\n")
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        cells = [map(repr, column[lo:hi].tolist()) for column in columns]
        sink.write("\n".join(map(",".join, zip(map(str, range(first + lo, first + hi)), *cells))))
        sink.write("\n")
    return sink.getvalue() if out is None else None
