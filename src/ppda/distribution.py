"""Exact termination-time distributions and a seeded stack simulator.

The dynamic program decomposes the time-to-empty mass by the first rewrite:
an epsilon rule contributes at step one, a unary rule shifts by one, and a
binary rule convolves the two obligations it leaves on the stack (longer
relaxed right-hand sides convolve iteratively).  All masses are kept
unconditioned; conditioning on the terminal state divides by the triple's
termination probability only at the reporting boundary.

The simulator walks the induced Markov chain.  Randomness comes from Philox
streams keyed per sample as (seed << 64) | sample_index, so results are
reproducible and mergeable regardless of execution order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from math import sqrt

import numpy as np
from numpy.random import Generator, Philox

from .model import Configuration, ModelError, Pda, Triple
from .termination import CompiledSystem

__all__ = [
    "DistTable",
    "SampleStats",
    "exact_distribution_bpa",
    "exact_distribution_word",
    "exact_distribution_pda",
    "tail",
    "simulate",
    "simulate_heads",
    "dist_csv",
    "dist_json",
    "sample_csv",
    "sample_json",
]


@dataclass(frozen=True)
class DistTable:
    """Unconditioned mass table: mass[i] = P(T = i and the subject's event)."""

    subject: str | Triple
    mass: np.ndarray
    n_max: int
    norm: float | None  # 1.0 for stateless symbols, [pXq] for triples

    @property
    def residual_mass(self) -> float:
        if self.norm is None:
            raise ModelError("table has no termination probability attached")
        return self.norm - float(np.sum(self.mass))

    def cumulative(self, n: int) -> float:
        return float(np.sum(self.mass[: n + 1]))


def tail(table: DistTable, n: int) -> float:
    """P(T >= n), conditioned on the subject's event for triple subjects."""
    if n > table.n_max + 1:
        raise ModelError(f"tail at {n} beyond horizon {table.n_max}")
    if table.norm is None:
        raise ModelError("table has no termination probability attached")
    gap = table.norm - float(np.sum(table.mass[:n]))
    gap = min(max(gap, 0.0), table.norm if table.norm > 0 else 0.0)
    if isinstance(table.subject, Triple):
        return gap / table.norm if table.norm > 0 else 0.0
    return gap


# ---------------------------------------------------------------------------
# exact dynamic programming

def exact_distribution_bpa(model: Pda, start: str, n_max: int) -> DistTable:
    """Exact P(T = n) for a single stack symbol of a stateless model."""
    masses = _bpa_masses(model, n_max)
    if start not in masses:
        raise ModelError(f"unknown start symbol {start!r}")
    return DistTable(subject=start, mass=masses[start].copy(), n_max=n_max, norm=1.0)


def exact_distribution_word(model: Pda, word: tuple[str, ...], n_max: int) -> DistTable:
    """Exact P(T = n) for a stack word; times of the entries add up."""
    if not word:
        raise ModelError("empty start word")
    masses = _bpa_masses(model, n_max)
    acc = masses[word[0]]
    for sym in word[1:]:
        acc = np.convolve(acc, masses[sym])[: n_max + 1]
    out = np.zeros(n_max + 1)
    out[: len(acc)] = acc
    return DistTable(subject=" ".join(word), mass=out, n_max=n_max, norm=1.0)


def _bpa_masses(model: Pda, n_max: int) -> dict[str, np.ndarray]:
    if not model.stateless:
        raise ModelError("use exact_distribution_pda for stateful models")
    if n_max < 1:
        raise ModelError("n_max must be at least 1")
    D = {sym: np.zeros(n_max + 1) for sym in model.alphabet}

    # Running prefix convolutions per rule; prefix[k][j] is final once the
    # step loop passes j, so each entry is filled exactly once.
    plans = []
    for rule in model.rules:
        word = rule.rhs_word
        prefixes = [D[sym] for sym in word[:1]]
        for k in range(1, len(word)):
            prefixes.append(np.zeros(n_max + 1))
        plans.append((float(rule.prob), D[rule.lhs_symbol], word, prefixes))

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
    return D


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
    for rule in model.rules:
        if len(rule.rhs_word) > 2:
            raise ModelError("stateful DP expects right-hand sides of length <= 2")
    system = CompiledSystem(model)
    mass = _pda_masses(system, n_max)
    if triple is None:
        return {t: DistTable(subject=t, mass=row, n_max=n_max, norm=None)
                for t, row in zip(system.triples, mass)}
    i = system.index.get(triple)
    row = mass[i].copy() if i is not None else np.zeros(n_max + 1)
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


def _compile_rules(model: Pda):
    """Per-(state, symbol) outcome rows as (cumulative, next state, reversed push)."""
    rows: dict[tuple[int, int], list[tuple[float, int, tuple[int, ...]]]] = {}
    sidx, aidx = model.state_index, model.symbol_index
    for (p, X), rules in model.rules_by_pair.items():
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
    key = ((seed & (2**64 - 1)) << 64) | index
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


# ---------------------------------------------------------------------------
# CSV export

def dist_csv(table: DistTable) -> str:
    """Rows n, mass, cumulative, tail; triples get a conditional tail column."""
    conditional = isinstance(table.subject, Triple)
    header = "n,mass,cumulative,tail"
    if conditional:
        header += ",cond_tail"
    lines = [header]
    running = 0.0
    for n in range(table.n_max + 1):
        gap = (table.norm - running) if table.norm is not None else float("nan")
        gap = max(gap, 0.0)
        running += float(table.mass[n])
        cells = [str(n), repr(float(table.mass[n])), repr(running), repr(gap)]
        if conditional:
            cells.append(repr(gap / table.norm if table.norm else 0.0))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dist_json(table: DistTable) -> str:
    payload = {
        "subject": str(table.subject),
        "n_max": table.n_max,
        "norm": table.norm,
        "mass": [float(x) for x in table.mass],
    }
    if table.norm is not None:
        payload["residual_mass"] = table.residual_mass
    return json.dumps(payload) + "\n"


def sample_json(stats: SampleStats) -> str:
    payload = {
        "samples": stats.samples,
        "seed": stats.seed,
        "step_cap": stats.step_cap,
        "censored": stats.censored,
        "outcomes": {
            state: {str(n): c for n, c in sorted(counter.items())}
            for state, counter in sorted(stats.outcomes.items())
        },
    }
    return json.dumps(payload) + "\n"


def sample_csv(stats: SampleStats) -> str:
    """Empirical mass/tail rows up to the largest observed termination time."""
    merged = Counter()
    for counter in stats.outcomes.values():
        merged.update(counter)
    top = max(merged, default=1)
    lines = ["n,count,mass,cumulative,tail,stderr"]
    running = 0
    for n in range(1, top + 1):
        still = stats.samples - running
        count = merged.get(n, 0)
        running += count
        p = still / stats.samples
        se = sqrt(p * (1.0 - p) / stats.samples)
        lines.append(
            ",".join(
                (str(n), str(count), repr(count / stats.samples),
                 repr(running / stats.samples), repr(p), repr(se))
            )
        )
    return "\n".join(lines) + "\n"
