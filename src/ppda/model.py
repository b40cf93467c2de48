"""Core data model for probabilistic pushdown automata.

A model is a finite set of control states, a finite stack alphabet, and
probabilistic rewrite rules ``p X -> q alpha`` with exact rational
probabilities.  Stateless models ("bpa") carry a single synthetic control
state; "relaxed-bpa" additionally permits right-hand sides longer than two
symbols.  Probabilities are exact rationals, or doubles in a stateless model
built over arrays (``Pda.from_arrays``).  Past the parse and ``validate``,
no step reads a ``Rule``: the start check, the numeric modules, the
transform and the writer read the rules as index and double arrays
(``Pda.rule_arrays``), built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Rule",
    "Configuration",
    "Triple",
    "Pda",
    "RuleArrays",
    "ModelError",
    "BPA_STATE",
    "ROW_SUM_TOL",
    "make_bpa",
    "parse_model",
    "serialize",
    "validate",
    "start_problems",
]

# Synthetic control state used by stateless models.
BPA_STATE = "_"

KINDS = ("pda", "bpa", "relaxed-bpa")

# Row sums are checked in exact rational arithmetic; the tolerance only
# admits files whose probabilities were serialized from floats.
ROW_SUM_TOL = Fraction(1, 10**9)

_RESERVED = ("->", ":", "#")


class ModelError(ValueError):
    """Raised on malformed model text or inconsistent model data."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


def _check_token(name: str, what: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise ModelError(f"invalid {what} token {name!r}")
    for res in _RESERVED:
        if res in name:
            raise ModelError(f"{what} token {name!r} contains reserved {res!r}")
    return name


@dataclass(frozen=True)
class Rule:
    """One rewrite rule ``lhs_state lhs_symbol -> rhs_state rhs_word`` with probability."""

    lhs_state: str
    lhs_symbol: str
    rhs_state: str
    rhs_word: tuple[str, ...]
    prob: Fraction

    def __post_init__(self):
        if not (0 < self.prob <= 1):
            raise ModelError(f"rule probability {self.prob} outside (0, 1]")

    def __str__(self) -> str:
        rhs = " ".join((self.rhs_state, *self.rhs_word)).rstrip()
        return f"{self.lhs_state} {self.lhs_symbol} -> {rhs} : {self.prob}"


@dataclass(frozen=True)
class Configuration:
    """Control state plus stack word, top of stack first.  Empty stack is absorbing."""

    state: str
    stack: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.stack

    def __str__(self) -> str:
        return f"{self.state} {' '.join(self.stack)}" if self.stack else f"{self.state} <empty>"


@dataclass(frozen=True)
class Triple:
    """Index ``p X q`` for runs from pX that empty the stack in state q.

    ``target=None`` marks the complementary event: the stack is never emptied.
    """

    state: str
    symbol: str
    target: str | None

    @property
    def diverging(self) -> bool:
        return self.target is None

    def __str__(self) -> str:
        tgt = "up" if self.target is None else self.target
        return f"{self.state}.{self.symbol}.{tgt}"


@dataclass(frozen=True)
class Pda:
    """A probabilistic pushdown automaton.

    Construction checks only the kind and that no name repeats;
    ``validate``, which ``parse_model`` runs, checks the rest.  Immutable
    after construction.  The name indices, the rules as arrays
    (``rule_arrays``), the may-terminate array, the compiled termination
    system and, for stateless models, the moment matrix with its dependence
    and per-SCC reductions are each built once, lazily, and the value is
    safe to share across threads.  A model built by ``from_arrays`` starts
    from its ``rule_arrays`` instead and decodes ``rules`` on first read.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    rules: tuple[Rule, ...]
    kind: str = "pda"
    start: Configuration | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate control state")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ModelError("duplicate stack symbol")

    @classmethod
    def from_arrays(cls, alphabet: tuple[str, ...], arrays: RuleArrays,
                    start: Configuration | None) -> Pda:
        """The stateless model over ``alphabet`` whose ``rule_arrays`` are ``arrays``."""
        model = cls.__new__(cls)
        model.__dict__.update(states=(BPA_STATE,), alphabet=alphabet, kind="bpa",
                              start=start, rule_arrays=arrays)
        model.__post_init__()
        return model

    def __getattr__(self, name: str):
        # only a model built by from_arrays lacks its rules, until they are read
        if name != "rules":
            raise AttributeError(f"'Pda' object has no attribute {name!r}")
        arrays, names = self.rule_arrays, self.alphabet
        self.__dict__["rules"] = tuple(
            Rule(BPA_STATE, names[lhs], BPA_STATE, tuple([names[s] for s in word[:length]]),
                 Fraction(prob))
            for lhs, word, length, prob in zip(arrays.lhs_symbol.tolist(), arrays.words.tolist(),
                                               arrays.length.tolist(), arrays.prob.tolist()))
        return self.rules

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    @cached_property
    def rule_arrays(self) -> RuleArrays:
        """``RuleArrays`` of this model, built once: every numeric module reads
        the rules through it."""
        return RuleArrays.of(self)

    @cached_property
    def terminating_triples(self):
        """``termination.may_terminate`` of this model, a boolean array computed
        once: validation, the solve and the analysis each need it."""
        from .termination import may_terminate

        return may_terminate(self)

    @cached_property
    def compiled(self):
        """``termination.CompiledSystem`` of this model, built once for the solve,
        ``to_bpa`` and the stateful DP; it holds no reference to the model."""
        from .termination import CompiledSystem

        return CompiledSystem(self)

    @cached_property
    def moments(self):
        """``moments.moment_matrix`` of this stateless model, computed once: the
        certainty snap of the solve, the classification and the report all
        read its dependence, certain symbols and expectations.  It holds no
        reference to the model."""
        from .moments import moment_matrix

        return moment_matrix(self)

    @property
    def stateless(self) -> bool:
        return self.kind in ("bpa", "relaxed-bpa")

    @property
    def only_state(self) -> str:
        if not self.stateless:
            raise ModelError("only stateless models have a unique control state")
        return self.states[0]


@dataclass(frozen=True, eq=False)
class RuleArrays:
    """The rules of a model as arrays, in rule order.

    Per rule: ``lhs_state``, ``lhs_symbol`` and ``rhs_state`` as indices,
    the word ``length``, the word in ``words`` as symbol indices padded with
    |alphabet| to at least two columns, ``prob``, the probability rounded
    to a double, and ``exact``, the probability itself: a ``Fraction``, or
    ``prob`` for a model built from arrays.  Read-only, with no reference to
    the model.
    """

    lhs_state: np.ndarray
    lhs_symbol: np.ndarray
    rhs_state: np.ndarray
    length: np.ndarray
    words: np.ndarray
    prob: np.ndarray
    exact: Sequence

    def __post_init__(self):
        for array in (self.lhs_state, self.lhs_symbol, self.rhs_state, self.length,
                      self.words, self.prob):
            array.flags.writeable = False  # shared by every reader of the model

    @classmethod
    def of(cls, model: Pda) -> RuleArrays:
        """The arrays of the ``Rule``s of ``model``."""
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
        return cls(*table[:, :4].T, words=table[:, 4:],
                   prob=np.array([float(p) for p in exact], dtype=float), exact=exact)


def make_bpa(rules: Iterable[tuple[Sequence[str], Fraction | float | int | str]],
             alphabet: Sequence[str] | None = None,
             start: str | None = None,
             relaxed: bool = False) -> Pda:
    """Convenience constructor for stateless models from (rhs_word, prob) pairs.

    ``rules`` maps each left-hand symbol via the first element of the word
    key: pass tuples ``((lhs, *rhs), prob)``.
    """
    built = []
    symbols: list[str] = list(alphabet) if alphabet else []
    seen = set(symbols)
    for word, prob in rules:
        lhs, *rhs = word
        for sym in (lhs, *rhs):
            if sym not in seen:
                seen.add(sym)
                symbols.append(sym)
        built.append(Rule(BPA_STATE, lhs, BPA_STATE, tuple(rhs), Fraction(prob)))
    kind = "relaxed-bpa" if relaxed or any(len(r.rhs_word) > 2 for r in built) else "bpa"
    cfg = Configuration(BPA_STATE, (start,)) if start else None
    return Pda((BPA_STATE,), tuple(symbols), tuple(built), kind=kind, start=cfg)


# ---------------------------------------------------------------------------
# validation

def validate(model: Pda, start: Configuration | None = None) -> list[str]:
    """Return a list of invariant violations (empty iff the model is valid).

    With a ``start`` configuration, a model with no other violation is also
    checked for pairs (state, symbol) that are reachable from it but have
    no rule; pairs without rules are legal only while unreachable.
    """
    violations: list[str] = []
    states = set(model.states)
    alphabet = set(model.alphabet)

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
    seen_rules: set[tuple[str, str, str, tuple[str, ...]]] = set()
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
            violations.append(f"{where}: right-hand side longer than {max_rhs} under kind {model.kind}")
        key = (rule.lhs_state, rule.lhs_symbol, rule.rhs_state, rule.rhs_word)
        if key in seen_rules:
            violations.append(f"{where}: duplicate rule")
        seen_rules.add(key)
        totals[key[:2]] = totals.get(key[:2], Fraction(0)) + rule.prob  # by pair

    for (state, symbol), total in totals.items():
        if abs(total - 1) > ROW_SUM_TOL:
            violations.append(f"row ({state}, {symbol}): probabilities sum to {total}, not 1")

    if model.start is not None:
        violations.extend(_check_configuration(model, model.start))
    if start is not None and not violations:  # the walk needs known names
        violations.extend(start_problems(model, start))
    return violations


def start_problems(model: Pda, start: Configuration) -> list[str]:
    """Unknown names in ``start``, and pairs reachable from it without rules."""
    return _check_configuration(model, start) or _missing_reachable_rows(model, start)


def _check_configuration(model: Pda, cfg: Configuration) -> list[str]:
    out = []
    if cfg.state not in model.state_index:
        out.append(f"start: unknown state {cfg.state!r}")
    for sym in cfg.stack:
        if sym not in model.symbol_index:
            out.append(f"start: unknown symbol {sym!r}")
    return out


def _missing_reachable_rows(model: Pda, start: Configuration) -> list[str]:
    # Symbol j of a word comes on top in the states its first j symbols may
    # empty into from the word's state (the may-terminate relation): for the
    # start word from the outset, for a rule's once its left-hand pair is
    # reached.  Pair (s, X) is node s |alphabet| + X; the start is one more.
    nq, ng = len(model.states), len(model.alphabet)
    rules, node, eye = model.rule_arrays, nq * ng, np.eye(nq, dtype=bool)
    can = np.concatenate((model.terminating_triples.transpose(1, 0, 2), eye[None]))  # [X, s, q]
    lhs = rules.lhs_state * ng + rules.lhs_symbol
    stack = np.array([[model.symbol_index[sym] for sym in start.stack]], dtype=np.intp)
    src, dst = [], []
    for sources, states, words in ((lhs, rules.rhs_state, rules.words),
                                   (np.array([node]), [model.state_index[start.state]], stack)):
        entry = eye[states]
        for column in words.T:  # the padding symbol ng keeps every state
            rows, on_top = np.nonzero(entry & (column < ng)[:, None])
            src.append(sources[rows])
            dst.append(on_top * ng + column[rows])
            entry = (entry[:, :, None] & can[column]).any(axis=1)
    src, dst = np.concatenate(src), np.concatenate(dst)
    reached = np.zeros(node + 1, dtype=bool)
    frontier = np.arange(node + 1) == node
    while frontier.any():
        reached |= frontier
        frontier = (np.bincount(dst[frontier[src]], minlength=node + 1) > 0) & ~reached
    reached[lhs] = False  # the pairs with rules
    missing = sorted((model.states[c // ng], model.alphabet[c % ng])
                     for c in np.flatnonzero(reached[:node]).tolist())
    return [f"pair ({state}, {symbol}) reachable from start but has no rules"
            for state, symbol in missing]


# ---------------------------------------------------------------------------
# text format

def parse_model(text: str) -> Pda:
    """Parse the line-oriented model format into a validated Pda.

    Raises ModelError (with line information) on syntax errors, unknown
    names, rule rows not summing to 1, or duplicate rules.
    """
    kind: str | None = None
    states: list[str] = []
    alphabet: list[str] = []
    rules: list[Rule] = []
    start_tokens: list[str] | None = None
    start_line = 0
    states_given = alphabet_given = False

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
        if directive == "states":
            states_given = True
            states = [_parse_token(tok, "state", lineno) for tok in body.split()]
        elif directive == "alphabet":
            alphabet_given = True
            alphabet = [_parse_token(tok, "symbol", lineno) for tok in body.split()]
        elif directive == "start":
            start_tokens = body.split()
            start_line = lineno
        elif directive == "rule":
            rules.append(_parse_rule(body, kind, lineno))
        else:
            raise ModelError(f"unknown directive {directive!r}", lineno)

    if kind is None:
        raise ModelError("empty model: missing kind line")
    if kind != "pda":
        states = [BPA_STATE]
    elif not states_given:
        raise ModelError("pda model missing 'states:' line")
    if not alphabet_given:
        raise ModelError("missing 'alphabet:' line")

    start = None
    if start_tokens is not None:
        if kind == "pda":
            if len(start_tokens) < 1:
                raise ModelError("empty start configuration", start_line)
            start = Configuration(start_tokens[0], tuple(start_tokens[1:]))
        else:
            start = Configuration(BPA_STATE, tuple(start_tokens))

    model = Pda(tuple(states), tuple(alphabet), tuple(rules), kind=kind, start=start)
    problems = validate(model)
    if problems:
        raise ModelError("; ".join(problems))
    return model


def _parse_token(tok: str, what: str, lineno: int) -> str:
    try:
        return _check_token(tok, what)
    except ModelError as exc:
        raise ModelError(str(exc), lineno) from None


def _parse_rule(body: str, kind: str, lineno: int) -> Rule:
    head, arrow, tail = body.partition("->")
    if not arrow:
        raise ModelError("rule missing '->'", lineno)
    rhs_text, colon, prob_text = tail.rpartition(":")
    if not colon:
        raise ModelError("rule missing ': probability'", lineno)
    lhs = head.split()
    rhs = rhs_text.split()
    if kind == "pda":
        if len(lhs) != 2:
            raise ModelError(f"expected 'state symbol' before '->', got {head.strip()!r}", lineno)
        if not rhs:
            raise ModelError("pda rule needs a control state after '->'", lineno)
        lhs_state, lhs_symbol = lhs
        rhs_state, rhs_word = rhs[0], tuple(rhs[1:])
    else:
        if len(lhs) != 1:
            raise ModelError(f"expected one symbol before '->', got {head.strip()!r}", lineno)
        lhs_state, lhs_symbol = BPA_STATE, lhs[0]
        rhs_state, rhs_word = BPA_STATE, tuple(rhs)
    if kind in ("pda", "bpa") and len(rhs_word) > 2:
        raise ModelError(f"right-hand side longer than 2 under kind {kind}", lineno)
    try:
        prob = Fraction(prob_text.strip())
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"bad probability {prob_text.strip()!r}", lineno) from None
    if not (0 < prob <= 1):
        raise ModelError(f"probability {prob} outside (0, 1]", lineno)
    return Rule(lhs_state, lhs_symbol, rhs_state, tuple(rhs_word), prob)


def serialize(model: Pda) -> str:
    """Render a model in the text format; parse_model(serialize(m)) == m.

    The rule lines are written from ``model.rule_arrays``, so a model built
    from arrays makes no ``Rule``.  Each probability p is written as the
    fraction it equals, n/d from p.as_integer_ratio(), or n when d is 1:
    str(p) for a ``Fraction``, str(Fraction(p)) for a double.
    """
    arrays = model.rule_arrays
    names = np.array(model.alphabet + ("",), dtype=object)  # padding is no symbol
    lhs, rhs, first = names[arrays.lhs_symbol], names[arrays.words[:, 0]], 1
    lines = [model.kind]
    if model.kind == "pda":
        states = np.array(model.states, dtype=object)
        lhs, rhs, first = states[arrays.lhs_state] + " " + lhs, states[arrays.rhs_state], 0
        lines.append("states: " + " ".join(model.states))
    for j in range(first, arrays.words.shape[1]):
        more = arrays.length > j
        rhs[more] = rhs[more] + " " + names[arrays.words[more, j]]
    lines.append("alphabet: " + " ".join(model.alphabet))
    if model.start is not None:
        stack = model.start.stack
        lines.append("start: " + " ".join((model.start.state, *stack) if model.kind == "pda"
                                          else stack))
    for lhs_text, rhs_text, prob in zip(lhs.tolist(), rhs.tolist(), arrays.exact):
        num, den = prob.as_integer_ratio()
        lines.append(f"rule: {lhs_text} -> {rhs_text} : {num}/{den}" if den != 1 else
                     f"rule: {lhs_text} -> {rhs_text} : {num}")
    return "\n".join(lines) + "\n"
