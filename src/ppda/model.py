"""Core data model for probabilistic pushdown automata.

A model is a finite set of control states, a finite stack alphabet, and
probabilistic rewrite rules ``p X -> q alpha`` with exact rational
probabilities.  Stateless models ("bpa") carry a single synthetic control
state; "relaxed-bpa" additionally permits right-hand sides longer than two
symbols.  Probabilities are exact rationals, or doubles in the transform's
models.  Every model holds its rules as index and double arrays
(``Pda.rule_arrays``): the parser, ``make_bpa`` and the transform build a
model from them (``Pda.from_arrays``), and ``validate``, the start check,
the numeric modules and the writer read them.  A ``Rule`` is made only
where a caller reads ``Pda.rules``.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from operator import floordiv, truediv
from typing import Iterable, TextIO

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

# Rule lines or CSV rows that a text writer formats and writes at a time.
CHUNK_ROWS = 1024


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
    if name.split() != [name]:  # empty, or holds whitespace
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


def _triples(model: Pda, mask: np.ndarray) -> list[Triple]:
    """The ``Triple`` of every true entry of ``mask``, in index order: pXq of
    a [p, X, q] mask, pX up of a [p, X] one.  Triples are made only where
    their names are printed or returned; the numeric steps index arrays."""
    states, alphabet = model.states, model.alphabet
    return [Triple(states[p], alphabet[x], states[q[0]] if q else None)
            for p, x, *q in np.argwhere(mask).tolist()]


@dataclass(frozen=True)
class Pda:
    """A probabilistic pushdown automaton.

    Construction checks only the kind and that no name repeats;
    ``validate``, which ``parse_model`` runs, checks the rest.  Immutable
    after construction.  The name indices, the rules as arrays
    (``rule_arrays``), the may-terminate array, the compiled termination
    system and, for stateless models, the moment matrix with its dependence
    and per-SCC reductions are each built once, lazily, and the value is
    safe to share across threads.  The library builds every model from its
    ``rule_arrays`` (``from_arrays``), and ``rules`` is decoded on first
    read.  A model given ``Rule``s, by this constructor or by
    ``dataclasses.replace``, looks their names up as the parser does on
    first read of ``rule_arrays``.
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
    def from_arrays(cls, states: tuple[str, ...], alphabet: tuple[str, ...],
                    arrays: RuleArrays, kind: str, start: Configuration | None = None) -> Pda:
        """The model over ``states`` and ``alphabet`` whose ``rule_arrays`` are ``arrays``."""
        model = cls.__new__(cls)
        model.__dict__.update(states=states, alphabet=alphabet, kind=kind, start=start,
                              rule_arrays=arrays)
        model.__post_init__()
        return model

    def __getattr__(self, name: str):
        # only a model built by from_arrays lacks its rules, until they are read
        if name != "rules":
            raise AttributeError(f"'Pda' object has no attribute {name!r}")
        arrays, states, names = self.rule_arrays, self.states, self.alphabet
        self.__dict__["rules"] = tuple(
            Rule(states[lhs_state], names[lhs], states[rhs_state],
                 tuple([names[s] for s in word[:length]]), Fraction(prob))
            for lhs_state, lhs, rhs_state, word, length, prob in zip(
                arrays.lhs_state.tolist(), arrays.lhs_symbol.tolist(),
                arrays.rhs_state.tolist(), arrays.words.tolist(), arrays.length.tolist(),
                arrays.exact))
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
        arrays, states, symbols = _encoded(self)
        if len(states) > len(self.states) or len(symbols) > len(self.alphabet) + 1:
            raise ModelError("; ".join(validate(self)))
        return arrays

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
    to a double, and ``exact``, the probability itself: ``Rationals`` for a
    parsed model, the numbers given to ``make_bpa`` or in ``Rule``s, and
    ``prob`` for the transform's models.  Read-only, with no reference to
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


class Rationals(Sequence):
    """Rationals ``nums[i]/dens[i]`` as integer pairs, not always in lowest
    terms; item i is read as its ``Fraction``, made then."""

    __slots__ = ("nums", "dens")

    def __init__(self, nums: list[int], dens: list[int]):
        self.nums, self.dens = nums, dens

    @classmethod
    def of(cls, values: Sequence) -> Rationals:
        """The exact values of numbers such as ``Fraction``s, ints or doubles."""
        pairs = [value.as_integer_ratio() for value in values]
        return cls([num for num, _ in pairs], [den for _, den in pairs])

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i) -> Fraction:
        return Fraction(self.nums[i], self.dens[i])


def _word_columns(words: Sequence) -> list[tuple]:
    """The words by position, None where a word has ended."""
    return list(zip_longest(*words))


def _encode(states, alphabet, lhs_state, lhs_symbol, rhs_state, word_columns, exact):
    """Rule arrays from columns of names, looked up by dict, and the exact
    probabilities: the one path from names to indices.  A state column of
    None puts every rule in state 0; a word column holds None past the
    word.  A name not in ``states`` or ``alphabet`` gets the next index past
    them (past the padding index |alphabet| for symbols) so that
    ``validate`` can name it: returns the arrays with the names of their
    state and symbol indices."""
    state_table = {name: i for i, name in enumerate(states)}
    symbol_table = {**{name: i for i, name in enumerate(alphabet)}, None: len(alphabet)}
    n, ng = len(exact), len(alphabet)

    def indices(table: dict, names) -> np.ndarray:
        if names is None:
            return np.zeros(n, dtype=np.intp)
        try:
            return np.fromiter(map(table.__getitem__, names), dtype=np.intp, count=n)
        except KeyError:
            return np.array([table.setdefault(name, len(table)) for name in names], np.intp)

    words = np.full((n, max(2, len(word_columns))), ng, dtype=np.intp)
    for j, column in enumerate(word_columns):
        words[:, j] = indices(symbol_table, column)
    # int / int rounds the rational correctly, so prob[i] is float(Fraction(exact[i]))
    prob = (list(map(truediv, exact.nums, exact.dens)) if isinstance(exact, Rationals)
            else [float(p) for p in exact])
    arrays = RuleArrays(indices(state_table, lhs_state), indices(symbol_table, lhs_symbol),
                        indices(state_table, rhs_state), np.count_nonzero(words != ng, axis=1),
                        words, np.array(prob, dtype=float), exact)
    return arrays, list(state_table), list(symbol_table)


def _encoded(model: Pda):
    """``_encode`` of ``model``: its ``rule_arrays`` once they exist, else
    its ``Rule``s, which may name states and symbols it lacks."""
    if "rule_arrays" in model.__dict__:
        return model.rule_arrays, model.states, model.alphabet + (None,)
    rules = model.rules
    return _encode(model.states, model.alphabet, [r.lhs_state for r in rules],
                   [r.lhs_symbol for r in rules], [r.rhs_state for r in rules],
                   _word_columns([r.rhs_word for r in rules]), tuple(r.prob for r in rules))


def make_bpa(rules: Iterable[tuple[Sequence[str], Fraction | float | int | str]],
             alphabet: Sequence[str] | None = None,
             start: str | None = None,
             relaxed: bool = False) -> Pda:
    """Convenience constructor for stateless models from (rhs_word, prob) pairs.

    ``rules`` maps each left-hand symbol via the first element of the word
    key: pass tuples ``((lhs, *rhs), prob)``.
    """
    rules = [(word, Fraction(prob)) for word, prob in rules]
    for _, prob in rules:
        if not 0 < prob <= 1:
            raise ModelError(f"rule probability {prob} outside (0, 1]")
    seen = set(alphabet or ())
    symbols = (*(alphabet or ()), *dict.fromkeys(sym for word, _ in rules for sym in word
                                                 if sym not in seen))
    words = [tuple(word[1:]) for word, _ in rules]
    kind = "relaxed-bpa" if relaxed or any(len(word) > 2 for word in words) else "bpa"
    arrays, *_ = _encode((BPA_STATE,), symbols, None, [word[0] for word, _ in rules], None,
                         _word_columns(words), tuple(prob for _, prob in rules))
    return Pda.from_arrays((BPA_STATE,), symbols, arrays, kind,
                           Configuration(BPA_STATE, (start,)) if start else None)


# ---------------------------------------------------------------------------
# validation

def validate(model: Pda, start: Configuration | None = None) -> list[str]:
    """Return a list of invariant violations (empty iff the model is valid).

    With a ``start`` configuration, a model with no other violation is also
    checked for pairs (state, symbol) that are reachable from it but have
    no rule; pairs without rules are legal only while unreachable.
    """
    return _validate(model, _encoded(model), start)


def _validate(model: Pda, encoded, start: Configuration | None = None) -> list[str]:
    violations: list[str] = []
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

    violations.extend(_rule_problems(model, *encoded))

    if model.start is not None:
        violations.extend(_check_configuration(model, model.start))
    if start is not None and not violations:  # the walk needs known names
        violations.extend(start_problems(model, start))
    return violations


def _rule_problems(model: Pda, arrays: RuleArrays, states: list, symbols: list) -> list[str]:
    """The problems of each rule in rule order (unknown states, unknown
    symbols, a word too long for the kind, a repeat of an earlier rule),
    then each row that misses 1, in the order of its first rule."""
    nq, ng = len(model.states), len(model.alphabet)
    lhs_state, lhs, rhs_state = arrays.lhs_state, arrays.lhs_symbol, arrays.rhs_state
    length, words = arrays.length, arrays.words
    too_long = (length > 2) & (model.kind in ("pda", "bpa"))
    # by pair, then by right-hand side, stably: a repeat follows its first copy
    order = np.lexsort((*words.T[::-1], rhs_state, lhs, lhs_state))
    keys = np.column_stack((lhs_state, lhs, rhs_state, words))[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:][(keys[1:] == keys[:-1]).all(axis=1)]] = True

    violations = []
    flagged = (lhs_state >= nq) | (rhs_state >= nq) | (lhs > ng) | (words > ng).any(axis=1)
    for i in np.flatnonzero(flagged | too_long | repeat).tolist():
        word = words[i, :length[i]].tolist()
        where = "rule '{}'".format(Rule(states[lhs_state[i]], symbols[lhs[i]],
                                        states[rhs_state[i]], tuple(symbols[s] for s in word),
                                        arrays.exact[i]))
        violations += [f"{where}: unknown state {states[s]!r}"
                       for s in (lhs_state[i], rhs_state[i]) if s >= nq]
        violations += [f"{where}: unknown symbol {symbols[s]!r}"
                       for s in (lhs[i], *word) if s > ng]
        if too_long[i]:
            violations.append(f"{where}: right-hand side longer than 2 under kind {model.kind}")
        if repeat[i]:
            violations.append(f"{where}: duplicate rule")

    # each row's sum, exactly: integer numerators over the row's common denominator
    exact = arrays.exact if isinstance(arrays.exact, Rationals) else Rationals.of(arrays.exact)
    nums, dens, rows, missed = exact.nums, exact.dens, order.tolist(), []
    starts = (np.flatnonzero((keys[1:, :2] != keys[:-1, :2]).any(axis=1)) + 1).tolist()
    for begin, end in zip([0, *starts] if rows else [], [*starts, len(rows)]):
        row = rows[begin:end]
        den = lcm(*[dens[i] for i in row])
        total = sum([nums[i] * (den // dens[i]) for i in row])
        if abs(total - den) * ROW_SUM_TOL.denominator > den * ROW_SUM_TOL.numerator:
            missed.append((min(row), Fraction(total, den)))
    return violations + [f"row ({states[lhs_state[i]]}, {symbols[lhs[i]]}): "
                         f"probabilities sum to {total}, not 1" for i, total in sorted(missed)]


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
    # the edges sorted by source (CSR): the walk reads each node's once
    src = np.concatenate(src)
    ends = np.cumsum(np.bincount(src, minlength=node + 1)).tolist()
    dst = np.concatenate(dst)[np.argsort(src, kind="stable")].tolist()
    reached = [False] * node + [True]
    todo = [node]
    while todo:
        c = todo.pop()
        for d in dst[ends[c - 1] if c else 0:ends[c]]:
            if not reached[d]:
                reached[d] = True
                todo.append(d)
    reached = np.array(reached)
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
    names, rule rows not summing to 1, or duplicate rules.  Each rule line
    becomes a row of names and an integer pair (``_parse_rule``); once all
    are read, the rows become columns and their names are looked up by dict.
    """
    kind, given = None, {}
    rows: list[tuple] = []  # per rule, the row that _parse_rule gives
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
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
            rows.append(_parse_rule(body, kind, lineno))
        elif directive not in ("states", "alphabet", "start"):
            raise ModelError(f"unknown directive {directive!r}", lineno)
        elif directive == "states" and kind != "pda":
            raise ModelError("'states:' applies to pda models only", lineno)
        elif directive in given:
            raise ModelError(f"repeated '{directive}:' line", lineno)
        else:
            what = {"states": "state", "alphabet": "symbol"}.get(directive)
            given[directive] = (lineno, [_parse_token(tok, what, lineno) if what else tok
                                         for tok in body.split()])

    if kind is None:
        raise ModelError("empty model: missing kind line")
    if kind == "pda" and "states" not in given:
        raise ModelError("pda model missing 'states:' line")
    if "alphabet" not in given:
        raise ModelError("missing 'alphabet:' line")
    start = None
    if "start" in given:
        lineno, tokens = given["start"]
        if kind != "pda":
            start = Configuration(BPA_STATE, tuple(tokens))
        elif not tokens:
            raise ModelError("empty start configuration", lineno)
        else:
            start = Configuration(tokens[0], tuple(tokens[1:]))

    states = tuple(given["states"][1]) if kind == "pda" else (BPA_STATE,)
    alphabet = tuple(given["alphabet"][1])
    # the word columns hold None past each word
    lhs_state, lhs, rhs_state, nums, dens, *words = list(zip_longest(*rows)) or [()] * 5
    if kind != "pda":
        lhs_state = rhs_state = None  # every rule in the one state
    encoded = _encode(states, alphabet, lhs_state, lhs, rhs_state, words, Rationals(nums, dens))
    model = Pda.from_arrays(states, alphabet, encoded[0], kind, start)
    problems = _validate(model, encoded)
    if problems:
        raise ModelError("; ".join(problems))
    return model


def _parse_token(tok: str, what: str, lineno: int) -> str:
    try:
        return _check_token(tok, what)
    except ModelError as exc:
        raise ModelError(str(exc), lineno) from None


def _parse_rule(body: str, kind: str, lineno: int) -> tuple:
    """A rule line after its ``rule:`` as a row: its left state and
    symbol, its right state, its probability as an integer pair, then the
    symbols of its word.  The states are None in a stateless model.  A
    probability ``a`` or ``a/b`` in ASCII digits is kept as written; any
    other text is read by ``Fraction``."""
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
        (state, symbol), (rhs_state, *word) = lhs, rhs
    else:
        if len(lhs) != 1:
            raise ModelError(f"expected one symbol before '->', got {head.strip()!r}", lineno)
        state, (symbol,), rhs_state, word = None, lhs, None, rhs
    if kind != "relaxed-bpa" and len(word) > 2:
        raise ModelError(f"right-hand side longer than 2 under kind {kind}", lineno)
    prob_text = prob_text.strip()
    num, slash, den = prob_text.partition("/")
    try:
        if prob_text.isascii() and num.isdigit() and (den.isdigit() or not slash):
            num, den = int(num), int(den or 1)
            if 0 < num <= den:
                return (state, symbol, rhs_state, num, den, *word)
            prob = Fraction(num, den)  # to name below, or a zero denominator
        else:
            prob = Fraction(prob_text)
            # a value such as 1E-5000 that str() cannot write back, past the
            # interpreter's limit on integer digits, is as bad as a digit
            # string past that limit, which int() and Fraction() reject
            str(prob)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"bad probability {prob_text!r}", lineno) from None
    if not (0 < prob <= 1):
        raise ModelError(f"probability {prob} outside (0, 1]", lineno)
    return (state, symbol, rhs_state, prob.numerator, prob.denominator, *word)


def _header(model: Pda) -> str:
    """The lines of a model's text before its rules."""
    lines = [model.kind]
    if model.kind == "pda":
        lines.append("states: " + " ".join(model.states))
    lines.append("alphabet: " + " ".join(model.alphabet))
    if model.start is not None:
        stack = model.start.stack
        lines.append("start: " + " ".join((model.start.state, *stack) if model.kind == "pda"
                                          else stack))
    return "\n".join(lines) + "\n"


def serialize(model: Pda, out: TextIO | None = None) -> str | None:
    """Render a model in the text format; parse_model(serialize(m)) == m.

    With ``out``, the text is written to it ``CHUNK_ROWS`` rule lines at a
    time and is never held whole; without, it is returned.  The rule lines
    are read from ``model.rule_arrays``, so a model built from arrays makes
    no ``Rule``.  Each probability p is written as the fraction it equals,
    n/d in lowest terms, or n when d is 1: str(p) for a ``Fraction``,
    str(Fraction(p)) for a double.
    """
    sink = io.StringIO() if out is None else out
    pda = model.kind == "pda"
    sink.write(_header(model))
    arrays = model.rule_arrays
    names = np.array(model.alphabet + ("",), dtype=object)  # padding is no symbol
    states = np.array(model.states, dtype=object)
    powers: dict[int, str] = {}  # "/2^k" by k, shared by the chunks
    exact = (arrays.exact if isinstance(arrays.exact, (np.ndarray, Rationals))
             else Rationals.of(arrays.exact))

    def write_chunk(rows: slice) -> None:
        # A line's right-hand side is its first name (the state of a pda,
        # the first symbol or "" of a bpa) and ``rest`` more names, in one
        # of three forms; a relaxed word's fourth symbol on is joined to
        # its third.  A call of its own, so that a chunk's arrays and lists
        # are gone before the next chunk's are made.  The probabilities
        # come first, so that their arrays are gone before the names' are
        # made, and the lines read the names' object arrays with no list.
        if isinstance(exact, np.ndarray):
            nums, dens = _binary_fractions(exact[rows], powers)
        else:  # integer pairs, reduced by their gcd: no Fraction per rule
            nums, dens = exact.nums[rows], exact.dens[rows]
            common = list(map(gcd, nums, dens))
            nums = list(map(floordiv, nums, common))
            dens = [f"/{den // c}" if den != c else "" for den, c in zip(dens, common)]
        lhs = names[arrays.lhs_symbol[rows]]
        columns = [names[column] for column in arrays.words[rows].T]
        if pda:
            lhs = states[arrays.lhs_state[rows]] + " " + lhs
            columns.insert(0, states[arrays.rhs_state[rows]])
        rest = arrays.length[rows] - (not pda)
        while len(columns) > 3:
            last = columns.pop()
            more = rest >= len(columns)  # the rows whose word reaches the last column
            columns[-1][more] = columns[-1][more] + " " + last[more]
        rest = rest.tolist()
        sink.writelines(f"rule: {l} -> {h} {a} {b} : {n}{d}\n" if r > 1 else
                        f"rule: {l} -> {h} {a} : {n}{d}\n" if r == 1 else
                        f"rule: {l} -> {h} : {n}{d}\n"
                        for l, h, a, b, r, n, d in zip(lhs, columns[0], columns[1], columns[-1],
                                                       rest, nums, dens))

    for lo in range(0, len(arrays.prob), CHUNK_ROWS):
        write_chunk(slice(lo, lo + CHUNK_ROWS))
    return sink.getvalue() if out is None else None


def _binary_fractions(probs: np.ndarray, powers: dict[int, str]) -> tuple[list, list]:
    """Doubles p in (0, 1] as n/2^k in lowest terms: the n, and "/2^k", or
    "" for k = 0, each text made once into ``powers``."""
    mant, exp = np.frexp(probs)  # p = mant 2^exp with 1/2 <= mant < 1
    num = np.ldexp(mant, 53).astype(np.int64)  # p = num / 2^(53 - exp), exactly
    shift = np.frexp(num & -num)[1] - 1  # the trailing zero bits of num, as 2^t = 1/2 2^(t + 1)
    ks = (53 - exp - shift).tolist()
    for k in set(ks).difference(powers):
        powers[k] = f"/{1 << k}" if k else ""
    return (num >> shift).tolist(), list(map(powers.__getitem__, ks))
