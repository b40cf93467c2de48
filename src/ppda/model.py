"""Core data model for probabilistic pushdown automata.

A model is a finite set of control states, a finite stack alphabet, and
probabilistic rewrite rules ``p X -> q alpha`` with exact rational
probabilities.  Stateless models ("bpa") carry a single synthetic control
state; "relaxed-bpa" additionally permits right-hand sides longer than two
symbols.  Probabilities stay exact rationals here; numeric modules convert
to floats at their boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "Rule",
    "Configuration",
    "Triple",
    "Pda",
    "ModelError",
    "BPA_STATE",
    "ROW_SUM_TOL",
    "make_bpa",
    "parse_model",
    "serialize",
    "validate",
    "start_problems",
    "step_distribution",
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
    """A validated-on-construction probabilistic pushdown automaton.

    Immutable after construction.  Rule lookup tables, the may-terminate
    triples and, for stateless models, the moment matrix with its dependence
    are cached lazily, and the value is safe to share across threads.
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

    @cached_property
    def rules_by_pair(self) -> dict[tuple[str, str], tuple[Rule, ...]]:
        table: dict[tuple[str, str], list[Rule]] = {}
        for rule in self.rules:
            table.setdefault((rule.lhs_state, rule.lhs_symbol), []).append(rule)
        return {pair: tuple(rs) for pair, rs in table.items()}

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    @cached_property
    def terminating_triples(self) -> frozenset[Triple]:
        """``termination.may_terminate`` of this model, computed once:
        validation, the solve and the analysis each need it."""
        from .termination import may_terminate

        return may_terminate(self)

    @cached_property
    def moments(self):
        """``moments.moment_matrix`` of this stateless model, computed once: the
        certainty snap of the solve and the classification both read it."""
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

    def rules_for(self, state: str, symbol: str) -> tuple[Rule, ...]:
        return self.rules_by_pair.get((state, symbol), ())

    def p_min(self) -> Fraction:
        return min(rule.prob for rule in self.rules)


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

    With a ``start`` configuration, additionally checks that every (state,
    symbol) pair reachable from it has at least one rule; pairs without
    rules are legal only while unreachable.
    """
    violations: list[str] = []
    states = set(model.states)
    alphabet = set(model.alphabet)

    for name in model.states:
        try:
            _check_token(name, "state")
        except ModelError as exc:
            violations.append(str(exc))
    for name in model.alphabet:
        try:
            _check_token(name, "symbol")
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
    for rule in model.rules:
        where = f"rule '{rule}'"
        if rule.lhs_state not in states:
            violations.append(f"{where}: unknown state {rule.lhs_state!r}")
        if rule.rhs_state not in states:
            violations.append(f"{where}: unknown state {rule.rhs_state!r}")
        for sym in (rule.lhs_symbol, *rule.rhs_word):
            if sym not in alphabet:
                violations.append(f"{where}: unknown symbol {sym!r}")
        if max_rhs is not None and len(rule.rhs_word) > max_rhs:
            violations.append(f"{where}: right-hand side longer than {max_rhs} under kind {model.kind}")
        key = (rule.lhs_state, rule.lhs_symbol, rule.rhs_state, rule.rhs_word)
        if key in seen_rules:
            violations.append(f"{where}: duplicate rule")
        seen_rules.add(key)

    for (state, symbol), rules in model.rules_by_pair.items():
        total = sum((r.prob for r in rules), Fraction(0))
        if abs(total - 1) > ROW_SUM_TOL:
            violations.append(f"row ({state}, {symbol}): probabilities sum to {total}, not 1")

    if model.start is not None:
        violations.extend(_check_configuration(model, model.start))
    if start is not None:
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
    # Pairs (q, Z) exposed by popping are over-approximated through the
    # boolean may-terminate relation on triples.
    can = model.terminating_triples
    reach: set[tuple[str, str]] = set()
    frontier: list[tuple[str, str]] = []

    def visit(state: str, symbol: str):
        if (state, symbol) not in reach:
            reach.add((state, symbol))
            frontier.append((state, symbol))

    if start.stack:
        # A deeper start symbol becomes the top once the prefix above it
        # empties; track the control states those prefixes can empty into.
        entry_states = {start.state}
        for sym in start.stack:
            for q in entry_states:
                visit(q, sym)
            entry_states = {
                q for s in entry_states for q in model.states if Triple(s, sym, q) in can
            }
    while frontier:
        state, symbol = frontier.pop()
        for rule in model.rules_for(state, symbol):
            if len(rule.rhs_word) >= 1:
                visit(rule.rhs_state, rule.rhs_word[0])
            if len(rule.rhs_word) >= 2:
                head = rule.rhs_word[0]
                for below in rule.rhs_word[1:]:
                    for q in model.states:
                        if Triple(rule.rhs_state, head, q) in can:
                            visit(q, below)
                    head = below
    return [
        f"pair ({state}, {symbol}) reachable from start but has no rules"
        for (state, symbol) in sorted(reach)
        if not model.rules_for(state, symbol)
    ]


# ---------------------------------------------------------------------------
# one-step semantics

def step_distribution(model: Pda, cfg: Configuration) -> list[tuple[Configuration, Fraction]]:
    """Distribution over successor configurations of ``cfg``.

    The empty stack is absorbing; otherwise the top symbol is expanded by
    every applicable rule and the stack below the top is untouched.
    """
    if cfg.empty:
        return [(cfg, Fraction(1))]
    top, rest = cfg.stack[0], cfg.stack[1:]
    rules = model.rules_for(cfg.state, top)
    if not rules:
        raise ModelError(f"no rule for pair ({cfg.state}, {top})")
    return [
        (Configuration(rule.rhs_state, rule.rhs_word + rest), rule.prob)
        for rule in rules
    ]


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
    states_given = False

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
    if not alphabet:
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
    """Render a model in the text format; parse_model(serialize(m)) == m."""
    lines = [model.kind]
    if model.kind == "pda":
        lines.append("states: " + " ".join(model.states))
    lines.append("alphabet: " + " ".join(model.alphabet))
    if model.start is not None:
        if model.kind == "pda":
            lines.append("start: " + " ".join((model.start.state, *model.start.stack)))
        else:
            lines.append("start: " + " ".join(model.start.stack))
    for rule in model.rules:
        if model.kind == "pda":
            rhs = " ".join((rule.rhs_state, *rule.rhs_word))
            lines.append(f"rule: {rule.lhs_state} {rule.lhs_symbol} -> {rhs} : {rule.prob}")
        else:
            rhs = " ".join(rule.rhs_word)
            lines.append(f"rule: {rule.lhs_symbol} -> {rhs} : {rule.prob}")
    return "\n".join(lines) + "\n"
