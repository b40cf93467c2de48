"""Command-line front end: analyze, transform, dist, simulate, bounds.

``analyze`` classifies every start through the moment record of the model,
or of the terminating part ``to_bpa`` returns.  ``_emit`` writes all output.

Exit codes, set in ``main`` alone, each failure on one line: 0 success, 2
file/parse/validation problems, bad flag values (an ``--nmax`` past the
DP's byte budget too) and unwritable outputs, 3
numeric failures (non-convergence, a transform row that misses 1, a
threshold beyond a double).  All commands are deterministic given their
flags; JSON reports round floats to 12 significant digits and spell
infinity "inf".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    NotAlmostSurelyTerminating,
    TailReport,
    classify,
    tail_bounds,
    threshold_for_epsilon,
)
from .distribution import (
    DistTable,
    dist_csv,
    exact_distribution_pda,
    exact_distribution_word,
    sample_csv,
    simulate,
    tail,
)
from .model import (
    Configuration,
    ModelError,
    Pda,
    Triple,
    parse_model,
    serialize,
    start_problems,
)
from .moments import PowerIterationError
from .termination import NewtonDivergedError, termination_probs
from .transform import TransformError, to_bpa

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

DP_CURVE_HORIZON = 8192


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _load(path: str) -> Pda:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        model = parse_model(text)
    except ModelError as exc:
        raise CliError(f"{path}: {exc}") from exc
    problems = start_problems(model, model.start) if model.start is not None else []
    if problems:
        raise CliError(f"{path}: " + "; ".join(problems))
    return model


def _parse_start(model: Pda, flag: str | None) -> Configuration:
    if flag is None:
        if model.start is not None:
            return model.start
        raise CliError("model declares no start; pass --start")
    if model.stateless:
        if flag not in model.symbol_index:
            raise CliError(f"unknown start symbol {flag!r}")
        start = Configuration(model.only_state, (flag,))
    else:
        state, dot, symbol = flag.partition(".")
        if not dot:
            raise CliError("stateful starts are written state.symbol")
        if state not in model.state_index or symbol not in model.symbol_index:
            raise CliError(f"unknown start pair {flag!r}")
        start = Configuration(state, (symbol,))
    problems = start_problems(model, start)
    if problems:
        raise CliError(f"--start {flag}: " + "; ".join(problems))
    return start


def _start_symbol(start: Configuration) -> str:
    """The one symbol of ``start``; only simulate and stateless dist take a word."""
    if len(start.stack) != 1:
        raise CliError(f"the start holds {len(start.stack)} symbols, not 1; only simulate "
                       "and dist on a stateless model take a word")
    return start.stack[0]


def _round12(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value != value:  # NaN never belongs in a report
            raise CliError("internal error: NaN in report", EXIT_NUMERIC)
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _report_json(report: dict) -> str:
    return json.dumps(_round12(report), indent=2, sort_keys=False) + "\n"


# the fields a tail report adds, by case, to those every case reports
CASE_FIELDS = {
    1: ("bounded_horizon",),
    2: ("e_start", "e_max", "b_constant", "azuma_threshold"),
    3: ("d1", "d2", "lower_exponent", "n0_caveat"),
}


def _tail_report_dict(rep: TailReport) -> dict:
    fields = ("start", "case", "gamma_size", "p_min", "height", *CASE_FIELDS[rep.case])
    return {name: getattr(rep, name) for name in fields}


def _emit(text: str, path: str | None) -> None:
    """Write a command's output to ``path``, or to stdout when none is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

def cmd_analyze(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise CliError("--tol must be a positive finite number")
    t0 = time.perf_counter()
    model = _load(args.model)
    start = _parse_start(model, args.start)
    symbol = _start_symbol(start)
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    table = termination_probs(model, tol=args.tol)
    t_solve = time.perf_counter() - t0

    report = {
        "tool": {"name": "ppda", "version": __version__},
        "model": {
            "path": args.model,
            "kind": model.kind,
            "states": len(model.states),
            "symbols": len(model.alphabet),
            "rules": len(model.rule_arrays.prob),
        },
        "termination": {
            "residual": table.residual,
            "iterations": table.iterations,
            "qualitative_zero": sorted(str(t) for t in table.qualitative_zero),
            "probs": {
                str(t): v for t, v in sorted(table.probs.items(), key=lambda kv: str(kv[0]))
                if v > 0.0
            },
        },
        "start": {"state": start.state, "symbol": symbol},
    }

    t0 = time.perf_counter()
    if model.stateless:
        analyzed, starts, names = model, [symbol], sorted(model.alphabet)
    else:
        result = to_bpa(model, table)
        analyzed = result.part
        names = analyzed.alphabet  # each the string of its triple
        starts = [name for name in names if result.symbols[name].state == start.state
                  and result.symbols[name].symbol == symbol]
        report["transform"] = {
            "terminating_symbols": list(names),
            "diverging_symbols": list(result.bpa.alphabet[len(names):]),
            "rules": len(result.bpa.rule_arrays.prob),
        }
    report["tails"] = [_tail_report_dict(classify(analyzed, name)) for name in starts]
    moments = analyzed.moments
    exp = moments.expectations
    report["expectations"] = {
        "values": {name: exp[name] for name in names},
        "e_max": exp.e_max,
        "b_constant": exp.b_constant,
        "finite": exp.finite,
    }
    if analyzed.alphabet:
        deps = moments.deps
        report["dependence"] = {
            "sccs": [list(comp) for comp in deps.sccs],
            "height": max(deps.scc_height),
            "scc_dag_edges": [[i, j] for i, js in enumerate(deps.scc_successors) for j in js],
        }
    t_bounds = time.perf_counter() - t0

    report["timings"] = {"parse_s": t_parse, "solve_s": t_solve, "bounds_s": t_bounds}

    _emit(_report_json(report), args.json)
    return EXIT_OK


def cmd_transform(args) -> int:
    model = _load(args.model)
    if model.stateless:
        raise CliError("model is already stateless")
    result = to_bpa(model, termination_probs(model))
    del model  # with its compiled system, before the text is built
    _emit(serialize(result.bpa), args.out)
    return EXIT_OK


def cmd_dist(args) -> int:
    model = _load(args.model)
    start = _parse_start(model, args.start)
    if args.nmax < 1:
        raise CliError("--nmax must be at least 1")
    if model.stateless:
        if args.target is not None:
            raise CliError("--target applies to stateful models only")
        table = exact_distribution_word(model, start.stack, args.nmax)
    elif args.target in (None, "none"):
        # unconditioned: sum the start pair's rows of one all-targets pass;
        # diverging runs stay in the tail, so the table normalizes against 1
        pair = (start.state, _start_symbol(start))
        tables = exact_distribution_pda(model, None, args.nmax)
        mass = sum((t.mass for trip, t in tables.items() if (trip.state, trip.symbol) == pair),
                   np.zeros(args.nmax + 1))
        table = DistTable(subject=".".join(pair), mass=mass, n_max=args.nmax, norm=1.0)
    else:
        if args.target not in model.state_index:
            raise CliError(f"unknown target state {args.target!r}")
        triple = Triple(start.state, _start_symbol(start), args.target)
        # the DP first: a horizon over its byte budget is refused before the solve
        mass = exact_distribution_pda(model, triple, args.nmax).mass
        table = DistTable(subject=triple, mass=mass, n_max=args.nmax,
                          norm=termination_probs(model).probs[triple])
    _emit(dist_csv(table), args.csv)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load(args.model)
    start = _parse_start(model, args.start)
    stats = simulate(model, start, samples=args.samples, step_cap=args.cap, seed=args.seed)
    _emit(sample_csv(stats), args.csv)
    per_state = {q: sum(c.values()) for q, c in sorted(stats.outcomes.items())}
    print(
        f"samples={stats.samples} terminated={stats.terminated} censored={stats.censored} "
        f"by_state={per_state} seed={stats.seed} cap={stats.step_cap}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = _load(args.model)
    start = _parse_start(model, args.start)
    if not model.stateless:
        raise CliError("bound curves are defined on stateless models; transform first")
    symbol = _start_symbol(start)
    try:
        grid = sorted({int(tok) for tok in args.grid.split(",") if tok.strip()})
    except ValueError as exc:
        raise CliError(f"bad --grid: {exc}") from exc
    if not grid or grid[0] < 1:
        raise CliError("--grid needs positive integers")
    if grid[-1] > sys.float_info.max:
        raise CliError("--grid values must not exceed the largest double")
    report = classify(model, symbol)
    try:
        threshold = threshold_for_epsilon(report, args.eps)
    except ValueError as exc:
        raise CliError(f"bad --eps: {exc}") from exc
    except OverflowError as exc:
        raise CliError(f"the threshold for --eps {args.eps} exceeds a double",
                       EXIT_NUMERIC) from exc

    exact = None
    if grid[-1] <= DP_CURVE_HORIZON:
        exact = exact_distribution_word(model, (symbol,), grid[-1])

    lines = ["n,lower,upper,exact"]
    for n in grid:
        low, up = tail_bounds(report, n)
        cells = [str(n), repr(low), repr(up)]
        cells.append(repr(tail(exact, n)) if exact is not None else "")
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.csv)

    caveat = " (valid beyond an unknown n0)" if threshold.n0_caveat else ""
    print(f"case={report.case} threshold(eps={args.eps})={threshold.n}{caveat}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process (about 1 ms)."""
    parser = argparse.ArgumentParser(
        prog="ppda", description="termination-time analysis for probabilistic pushdown automata"
    )
    parser.add_argument("--version", action="version", version=f"ppda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: probabilities, transform, tail regimes")
    p.add_argument("model")
    p.add_argument("--start", help="state.symbol for stateful models, symbol otherwise")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="emit the stateless model over triple symbols")
    p.add_argument("model")
    p.add_argument("--out", help="output path (stdout by default)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("dist", help="exact termination-time distribution table")
    p.add_argument("model")
    p.add_argument("--start")
    p.add_argument("--target",
                   help="terminal control state for stateful models, or 'none' "
                        "for the unconditioned law")
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--csv", help="output path (stdout by default)")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("simulate", help="seeded Monte Carlo runs")
    p.add_argument("model")
    p.add_argument("--start")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--csv", help="output path (stdout by default)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="tail-bound curves and the eps threshold")
    p.add_argument("model")
    p.add_argument("--start")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--grid", default="16,64,256,1024")
    p.add_argument("--csv", help="output path (stdout by default)")
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        error, code = exc, exc.code
    except (ModelError, NotAlmostSurelyTerminating) as exc:
        error, code = exc, EXIT_VALIDATION
    except (NewtonDivergedError, PowerIterationError, TransformError) as exc:
        error, code = exc, EXIT_NUMERIC
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
