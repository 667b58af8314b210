"""Command-line front end: spec in, CSV out.

Four subcommands: enumerate (exact tables), analyze (error probabilities
over a delta grid), simulate (Monte Carlo), verify (exhaustive oracle vs
closed form, cell by cell). CSV, or verify's report, goes to --out or
stdout; status chatter goes to stderr so piped output stays parseable.

Exit codes: 0 success, 1 bad input, failed verification or failed
self-check (row sums, coupling), 2 size refusal, 3 I/O failure. A table
build, a Monte Carlo run and an oracle run are each refused before they
start when predicted to take over errors.LIMIT_SECONDS. The oracle predicts
from its multigraph count, bounded below from lgamma first, so a spec of
any size is refused at once; it takes at most 16 items, and counts its
graphs exactly within a fixed budget of about 0.2 s.

enumerate, analyze, --help and --version import no numpy (`Algorithm` lives
in `enumerator`); simulate and verify import montecarlo and oracle on use.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .combinatorics import DEFAULT_DECIMAL_DIGITS, exact_delta, to_decimal
from .ensemble import EnsembleSpec, load_spec, open_output, regular_spec, write_csv
from .enumerator import Algorithm, build_table, fa_probability, md_probability, write_table_csv
from .errors import SizeLimitError, ValidationError

__all__ = ["build_parser", "main"]

# Most points a start:stop:step delta grid may expand to.
_GRID_LIMIT = 10_000
# Most decimal digits --precision may ask for; every value written carries that many.
_PRECISION_LIMIT = 10_000


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not an exact rational: {text!r}") from exc


def _parse_delta_grid(text: str) -> list[Fraction]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_fraction(p) for p in parts)
        if step <= 0:
            raise ValidationError("grid step must be positive")
        if start > stop:
            raise ValidationError("grid start must not exceed stop")
        den = math.lcm(start.denominator, stop.denominator, step.denominator)
        first, last, stride = (den // x.denominator * x.numerator for x in (start, stop, step))
        points = range(first, last + 1, stride)
        if len(points) > _GRID_LIMIT:
            raise SizeLimitError(f"delta grid has {len(points)} points, over the limit of {_GRID_LIMIT}")
        return [Fraction(x, den) for x in points]
    return [_fraction(p) for p in text.split(",")]


def _parse_regular(text: str) -> EnsembleSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--regular expects n,l,r, got {text!r}")
    try:
        n, l, r = (int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--regular expects integers, got {text!r}") from exc
    return regular_spec(n, l, r)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolgraph",
        description="Exact and sampled group-testing error rates over pooling-graph ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"poolgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("enumerate", "write the exact pattern-count table as CSV"),
        ("analyze", "evaluate exact error probabilities over a delta grid"),
        ("simulate", "Monte Carlo estimate of FAR/MDR"),
        ("verify", "compare closed-form tables against the exhaustive oracle"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        group = cmd.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", metavar="PATH", help="ensemble spec JSON file")
        group.add_argument("--regular", metavar="N,L,R", help="regular ensemble shorthand")
        cmd.add_argument(
            "--algorithm", choices=[a.value for a in Algorithm], required=True
        )
        cmd.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
        if name != "verify":  # verify prints no decimals
            cmd.add_argument(
                "--precision", type=int, default=DEFAULT_DECIMAL_DIGITS,
                help=f"decimal digits, at most {_PRECISION_LIMIT:,} (default {DEFAULT_DECIMAL_DIGITS})",
            )
        if name in ("analyze", "simulate"):
            delta_group = cmd.add_mutually_exclusive_group(required=True)
            delta_group.add_argument("--delta", metavar="RATIONAL", help="single prevalence")
            delta_group.add_argument(
                "--delta-grid",
                metavar="START:STOP:STEP",
                help=f"inclusive rational grid (at most {_GRID_LIMIT:,} points), or comma-separated list",
            )
        if name == "simulate":
            cmd.add_argument("--graphs", type=int, default=100)
            cmd.add_argument("--patterns", type=int, default=10_000)
            cmd.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
            cmd.add_argument("--workers", type=int, default=1, help="parallel graph workers (default 1)")
            cmd.add_argument(
                "--analytic",
                action="store_true",
                help="fill the analytic column from the exact enumerator",
            )
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The checked command line: --spec/--regular resolved to `spec`, the deltas to `deltas`, a missing --out to stdout."""
    args = build_parser().parse_args(argv)
    args.out = sys.stdout if args.out is None else args.out
    args.spec = load_spec(args.spec) if args.spec else _parse_regular(args.regular)
    if args.command in ("analyze", "simulate"):
        deltas = [_fraction(args.delta)] if args.delta is not None else _parse_delta_grid(args.delta_grid)
        args.deltas = [exact_delta(delta) for delta in deltas]
    args.algorithm = Algorithm(args.algorithm)
    if "precision" in args and args.precision < 1:
        raise ValidationError("precision must be at least 1")
    if "precision" in args and args.precision > _PRECISION_LIMIT:
        raise SizeLimitError(f"precision {args.precision} is over the limit of {_PRECISION_LIMIT} digits")
    return args


def _row_sum_check(table) -> bool:
    """sum_j A_{a,j} = C(n, a) for every a; reports one line on stderr."""
    bad = table.bad_rows
    if bad:
        print(f"row-sum self-check: FAIL at a={bad}", file=sys.stderr)
        return False
    print(f"row-sum self-check: PASS ({table.spec.n + 1} rows)", file=sys.stderr)
    return True


def cmd_enumerate(args: argparse.Namespace) -> int:
    table = build_table(args.spec, args.algorithm)
    write_table_csv(table, args.out, precision=args.precision)
    return 0 if _row_sum_check(table) else 1


def _exact_values(args: argparse.Namespace) -> Optional[list[Fraction]]:
    """The exact FAR (COMP) or MDR (DD) at each of args.deltas; None if a self-check fails."""
    table = build_table(args.spec, args.algorithm)
    if not _row_sum_check(table):
        return None
    falling = table.coupling_violations()
    if falling:
        print(f"coupling self-check: FAIL at a={falling}", file=sys.stderr)
        return None
    prob = fa_probability if args.algorithm is Algorithm.COMP else md_probability
    return [prob(table, delta) for delta in args.deltas]


def cmd_analyze(args: argparse.Namespace) -> int:
    values = _exact_values(args)
    if values is None:
        return 1
    rows = (
        (delta, value.numerator, value.denominator, to_decimal(value, args.precision))
        for delta, value in zip(args.deltas, values)
    )
    write_csv(args.out, args.spec, {"algorithm": args.algorithm.value}, "delta,numerator,denominator,decimal", rows)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import check_run, simulate, sweep, write_trials_csv

    check_run(args.spec, args.deltas, args.graphs, args.patterns, args.seed, workers=args.workers)
    analytic = None
    if args.analytic:
        analytic = _exact_values(args)
        if analytic is None:
            return 1
    run = (args.graphs, args.patterns, args.seed)
    if len(args.deltas) == 1:  # one delta runs on the master seed itself, a grid on one derived seed per point
        reports = [simulate(args.spec, args.algorithm, args.deltas[0], *run, workers=args.workers)]
    else:
        reports = sweep(args.spec, args.algorithm, args.deltas, *run, workers=args.workers)
    write_trials_csv(reports, args.out, analytic, precision=args.precision)
    return 0


def exact_enumerators(spec: EnsembleSpec, algorithm: Algorithm):
    """oracle.exact_enumerators, imported on use; a module-level name, so the traced benchmark can rebind it."""
    from . import oracle

    return oracle.exact_enumerators(spec, algorithm)


def cmd_verify(args: argparse.Namespace) -> int:
    report = exact_enumerators(args.spec, args.algorithm)
    oracle, table = report.table, build_table(args.spec, args.algorithm)
    failures = 0
    with open_output(args.out) as out:
        for a, (row, expected_row) in enumerate(zip(table.rows, oracle.rows)):
            for j, (actual, expected) in enumerate(zip(row, expected_row)):
                if actual * oracle.denominator != expected * table.denominator:
                    failures += 1
                    actual, expected = Fraction(actual, table.denominator), Fraction(expected, oracle.denominator)
                    print(f"({a},{j}) FAIL closed-form={actual} oracle={expected}", file=out)
                else:
                    print(f"({a},{j}) PASS", file=out)
        summary = "all cells match" if not failures else f"{failures} mismatched cells"
        print(f"verify {args.algorithm.value}: {summary} over {report.matchings_enumerated} matchings", file=out)
    return 0 if not failures else 1


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(list(argv) if argv is not None else sys.argv[1:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; reserve 2 for size refusals.
        return 0 if exc.code == 0 else 1
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
