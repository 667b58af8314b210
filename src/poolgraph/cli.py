"""Command-line front end: spec in, CSV out.

Four subcommands: enumerate (exact tables), analyze (error probabilities
over a delta grid), simulate (Monte Carlo), verify (exhaustive oracle vs
closed form, cell by cell). CSV goes to --out or stdout; status chatter
goes to stderr so piped output stays parseable.

Exit codes: 0 success, 1 bad input or failed verification, 2 size refusal,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .combinatorics import binomial, to_decimal
from .detection import Algorithm
from .ensemble import DEFAULT_MATCHING_LIMIT, EnsembleSpec, load_spec, regular_spec, spec_hash
from .enumerator import build_table, fa_probability, md_probability, write_table_csv
from .errors import SizeLimitError, ValidationError
from .montecarlo import simulate, sweep, write_trials_csv
from .oracle import exact_enumerators

__all__ = ["RunConfig", "build_parser", "main"]

_ENV_PREFIX = "POOLGRAPH_"

# Most points a start:stop:step delta grid may expand to.
_GRID_LIMIT = 10_000


@dataclass
class RunConfig:
    command: str
    spec: EnsembleSpec
    algorithm: Algorithm
    deltas: list[Fraction]
    graphs: int
    patterns: int
    seed: int
    out: Optional[str]
    precision: int
    oracle_limit: int
    workers: int
    analytic: bool


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
        count = (stop - start) // step + 1
        if count > _GRID_LIMIT:
            raise SizeLimitError(f"delta grid has {count} points, over the limit of {_GRID_LIMIT}")
        return [start + k * step for k in range(count)]
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


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_ENV_PREFIX}{name} must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolgraph",
        description="Exact and sampled group-testing error rates over pooling-graph ensembles.",
    )
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
        cmd.add_argument("--precision", type=int, help="decimal digits (default 12)")
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
            cmd.add_argument("--seed", type=int, help="64-bit master seed (default 0)")
            cmd.add_argument("--workers", type=int, help="parallel graph workers (default 1)")
            cmd.add_argument(
                "--analytic",
                action="store_true",
                help="fill the analytic column from the exact enumerator",
            )
        if name == "verify":
            cmd.add_argument("--oracle-limit", type=int, help="max matchings (default 10^6)")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    args = build_parser().parse_args(argv)
    spec = load_spec(args.spec) if args.spec else _parse_regular(args.regular)
    deltas: list[Fraction] = []
    if getattr(args, "delta", None):
        deltas = [_fraction(args.delta)]
    elif getattr(args, "delta_grid", None):
        deltas = _parse_delta_grid(args.delta_grid)
    precision = args.precision if args.precision is not None else _env_int("PRECISION", 12)
    if precision < 1:
        raise ValidationError("precision must be at least 1")
    return RunConfig(
        command=args.command,
        spec=spec,
        algorithm=Algorithm(args.algorithm),
        deltas=deltas,
        graphs=getattr(args, "graphs", 100),
        patterns=getattr(args, "patterns", 10_000),
        seed=(
            args.seed
            if getattr(args, "seed", None) is not None
            else _env_int("SEED", 0)
        ),
        out=args.out,
        precision=precision,
        oracle_limit=(
            args.oracle_limit
            if getattr(args, "oracle_limit", None) is not None
            else _env_int("ORACLE_LIMIT", DEFAULT_MATCHING_LIMIT)
        ),
        workers=(
            args.workers
            if getattr(args, "workers", None) is not None
            else _env_int("WORKERS", 1)
        ),
        analytic=getattr(args, "analytic", False),
    )


def _open_out(config: RunConfig) -> tuple[TextIO, bool]:
    if config.out is None:
        return sys.stdout, False
    return open(config.out, "w", encoding="utf-8", newline=""), True


def cmd_enumerate(config: RunConfig) -> int:
    table = build_table(config.spec, config.algorithm)
    out, close = _open_out(config)
    try:
        write_table_csv(table, out, precision=config.precision)
    finally:
        if close:
            out.close()
    n = config.spec.n
    sums = table.row_sums()
    bad = [a for a in range(n + 1) if sums[a] != binomial(n, a)]
    if bad:
        print(f"row-sum self-check: FAIL at a={bad}", file=sys.stderr)
        return 1
    print(f"row-sum self-check: PASS ({n + 1} rows)", file=sys.stderr)
    return 0


def cmd_analyze(config: RunConfig) -> int:
    table = build_table(config.spec, config.algorithm)
    prob = fa_probability if config.algorithm is Algorithm.COMP else md_probability
    out, close = _open_out(config)
    try:
        out.write(f"# spec_hash={spec_hash(config.spec)} algorithm={config.algorithm.value}\n")
        out.write("delta,numerator,denominator,decimal\n")
        for delta in config.deltas:
            value = prob(table, delta)
            out.write(
                f"{delta},{value.numerator},{value.denominator},"
                f"{to_decimal(value, config.precision)}\n"
            )
    finally:
        if close:
            out.close()
    return 0


def cmd_simulate(config: RunConfig) -> int:
    if len(config.deltas) == 1:
        reports = [
            simulate(
                config.spec,
                config.algorithm,
                config.deltas[0],
                config.graphs,
                config.patterns,
                config.seed,
                workers=config.workers,
            )
        ]
    else:
        reports = sweep(
            config.spec,
            config.algorithm,
            config.deltas,
            config.graphs,
            config.patterns,
            config.seed,
            workers=config.workers,
        )
    analytic = None
    if config.analytic:
        table = build_table(config.spec, config.algorithm)
        prob = fa_probability if config.algorithm is Algorithm.COMP else md_probability
        analytic = [prob(table, delta) for delta in config.deltas]
    out, close = _open_out(config)
    try:
        write_trials_csv(reports, out, analytic, precision=config.precision)
    finally:
        if close:
            out.close()
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = exact_enumerators(config.spec, config.algorithm, limit=config.oracle_limit)
    table = build_table(config.spec, config.algorithm)
    failures = 0
    for key in sorted(table.values):
        expected = report.exact_table[key]
        actual = table.values[key]
        status = "PASS" if expected == actual else "FAIL"
        if status == "FAIL":
            failures += 1
            print(f"({key[0]},{key[1]}) FAIL closed-form={actual} oracle={expected}")
        else:
            print(f"({key[0]},{key[1]}) PASS")
    summary = "all cells match" if not failures else f"{failures} mismatched cells"
    print(f"verify {config.algorithm.value}: {summary} over {report.matchings_enumerated} matchings")
    return 0 if not failures else 1


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(list(argv) if argv is not None else sys.argv[1:])
        return _COMMANDS[config.command](config)
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
