"""The benchmark's workloads, their output checks, and one timed pass.

A pass runs one workload once, in a fresh interpreter, through the entry
points a user calls: ``poolgraph.cli.main`` for enumerate/analyze/verify and
the library's ``sweep`` and ``exact_error_probability``. Each operation is
timed on its own; its output checks run after all operations, outside the
timing. run.py starts a pass as

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 --workdir DIR

and reads DIR/result.json (and DIR/spans.json, when traced).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPECS = HERE / "specs"
PINNED = HERE / "pinned.json"

# 100 points, 1/400 .. 1/4.
GRID = "1/400:1/4:1/400"
MC_DELTAS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
MC_GRAPHS = 40
MC_PATTERNS = 10_000
# Acceptance check 7's yardstick: graph-clustered standard errors.
MC_SE_LIMIT = 4
IDENTITY_GRAPHS = 16
IDENTITY_PATTERNS = 500
# An analyze call over the grid takes well under a second, and on a shared
# machine short timings swing by tens of percent from one second to the next,
# so it is repeated and its mean time counted. Other calls run once: a
# repeated enumerate would time a cache hit, and sweep and verify are long
# enough on their own.
ANALYZE_REPEATS = 5

# What each workload parses during set-up: "n,l,r" shorthand or a file in specs/.
SETUP_SPECS = {
    "regular-30": ["30,3,6"],
    "irregular-30": ["irregular-30.json", "irregular-12.json"],
    "validate": ["30,3,6", "4,2,2", "4,1,2", "mixed-3.json"],
}
WORKLOADS = tuple(SETUP_SPECS)


def import_poolgraph():
    """Import poolgraph from this checkout's src/, never from an installed copy."""
    if not (SRC / "poolgraph" / "__init__.py").is_file():
        raise SystemExit(f"no poolgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import poolgraph

    if Path(poolgraph.__file__).resolve().parent != SRC / "poolgraph":
        raise SystemExit(f"imported poolgraph from {poolgraph.__file__}, not {SRC}")
    return poolgraph


def parse_setup_specs(workload: str) -> list:
    """Parse every spec a workload uses, the way the CLI parses --regular and --spec."""
    from poolgraph.ensemble import load_spec, regular_spec

    specs = []
    for source in SETUP_SPECS[workload]:
        if source.endswith(".json"):
            specs.append(load_spec(SPECS / source))
        else:
            specs.append(regular_spec(*(int(x) for x in source.split(","))))
    return specs


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means the check passed.
# ---------------------------------------------------------------------------


def csv_digest(data: bytes) -> str:
    """sha256 of a CSV without its '#' comment lines, so header comments can grow."""
    kept = b"".join(
        line for line in data.splitlines(keepends=True) if not line.startswith(b"#")
    )
    return hashlib.sha256(kept).hexdigest()


def check_digest(data: bytes, pinned: str) -> list[str]:
    digest = csv_digest(data)
    return [] if digest == pinned else [f"digest {digest[:16]} != pinned {pinned[:16]}"]


def check_row_sums(data: bytes, n: int) -> list[str]:
    """Every row a of an enumerator table must sum to C(n, a)."""
    sums = [Fraction(0)] * (n + 1)
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#") or line.startswith("a,"):
            continue
        a, _, num, den, _ = line.split(",")
        sums[int(a)] += Fraction(int(num), int(den))
    return [f"row {a} sums to {s}, not C({n},{a})" for a, s in enumerate(sums) if s != math.comb(n, a)]


def check_estimate(mean: float, per_graph: list[float], exact: Fraction) -> list[str]:
    """The Monte Carlo mean must lie within MC_SE_LIMIT graph-clustered standard errors."""
    se = statistics.stdev(per_graph) / math.sqrt(len(per_graph))
    dev = abs(mean - float(exact))
    if dev > MC_SE_LIMIT * se:
        return [f"|{mean} - {float(exact)}| = {dev:.3g} > {MC_SE_LIMIT} x {se:.3g}"]
    return []


@dataclass
class Op:
    name: str
    stage: str  # "compute" or "evaluate"; selects compute_s or evaluate_s
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    repeat: int = 1  # times run; the mean time counts, the last result is checked


@dataclass
class Outcome:
    name: str
    problems: list[str]
    stage: str = ""
    seconds: float = 0.0  # normalized (see speed.py); raw in a traced pass
    raw_seconds: float = 0.0


def run_checked(name: str, check: Callable[[], list[str]]) -> Outcome:
    """Run one check; an exception in it is a failed check, not a crashed pass."""
    try:
        problems = check()
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    return Outcome(name, problems)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Pass:
    """Builds one workload's operations against a work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from poolgraph import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.outputs: list[Path] = []
        with open(PINNED, encoding="utf-8") as fh:
            self.pinned = json.load(fh)

    def _path(self, name: str) -> Path:
        path = self.workdir / name
        self.outputs.append(path)
        return path

    def _ensemble(self, source: str) -> list[str]:
        if source.endswith(".json"):
            return ["--spec", str(SPECS / source)]
        return ["--regular", source]

    def enumerate_op(self, source: str, algorithm: str, n: int) -> Op:
        name = f"enumerate-{source.removesuffix('.json')}-{algorithm}.csv"
        path = self._path(name)
        argv = ["enumerate", *self._ensemble(source), "--algorithm", algorithm, "--out", str(path)]
        pinned = self.pinned["digests"][f"{self.workload}/{name}"]

        def check(rc) -> list[str]:
            data = path.read_bytes()
            return [f"exit {rc}"] * (rc != 0) + check_digest(data, pinned) + check_row_sums(data, n)

        return Op(name, "compute", lambda: self.cli.main(argv), check)

    def analyze_op(self, source: str, algorithm: str) -> Op:
        name = f"analyze-{source.removesuffix('.json')}-{algorithm}.csv"
        path = self._path(name)
        argv = [
            "analyze", *self._ensemble(source), "--algorithm", algorithm,
            "--delta-grid", GRID, "--out", str(path),
        ]
        pinned = self.pinned["digests"][f"{self.workload}/{name}"]

        def check(rc) -> list[str]:
            return [f"exit {rc}"] * (rc != 0) + check_digest(path.read_bytes(), pinned)

        return Op(name, "evaluate", lambda: self.cli.main(argv), check, ANALYZE_REPEATS)

    def verify_op(self, source: str, algorithm: str) -> Op:
        name = f"verify-{source.removesuffix('.json')}-{algorithm}.txt"
        path = self._path(name)
        argv = ["verify", *self._ensemble(source), "--algorithm", algorithm]

        def run():
            with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                return self.cli.main(argv)

        def check(rc) -> list[str]:
            text = path.read_text(encoding="utf-8")
            return [f"exit {rc}"] * (rc != 0) + ["no 'all cells match'"] * ("all cells match" not in text)

        return Op(name, "evaluate", run, check)

    def sweep_op(self, algorithm: str) -> Op:
        from poolgraph import montecarlo
        from poolgraph.detection import Algorithm
        from poolgraph.ensemble import regular_spec

        name = f"sweep-30,3,6-{algorithm}.csv"
        path = self._path(name)
        spec, alg = regular_spec(30, 3, 6), Algorithm(algorithm)
        exact = [Fraction(self.pinned["mc_exact"][algorithm][str(d)]) for d in MC_DELTAS]

        def run():
            # Looked up at call time, so a traced pass times the rebound name.
            return montecarlo.sweep(
                spec, alg, MC_DELTAS, MC_GRAPHS, MC_PATTERNS, self.seed,
                workers=1, keep_per_graph=True,
            )

        # COMP is judged on its false-alarm rate, DD on its misdetection rate.
        column = 0 if alg is Algorithm.COMP else 1

        def check(reports) -> list[str]:
            montecarlo.write_trials_csv(reports, path)
            problems = []
            for report, value in zip(reports, exact, strict=True):
                mean = (report.far_mean, report.mdr_mean)[column]
                per_graph = [rates[column] for rates in report.per_graph_rates]
                problems += [f"delta={report.delta}: {p}" for p in check_estimate(mean, per_graph, value)]
            return problems

        return Op(name, "compute", run, check)

    def direct_op(self) -> Op:
        from poolgraph import oracle
        from poolgraph.detection import Algorithm
        from poolgraph.ensemble import regular_spec

        name = "exact-error-probability-4,2,2-dd.txt"
        path = self._path(name)
        expected = Fraction(self.pinned["direct_4_2_2_dd_half"])

        def run():
            return oracle.exact_error_probability(regular_spec(4, 2, 2), Algorithm.DD, Fraction(1, 2))

        def check(value) -> list[str]:
            path.write_text(f"{value}\n", encoding="utf-8")
            return [] if value == expected else [f"{value} != pinned {expected}"]

        return Op(name, "evaluate", run, check)

    def worker_identity(self) -> list[str]:
        """Trials CSV bytes at workers=1 and workers=2 must be identical."""
        from poolgraph import montecarlo
        from poolgraph.detection import Algorithm
        from poolgraph.ensemble import regular_spec

        spec = regular_spec(30, 3, 6)
        problems = []
        for alg in Algorithm:
            blobs = []
            for workers in (1, min(2, os.cpu_count() or 1)):
                reports = montecarlo.sweep(
                    spec, alg, MC_DELTAS, IDENTITY_GRAPHS, IDENTITY_PATTERNS, self.seed, workers=workers
                )
                path = self.workdir / f"identity-{alg.value}-workers{workers}.csv"
                montecarlo.write_trials_csv(reports, path)
                blobs.append(path.read_bytes())
            if blobs[0] != blobs[1]:
                problems.append(f"{alg.value}: trials CSV differs between workers 1 and 2")
        return problems

    def ops(self) -> list[Op]:
        if self.workload == "regular-30":
            return [
                self.enumerate_op("30,3,6", "comp", 30),
                self.enumerate_op("30,3,6", "dd", 30),
                self.analyze_op("30,3,6", "comp"),
                self.analyze_op("30,3,6", "dd"),
            ]
        if self.workload == "irregular-30":
            return [
                self.enumerate_op("irregular-30.json", "comp", 30),
                self.enumerate_op("irregular-12.json", "dd", 12),
                self.analyze_op("irregular-30.json", "comp"),
                self.analyze_op("irregular-12.json", "dd"),
            ]
        if self.workload == "validate":
            return [
                self.sweep_op("comp"),
                self.sweep_op("dd"),
                self.verify_op("4,2,2", "dd"),
                self.verify_op("4,2,2", "comp"),
                self.verify_op("4,1,2", "comp"),
                self.verify_op("mixed-3.json", "comp"),
                self.verify_op("mixed-3.json", "dd"),
                self.direct_op(),
            ]
        raise ValueError(f"unknown workload {self.workload!r}")

    def extra_checks(self) -> list[Outcome]:
        if self.workload == "validate":
            return [run_checked("worker-identity", self.worker_identity)]
        return []


def cached_entries() -> int:
    """Entries held by every lru_cache in the package (build_table, general-route parts, ...)."""
    import poolgraph

    total = 0
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith(poolgraph.__name__):
            for value in vars(module).values():
                info = getattr(value, "cache_info", None)
                if callable(info):
                    total += info().currsize
    return total


def execute(ops: list[Op], tracer=None) -> tuple[list[Outcome], float]:
    """Time every operation, then check every output.

    An untraced pass times under the speed probe and reports normalized
    seconds; a traced pass reports raw seconds, since the probe's signal
    handler would land inside the spans. Returns the outcomes and the peak
    RSS in MiB reached while timing.
    """
    if tracer is not None:
        import layers

        layers.install(tracer)
        timer = contextlib.nullcontext()
    else:
        timer = speed.SpeedProbe()
    results, intervals = [], []
    try:
        with timer:
            for op in ops:
                spans = []
                for _ in range(op.repeat):
                    t0 = time.perf_counter()
                    try:
                        result, error = op.run(), None
                    except Exception:
                        result, error = None, traceback.format_exc(limit=5)
                    spans.append((t0, time.perf_counter()))
                    if error is not None:
                        break
                intervals.append(spans)
                results.append((result, error))
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = []
    for op, spans, (result, error) in zip(ops, intervals, results):
        if error is not None:
            outcome = Outcome(op.name, [error])
        else:
            outcome = run_checked(op.name, lambda op=op, result=result: op.check(result))
        if tracer is not None:
            times = [(t1 - t0, t1 - t0) for t0, t1 in spans]
        else:
            times = [timer.measure(t0, t1) for t0, t1 in spans]
        outcome.stage = op.stage
        outcome.raw_seconds = statistics.fmean(raw for raw, _ in times)
        outcome.seconds = statistics.fmean(norm for _, norm in times)
        outcomes.append(outcome)
    return outcomes, peak_rss_mb


def run_pass(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    """One pass of a workload in this (fresh) interpreter, as a JSON-able record."""
    bench = Pass(workload, seed, workdir)
    ops = bench.ops()
    # build_table and the general-route parts are process-wide caches: a warm
    # cache would time a dict lookup instead of the table build.
    if cached_entries():
        raise RuntimeError("poolgraph caches are not empty before timing")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    outcomes, peak_rss_mb = execute(ops, tracer)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops": [vars(o) for o in outcomes],
        "checks": [vars(c) for c in bench.extra_checks()],
        "peak_rss_mb": peak_rss_mb,
        "outputs": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bench.outputs if p.exists()
        },
    }
    if tracer is not None:
        import layers

        record["restored"] = tracer.all_restored()
        record["layers"] = layers.metrics(tracer)
        tracer.dump(workdir / "spans.json")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one timed pass of a benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    import_poolgraph()
    record = run_pass(args.workload, args.seed, bool(args.trace), args.workdir)
    with open(args.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
