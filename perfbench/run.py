"""poolgraph benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports poolgraph from that
checkout's src/ and exits non-zero, printing no result, when there is none.

An untraced run first measures set-up: SETUP_PROBES fresh interpreters
that each import poolgraph and parse the workload's specs (median
reported). It then runs whole passes of the workload (see workloads.py), each in a fresh
interpreter so that no process-wide cache survives from one pass to the
next. With --trace 0 it starts another pass only while that pass is
expected to end within --seconds, and reports the median of every
end-to-end metric over its passes. Pass times are normalized to a
reference machine speed by the speed probe (speed.py); the raw seconds are
kept in the run record. With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics (raw seconds) of the traced one.

The last line of stdout is the result, one JSON object with the keys
correct, attempted, failed and metrics. The line before it records the run
environment. Per-run records and trace spans go to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7
# A pass of the slowest workload takes about 30 s on a 2-core machine; a run
# must end within 180 s.
PASS_TIMEOUT_S = 160

_PROBE = (
    "import sys; sys.path.insert(0, {here!r}); import workloads; "
    "workloads.import_poolgraph(); import poolgraph.cli; "
    "workloads.parse_setup_specs({workload!r})"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import poolgraph and parse the specs.

    Raw seconds: start-up is process creation, file reads and C-extension
    loading more than Python execution, and it does not follow the speed
    probe (see speed.py) closely enough to be normalized by it.
    """
    argv = [sys.executable, "-c", _PROBE.format(here=str(HERE), workload=workload)]
    samples = []
    for probe in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        # The first probe writes bytecode caches and warms the file cache.
        if probe:
            samples.append(elapsed)
    return samples


def run_pass(workload: str, seed: int, trace: bool, tag: str) -> dict:
    """One pass in a fresh interpreter; returns its result record."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        argv = [
            sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--workdir", str(workdir),
        ]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        record = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        if trace:
            shutil.move(workdir / "spans.json", WORK / f"spans-{tag}.json")
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(record: dict, key: str = "seconds") -> dict[str, float]:
    """Pass metrics from normalized op times, or from raw ones with key="raw_seconds"."""

    def stage(name: str) -> float:
        return sum(op[key] for op in record["ops"] if op["stage"] == name)

    return {
        "wall_s": sum(op[key] for op in record["ops"]),
        "compute_s": stage("compute"),
        "evaluate_s": stage("evaluate"),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def failures(record: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over a pass's operations and extra checks."""
    outcomes = record["ops"] + record["checks"]
    bad = [f"{o['name']}: {'; '.join(o['problems'])}" for o in outcomes if o["problems"]]
    return len(outcomes), len(bad), bad


def _git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, load_start) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "poolgraph" / "__init__.py").is_file():
        print(f"error: no poolgraph sources under {workloads.SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    # Monte Carlo seeds are 64-bit unsigned.
    seed = args.seed % (1 << 64)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    WORK.mkdir(exist_ok=True)
    try:
        # A traced run reports per-layer metrics only, so it skips the set-up probes.
        setup = [] if args.trace else setup_seconds(args.workload)
        if args.trace:
            untraced = run_pass(args.workload, seed, False, tag)
            traced = run_pass(args.workload, seed, True, tag)
            passes = [untraced, traced]
        else:
            passes = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(args.workload, seed, False, tag))
                now = time.perf_counter()
                if now + (now - t0) > start + args.seconds:
                    break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    problems: list[str] = []
    for record in passes:
        a, f, msgs = failures(record)
        attempted, failed, problems = attempted + a, failed + f, problems + msgs
    if args.trace:
        # The traced pass must write the same bytes and put every name back.
        attempted += 1
        if traced["outputs"] != untraced["outputs"] or not traced["restored"]:
            failed += 1
            problems.append("trace: outputs differ from the untraced pass or a name was not restored")
        layer_values = dict(traced["layers"])
        layer_values["trace.overhead_s"] = (
            end_to_end(traced, "raw_seconds")["wall_s"] - end_to_end(untraced, "raw_seconds")["wall_s"]
        )
        metrics = {name: _metric(layer_values[name], unit) for name, unit, _ in layers.PER_LAYER}
    else:
        per_pass = [end_to_end(record) for record in passes]
        metrics = {"setup_s": _metric(statistics.median(setup), "s")}
        for name, unit in (("wall_s", "s"), ("compute_s", "s"), ("evaluate_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = _metric(statistics.median(p[name] for p in per_pass), unit)

    env = environment(args.seed, load_start)
    record = {
        "env": env,
        "args": vars(args),
        "setup_samples_s": setup,
        "raw_passes": [end_to_end(record, "raw_seconds") for record in passes],
        "passes": passes,
        "problems": problems,
        "metrics": metrics,
    }
    with open(WORK / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"env": env, "passes": len(passes)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
