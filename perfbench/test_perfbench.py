"""Self-tests of the benchmark: its checks can fail, and tracing changes no output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import workloads

poolgraph = workloads.import_poolgraph()

import layers  # noqa: E402  (needs poolgraph on the path)
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

from poolgraph import cli, montecarlo, oracle  # noqa: E402
from poolgraph.detection import Algorithm  # noqa: E402
from poolgraph.ensemble import regular_spec  # noqa: E402


def _clear_caches() -> None:
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("poolgraph"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _failed(outcomes) -> int:
    record = {"ops": [vars(o) for o in outcomes], "checks": []}
    return run.failures(record)[1]


def _small_table_op(tmp_path: Path, pinned_digest: str, alter=None) -> workloads.Op:
    bench = workloads.Pass("regular-30", 0, tmp_path)
    name = "enumerate-6,2,3-comp.csv"
    bench.pinned = {"digests": {f"regular-30/{name}": pinned_digest}}
    op = bench.enumerate_op("6,2,3", "comp", 6)
    if alter is not None:
        inner = op.run

        def run_and_alter():
            rc = inner()
            alter(tmp_path / name)
            return rc

        op.run = run_and_alter
    return op


def _digest_of_small_table(tmp_path: Path) -> str:
    out = tmp_path / "reference.csv"
    assert cli.main(["enumerate", "--regular", "6,2,3", "--algorithm", "comp", "--out", str(out)]) == 0
    return workloads.csv_digest(out.read_bytes())


def test_correct_table_passes(tmp_path):
    digest = _digest_of_small_table(tmp_path)
    outcomes, _ = workloads.execute([_small_table_op(tmp_path, digest)])
    assert _failed(outcomes) == 0


def test_corrupted_pinned_digest_fails_the_operation(tmp_path):
    digest = _digest_of_small_table(tmp_path)
    corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    outcomes, _ = workloads.execute([_small_table_op(tmp_path, corrupted)])
    assert _failed(outcomes) == 1
    assert "digest" in outcomes[0].problems[0]


def test_one_altered_cell_fails_digest_and_row_sum(tmp_path):
    digest = _digest_of_small_table(tmp_path)

    def bump_cell(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for index, line in enumerate(lines):
            if line.startswith("1,0,"):
                a, j, num, den, dec = line.rstrip("\n").split(",")
                lines[index] = f"{a},{j},{int(num) + 1},{den},{dec}\n"
        path.write_text("".join(lines), encoding="utf-8")

    outcomes, _ = workloads.execute([_small_table_op(tmp_path, digest, alter=bump_cell)])
    assert _failed(outcomes) == 1
    problems = " ".join(outcomes[0].problems)
    assert "digest" in problems and "row 1 sums" in problems


def test_estimate_check_uses_clustered_standard_error():
    per_graph = [0.1, 0.12, 0.08, 0.11, 0.09]  # mean 0.1, clustered se ~0.0071
    assert workloads.check_estimate(0.1, per_graph, Fraction(1, 10)) == []
    assert workloads.check_estimate(0.1, per_graph, Fraction(13, 100)) != []


def _tiny_ops(workdir: Path) -> list[workloads.Op]:
    """One call through every traced layer, small enough for a unit test."""
    spec_file = str(workloads.SPECS / "mixed-3.json")
    ops = []
    for argv in (
        ["enumerate", "--regular", "6,2,3", "--algorithm", "comp"],
        ["enumerate", "--regular", "6,2,3", "--algorithm", "dd"],
        ["enumerate", "--spec", spec_file, "--algorithm", "dd"],
        ["analyze", "--regular", "6,2,3", "--algorithm", "comp", "--delta-grid", "1/10:1/2:1/10"],
        ["analyze", "--regular", "6,2,3", "--algorithm", "dd", "--delta-grid", "1/10:1/2:1/10"],
    ):
        out = workdir / f"{len(ops)}.csv"
        ops.append(workloads.Op(out.name, "compute", lambda a=argv, o=out: cli.main([*a, "--out", str(o)]), lambda rc: []))

    def verify():
        out = workdir / "verify.txt"
        with open(out, "w", encoding="utf-8") as fh, workloads.contextlib.redirect_stdout(fh):
            return cli.main(["verify", "--regular", "4,1,2", "--algorithm", "comp"])

    def sweep():
        reports = montecarlo.sweep(regular_spec(12, 3, 6), Algorithm.DD, ["1/10", "1/5"], 3, 200, 5)
        montecarlo.write_trials_csv(reports, workdir / "trials.csv")

    def direct():
        value = oracle.exact_error_probability(regular_spec(4, 1, 2), Algorithm.COMP, Fraction(1, 2))
        (workdir / "direct.txt").write_text(str(value), encoding="utf-8")

    ops += [workloads.Op(f.__name__, "evaluate", f, lambda _: []) for f in (verify, sweep, direct)]
    return ops


def _output_bytes(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_traced_pass_writes_identical_outputs_and_restores_names(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    _clear_caches()
    workloads.execute(_tiny_ops(plain))
    _clear_caches()
    main, sweep = cli.main, montecarlo.sweep
    tracer = Tracer()
    outcomes, _ = workloads.execute(_tiny_ops(traced), tracer)
    assert _failed(outcomes) == 0
    assert _output_bytes(plain) == _output_bytes(traced)
    assert tracer.all_restored()
    assert cli.main is main and montecarlo.sweep is sweep
    assert poolgraph.enumerator.poly_mul is poolgraph.polynomial.poly_mul
    values = layers.metrics(tracer)
    assert set(values) | {"trace.overhead_s"} == {name for name, _, _ in layers.PER_LAYER}
    # Every layer saw work.
    for name in (
        "polynomial.poly_mul.calls", "polynomial.poly_product_of_powers.s", "combinatorics.multinomial.calls",
        "enumerator.cells", "ensemble.sample_graph.calls", "ensemble.enumerate_matchings.graphs",
        "detection.comp_pd_mask.calls", "detection.dd_certified_mask.calls", "montecarlo.patterns",
        "oracle.exact_enumerators.s", "oracle.exact_error_probability.s", "cli.main.calls",
    ):
        assert values[name] > 0, name
    assert values["montecarlo.patterns"] == 2 * 3 * 200
    assert values["detection.dd_certified_mask.calls"] == 2 * 3 * 200


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    benchmark = here.parent / "BENCHMARK.json"
    if benchmark.exists():
        shutil.copy(benchmark, tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_has_pinned_expectations(workload, tmp_path):
    bench = workloads.Pass(workload, 0, tmp_path)
    names = [op.name for op in bench.ops()]
    assert len(names) == len(set(names))
    pinned = json.loads(workloads.PINNED.read_text(encoding="utf-8"))
    for name in names:
        if name.startswith(("enumerate-", "analyze-")):
            assert f"{workload}/{name}" in pinned["digests"]


def test_speed_probe_takes_its_own_time_out_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            sum(range(1000))
        t1 = time.perf_counter()
    inside = [d for t, d in probe.samples if t0 <= t <= t1]
    assert len(inside) >= 2
    raw, normalized = probe.measure(t0, t1)
    assert raw == pytest.approx(t1 - t0 - sum(inside))
    assert normalized > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
