"""The traced benchmark (perfbench/) rebinds package names by hand.

A rename or deletion in src/ of a name it rebinds would break every traced
benchmark run; this test makes it fail the ordinary test suite instead. Its
callbacks also read attributes of what the traced calls return (a table's
cells, an oracle report's matchings, a sweep's grid and sizes), so one
traced analyze, one traced verify and one traced sweep run here too, the
sweep and its trials CSV called as perfbench/workloads.py calls them. The
benchmark's enumerate tables and analyze outputs over its delta grid are
checked against perfbench/pinned.json here as well, so a change to a table
or to evaluation that moves a byte fails the ordinary test suite and not
only a benchmark run. It only reads files under perfbench/.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The benchmark's 100-point delta grid, perfbench/workloads.py's GRID.
GRID = "1/400:1/4:1/400"


def test_traced_benchmark_names_install_and_restore(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    from poolgraph import cli, montecarlo
    from poolgraph.detection import Algorithm
    from poolgraph.ensemble import regular_spec

    main = cli.main
    tracer = Tracer()
    trials = tmp_path / "trials.csv"
    try:
        layers.install(tracer)
        assert cli.main is not main
        assert cli.main(["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2"]) == 0
        assert cli.main(["verify", "--regular", "4,1,2", "--algorithm", "comp"]) == 0
        reports = montecarlo.sweep(
            regular_spec(4, 1, 2), Algorithm.DD, [Fraction(1, 4), Fraction(1, 2)], 2, 10, 7,
            workers=1, keep_per_graph=True,
        )
        montecarlo.write_trials_csv(reports, trials)
    finally:
        tracer.restore()
    assert tracer.all_restored()
    assert cli.main is main
    capsys.readouterr()
    # (4,1,2) COMP has 5 + 4 + 3 + 2 + 1 cells; verify's build is a cache hit.
    assert [a["cells"] for a in tracer.attrs("enumerator.build_table")] == [15, 0]
    assert tracer.attrs("oracle.exact_enumerators") == [{"matchings": 24}]
    assert tracer.attrs("montecarlo.sweep") == [{"patterns": 2 * 2 * 10}]
    assert [len(report.per_graph_rates) for report in reports] == [2, 2]
    assert len(trials.read_text(encoding="utf-8").splitlines()) == 2 + len(reports)


# The benchmark's exact outputs: (workload, ensemble, decoder).
OUTPUTS = [
    ("regular-30", "30,3,6", "comp"),
    ("regular-30", "30,3,6", "dd"),
    ("irregular-30", "irregular-30.json", "comp"),
    ("irregular-30", "irregular-12.json", "dd"),
]


def _assert_pinned(monkeypatch, capsys, tmp_path, command, workload, source, algorithm, *options):
    # The CLI's CSV, digested without its '#' comment lines as the benchmark checks it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from poolgraph import cli

    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))["digests"]
    name = f"{command}-{source.removesuffix('.json')}-{algorithm}.csv"
    ensemble = ["--spec", str(PERFBENCH / "specs" / source)] if source.endswith(".json") else ["--regular", source]
    out = tmp_path / name
    assert cli.main([command, *ensemble, "--algorithm", algorithm, *options, "--out", str(out)]) == 0
    capsys.readouterr()
    assert workloads.csv_digest(out.read_bytes()) == pinned[f"{workload}/{name}"]


@pytest.mark.parametrize("workload,source,algorithm", OUTPUTS)
def test_analyze_over_the_benchmark_grid_writes_the_pinned_digest(monkeypatch, capsys, tmp_path, workload, source, algorithm):
    _assert_pinned(monkeypatch, capsys, tmp_path, "analyze", workload, source, algorithm, "--delta-grid", GRID)
    import workloads

    assert workloads.GRID == GRID


@pytest.mark.parametrize("workload,source,algorithm", OUTPUTS)
def test_enumerate_writes_the_pinned_table_digest(monkeypatch, capsys, tmp_path, workload, source, algorithm):
    # analyze reads only row weights; the table's digest also pins how each row's counts split over j.
    _assert_pinned(monkeypatch, capsys, tmp_path, "enumerate", workload, source, algorithm)
