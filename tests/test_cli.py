import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from poolgraph.cli import _GRID_LIMIT, _PRECISION_LIMIT, _parse_delta_grid, build_parser, main
from poolgraph.errors import SizeLimitError
from poolgraph.ensemble import regular_spec, spec_hash

SRC = Path(__file__).resolve().parents[1] / "src"
# Help text wraps to the terminal width; fix it so a run is the same in and out of a terminal.
FRESH_ENV = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_writes_table_and_self_check(capsys):
    code, out, err = run(["enumerate", "--regular", "4,1,2", "--algorithm", "comp"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"# spec_hash={spec_hash(regular_spec(4, 1, 2))}")
    assert "algorithm=comp" in lines[0]
    assert lines[1] == "a,j,numerator,denominator,decimal"
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[2:]}
    assert rows[("0", "0")][2:4] == ["1", "1"]
    assert rows[("1", "1")][2:4] == ["4", "1"]
    assert "row-sum self-check: PASS (5 rows)" in err


def test_enumerate_to_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, err = run(
        ["enumerate", "--regular", "2,1,2", "--algorithm", "dd", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[1] == "a,j,numerator,denominator,decimal"


def test_analyze_single_delta(capsys):
    code, out, _ = run(
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "delta,numerator,denominator,decimal"
    # --precision defaults to 12 significant digits.
    assert lines[2] == "1/2,7,12,0.583333333333"


def test_analyze_grid_is_inclusive(capsys):
    code, out, _ = run(
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp",
         "--delta-grid", "0:1/2:1/4"],
        capsys,
    )
    assert code == 0
    deltas = [line.split(",")[0] for line in out.splitlines()[2:]]
    assert deltas == ["0", "1/4", "1/2"]


def test_huge_delta_grid_is_refused_at_once(capsys):
    t0 = time.monotonic()
    code, out, err = run(
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp",
         "--delta-grid", "0:1:1/1000000000"],
        capsys,
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "refused" in err and "1000000001 points" in err


def test_delta_grid_limit_is_inclusive():
    step = Fraction(1, _GRID_LIMIT - 1)
    grid = _parse_delta_grid(f"0:1:{step}")
    assert len(grid) == _GRID_LIMIT
    assert grid[0] == 0 and grid[-1] == 1 and grid[1] == step
    with pytest.raises(SizeLimitError):
        _parse_delta_grid(f"0:1:1/{_GRID_LIMIT}")


@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
    st.fractions(min_value=Fraction(1, 10**6), max_value=2, max_denominator=10**6),
    st.data(),
)
def test_delta_grid_is_start_plus_k_steps(start, step, data):
    count = data.draw(st.integers(1, _GRID_LIMIT))
    # Any stop at or past the last point and short of the next gives the same grid.
    stop = start + (count - 1 + data.draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))) * step
    assume(stop < start + count * step)
    assert (stop - start) // step + 1 == count
    assert _parse_delta_grid(f"{start}:{stop}:{step}") == [start + k * step for k in range(count)]


def test_analyze_comma_list_and_precision(capsys):
    code, out, _ = run(
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp",
         "--delta-grid", "1/2,1/4", "--precision", "3"],
        capsys,
    )
    assert code == 0
    rows = out.splitlines()[2:]
    assert rows[0] == "1/2,7,12,0.583"
    assert rows[1].startswith("1/4,")


def test_simulate_is_deterministic(tmp_path, capsys):
    argv = ["simulate", "--regular", "4,1,2", "--algorithm", "comp",
            "--delta", "1/3", "--graphs", "4", "--patterns", "50", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    seed_col = a.read_text().splitlines()[2].split(",")[11]
    assert seed_col == "7"


def test_simulate_analytic_column(capsys):
    code, out, _ = run(
        ["simulate", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2",
         "--graphs", "2", "--patterns", "20", "--analytic"],
        capsys,
    )
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert row[10] == "0.583333333333"
    assert row[11] == "0"  # --seed defaults to 0


def test_simulate_grid_uses_per_point_seeds(capsys):
    code, out, _ = run(
        ["simulate", "--regular", "4,1,2", "--algorithm", "dd",
         "--delta-grid", "1/4,1/2", "--graphs", "2", "--patterns", "10", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert rows[0][0] == "1/4" and rows[1][0] == "1/2"
    assert rows[0][11] != rows[1][11] != "3"


def test_verify_passes_on_small_regular(capsys):
    code, out, _ = run(["verify", "--regular", "4,1,2", "--algorithm", "comp"], capsys)
    assert code == 0
    assert "(1,1) PASS" in out
    assert "FAIL" not in out
    assert "all cells match over 24 matchings" in out


@pytest.mark.parametrize("algorithm", ["comp", "dd"])
def test_verify_passes_past_eleven_edges(algorithm, capsys):
    # 12 edges: the oracle decodes (6,2,3)'s 16,260 multigraphs, not its 12! matchings.
    code, out, _ = run(["verify", "--regular", "6,2,3", "--algorithm", algorithm], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.endswith(f"verify {algorithm}: all cells match over 479001600 matchings\n")


def test_verify_dd_with_double_edges(capsys):
    code, out, _ = run(["verify", "--regular", "2,2,2", "--algorithm", "dd"], capsys)
    assert code == 0
    assert "all cells match" in out


def test_verify_refuses_oversized_ensemble(capsys):
    code, _, err = run(["verify", "--regular", "30,3,6", "--algorithm", "comp"], capsys)
    assert code == 2
    assert "refused" in err


def test_verify_refuses_without_writing_out_the_matching_count(capsys):
    # 1800! has more digits than Python turns into a string; 3,000,000! takes most of a minute to compute.
    t0 = time.monotonic()
    for n in (600, 10**6):
        code, out, err = run(["verify", "--regular", f"{n},3,6", "--algorithm", "comp"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"refused: the oracle over {3 * n}! matchings is predicted to take more than 1e308 s, "
            "over the limit of 600 s\n"
        )
    assert time.monotonic() - t0 < 1.0


def test_verify_refuses_large_degrees_while_counting(capsys):
    # 16 items of degree 60: the lgamma bound is below one graph, so the exact count stops it.
    t0 = time.monotonic()
    code, out, err = run(["verify", "--regular", "16,60,60", "--algorithm", "dd"], capsys)
    assert (code, out) == (2, "")
    assert err == "refused: the oracle over 960! matchings counts its multigraphs over at most 300,000 entries\n"
    assert time.monotonic() - t0 < 1.0


def test_verify_writes_report_to_out(tmp_path, capsys):
    argv = ["verify", "--regular", "4,1,2", "--algorithm", "comp"]
    code, stdout_report, _ = run(argv, capsys)
    assert code == 0
    out_path = tmp_path / "report.txt"
    code, out, _ = run(argv + ["--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8") == stdout_report


def test_verify_unwritable_out_exits_three(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.txt"
    code, out, err = run(
        ["verify", "--regular", "4,1,2", "--algorithm", "comp", "--out", str(out_path)], capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error:")
    assert not out_path.exists()


def test_spec_file_loading(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 4, "l": 1, "r": 2}))
    code, out, _ = run(
        ["analyze", "--spec", str(path), "--algorithm", "comp", "--delta", "1/2"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[2].split(",")[1:3] == ["7", "12"]


def test_spec_file_with_float_field_exits_one(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 30.5, "l": 3, "r": 6}))
    code, out, err = run(["enumerate", "--spec", str(path), "--algorithm", "comp"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: bad regular shorthand: 'n' must be a JSON integer, got 30.5\n"


def test_deeply_nested_spec_file_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["enumerate", "--spec", str(path), "--algorithm", "comp"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: spec file {path}: invalid JSON (maximum recursion depth exceeded")
    assert err.count("\n") == 1 and err.endswith(")\n")


def test_missing_spec_file_is_io_error(tmp_path, capsys):
    code, _, err = run(
        ["analyze", "--spec", str(tmp_path / "nope.json"), "--algorithm", "comp",
         "--delta", "1/2"],
        capsys,
    )
    assert code == 3
    assert "i/o error" in err


def test_empty_spec_path_is_io_error(capsys):
    # An empty path is a path like any other, not a missing --spec.
    code, out, err = run(["enumerate", "--spec", "", "--algorithm", "comp"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error: [Errno 2]")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--regular", "4,2,3", "--algorithm", "comp"],
        ["enumerate", "--regular", "4,1", "--algorithm", "comp"],
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "0.x"],
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta-grid", "1/4:1/2"],
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta-grid", "1/2:1/4:1/8"],
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2",
         "--precision", "0"],
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "3/2"],
        ["verify", "--regular", "4,1,2", "--algorithm", "dd", "--precision", "5"],  # verify prints no decimals
    ],
)
def test_bad_inputs_exit_one(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("flag", ["--delta", "--delta-grid"])
def test_empty_delta_exits_one(command, flag, capsys):
    code, out, err = run([command, "--regular", "4,1,2", "--algorithm", "comp", flag, ""], capsys)
    assert code == 1
    assert out == ""
    assert "error: not an exact rational: ''" in err


def test_usage_errors_exit_one(capsys):
    assert main(["enumerate", "--algorithm", "comp"]) == 1
    assert main(["analyze", "--regular", "4,1,2", "--algorithm", "comp"]) == 1
    assert main(["enumerate", "--regular", "4,1,2", "--algorithm", "nope"]) == 1
    capsys.readouterr()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "poolgraph", "analyze", "--regular", "4,1,2",
         "--algorithm", "comp", "--delta", "1/2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "1/2,7,12," in result.stdout


def test_main_builds_the_parser_on_its_first_call_only():
    # A fresh interpreter, so that importing poolgraph.cli is counted too.
    counts = subprocess.run(
        [sys.executable, "-c", """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from poolgraph import cli
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["--version"], ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2"],
                 ["enumerate", "--regular", "4,1,2", "--algorithm", "dd"], ["enumerate"]):
        cli.main(argv)
        counts.append(len(built))
print(*counts)
"""],
        env=FRESH_ENV, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert counts[0] == "0"  # import builds nothing
    assert counts[1] != "0"
    assert set(counts[1:]) == {counts[1]}
    assert build_parser() is not build_parser()


def test_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """A sequence of main calls in one process, each equal to the same command run alone."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n": 3, "m": 2,
        "lambda": [{"degree": 1, "num": 2, "den": 3}, {"degree": 2, "num": 1, "den": 3}],
        "rho": [{"degree": 2, "num": 1, "den": 1}],
    }))
    commands = [
        ["--help"],
        ["--version"],
        ["enumerate", "--regular", "4,1,2"],
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "3/2"],
        ["verify", "--regular", "4,2,2", "--algorithm", "dd"],
        ["analyze", "--regular", "30,3,6", "--algorithm", "dd", "--delta-grid", "1/400:1/4:1/400"],
        ["enumerate", "--spec", str(spec_path), "--algorithm", "comp"],
        ["simulate", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2",
         "--graphs", "2", "--patterns", "8"],
    ]
    fresh = [
        subprocess.Popen([sys.executable, "-m", "poolgraph", *argv], env=FRESH_ENV,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for argv in commands
    ]
    monkeypatch.setenv("COLUMNS", FRESH_ENV["COLUMNS"])
    in_process = [run(argv, capsys) for argv in commands]
    for argv, proc, result in zip(commands, fresh, in_process):
        out, err = proc.communicate(timeout=60)
        assert result == (proc.returncode, out.decode(), err.decode()), argv


def test_runaway_simulation_exits_two(capsys):
    t0 = time.monotonic()
    code, out, err = run(
        ["simulate", "--regular", "30,3,6", "--algorithm", "comp", "--delta", "1/10",
         "--graphs", "1000000", "--patterns", "1000000000"],
        capsys,
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("refused: 1 deltas x 1000000 graphs x 1000000000 patterns on n=30 is predicted to take ")
    assert err.endswith(" s, over the limit of 600 s\n")


def test_simulation_over_the_memory_limit_exits_two(capsys, monkeypatch):
    from poolgraph import montecarlo

    def refuse(*args):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr(montecarlo, "sample_graph", refuse)
    code, out, err = run(
        ["simulate", "--regular", "400000,3,6", "--algorithm", "dd", "--delta", "1/10",
         "--graphs", "1", "--patterns", "4096"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == ("refused: 1 deltas x 1 graphs x 4096 patterns on n=400000 with 1 workers is predicted"
                   " to need 5.08e+09 bytes, over the limit of 4294967296 bytes\n")


def test_runaway_degree_class_table_exits_two(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "n": 120, "m": 50,
        "lambda": [{"degree": d, "num": 1, "den": 4} for d in (1, 2, 3, 4)],
        "rho": [{"degree": 6, "num": 1, "den": 1}],
    }))
    t0 = time.monotonic()
    code, out, err = run(["enumerate", "--spec", str(path), "--algorithm", "dd"], capsys)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("refused: the dd table for n=120 is predicted to take ")


def _broken_table(spec, algorithm):
    from poolgraph.enumerator import EnumeratorTable, build_table

    table = build_table(spec, algorithm)
    rows = [list(row) for row in table.rows]
    rows[1][0] += table.denominator  # one whole pattern too many
    return EnumeratorTable(algorithm, spec, tuple(map(tuple, rows)), table.denominator)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2"],
        ["simulate", "--regular", "4,1,2", "--algorithm", "dd", "--delta", "1/2",
         "--graphs", "2", "--patterns", "10", "--analytic"],
    ],
)
def test_row_sum_self_check_guards_analytic_output(argv, monkeypatch, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, _, err = run(argv + ["--out", str(out_path)], capsys)
    assert code == 0
    assert "row-sum self-check: PASS (5 rows)" in err
    out_path.unlink()
    monkeypatch.setattr("poolgraph.cli.build_table", _broken_table)
    code, out, err = run(argv + ["--out", str(out_path)], capsys)
    assert code == 1
    assert "row-sum self-check: FAIL at a=[1]" in err
    assert not out_path.exists() and out == ""


def _mass_at_no_errors(spec, algorithm):
    from poolgraph.enumerator import EnumeratorTable, build_table

    # Row a = n / 2 keeps its sum, but all of it moves to j = 0: r_a drops to 0.
    table = build_table(spec, algorithm)
    rows, middle = list(table.rows), spec.n // 2
    rows[middle] = (sum(rows[middle]),) + (0,) * (len(rows[middle]) - 1)
    return EnumeratorTable(algorithm, spec, tuple(rows), table.denominator)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--regular", "12,3,6", "--algorithm", "comp", "--delta", "1/10"],
        ["analyze", "--regular", "12,3,6", "--algorithm", "dd", "--delta-grid", "1/20,1/10"],
        ["simulate", "--regular", "12,3,6", "--algorithm", "dd", "--delta", "1/2",
         "--graphs", "2", "--patterns", "10", "--analytic"],
    ],
)
def test_coupling_self_check_guards_analytic_output(argv, monkeypatch, capsys):
    code, _, err = run(argv, capsys)
    assert (code, err) == (0, "row-sum self-check: PASS (13 rows)\n")
    monkeypatch.setattr("poolgraph.cli.build_table", _mass_at_no_errors)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "row-sum self-check: PASS (13 rows)\ncoupling self-check: FAIL at a=[5]\n"


def test_cached_analyze_sums_no_cell_again(monkeypatch, capsys):
    from poolgraph.enumerator import Algorithm, build_table

    argv = ["analyze", "--regular", "12,3,6", "--algorithm", "comp", "--delta-grid", "1/20,1/10"]
    first = run(argv, capsys)
    assert first[0] == 0
    # With the cached table's cells gone, only its kept row-sum check and
    # row weights can serve the second call.
    table = build_table(regular_spec(12, 3, 6), Algorithm.COMP)
    monkeypatch.setitem(table.__dict__, "counts", {})
    assert run(argv, capsys) == first


def test_cli_never_fills_the_fraction_view(capsys):
    # Tables are integer counts over E!; analyze reduces no cell, and the
    # CSV writer reduces each cell as it prints it, without caching.
    from poolgraph.enumerator import Algorithm, build_table

    build_table.cache_clear()
    for algorithm in Algorithm:
        for command in (["analyze", "--delta-grid", "1/20:1/2:1/20"], ["enumerate"]):
            argv = [command[0], "--regular", "30,3,6", "--algorithm", algorithm.value, *command[1:]]
            assert run(argv, capsys)[0] == 0
        assert "values" not in build_table(regular_spec(30, 3, 6), algorithm).__dict__


def test_verify_reports_a_mismatched_cell(monkeypatch, capsys):
    monkeypatch.setattr("poolgraph.cli.build_table", _broken_table)
    code, out, _ = run(["verify", "--regular", "4,1,2", "--algorithm", "comp"], capsys)
    assert code == 1
    lines = out.splitlines()
    # Both cells print reduced: the broken one is 24/24, the oracle's 0/24.
    assert "(1,0) FAIL closed-form=1 oracle=0" in lines
    assert [line for line in lines if "FAIL" in line] == ["(1,0) FAIL closed-form=1 oracle=0"]
    assert "(1,1) PASS" in lines
    assert lines[-1] == "verify comp: 1 mismatched cells over 24 matchings"


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta-grid", "1/2,3/2"],
        ["simulate", "--regular", "4,1,2", "--algorithm", "dd", "--delta-grid", "1/20,1/10,2",
         "--graphs", "2", "--patterns", "10"],
        ["simulate", "--regular", "4,1,2", "--algorithm", "comp", "--delta-grid", "1/20,1/10,2",
         "--graphs", "2", "--patterns", "10", "--analytic"],
    ],
)
def test_every_delta_is_checked_before_any_work(argv, monkeypatch, capsys):
    monkeypatch.setattr("poolgraph.cli.build_table", _refuse)
    monkeypatch.setattr("poolgraph.montecarlo.sample_graph", _refuse)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: delta must lie in [0, 1], got ")


@pytest.mark.parametrize(
    "flags,code",
    [
        (["--graphs", "0"], 1),
        (["--patterns", "0"], 1),
        (["--workers", "0"], 1),
        (["--seed", "-1"], 1),
        (["--graphs", "100000", "--patterns", "100000"], 2),
    ],
)
def test_simulate_inputs_are_checked_before_the_exact_table(flags, code, monkeypatch, capsys):
    monkeypatch.setattr("poolgraph.cli.build_table", _refuse)
    argv = ["simulate", "--regular", "30,3,6", "--algorithm", "comp", "--delta", "1/10", "--analytic", *flags]
    got, out, err = run(argv, capsys)
    assert got == code
    assert out == ""
    assert "row-sum" not in err
    assert err.startswith("refused: " if code == 2 else "error: ")


def test_precision_limit_is_inclusive(monkeypatch, capsys):
    argv = ["enumerate", "--regular", "4,1,2", "--algorithm", "comp", "--precision"]
    code, out, err = run(argv + [str(_PRECISION_LIMIT)], capsys)
    assert _PRECISION_LIMIT == 10_000
    assert code == 0
    assert "row-sum self-check: PASS" in err
    monkeypatch.setattr("poolgraph.cli.build_table", _refuse)
    for command in (argv, ["analyze", "--regular", "4,1,2", "--algorithm", "dd", "--delta", "1/2", "--precision"]):
        code, out, err = run(command + [str(_PRECISION_LIMIT + 1)], capsys)
        assert code == 2
        assert out == ""
        assert err == "refused: precision 10001 is over the limit of 10000 digits\n"


def test_version_flag(capsys):
    import poolgraph

    code, out, err = run(["--version"], capsys)
    assert code == 0
    assert out == f"poolgraph {poolgraph.__version__}\n"
    assert err == ""


def test_pyproject_version_is_the_package_version():
    import re
    from pathlib import Path

    import poolgraph

    # A regex, not tomllib, which Python 3.10 lacks.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == poolgraph.__version__
