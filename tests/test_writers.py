"""Every CSV, and verify's report, is written through one output opener and one header line.

A path and an open stream get the same bytes, and the stream is left open.
Each CSV starts with exactly one `# spec_hash=` line, and bad input raises
before a path is created or truncated.
"""

import contextlib
import io
from fractions import Fraction

import pytest

from poolgraph.cli import main
from poolgraph.ensemble import regular_spec, spec_hash
from poolgraph.enumerator import Algorithm, EnumeratorTable, build_table, write_table_csv
from poolgraph.montecarlo import RNG_SCHEME, sweep, write_trials_csv

SPEC = regular_spec(4, 1, 2)
HASH = spec_hash(SPEC)
TRIALS_COLUMNS = (
    "delta,algorithm,n,m,graphs,patterns,far_mean,far_stderr,"
    "mdr_mean,mdr_stderr,analytic_value,seed,far_graph_stderr,mdr_graph_stderr\n"
)


def _reports():
    return sweep(SPEC, Algorithm.DD, [Fraction(1, 4), Fraction(1, 2)], 2, 10, seed=1)


def _cli(*argv):
    """The command's output sent to a path through --out, or to a stream as stdout."""

    def write(dest):
        if isinstance(dest, io.StringIO):
            with contextlib.redirect_stdout(dest):
                assert main(list(argv)) == 0
        else:
            assert main([*argv, "--out", str(dest)]) == 0

    return write


WRITERS = {
    "table": (
        lambda dest: write_table_csv(build_table(SPEC, Algorithm.COMP), dest),
        f"# spec_hash={HASH} algorithm=comp source=enumerator",
    ),
    "analyze": (
        _cli("analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta-grid", "1/4,1/2"),
        f"# spec_hash={HASH} algorithm=comp",
    ),
    "trials": (
        lambda dest: write_trials_csv(_reports(), dest, analytic=[Fraction(1, 8), None]),
        f"# spec_hash={HASH} rng={RNG_SCHEME}",
    ),
    "verify": (_cli("verify", "--regular", "4,1,2", "--algorithm", "dd"), None),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_path_and_stream_get_the_same_bytes_and_one_header(name, tmp_path, capsys):
    write, header = WRITERS[name]
    path, stream = tmp_path / "out.csv", io.StringIO()
    write(path)
    write(stream)
    assert not stream.closed
    data = path.read_bytes()
    assert data == stream.getvalue().encode("utf-8")
    lines = data.decode("utf-8").splitlines()
    assert [line for line in lines if line.startswith("#")] == ([header] if header else [])
    if header:
        assert lines[0] == header


def _incomplete_table(dest):
    table = build_table(SPEC, Algorithm.COMP)
    rows = list(table.rows)
    rows[1] = rows[1][:-1]  # row 1 loses its last cell
    write_table_csv(EnumeratorTable(Algorithm.COMP, SPEC, tuple(rows), table.denominator), dest)


def _misaligned_analytic(dest):
    write_trials_csv(_reports(), dest, analytic=[Fraction(1, 8)])


def _two_specs(dest):
    other = sweep(regular_spec(6, 2, 3), Algorithm.DD, [Fraction(1, 4)], 2, 10, seed=1)
    write_trials_csv(_reports() + other, dest)


@pytest.mark.parametrize("write", [_incomplete_table, _misaligned_analytic, _two_specs])
def test_bad_input_raises_before_a_path_is_touched(write, tmp_path):
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("kept\n", encoding="utf-8")
    for dest in (fresh, kept):
        with pytest.raises(ValueError):
            write(dest)
    assert not fresh.exists()
    assert kept.read_text(encoding="utf-8") == "kept\n"


def test_no_reports_write_the_column_row_alone(tmp_path):
    stream, path = io.StringIO(), tmp_path / "empty.csv"
    write_trials_csv([], stream)
    write_trials_csv([], path)
    assert stream.getvalue() == path.read_text(encoding="utf-8") == TRIALS_COLUMNS
