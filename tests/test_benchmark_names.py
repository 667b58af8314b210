"""The traced benchmark (perfbench/) rebinds package names by hand.

A rename or deletion in src/ of a name it rebinds would break every traced
benchmark run; this test makes it fail the ordinary test suite instead. Its
callbacks also read attributes of what the traced calls return (a table's
cells, an oracle report's matchings), so one traced analyze and one traced
verify run here too. It only reads files under perfbench/.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_names_install_and_restore(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    from poolgraph import cli

    main = cli.main
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert cli.main is not main
        assert cli.main(["analyze", "--regular", "4,1,2", "--algorithm", "comp", "--delta", "1/2"]) == 0
        assert cli.main(["verify", "--regular", "4,1,2", "--algorithm", "comp"]) == 0
    finally:
        tracer.restore()
    assert tracer.all_restored()
    assert cli.main is main
    capsys.readouterr()
    # (4,1,2) COMP has 5 + 4 + 3 + 2 + 1 cells; verify's build is a cache hit.
    assert [a["cells"] for a in tracer.attrs("enumerator.build_table")] == [15, 0]
    assert tracer.attrs("oracle.exact_enumerators") == [{"matchings": 24}]
