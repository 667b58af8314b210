"""The traced benchmark (perfbench/) rebinds package names by hand.

A rename or deletion in src/ of a name it rebinds would break every traced
benchmark run; this test makes it fail the ordinary test suite instead. It
only reads files under perfbench/.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_names_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    from poolgraph import cli

    main = cli.main
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert cli.main is not main
    finally:
        tracer.restore()
    assert tracer.all_restored()
    assert cli.main is main
