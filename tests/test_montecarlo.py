import io
import statistics
from fractions import Fraction

import pytest

from poolgraph.detection import Algorithm
from poolgraph.ensemble import regular_spec, spec_hash
from poolgraph.montecarlo import (
    RNG_SCHEME,
    _pool_size,
    derive_seed,
    simulate,
    sweep,
    write_trials_csv,
)

SMALL = regular_spec(4, 1, 2)


def test_derive_seed_is_deterministic():
    assert derive_seed(0) == derive_seed(0)
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)


def test_derive_seed_separates_streams():
    seen = {derive_seed(0), derive_seed(1), derive_seed(0, 0), derive_seed(0, 1),
            derive_seed(0, 0, 0), derive_seed(0, 1, 0), derive_seed(0, 0, 1)}
    assert len(seen) == 7
    for value in seen:
        assert 0 <= value < 2**64


def test_derive_seed_rejects_bad_words():
    with pytest.raises(ValueError):
        derive_seed(-1)
    with pytest.raises(ValueError):
        derive_seed(2**64)
    with pytest.raises(ValueError):
        derive_seed(0, -3)


def test_simulate_is_reproducible():
    a = simulate(SMALL, Algorithm.COMP, Fraction(1, 3), 5, 50, seed=42)
    b = simulate(SMALL, Algorithm.COMP, Fraction(1, 3), 5, 50, seed=42)
    assert a.far_mean == b.far_mean
    assert a.far_stderr == b.far_stderr
    assert a.mdr_mean == b.mdr_mean
    assert a.mdr_stderr == b.mdr_stderr
    c = simulate(SMALL, Algorithm.COMP, Fraction(1, 3), 5, 50, seed=43)
    assert (c.far_mean, c.far_stderr) != (a.far_mean, a.far_stderr)


def test_worker_count_does_not_change_results():
    serial = simulate(SMALL, Algorithm.DD, Fraction(1, 4), 6, 40, seed=9, keep_per_graph=True)
    parallel = simulate(SMALL, Algorithm.DD, Fraction(1, 4), 6, 40, seed=9, workers=3,
                        keep_per_graph=True)
    assert serial.far_mean == parallel.far_mean
    assert serial.far_stderr == parallel.far_stderr
    assert serial.mdr_mean == parallel.mdr_mean
    assert serial.mdr_stderr == parallel.mdr_stderr
    assert serial.per_graph_rates == parallel.per_graph_rates


def test_pool_size_is_capped_by_cpus_and_graphs():
    assert _pool_size(8, 100, 2) == 2
    assert _pool_size(10**6, 100, 4) == 4
    assert _pool_size(6, 3, 16) == 3
    assert _pool_size(2, 10, 16) == 2
    assert _pool_size(1, 10, 16) == 1
    assert _pool_size(8, 10, None) == 1


def test_no_defectives_no_errors():
    report = simulate(SMALL, Algorithm.COMP, 0, 4, 25, seed=1)
    assert report.far_mean == 0.0
    assert report.far_stderr == 0.0
    assert report.mdr_mean == 0.0


def test_decoder_one_sided_guarantees():
    comp = simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 8, 100, seed=5)
    assert comp.mdr_mean == 0.0
    assert comp.mdr_stderr == 0.0
    dd = simulate(SMALL, Algorithm.DD, Fraction(1, 2), 8, 100, seed=5)
    assert dd.far_mean == 0.0
    assert dd.far_stderr == 0.0


def test_all_defective_pair_is_always_missed():
    # One test containing both items: neither is ever the sole positive.
    report = simulate(regular_spec(2, 1, 2), Algorithm.DD, 1, 3, 20, seed=0)
    assert report.mdr_mean == 1.0
    assert report.mdr_stderr == 0.0


def test_stderr_matches_two_pass_computation():
    # One pattern per graph makes each per-graph rate a raw sample, so the
    # streaming stderr must agree with the textbook formula.
    report = simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 40, 1, seed=11,
                      keep_per_graph=True)
    rates = [far for far, _ in report.per_graph_rates]
    expected = statistics.stdev(rates) / len(rates) ** 0.5
    assert report.far_mean == pytest.approx(statistics.fmean(rates), abs=1e-15)
    assert report.far_stderr == pytest.approx(expected, rel=1e-12)


def test_per_graph_rates_default_off():
    report = simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 3, 10, seed=2)
    assert report.per_graph_rates is None
    kept = simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 3, 10, seed=2, keep_per_graph=True)
    assert len(kept.per_graph_rates) == 3
    merged = sum(far for far, _ in kept.per_graph_rates) / 3
    assert kept.far_mean == pytest.approx(merged, abs=1e-15)


def test_report_metadata():
    report = simulate(SMALL, Algorithm.COMP, "1/3", 2, 5, seed=0)
    assert report.rng == RNG_SCHEME == "pcg64-sha256split"
    assert report.delta == Fraction(1, 3)
    assert report.graphs == 2 and report.patterns_per_graph == 5


def test_sweep_uses_independent_seed_streams():
    grid = [Fraction(1, 4), Fraction(1, 2)]
    reports = sweep(SMALL, Algorithm.COMP, grid, 3, 30, seed=17)
    assert [r.delta for r in reports] == grid
    assert reports[0].seed == derive_seed(17, 0)
    assert reports[1].seed == derive_seed(17, 1)
    again = sweep(SMALL, Algorithm.COMP, grid, 3, 30, seed=17)
    assert [r.far_mean for r in again] == [r.far_mean for r in reports]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(SMALL, Algorithm.COMP, [], 2, 10, seed=0)


def test_input_validation():
    with pytest.raises(TypeError):
        simulate(SMALL, Algorithm.COMP, 0.5, 2, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 2, 0, seed=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 2, 10, seed=0, workers=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(3, 2), 2, 10, seed=0)


def test_trials_csv_layout():
    reports = sweep(SMALL, Algorithm.COMP, [Fraction(1, 4), Fraction(1, 2)], 2, 10, seed=3)
    buf = io.StringIO()
    write_trials_csv(reports, buf, analytic=[Fraction(1, 8), None])
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"# spec_hash={spec_hash(SMALL)} rng={RNG_SCHEME}"
    assert lines[1].startswith("delta,algorithm,n,m,graphs,patterns,")
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "1/4" and first[1] == "comp"
    assert first[10] == "0.125"
    assert lines[3].split(",")[10] == ""


def test_trials_csv_analytic_alignment():
    reports = [simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 2, 5, seed=0)]
    with pytest.raises(ValueError):
        write_trials_csv(reports, io.StringIO(), analytic=[])


def test_trials_csv_roundtrip_bytes(tmp_path):
    reports = [simulate(SMALL, Algorithm.DD, Fraction(1, 3), 3, 20, seed=8)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trials_csv(reports, p1)
    write_trials_csv(reports, p2)
    assert p1.read_bytes() == p2.read_bytes()
