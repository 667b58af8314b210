import hashlib
import io
import statistics
from fractions import Fraction

import pytest

from poolgraph.detection import Algorithm
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, regular_spec, spec_hash
from poolgraph.errors import SizeLimitError
from poolgraph.montecarlo import (
    _GRAPH_SETUP_PATTERNS,
    _WORK_LIMIT,
    RNG_SCHEME,
    _check_size,
    _pool_size,
    derive_seed,
    simulate,
    sweep,
    write_trials_csv,
)

SMALL = regular_spec(4, 1, 2)
# The spec in perfbench/specs/irregular-30.json.
IRREGULAR_30 = EnsembleSpec(
    n=30,
    m=15,
    left=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
    right=DegreeDistribution.regular(6),
)

# sha256 of the trials CSV plus repr of every report's per-graph rates, for
# sweep(spec, algorithm, [0, 1/7, 1/2, 1], 3 graphs, patterns, seed 2026,
# keep_per_graph=True). Recorded with the per-pattern Python decoding loop
# that the batch decoder replaced, so they pin the old bytes. Pattern counts
# 1, 4097 and 10^4 decode in one chunk, in a full chunk plus one pattern, and
# in several chunks.
GOLDEN_SWEEPS = {
    ("30,3,6", "comp", 1): "fbba05237f941211e903aa3a71e5220d0ce041286201d1fc00f648ddb4d43e3d",
    ("30,3,6", "comp", 4097): "59e111f6cdfba6a9ce845c0054317286d66dba778aae3ae739938dec96e5ac61",
    ("30,3,6", "comp", 10000): "ac9d601b8dfc043bdeb6fdd684bf08a533946a4c0d7605fe9a542beb5b13aab8",
    ("30,3,6", "dd", 1): "f824454b63bd8db52c974f47436b18e5e26ee639fe0158e3501bcb72746cf3a9",
    ("30,3,6", "dd", 4097): "385f10aa34e99f4396f667cafc42d1ca664d4fb15491c8c22fad9c57825058f6",
    ("30,3,6", "dd", 10000): "11bc275d2c074a07341a287c13d0d82c21a74a1b193100399fa7fdd995468275",
    ("irregular-30", "comp", 1): "5b49b2f8575859ceded628e86b6f2fe95dc819d19a123cfbd8155bfb740d028e",
    ("irregular-30", "comp", 4097): "b7533c757da33d82b34663724a48082e87769a35369cc88cf433c5abf7ff55e9",
    ("irregular-30", "comp", 10000): "0d8cbbaf039e875b9b348c0434536693745cfa93d510f821b2aec726edd26b12",
    ("irregular-30", "dd", 1): "876cfd33fd338b5bd41904d4fea56f9dc82f71939fd303041e8569603c84ed65",
    ("irregular-30", "dd", 4097): "f27728e0528f847ad1f52cc52e6e0177c4988b31f3c7a906282d6ec1fae3d478",
    ("irregular-30", "dd", 10000): "b94265b3508be64bbf92026b9628c50efc01061226fa0d36bc68c7d0aa4c0fa3",
}


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


def test_sweep_points_equal_simulate_on_their_seeds():
    grid = [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]
    reports = sweep(SMALL, Algorithm.DD, grid, 3, 70, seed=5, keep_per_graph=True)
    for index, (delta, report) in enumerate(zip(grid, reports)):
        alone = simulate(SMALL, Algorithm.DD, delta, 3, 70, derive_seed(5, index), keep_per_graph=True)
        assert vars(report) == vars(alone)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records each pool made and maps in this process."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_starts_one_pool_for_every_point(monkeypatch):
    monkeypatch.setattr("poolgraph.montecarlo.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr("poolgraph.montecarlo.os.cpu_count", lambda: 4)
    monkeypatch.setattr(_SerialPool, "made", [])
    grid = [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]
    pooled = sweep(SMALL, Algorithm.COMP, grid, 2, 30, seed=8, workers=3, keep_per_graph=True)
    assert _SerialPool.made == [3]
    serial = sweep(SMALL, Algorithm.COMP, grid, 2, 30, seed=8, keep_per_graph=True)
    assert _SerialPool.made == [3]
    assert [vars(r) for r in pooled] == [vars(r) for r in serial]


def test_sweep_worker_count_does_not_change_bytes():
    grid = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]
    outputs = []
    for workers in (1, 2):
        reports = sweep(regular_spec(30, 3, 6), Algorithm.DD, grid, 3, 130, seed=11, workers=workers,
                        keep_per_graph=True)
        buf = io.StringIO()
        write_trials_csv(reports, buf)
        outputs.append((buf.getvalue(), [r.per_graph_rates for r in reports]))
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("spec_name,algorithm,patterns", sorted(GOLDEN_SWEEPS))
def test_sweep_bytes_match_the_recorded_digests(spec_name, algorithm, patterns):
    spec = regular_spec(30, 3, 6) if spec_name == "30,3,6" else IRREGULAR_30
    grid = [Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)]
    reports = sweep(spec, Algorithm(algorithm), grid, 3, patterns, 2026, keep_per_graph=True)
    buf = io.StringIO()
    write_trials_csv(reports, buf)
    digest = hashlib.sha256(buf.getvalue().encode())
    digest.update(repr([r.per_graph_rates for r in reports]).encode())
    assert digest.hexdigest() == GOLDEN_SWEEPS[spec_name, algorithm, patterns]


def test_simulation_work_limit_is_inclusive():
    spec = regular_spec(25, 2, 5)
    per_graph = (9_000 + _GRAPH_SETUP_PATTERNS) * spec.n
    graphs = _WORK_LIMIT // per_graph
    assert graphs * per_graph == _WORK_LIMIT
    _check_size(spec, 1, graphs, 9_000)
    with pytest.raises(SizeLimitError):
        _check_size(spec, 1, graphs, 9_001)
    with pytest.raises(SizeLimitError):
        _check_size(spec, 2, graphs // 2 + 1, 9_000)
    with pytest.raises(ValueError):
        _check_size(spec, 1, 0, 10)


def test_everyday_sizes_are_accepted():
    case_study = regular_spec(30, 3, 6)
    _check_size(case_study, 1, 100, 10_000)  # the CLI defaults
    _check_size(case_study, 3, 40, 10_000)  # the benchmark's validate sweep
    _check_size(regular_spec(240, 3, 6), 10, 100, 10_000)


def test_runaway_simulation_is_refused_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr("poolgraph.montecarlo.sample_graph", refuse)
    with pytest.raises(SizeLimitError):
        simulate(regular_spec(30, 3, 6), Algorithm.COMP, Fraction(1, 10), 10**6, 10**9, seed=0)
    # The grid length counts: one point fits, a thousand do not.
    spec = regular_spec(30, 3, 6)
    _check_size(spec, 1, 1_000, 100_000)
    with pytest.raises(SizeLimitError):
        sweep(spec, Algorithm.DD, [Fraction(k, 1000) for k in range(1000)], 1_000, 100_000, seed=0)


def test_sweep_checks_every_delta_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr("poolgraph.montecarlo.sample_graph", refuse)
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\], got 3/2"):
        sweep(SMALL, Algorithm.COMP, [Fraction(1, 2), Fraction(3, 2)], 2, 10, seed=0)
    with pytest.raises(TypeError):
        sweep(SMALL, Algorithm.DD, [Fraction(1, 2), 0.5], 2, 10, seed=0)
