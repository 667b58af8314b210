import hashlib
import io
import math
import statistics
import tracemalloc
from pathlib import Path
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from poolgraph.detection import CHUNK_PATTERNS, Algorithm, decode_tables, union_tables
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, regular_spec, sample_graph, spec_hash
from poolgraph.errors import LIMIT_SECONDS, SizeLimitError
from pcg64_reference import raw_words
from poolgraph import montecarlo
from poolgraph.montecarlo import (
    _GRAPH_KEY,
    _PATTERN_KEY,
    RNG_SCHEME,
    _draw_words,
    _graph_tally,
    _pool_size,
    check_run,
    _predicted_seconds,
    derive_seed,
    simulate,
    sweep,
    write_trials_csv,
)

SMALL = regular_spec(4, 1, 2)
PERFBENCH_SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"
# numpy's PCG64 state for derive_seed(0, 0, _GRAPH_KEY) and derive_seed(0, 1, _PATTERN_KEY).
PCG64_STATES = [
    {"state": 334288934624489513151042647236274030743, "inc": 164752700751288910666209867734645218769},
    {"state": 257830776927033181673315308764735427049, "inc": 83326796485322266238943706901064580249},
]
# The spec in perfbench/specs/irregular-30.json.
IRREGULAR_30 = EnsembleSpec(
    n=30,
    m=15,
    left=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
    right=DegreeDistribution.regular(6),
)

# sha256 of the trials CSV plus repr of every report's per-graph rates, for
# sweep(spec, algorithm, [0, 1/7, 1/2, 1], 3 graphs, patterns, seed 2026,
# keep_per_graph=True). Recorded under RNG scheme pcg64raw-sha256split-v2,
# when patterns came to be drawn exactly as words and graphs as Fisher-Yates
# shuffles of raw words. Pattern counts 1, 4097 and 10^4 decode in one
# chunk, in a full chunk plus one pattern, and in several chunks.
GOLDEN_SWEEPS = {
    ("30,3,6", "comp", 1): "2dec688d798985c17f11a49dd9640c65f1db5077b2ea167a7d1e41184524f753",
    ("30,3,6", "comp", 4097): "6d8c7e24087cb706675d28a2636e17b0feac354718030ed175a7260731121ca8",
    ("30,3,6", "comp", 10000): "326523411d85c88b9c9a1c9987099277f19d96d379391e8676b1fb60a02f2b90",
    ("30,3,6", "dd", 1): "6d6cb5556997ae0c79404f4d6046e19dbd21831f47fdb04f01da47c8360ca095",
    ("30,3,6", "dd", 4097): "4fb2a6f8785746d69b493ac9303d5550ed68b02c82505ab3d9c9518d53f1b068",
    ("30,3,6", "dd", 10000): "59f0f36613693b875bcaedbc6c9d1ca56a5838ad77607b0575a705f3fc2252fe",
    ("irregular-30", "comp", 1): "9edd990618558b40566a9c040447668b053343b11ed4a1ba416543637bba6e68",
    ("irregular-30", "comp", 4097): "a7d6e4a3334060f68e12101d33c3662cef205d203a68985206fe905e93ed5021",
    ("irregular-30", "comp", 10000): "957491840f1b366f3c04c3b26556966728563e62dd73526d547c119a5a35c4d6",
    ("irregular-30", "dd", 1): "a810c6cac5604a103dd886839cd5c5972f071b605c27a7ee5e48fe9990a987ac",
    ("irregular-30", "dd", 4097): "efab145a4a4fb3af9a8ac21585c9acd1d8c10404eee4d40c9024365196d14a70",
    ("irregular-30", "dd", 10000): "3a7424a6dd6f6f667ebb75c4fbe119e13b1b41822aa7c991606b26da968769c5",
}


WORD_DRAW_DELTAS = [Fraction(0), Fraction(1, 2), Fraction(3, 8), Fraction(1, 3), Fraction(1, 20), Fraction(1)]


def _reference_draw(bits, delta, n, count):
    """Lane by lane in Python ints: a lazily read uniform binary fraction against delta's digits.

    Lane b of word w in row v is item v of pattern 64 w + b. For each digit,
    every word with an undecided lane, in row-major order, reads one raw
    word; a lane whose raw bit differs from the digit is decided, defective
    when the digit is 1. Lanes left when a dyadic delta runs out of digits
    equal its expansion so far, so they are at or above delta: not defective.
    """
    width = -(-count // 64)
    state = [[[None] * min(64, count - 64 * w) for w in range(width)] for _ in range(n)]
    if delta in (0, 1):
        state = [[[bool(delta)] * len(word) for word in row] for row in state]
    rest = Fraction(delta)
    while any(None in word for row in state for word in row):
        if rest == 0:
            state = [[[bool(lane) for lane in word] for word in row] for row in state]
            break
        rest *= 2
        digit = int(rest >= 1)
        rest -= digit
        for row in state:
            for word in row:
                if None in word:
                    raw = int(bits.random_raw())
                    for b, lane in enumerate(word):
                        if lane is None and (raw >> b) & 1 != digit:
                            word[b] = digit == 1
    return np.array([[sum(1 << b for b, lane in enumerate(word) if lane) for word in row] for row in state],
                    dtype=np.uint64)


@pytest.mark.parametrize("count", [1, 63, 64, 65, 4097])
@pytest.mark.parametrize("delta", WORD_DRAW_DELTAS, ids=str)
def test_word_draw_equals_per_lane_reference(delta, count):
    fast, slow = np.random.PCG64(41), np.random.PCG64(41)
    # Two chunks in a row: the second starts where the first stopped reading.
    for n in (3, 2):
        assert np.array_equal(_draw_words(fast, delta, n, count), _reference_draw(slow, delta, n, count))
    assert fast.random_raw() == slow.random_raw()


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(1, 10), Fraction(3, 8), Fraction(1)], ids=str)
def test_word_draw_rate_is_delta(delta):
    n, count = 2442, 4096  # 10,002,432 item-patterns
    hits = int(np.bitwise_count(_draw_words(np.random.PCG64(2026), delta, n, count)).sum())
    total = n * count
    assert abs(hits / total - delta) <= 4 * math.sqrt(delta * (1 - delta) / total)


def _bool_layout_counts(spec, algorithm, delta, patterns, seed, graph):
    """Counter of (a, j) over one graph's patterns, decoded one bool pattern at a time."""
    adj = sample_graph(spec, derive_seed(seed, graph, _GRAPH_KEY)).adj
    tables = union_tables(np.array([sum(adj, ())]), spec.n, spec.test_degrees)
    bits = np.random.PCG64(derive_seed(seed, graph, _PATTERN_KEY))
    counts = Counter()
    for start in range(0, patterns, CHUNK_PATTERNS):
        count = min(CHUNK_PATTERNS, patterns - start)
        words = _draw_words(bits, delta, spec.n, count).tolist()
        defective = np.array([[(row[p // 64] >> p % 64) & 1 for p in range(count)] for row in words], dtype=bool)
        estimate = decode_tables(*tables, defective, algorithm)
        wrong = estimate & ~defective if algorithm is Algorithm.COMP else defective & ~estimate
        counts.update(zip(defective.sum(axis=0).tolist(), wrong.sum(axis=0).tolist()))
    return counts


def _exact_rates(spec, algorithm, counts):
    """Counter of exact per-pattern rates j / c(a), c(a) = n - a for COMP and a for DD; c(a) = 0 gives 0."""
    rates = Counter()
    for (a, j), count in counts.items():
        c = spec.n - a if algorithm is Algorithm.COMP else a
        rates[Fraction(j, c) if c else Fraction(0)] += count
    return rates


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_graph_tally_equals_bool_layout_count(algorithm):
    spec, delta, patterns, seed, graph = regular_spec(6, 2, 3), Fraction(1, 3), CHUNK_PATTERNS + 130, 9, 2
    rates = _exact_rates(spec, algorithm, _bool_layout_counts(spec, algorithm, delta, patterns, seed, graph))
    first, second, scale = _graph_tally(spec, algorithm, delta, patterns, seed, graph)
    assert first > 0
    assert Fraction(first, scale) == sum(count * r for r, count in rates.items())
    assert Fraction(second, scale**2) == sum(count * r * r for r, count in rates.items())


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_report_statistics_are_the_exact_values_rounded_once(algorithm):
    spec, delta, graphs, patterns, seed = regular_spec(12, 3, 6), Fraction(1, 10), 6, 100, 1
    report = simulate(spec, algorithm, delta, graphs, patterns, seed, keep_per_graph=True)
    counts = [_bool_layout_counts(spec, algorithm, delta, patterns, seed, g) for g in range(graphs)]
    # No one graph's lcm of the c(a) it met with errors is a multiple of every other's.
    multiples = [math.lcm(*(spec.n - a if algorithm is Algorithm.COMP else a for a, j in c if j)) for c in counts]
    assert math.lcm(*multiples) not in multiples
    rates = [_exact_rates(spec, algorithm, graph_counts) for graph_counts in counts]
    sums = [sum(r * count for r, count in graph_rates.items()) for graph_rates in rates]
    squares = sum(r * r * count for graph_rates in rates for r, count in graph_rates.items())
    total, count = sum(sums), graphs * patterns
    pooled = (count * squares - total**2) / (count**2 * (count - 1))
    clustered = (graphs * sum(s * s for s in sums) - total**2) / ((patterns * graphs) ** 2 * (graphs - 1))
    expected = (float(total / count), math.sqrt(float(pooled)), math.sqrt(float(clustered)))
    comp = algorithm is Algorithm.COMP
    mean, stderr, graph_stderr = (
        (report.far_mean, report.far_stderr, report.far_graph_stderr)
        if comp else (report.mdr_mean, report.mdr_stderr, report.mdr_graph_stderr)
    )
    assert (mean, stderr, graph_stderr) == expected
    per_graph = [float(s / patterns) for s in sums]
    assert report.per_graph_rates == tuple((r, 0.0) if comp else (0.0, r) for r in per_graph)
    graph_sums = [_graph_tally(spec, algorithm, delta, patterns, seed, g) for g in range(graphs)]
    *reversed_rates, reversed_per_graph = montecarlo._rate_statistics(patterns, graph_sums[::-1])
    assert tuple(reversed_rates) == expected
    assert reversed_per_graph == per_graph[::-1]


def test_large_graph_tally_memory_is_linear_in_n():
    # A tally is 2 (n + 1) integers; an (n + 1)^2 one would be 288 MB at n = 6000.
    spec = regular_spec(6000, 3, 6)
    tracemalloc.start()
    try:
        report = simulate(spec, Algorithm.DD, Fraction(1, 20), 1, 70, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert 0 < report.mdr_mean < 1


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
    # Only exact ints: 1.9, 1.0 or True read as 1 would share 1's stream.
    for master in (True, 1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            derive_seed(master)
    for part in (1.9, True, 1.0, 2**64):
        with pytest.raises(ValueError, match="seed path components must be 64-bit unsigned integers"):
            derive_seed(5, part)


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


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_graph_stderr_is_the_spread_of_per_graph_rates(algorithm):
    report = simulate(regular_spec(12, 3, 6), algorithm, Fraction(1, 5), 12, 300, seed=4, keep_per_graph=True)
    column = 0 if algorithm is Algorithm.COMP else 1
    rates = [pair[column] for pair in report.per_graph_rates]
    mean, graph_se, pooled = (
        (report.far_mean, report.far_graph_stderr, report.far_stderr)
        if column == 0 else (report.mdr_mean, report.mdr_graph_stderr, report.mdr_stderr)
    )
    assert mean == pytest.approx(statistics.fmean(rates), rel=1e-12)
    assert graph_se == pytest.approx(statistics.stdev(rates) / math.sqrt(len(rates)), rel=1e-12)
    assert graph_se > pooled > 0
    other = (report.mdr_graph_stderr, report.mdr_mean) if column == 0 else (report.far_graph_stderr, report.far_mean)
    assert other == (0.0, 0.0)


def test_per_graph_rates_default_off():
    report = simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 3, 10, seed=2)
    assert report.per_graph_rates is None
    kept = simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 3, 10, seed=2, keep_per_graph=True)
    assert len(kept.per_graph_rates) == 3
    merged = sum(far for far, _ in kept.per_graph_rates) / 3
    assert kept.far_mean == pytest.approx(merged, abs=1e-15)


def test_report_metadata():
    report = simulate(SMALL, Algorithm.COMP, "1/3", 2, 5, seed=0)
    assert RNG_SCHEME == "pcg64raw-sha256split-v2"
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
    # An empty iterator is an empty grid too, though it is truthy.
    for grid in ([], iter([])):
        with pytest.raises(ValueError, match="^delta grid must be non-empty$"):
            sweep(SMALL, Algorithm.COMP, grid, 2, 10, seed=0)


def _no_reports(*args, **kwargs):
    raise AssertionError("a report was started before the inputs were checked")


def test_input_validation(monkeypatch):
    # Every input is checked before _reports starts a pool or samples a graph.
    monkeypatch.setattr(montecarlo, "_reports", _no_reports)
    for inexact in (0.5, True):
        with pytest.raises(TypeError):
            simulate(SMALL, Algorithm.COMP, inexact, 2, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 2, 0, seed=0)
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 2, 10, seed=0, workers=0)
    with pytest.raises(ValueError):
        simulate(SMALL, Algorithm.COMP, Fraction(3, 2), 2, 10, seed=0)
    for seed in (-1, 2**64, True, 1.5):  # a bool or a float seed ran, or failed inside the first graph
        with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, got {seed}$"):
            simulate(SMALL, Algorithm.COMP, Fraction(1, 2), 2, 10, seed=seed)
    assert check_run(SMALL, iter(["1/2", 0]), 2, 10, 0) == [Fraction(1, 2), Fraction(0)]


def _no_tally(*args):
    raise AssertionError("a graph was tallied before the run sizes were checked")


@pytest.mark.parametrize("grid", ["10", "1/2", b"10"], ids=repr)
def test_a_string_delta_grid_is_refused_before_any_work(grid, monkeypatch):
    # "10" was read one character at a time and ran delta = 1 and delta = 0; "1/2" failed on '/'.
    def never(*args, **kwargs):
        raise AssertionError("a pool or a graph was made for a string grid")

    for name in ("ProcessPoolExecutor", "sample_graph", "_graph_tally"):
        monkeypatch.setattr(montecarlo, name, never)
    with pytest.raises(TypeError, match="^delta_grid must be a collection of deltas, not a string"):
        montecarlo.sweep(regular_spec(4, 1, 2), Algorithm.COMP, grid, 2, 10, 1)
    with pytest.raises(TypeError, match="^delta_grid must be a collection of deltas, not a string"):
        check_run(regular_spec(4, 1, 2), grid, 2, 10, 1, workers=2)


@pytest.mark.parametrize("size", [True, 2.0, 10.5], ids=repr)
@pytest.mark.parametrize("name", ["graphs", "patterns_per_graph", "workers"])
def test_run_sizes_must_be_ints(name, size, monkeypatch):
    # sweep(..., True, True, 3) wrote True,True into the CSV; a float failed inside the first graph.
    monkeypatch.setattr(montecarlo, "_graph_tally", _no_tally)
    sizes = {"graphs": 2, "patterns_per_graph": 10, "workers": 1, name: size}
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {size!r}$"):
        check_run(SMALL, [Fraction(1, 4)], sizes["graphs"], sizes["patterns_per_graph"], 3, workers=sizes["workers"])
    for run, delta in ((simulate, Fraction(1, 4)), (sweep, [Fraction(1, 4)])):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            run(SMALL, Algorithm.COMP, delta, sizes["graphs"], sizes["patterns_per_graph"], 3, workers=sizes["workers"])


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


def _checked(spec, deltas, graphs, patterns):
    # check_run on a grid of `deltas` points.
    return check_run(spec, [Fraction(1, 10)] * deltas, graphs, patterns, 0)


def test_simulation_work_limit_is_inclusive():
    spec = regular_spec(25, 2, 5)
    per_graph = _predicted_seconds(spec, 1, 1, 9_000)
    graphs = int(LIMIT_SECONDS // per_graph)
    while _predicted_seconds(spec, 1, graphs + 1, 9_000) <= LIMIT_SECONDS:
        graphs += 1
    _checked(spec, 1, graphs, 9_000)
    with pytest.raises(SizeLimitError):
        _checked(spec, 1, graphs + 1, 9_000)
    with pytest.raises(SizeLimitError):
        _checked(spec, 2, graphs // 2 + 1, 9_000)
    with pytest.raises(ValueError):
        _checked(spec, 1, 0, 10)


def test_simulation_units_are_item_patterns_and_graphs():
    # (n + _PATTERN_ITEMS) x patterns item-pattern units and one set-up per
    # graph, every graph once per delta.
    spec = regular_spec(30, 3, 6)
    decode = _predicted_seconds(spec, 3, 40, 10_001) - _predicted_seconds(spec, 3, 40, 10_000)
    assert decode == pytest.approx(3 * 40 * (30 + montecarlo._PATTERN_ITEMS) * montecarlo._ITEM_PATTERN_SECONDS)
    setup = _predicted_seconds(spec, 1, 1, 1) - (30 + montecarlo._PATTERN_ITEMS) * montecarlo._ITEM_PATTERN_SECONDS
    assert setup == pytest.approx(montecarlo._GRAPH_SECONDS + 90 * montecarlo._GRAPH_EDGE_SECONDS)


def _ensemble(n, m, left, right):
    return EnsembleSpec(n=n, m=m, left=DegreeDistribution.from_dict(left), right=DegreeDistribution.from_dict(right))


def test_everyday_sizes_are_accepted():
    from poolgraph import enumerator, oracle
    from poolgraph.ensemble import load_spec

    case_study = regular_spec(30, 3, 6)
    _checked(case_study, 1, 100, 10_000)  # the CLI defaults, and acceptance check 7 per delta
    _checked(case_study, 3, 40, 10_000)  # the benchmark's validate sweep
    _checked(case_study, 3, 16, 500)  # and its worker-identity sweeps
    _checked(regular_spec(240, 3, 6), 10, 100, 10_000)
    half, third = Fraction(1, 2), Fraction(1, 3)
    irregular = {2: half, 4: half}
    three_tests = {4: third, 6: third, 8: third}
    bench = [load_spec(path) for path in sorted(PERFBENCH_SPECS.glob("*.json"))]
    # Every oracle run they make: the verify specs, then acceptance check 3's
    # specs with 8, 9, 12 and 14 edges, and the 24-edge (8,2,4) within reach.
    oracle_specs = [
        bench[2], regular_spec(4, 1, 2), regular_spec(4, 2, 2),
        _ensemble(4, 3, {1: half, 3: half}, {2: Fraction(2, 3), 4: third}),
        _ensemble(6, 3, {1: half, 2: half}, {2: third, 3: third, 4: third}),
        regular_spec(6, 2, 3), regular_spec(6, 2, 4),
        _ensemble(6, 3, {2: Fraction(2, 3), 3: third}, {4: third, 5: Fraction(2, 3)}),
    ]
    for spec in oracle_specs + [regular_spec(8, 2, 4)]:
        oracle.multigraph_count(spec)
    # Every table the CLI tests, the benchmark and the acceptance suite build, and
    # the multi-test-degree and irregular n = 60 DD tables that were refused before.
    tables = oracle_specs + bench[:2]
    shapes = ((6, 2, 3), (6, 3, 6), (8, 2, 4), (12, 2, 4), (12, 3, 6), (30, 3, 6), (60, 3, 6))
    tables += [regular_spec(n, l, r) for n, l, r in shapes]
    tables += [_ensemble(n, n // 2, irregular, {6: 1}) for n in (8, 12, 30, 60)]
    tables += [_ensemble(n, n // 2, {3: 1}, three_tests) for n in (12, 24, 36)]
    tables += [
        _ensemble(8, 4, {1: half, 2: half}, {2: half, 4: half}),
        _ensemble(12, 6, {2: third, 3: third, 4: third}, {4: half, 8: half}),
    ]
    for spec in tables:
        _checked(spec, 1, 100, 10_000)
        for algorithm in Algorithm:
            assert enumerator._predicted_seconds(spec, algorithm) <= LIMIT_SECONDS, (spec, algorithm)


def test_runaway_simulation_is_refused_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr("poolgraph.montecarlo.sample_graph", refuse)
    with pytest.raises(SizeLimitError):
        simulate(regular_spec(30, 3, 6), Algorithm.COMP, Fraction(1, 10), 10**6, 10**9, seed=0)
    # The grid length counts: one point fits, a thousand do not.
    spec = regular_spec(30, 3, 6)
    _checked(spec, 1, 1_000, 100_000)
    with pytest.raises(SizeLimitError):
        sweep(spec, Algorithm.DD, [Fraction(k, 1000) for k in range(1000)], 1_000, 100_000, seed=0)
    # Each graph costs its set-up: ten million one-pattern graphs on (2,1,2) take about an hour.
    with pytest.raises(SizeLimitError):
        simulate(regular_spec(2, 1, 2), Algorithm.DD, Fraction(1, 10), 10**7, 1, seed=0)
    # A count past the float range is refused too.
    with pytest.raises(SizeLimitError, match="more than 1e308 s"):
        simulate(regular_spec(2, 1, 2), Algorithm.DD, Fraction(1, 10), 10**400, 1, seed=0)


def test_a_run_over_the_memory_limit_is_refused_before_sampling(monkeypatch):
    # One chunk of (400000,3,6) holds about 5 GB; it fits the time limit, so only the byte limit refuses it.
    def refuse(*args):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr("poolgraph.montecarlo.sample_graph", refuse)
    monkeypatch.setattr("poolgraph.montecarlo.os.cpu_count", lambda: 2)
    large = regular_spec(400_000, 3, 6)
    assert _predicted_seconds(large, 1, 1, 4096) <= LIMIT_SECONDS
    message = "^1 deltas x 1 graphs x 4096 patterns on n=400000 with 1 workers is predicted to need 5.08e\\+09 bytes"
    with pytest.raises(SizeLimitError, match=message):
        simulate(large, Algorithm.DD, Fraction(1, 10), 1, 4096, seed=0)
    with pytest.raises(SizeLimitError, match="over the limit of 4294967296 bytes$"):
        sweep(large, Algorithm.COMP, [Fraction(1, 10)], 1, 4096, seed=0)
    # A graph holds one chunk of at most CHUNK_PATTERNS patterns at a time, and each worker process one graph.
    half = regular_spec(200_000, 3, 6)
    _checked(half, 1, 1, 10 * CHUNK_PATTERNS)
    check_run(half, [Fraction(1, 10)], 1, 4096, 0, workers=2)
    with pytest.raises(SizeLimitError, match="with 2 workers"):
        check_run(half, [Fraction(1, 10)], 2, 4096, 0, workers=2)
    with pytest.raises(SizeLimitError, match="with 2 workers"):
        check_run(half, [Fraction(1, 10), Fraction(1, 5)], 1, 4096, 0, workers=2)
    # Sizes far below it stay accepted.
    _checked(regular_spec(2000, 3, 6), 3, 40, 10_000)
    check_run(regular_spec(2000, 3, 6), [Fraction(1, 10)], 40, 10_000, 0, workers=8)
    # Only the processes the pool starts count: workers past the CPUs, or past the (delta, graph) tasks, add none.
    # (42300,3,6) x 4096 patterns holds about 537 MB a chunk: eight chunks are over the limit, two are not.
    middle = regular_spec(42_300, 3, 6)
    for cpus in (2, 1, None):
        monkeypatch.setattr("poolgraph.montecarlo.os.cpu_count", lambda: cpus)
        check_run(middle, [Fraction(1, 10)], 8, 4096, 0, workers=8)
    monkeypatch.setattr("poolgraph.montecarlo.os.cpu_count", lambda: 8)
    with pytest.raises(SizeLimitError, match="with 8 workers is predicted to need 4.3e\\+09 bytes"):
        check_run(middle, [Fraction(1, 10)], 8, 4096, 0, workers=8)
    check_run(middle, [Fraction(1, 10)], 2, 4096, 0, workers=8)


@pytest.mark.parametrize(
    "graph, key, state",
    [
        (0, _GRAPH_KEY, PCG64_STATES[0]),
        (1, _PATTERN_KEY, PCG64_STATES[1]),
    ],
)
def test_raw_stream_is_pcg64_xsl_rr(graph, key, state):
    # numpy's seeding of each stream, and its raw words, against a pure-Python PCG64.
    seeded = np.random.PCG64(derive_seed(0, graph, key))
    assert seeded.state["state"] == state
    assert raw_words(state["state"], state["inc"], 1000) == seeded.random_raw(1000).tolist()


def test_sweep_checks_every_delta_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr("poolgraph.montecarlo.sample_graph", refuse)
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\], got 3/2"):
        sweep(SMALL, Algorithm.COMP, [Fraction(1, 2), Fraction(3, 2)], 2, 10, seed=0)
    for inexact in (0.5, True):
        with pytest.raises(TypeError):
            sweep(SMALL, Algorithm.DD, [Fraction(1, 2), inexact], 2, 10, seed=0)
