"""Monte Carlo estimation of false-alarm and misdetection rates.

Samples pooling graphs from the configuration ensemble, draws i.i.d.
Bernoulli(delta) defectivity patterns on each, runs the decoders, and
reports per-pattern rates fa/(n-defectives) and md/defectives (zero
denominator contributes 0): exactly the quantities the enumerator module
computes in closed form.

A graph's patterns come in chunks of at most CHUNK_PATTERNS, drawn straight
into the decoder's n x ceil(P/64) uint64 words (bit p % 64 of word p // 64
in row v is item v of pattern p). Each lane is exactly Bernoulli(delta)
for every rational delta: a uniform binary fraction, read from raw PCG64
words, is compared with delta's binary expansion digit by digit (Knuth &
Yao 1976). detection.union_tables lays the graph out once, and
detection.decode_counts turns each chunk's words into each pattern's
defective count a and error count j. Two np.bincount calls per chunk add
j and j^2 into the graph's integer sums per a, 2 (n + 1) cells, so memory
per graph is bounded by the chunk. Only the decoder's own error kind is
counted; the other rate is reported as exactly 0.0. Each graph finishes
its own sums: with L the lcm of the c(a) it met, its sum of rates j/c(a)
is an integer over L and its sum of squared rates one over L^2. A report
brings its graphs over one common multiple once, so each mean, pooled
stderr and graph-clustered stderr is one correctly rounded quotient of
exact integers, whatever order the graphs come in.

Reproducibility contract (scheme RNG_SCHEME): every random draw descends
from one 64-bit master seed through sha256-based splitting (derive_seed).
Graphs and patterns use disjoint subkeys and read only raw PCG64 words,
which numpy keeps stable across releases. The words a chunk reads depend
on its size, so CHUNK_PATTERNS is part of the scheme. Results are
bit-identical for a given seed whatever the worker count; a sweep maps
every (delta, graph) tally through one process pool.

check_run checks a run's inputs in full, and refuses one predicted to
take over errors.LIMIT_SECONDS (decoding plus each graph's sampling and
set-up), or to hold over errors.LIMIT_BYTES (one chunk in flight per
worker process, as many as _pool_size starts), with SizeLimitError; simulate and sweep call it before any pool
or graph is made, and the CLI before any exact table is built.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .combinatorics import DEFAULT_DECIMAL_DIGITS, exact_delta, to_decimal
from .detection import CHUNK_PATTERNS, Algorithm, decode_counts, union_tables
# perfbench/layers.py rebinds these names here to trace them; no package path calls them.
from .detection import comp_pd_mask, dd_certified_mask  # noqa: F401
from .ensemble import EnsembleSpec, sample_graph, write_csv
from .enumerator import check_algorithm
from .errors import LIMIT_BYTES, SizeLimitError, refuse_over_limit

__all__ = ["RNG_SCHEME", "TrialReport", "check_run", "derive_seed", "simulate", "sweep", "write_trials_csv"]

RNG_SCHEME = "pcg64raw-sha256split-v2"

_SEED_SPAN = 1 << 64
_GRAPH_KEY = 0
_PATTERN_KEY = 1
# Seconds per decoded item-pattern (a pattern's unpacking and tally cost
# _PATTERN_ITEMS more), and per graph's sampling and set-up, a floor plus a
# share per edge. One 2-vCPU x86_64 host; fitted in BENCH_19.json.
_ITEM_PATTERN_SECONDS = 3.7e-9
_PATTERN_ITEMS = 13
_GRAPH_SECONDS = 3.2e-4
_GRAPH_EDGE_SECONDS = 1.6e-6
# Peak bytes per item-pattern of a chunk in flight, the decoder's working
# arrays; the largest slope of peak RSS over n at n <= 48,000, rounded up.
# Each of two worker processes peaked at the same slope. One 2-vCPU x86_64
# host; fitted in BENCH_37.json.
_ITEM_PATTERN_BYTES = 3.1


def derive_seed(master: int, *path: int) -> int:
    """Split one 64-bit seed into independent streams, one per index path.

    sha256 over the master seed and path components as tagged 8-byte words,
    truncated to 64 bits. Collisions across distinct paths are as likely as
    sha256 collisions, so subsidiary streams never overlap by construction.
    """
    if type(master) is not int or not 0 <= master < _SEED_SPAN:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {master!r}")
    digest = hashlib.sha256()
    digest.update(b"poolgraph.seed.v1")
    digest.update(master.to_bytes(8, "little"))
    for part in path:
        if type(part) is not int or not 0 <= part < _SEED_SPAN:
            raise ValueError(f"seed path components must be 64-bit unsigned integers, got {part!r}")
        digest.update(part.to_bytes(8, "little"))
    return int.from_bytes(digest.digest()[:8], "little")


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Sample statistics for one operating point; *_graph_stderr clusters the patterns by graph."""

    spec: EnsembleSpec
    algorithm: Algorithm
    delta: Fraction
    graphs: int
    patterns_per_graph: int
    seed: int
    far_mean: float
    far_stderr: float
    mdr_mean: float
    mdr_stderr: float
    far_graph_stderr: float
    mdr_graph_stderr: float
    per_graph_rates: Optional[tuple[tuple[float, float], ...]] = None


def _binary_digits(delta: Fraction) -> Iterator[int]:
    """Digits of delta in [0, 1) after the binary point, by long division; ends after a dyadic's last 1."""
    remainder, denominator = delta.numerator, delta.denominator
    while remainder:
        remainder <<= 1
        digit = remainder >= denominator
        remainder -= digit * denominator
        yield digit


def _draw_words(bits: np.random.PCG64, delta: Fraction, n: int, count: int) -> np.ndarray:
    """n x ceil(count/64) uint64 words of exact Bernoulli(delta) lanes; padding lanes are 0.

    For each digit of delta's expansion, every word still holding an
    undecided lane reads one raw word, in row-major order. A lane whose raw
    bit differs from the digit is decided: defective if the digit is 1.
    Lanes still undecided when a dyadic delta's expansion ends are not.
    """
    width = -(-count // 64)
    lanes = np.full((n, width), ~np.uint64(0))
    if count % 64:
        lanes[:, -1] = np.uint64((1 << count % 64) - 1)
    if delta in (0, 1):
        return lanes if delta else np.zeros_like(lanes)
    undecided, defective = lanes.ravel(), np.zeros(n * width, dtype=np.uint64)
    raw = np.empty_like(defective)
    for digit in _binary_digits(delta):
        live = np.count_nonzero(undecided)
        if live == len(raw):
            raw = bits.random_raw(live)
        elif live:
            # A finished word reads nothing; its entry of `raw` is never used.
            raw[undecided != 0] = bits.random_raw(live)
        else:
            break
        if digit:
            # Undecided lanes hold 0 in `defective`; those with raw bit 0 turn 1.
            defective |= undecided
            undecided &= raw
            defective ^= undecided
        else:
            undecided &= np.invert(raw, out=raw)
    return defective.reshape(n, width)


def _graph_tally(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta: Fraction,
    patterns: int,
    master_seed: int,
    graph_index: int,
) -> tuple[int, int, int]:
    """One graph's (first, second, L): first / L sums its patterns' rates j / c(a), second / L^2 their squares.

    j counts a pattern's decoder errors, and c(a) is n - a under COMP and a
    under DD for a pattern with a defectives; L is the lcm of the c(a) with
    errors. The per-a sums of j and j^2 take 2 (n + 1) cells.
    """
    graph = sample_graph(spec, derive_seed(master_seed, graph_index, _GRAPH_KEY))
    tables = union_tables(np.array([list(itertools.chain.from_iterable(graph.adj))]), spec.n, spec.test_degrees)
    bits = np.random.PCG64(derive_seed(master_seed, graph_index, _PATTERN_KEY))
    n = spec.n
    tally = np.zeros((2, n + 1), dtype=np.int64)
    for start in range(0, patterns, CHUNK_PATTERNS):
        count = min(CHUNK_PATTERNS, patterns - start)
        (a,), (j,) = decode_counts(tables, _draw_words(bits, delta, n, count)[None], algorithm, count)
        j = j.astype(np.float64)
        # Float sums are exact while CHUNK_PATTERNS n^2 < 2^53, for n < 1.4e6; a larger n
        # would need over 11 GB to unpack one chunk.
        tally += np.array([np.bincount(a, weights=w, minlength=n + 1) for w in (j, j * j)], dtype=np.int64)
    # Columns with c(a) = 0 hold no errors.
    hit = np.flatnonzero(tally[0])
    denominators = (n - hit if algorithm is Algorithm.COMP else hit).tolist()
    scale = math.lcm(*denominators)
    units = [scale // c for c in denominators]
    first = sum(s * u for s, u in zip(tally[0, hit].tolist(), units))
    return first, sum(s * u * u for s, u in zip(tally[1, hit].tolist(), units)), scale


def _predicted_seconds(spec: EnsembleSpec, deltas: int, graphs: int, patterns_per_graph: int) -> float:
    """deltas x graphs x (patterns x (n + _PATTERN_ITEMS) x a + b(E)): decoding, then each graph's set-up."""
    per_graph = patterns_per_graph * (spec.n + _PATTERN_ITEMS) * _ITEM_PATTERN_SECONDS + _GRAPH_SECONDS
    return deltas * graphs * (per_graph + spec.edge_count * _GRAPH_EDGE_SECONDS)


def check_run(
    spec: EnsembleSpec, delta_grid: Iterable, graphs: int, patterns_per_graph: int, seed: int, *, workers: int = 1
) -> list[Fraction]:
    """A run's exact deltas once every input is checked: bad values raise first, then a run over the limit."""
    if isinstance(delta_grid, (str, bytes)):  # a string would be read one character at a time
        raise TypeError(f"delta_grid must be a collection of deltas, not a string: {delta_grid!r}")
    deltas = [exact_delta(delta) for delta in delta_grid]
    if not deltas:
        raise ValueError("delta grid must be non-empty")
    for name, size in (("graphs", graphs), ("patterns_per_graph", patterns_per_graph), ("workers", workers)):
        if type(size) is not int:
            raise ValueError(f"{name} must be an int, got {size!r}")
    if graphs < 1 or patterns_per_graph < 1:
        raise ValueError("graphs and patterns_per_graph must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if type(seed) is not int or not 0 <= seed < _SEED_SPAN:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    work = f"{len(deltas)} deltas x {graphs} graphs x {patterns_per_graph} patterns on n={spec.n}"
    refuse_over_limit(work, _predicted_seconds, spec, len(deltas), graphs, patterns_per_graph)
    # One chunk in flight per worker process that _reports starts.
    busy = _pool_size(workers, len(deltas) * graphs, os.cpu_count())
    needed = _ITEM_PATTERN_BYTES * spec.n * min(patterns_per_graph, CHUNK_PATTERNS) * busy
    if needed > LIMIT_BYTES:
        raise SizeLimitError(
            f"{work} with {busy} workers is predicted to need {needed:.3g} bytes, over the limit of {LIMIT_BYTES} bytes"
        )
    return deltas


def _rate_statistics(patterns: int, sums: Iterable[tuple[int, int, int]]) -> tuple[float, float, float, list[float]]:
    """Mean, pooled stderr, graph-clustered stderr and per-graph means of the error rate, from _graph_tally's sums.

    Every graph's sums are brought over scale, the lcm of their L, once. So
    each float returned is one correctly rounded quotient of integers.
    """
    sums = list(sums)
    scale = math.lcm(*(L for _, _, L in sums))
    graph_sums = [first * (scale // L) for first, _, L in sums]
    total, total_sq = sum(graph_sums), sum(second * (scale // L) ** 2 for _, second, L in sums)
    graphs, count = len(sums), len(sums) * patterns
    pooled = (count * total_sq - total**2) / ((scale * count) ** 2 * (count - 1)) if count > 1 else 0.0
    spread = graphs * sum(s * s for s in graph_sums) - total**2
    clustered = spread / ((scale * patterns * graphs) ** 2 * (graphs - 1)) if graphs > 1 else 0.0
    per_graph = [first / (L * patterns) for first, _, L in sums]
    return total / (scale * count), math.sqrt(pooled), math.sqrt(clustered), per_graph


def _pool_size(workers: int, jobs: int, cpus: Optional[int]) -> int:
    """Worker processes to start: `workers`, capped at the jobs and the CPUs (None counts as 1)."""
    return max(1, min(workers, jobs, cpus or 1))


def _reports(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    points: Sequence[tuple[Fraction, int]],
    graphs: int,
    patterns_per_graph: int,
    workers: int,
    keep_per_graph: bool,
) -> list[TrialReport]:
    """One report per (delta, seed) point; every (point, graph) tally goes through one pool."""
    args = [(spec, algorithm, d, patterns_per_graph, s, g) for d, s in points for g in range(graphs)]
    pool_size = _pool_size(workers, len(args), os.cpu_count())
    comp = algorithm is Algorithm.COMP
    reports = []
    with ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else contextlib.nullcontext() as pool:
        # Each graph's sums come back finished: three integers.
        sums = (pool.map if pool else map)(_graph_tally, *zip(*args))
        for d, seed in points:
            *rate, per_graph = _rate_statistics(patterns_per_graph, itertools.islice(sums, graphs))
            # COMP never misses and DD never raises a false alarm: the other rate is exactly 0.
            far, mdr = (rate, (0.0, 0.0, 0.0)) if comp else ((0.0, 0.0, 0.0), rate)
            rates = tuple((r, 0.0) if comp else (0.0, r) for r in per_graph)
            reports.append(TrialReport(
                spec=spec,
                algorithm=algorithm,
                delta=d,
                graphs=graphs,
                patterns_per_graph=patterns_per_graph,
                seed=seed,
                far_mean=far[0],
                far_stderr=far[1],
                mdr_mean=mdr[0],
                mdr_stderr=mdr[1],
                far_graph_stderr=far[2],
                mdr_graph_stderr=mdr[2],
                per_graph_rates=rates if keep_per_graph else None,
            ))
    return reports


def simulate(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta,
    graphs: int,
    patterns_per_graph: int,
    seed: int,
    *,
    workers: int = 1,
    keep_per_graph: bool = False,
) -> TrialReport:
    """Estimate FAR and MDR at one delta; bit-identical for a given seed and any `workers`."""
    check_algorithm(algorithm)
    (d,) = check_run(spec, [delta], graphs, patterns_per_graph, seed, workers=workers)
    return _reports(spec, algorithm, [(d, seed)], graphs, patterns_per_graph, workers, keep_per_graph)[0]


def sweep(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta_grid: Iterable,
    graphs: int,
    patterns_per_graph: int,
    seed: int,
    *,
    workers: int = 1,
    keep_per_graph: bool = False,
) -> list[TrialReport]:
    """One report per grid point, each on an independent seed stream; every input is checked first."""
    check_algorithm(algorithm)
    deltas = check_run(spec, delta_grid, graphs, patterns_per_graph, seed, workers=workers)
    points = [(d, derive_seed(seed, index)) for index, d in enumerate(deltas)]
    return _reports(spec, algorithm, points, graphs, patterns_per_graph, workers, keep_per_graph)


def write_trials_csv(
    reports: Iterable[TrialReport],
    out,
    analytic: Optional[Sequence[Optional[Fraction]]] = None,
    precision: int = DEFAULT_DECIMAL_DIGITS,
) -> None:
    """One CSV row per report, all of one spec; analytic column filled when exact values are supplied."""
    rows = list(reports)
    if analytic is not None and len(analytic) != len(rows):
        raise ValueError("analytic values must align one-to-one with reports")
    if len({r.spec for r in rows}) > 1:
        raise ValueError("a trials CSV carries one spec hash, so its reports must share one spec")
    spec, header = (rows[0].spec, {"rng": RNG_SCHEME}) if rows else (None, {})
    columns = (
        "delta,algorithm,n,m,graphs,patterns,far_mean,far_stderr,"
        "mdr_mean,mdr_stderr,analytic_value,seed,far_graph_stderr,mdr_graph_stderr"
    )
    write_csv(out, spec, header, columns, (
        (r.delta, r.algorithm.value, r.spec.n, r.spec.m, r.graphs, r.patterns_per_graph,
         r.far_mean, r.far_stderr, r.mdr_mean, r.mdr_stderr,
         "" if value is None else to_decimal(value, precision),
         r.seed, r.far_graph_stderr, r.mdr_graph_stderr)
        for r, value in zip(rows, analytic or [None] * len(rows))
    ))
