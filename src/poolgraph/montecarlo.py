"""Monte Carlo estimation of false-alarm and misdetection rates.

Samples pooling graphs from the configuration ensemble, draws i.i.d.
Bernoulli(delta) defectivity patterns on each, runs the decoders, and pools
per-pattern rates fa/(n-defectives) and md/defectives (zero denominator
contributes 0). Those are exactly the quantities the enumerator module
computes in closed form, so means land within a few standard errors of the
analytic values and the comparison is apples to apples.

Decoding is batched: each graph's patterns are drawn as an n x P boolean
matrix, at most CHUNK_PATTERNS patterns at a time so memory stays
bounded. A graph's two index tables (detection.graph_tables) are built
once, before its first chunk, and detection.decode_tables decodes each
chunk with a few numpy gathers over them. Only the decoder's own errors
(detection.wrong_items) are tallied, as one sum and one sum of squares;
the other rate is reported as exactly 0.0. The float sums are added
pattern by pattern in draw order (a cumulative sum seeded with the
running total), so they carry the same bits as a scalar loop would.

Reproducibility contract: every random draw descends from one 64-bit master
seed through sha256-based splitting (scheme name "pcg64-sha256split", see
derive_seed). Graph construction and pattern streams use disjoint subkeys,
pattern bits come from the stream pattern by pattern whatever the chunk
size, and per-graph partial sums are merged in graph order, so results are
bit-identical for a given seed regardless of worker count.

Work is sized before any graph is sampled; a call over _WORK_LIMIT raises
SizeLimitError.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .combinatorics import DEFAULT_DECIMAL_DIGITS, exact_delta, to_decimal
from .detection import CHUNK_PATTERNS, Algorithm, decode_tables, graph_tables, wrong_items
# perfbench/layers.py rebinds these names here to trace them; no package path calls them.
from .detection import comp_pd_mask, dd_certified_mask  # noqa: F401
from .ensemble import EnsembleSpec, sample_graph, spec_hash
from .errors import SizeLimitError

__all__ = ["RNG_SCHEME", "TrialReport", "derive_seed", "simulate", "sweep", "write_trials_csv"]

RNG_SCHEME = "pcg64-sha256split"

_SEED_SPAN = 1 << 64
_GRAPH_KEY = 0
_PATTERN_KEY = 1
# Sampling a graph and setting up its decoding costs about as much as decoding
# this many patterns (measured: 300-3,700 from n=1000 down to n=4).
_GRAPH_SETUP_PATTERNS = 1000
# Most item-patterns, deltas x graphs x (patterns + _GRAPH_SETUP_PATTERNS) x n,
# one simulate or sweep call may decode: about ten minutes at the slowest
# measured rate, 4.3e7 item-patterns/s on (4,2,2) on a 2-vCPU x86_64 host.
_WORK_LIMIT = 25 * 10**9


def derive_seed(master: int, *path: int) -> int:
    """Split one 64-bit seed into independent streams, one per index path.

    sha256 over the master seed and path components as tagged 8-byte words,
    truncated to 64 bits. Collisions across distinct paths are as likely as
    sha256 collisions, so subsidiary streams never overlap by construction.
    """
    if not 0 <= master < _SEED_SPAN:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {master}")
    digest = hashlib.sha256()
    digest.update(b"poolgraph.seed.v1")
    digest.update(master.to_bytes(8, "little"))
    for part in path:
        if part < 0:
            raise ValueError(f"seed path components must be nonnegative, got {part}")
        digest.update(int(part).to_bytes(8, "little"))
    return int.from_bytes(digest.digest()[:8], "little")


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Pooled sample statistics for one (spec, algorithm, delta) operating point."""

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
    rng: str = RNG_SCHEME
    per_graph_rates: Optional[tuple[tuple[float, float], ...]] = None


def _draw_patterns(rng: np.random.Generator, delta: Fraction, count: int, n: int) -> np.ndarray:
    """n x count Bernoulli(delta) bool matrix, one column per pattern.

    Exact threshold on 64-bit draws, taken pattern by pattern from the stream.
    """
    if delta == 1:
        return np.ones((n, count), dtype=bool)
    threshold = (delta.numerator << 64) // delta.denominator
    draws = rng.integers(0, _SEED_SPAN - 1, size=(count, n), dtype=np.uint64, endpoint=True)
    return np.ascontiguousarray((draws < np.uint64(threshold)).T)


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., left to right; np.sum would pair terms up."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _graph_partial(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta: Fraction,
    patterns: int,
    master_seed: int,
    graph_index: int,
) -> tuple[int, float, float]:
    """(patterns, sum, sum of squares) of the decoder's error rate (FAR or MDR) on one graph."""
    tables = graph_tables(sample_graph(spec, derive_seed(master_seed, graph_index, _GRAPH_KEY)))
    rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, graph_index, _PATTERN_KEY)))
    n = spec.n
    count_type = np.min_scalar_type(n)
    err_sum = err_sq = 0.0
    for start in range(0, patterns, CHUNK_PATTERNS):
        defective = _draw_patterns(rng, delta, min(CHUNK_PATTERNS, patterns - start), n)
        estimate = decode_tables(*tables, defective, algorithm)
        a = defective.sum(axis=0, dtype=count_type)
        candidates = n - a if algorithm is Algorithm.COMP else a
        wrong = wrong_items(estimate, defective, algorithm).sum(axis=0, dtype=count_type)
        # Patterns without errors add 0.0, which leaves a sum unchanged.
        hit = wrong > 0
        rate = wrong[hit] / candidates[hit]
        err_sum = _add_in_order(err_sum, rate)
        err_sq = _add_in_order(err_sq, rate * rate)
    return patterns, err_sum, err_sq


def _check_size(spec: EnsembleSpec, deltas: int, graphs: int, patterns_per_graph: int) -> None:
    """Refuse, before any graph is sampled, a simulation over the work limit."""
    if graphs < 1 or patterns_per_graph < 1:
        raise ValueError("graphs and patterns_per_graph must be at least 1")
    work = deltas * graphs * (patterns_per_graph + _GRAPH_SETUP_PATTERNS) * spec.n
    if work > _WORK_LIMIT:
        raise SizeLimitError(
            f"{deltas} deltas x {graphs} graphs x {patterns_per_graph} patterns on n={spec.n} "
            f"is {work:.3g} item-patterns, over the limit of {_WORK_LIMIT:.3g} (about ten minutes)"
        )


def _mean_stderr(count: int, total: float, total_sq: float) -> tuple[float, float]:
    mean = total / count
    if count < 2:
        return mean, 0.0
    variance = max(total_sq - count * mean * mean, 0.0) / (count - 1)
    return mean, math.sqrt(variance / count)


def _pool_size(workers: int, graphs: int, cpus: Optional[int]) -> int:
    """Worker processes to start: `workers`, capped at the graphs and the CPUs (None counts as 1)."""
    return max(1, min(workers, graphs, cpus or 1))


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
    d = exact_delta(delta)
    _check_size(spec, 1, graphs, patterns_per_graph)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    args = [(spec, algorithm, d, patterns_per_graph, seed, g) for g in range(graphs)]
    pool_size = _pool_size(workers, graphs, os.cpu_count())
    if pool_size == 1:
        partials = [_graph_partial(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            partials = list(pool.map(_graph_partial, *zip(*args)))
    comp = algorithm is Algorithm.COMP
    count = 0
    err_sum = err_sq = 0.0
    per_graph: list[tuple[float, float]] = []
    for c, s, q in partials:
        count += c
        err_sum += s
        err_sq += q
        # COMP never misses and DD never raises a false alarm: the other rate is exactly 0.
        per_graph.append((s / c, 0.0) if comp else (0.0, s / c))
    rate = _mean_stderr(count, err_sum, err_sq)
    (far_mean, far_stderr), (mdr_mean, mdr_stderr) = (rate, (0.0, 0.0)) if comp else ((0.0, 0.0), rate)
    return TrialReport(
        spec=spec,
        algorithm=algorithm,
        delta=d,
        graphs=graphs,
        patterns_per_graph=patterns_per_graph,
        seed=seed,
        far_mean=far_mean,
        far_stderr=far_stderr,
        mdr_mean=mdr_mean,
        mdr_stderr=mdr_stderr,
        per_graph_rates=tuple(per_graph) if keep_per_graph else None,
    )


def sweep(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta_grid: Sequence,
    graphs: int,
    patterns_per_graph: int,
    seed: int,
    *,
    workers: int = 1,
    keep_per_graph: bool = False,
) -> list[TrialReport]:
    """One report per grid point, each on an independent seed stream; every delta is checked first."""
    if not delta_grid:
        raise ValueError("delta grid must be non-empty")
    deltas = [exact_delta(delta) for delta in delta_grid]
    _check_size(spec, len(deltas), graphs, patterns_per_graph)
    reports = []
    for index, delta in enumerate(deltas):
        reports.append(
            simulate(
                spec,
                algorithm,
                delta,
                graphs,
                patterns_per_graph,
                derive_seed(seed, index),
                workers=workers,
                keep_per_graph=keep_per_graph,
            )
        )
    return reports


def write_trials_csv(
    reports: Iterable[TrialReport],
    out,
    analytic: Optional[Sequence[Optional[Fraction]]] = None,
    precision: int = DEFAULT_DECIMAL_DIGITS,
) -> None:
    """One CSV row per report; analytic column filled when exact values are supplied."""
    rows = list(reports)
    if analytic is not None and len(analytic) != len(rows):
        raise ValueError("analytic values must align one-to-one with reports")

    def _write(fh) -> None:
        if rows:
            fh.write(f"# spec_hash={spec_hash(rows[0].spec)} rng={rows[0].rng}\n")
        fh.write(
            "delta,algorithm,n,m,graphs,patterns,far_mean,far_stderr,"
            "mdr_mean,mdr_stderr,analytic_value,seed\n"
        )
        for index, report in enumerate(rows):
            exact = analytic[index] if analytic is not None else None
            fh.write(
                ",".join(
                    [
                        str(report.delta),
                        report.algorithm.value,
                        str(report.spec.n),
                        str(report.spec.m),
                        str(report.graphs),
                        str(report.patterns_per_graph),
                        repr(report.far_mean),
                        repr(report.far_stderr),
                        repr(report.mdr_mean),
                        repr(report.mdr_stderr),
                        "" if exact is None else to_decimal(exact, precision),
                        str(report.seed),
                    ]
                )
                + "\n"
            )

    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(out)
