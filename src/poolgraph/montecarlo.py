"""Monte Carlo estimation of false-alarm and misdetection rates.

Samples pooling graphs from the configuration ensemble, draws i.i.d.
Bernoulli(delta) defectivity patterns on each, runs the decoders, and pools
per-pattern rates fa/(n-defectives) and md/defectives (zero denominator
contributes 0). Those are exactly the quantities the enumerator module
computes in closed form, so means land within a few standard errors of the
analytic values and the comparison is apples to apples.

Reproducibility contract: every random draw descends from one 64-bit master
seed through sha256-based splitting (scheme name "pcg64-sha256split", see
derive_seed). Graph construction and pattern streams use disjoint subkeys,
per-graph partial sums are merged in graph order, so results are
bit-identical for a given seed regardless of worker count.
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

from .combinatorics import exact_delta, to_decimal
from .detection import Algorithm, comp_pd_mask, dd_certified_mask
from .ensemble import EnsembleSpec, sample_graph, spec_hash, validate

__all__ = ["RNG_SCHEME", "TrialReport", "derive_seed", "simulate", "sweep", "write_trials_csv"]

RNG_SCHEME = "pcg64-sha256split"

_SEED_SPAN = 1 << 64
_GRAPH_KEY = 0
_PATTERN_KEY = 1


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


def _pattern_masks(rng: np.random.Generator, delta: Fraction, count: int, n: int) -> list[int]:
    """Bernoulli(delta) masks, bit b = item b, exact threshold on 64-bit draws."""
    if delta == 1:
        return [(1 << n) - 1] * count
    threshold = (delta.numerator << 64) // delta.denominator
    draws = rng.integers(0, _SEED_SPAN - 1, size=(count, n), dtype=np.uint64, endpoint=True)
    bits = draws < np.uint64(threshold)
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[p * width : (p + 1) * width], "little") for p in range(count)
    ]


def _graph_partial(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta: Fraction,
    patterns: int,
    master_seed: int,
    graph_index: int,
) -> tuple[int, float, float, float, float]:
    """(count, far sum, far sum of squares, mdr sum, mdr sum of squares) for one graph."""
    graph = sample_graph(spec, derive_seed(master_seed, graph_index, _GRAPH_KEY))
    rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, graph_index, _PATTERN_KEY)))
    n = spec.n
    far_sum = far_sq = mdr_sum = mdr_sq = 0.0
    is_comp = algorithm is Algorithm.COMP
    for mask in _pattern_masks(rng, delta, patterns, n):
        a = mask.bit_count()
        estimate = comp_pd_mask(graph, mask) if is_comp else dd_certified_mask(graph, mask)
        fa = (estimate & ~mask).bit_count()
        md = (mask & ~estimate).bit_count()
        if fa and a < n:
            rate = fa / (n - a)
            far_sum += rate
            far_sq += rate * rate
        if md:
            rate = md / a
            mdr_sum += rate
            mdr_sq += rate * rate
    return patterns, far_sum, far_sq, mdr_sum, mdr_sq


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
    validate(spec)
    d = exact_delta(delta)
    if graphs < 1 or patterns_per_graph < 1:
        raise ValueError("graphs and patterns_per_graph must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    args = [(spec, algorithm, d, patterns_per_graph, seed, g) for g in range(graphs)]
    pool_size = _pool_size(workers, graphs, os.cpu_count())
    if pool_size == 1:
        partials = [_graph_partial(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            partials = list(pool.map(_graph_partial, *zip(*args)))
    count = 0
    far_sum = far_sq = mdr_sum = mdr_sq = 0.0
    per_graph: list[tuple[float, float]] = []
    for c, fs, fq, ms, mq in partials:
        count += c
        far_sum += fs
        far_sq += fq
        mdr_sum += ms
        mdr_sq += mq
        per_graph.append((fs / c, ms / c))
    far_mean, far_stderr = _mean_stderr(count, far_sum, far_sq)
    mdr_mean, mdr_stderr = _mean_stderr(count, mdr_sum, mdr_sq)
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
    """One report per grid point, each on an independent seed stream."""
    if not delta_grid:
        raise ValueError("delta grid must be non-empty")
    reports = []
    for index, delta in enumerate(delta_grid):
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
    precision: int = 12,
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
