"""Exhaustive ground truth for tiny ensembles.

Walks every socket matching (all E! permutations) and every defective set
(all 2^n bit patterns), decodes each pair, and tallies outcomes in exact
rationals. No generating functions anywhere: this is the independent
yardstick the enumerator module is measured against, so every matching
and every pattern is counted once, with no weighting and no merging of
matchings that give the same graph.

Decoding is batched. The matchings are taken in itertools.permutations
order, max(1, CHUNK_PATTERNS // 2^n) of them at a time, and a block is
decoded as one graph: the disjoint union of its K matchings, with matching
k's items at k*n + v and its tests at k*m + c: detection.index_tables
lays out its index tables, and one detection.decode_tables call decodes
all K * 2^n (matching, pattern) pairs. COMP and DD look only within a
connected component, so each matching of the union decodes exactly as it
would alone. The per-pattern bitmask decoders stay the literal reference
in the tests (tests/oracle_reference.py).

Costs explode factorially; both entry points refuse work past a size
limit, before anything is allocated, instead of grinding forever.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .combinatorics import exact_delta
from .detection import CHUNK_PATTERNS, Algorithm, decode_tables, index_tables, wrong_items
from .ensemble import DEFAULT_MATCHING_LIMIT, EnsembleSpec, _socket_layout, matching_count
from .enumerator import EnumeratorTable, table_domain
from .errors import SizeLimitError

# perfbench/layers.py rebinds these names here to trace them; the oracle calls none of them.
from .detection import comp_pd_mask, dd_certified_mask  # noqa: F401
from .ensemble import enumerate_matchings  # noqa: F401

__all__ = ["OracleReport", "exact_enumerators", "exact_error_probability"]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Exhaustively computed ensemble-average table plus the matching count behind it."""

    spec: EnsembleSpec
    algorithm: Algorithm
    exact_table: Mapping[tuple[int, int], Fraction]
    matchings_enumerated: int

    def as_table(self) -> EnumeratorTable:
        return EnumeratorTable(
            algorithm=self.algorithm,
            spec=self.spec,
            values=self.exact_table,
            source="oracle",
        )


def _error_blocks(spec: EnsembleSpec, algorithm: Algorithm) -> Iterator[np.ndarray]:
    """Errors of every (matching, pattern) pair, as K x 2^n blocks in permutation order.

    Entry [k, mask] is the false-alarm count (COMP) or misdetection count
    (DD) of pattern mask on the block's k-th matching. Callers size the
    work first.
    """
    n = spec.n
    left_owner = np.array(_socket_layout(spec.left_counts())[0], dtype=np.intp)
    test_degrees = _socket_layout(spec.right_counts())[1]
    masks = np.arange(1 << n)
    patterns = ((masks >> np.arange(n)[:, None]) & 1).astype(bool)
    size = max(1, CHUNK_PATTERNS // (1 << n))
    matchings = itertools.permutations(range(spec.edge_count))
    while block := list(itertools.islice(matchings, size)):
        # Matching k puts item socket block[k][q] on test socket q.
        tables = index_tables(left_owner[np.array(block, dtype=np.intp)], n, test_degrees)
        defective = np.tile(patterns, (len(block), 1))
        wrong = wrong_items(decode_tables(*tables, defective, algorithm), defective, algorithm)
        yield wrong.reshape(len(block), n, -1).sum(axis=1)


def exact_enumerators(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    *,
    limit: int = DEFAULT_MATCHING_LIMIT,
) -> OracleReport:
    """Average pattern counts over every matching, by brute force.

    Tallies (defective count, error count) across all matchings and all
    defective sets, then divides by E!.
    """
    matching_count(spec, limit)
    n = spec.n
    a = np.bitwise_count(np.arange(1 << n)).astype(np.intp)
    counts = np.zeros((n + 1) ** 2, dtype=np.int64)
    matchings = 0
    for errors in _error_blocks(spec, algorithm):
        matchings += len(errors)
        counts += np.bincount((a * (n + 1) + errors).ravel(), minlength=len(counts))
    table = {key: Fraction(0) for key in table_domain(n, algorithm)}
    for key in np.flatnonzero(counts):
        table[divmod(int(key), n + 1)] = Fraction(int(counts[key]), matchings)
    return OracleReport(
        spec=spec,
        algorithm=algorithm,
        exact_table=table,
        matchings_enumerated=matchings,
    )


def exact_error_probability(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    delta,
    *,
    limit: int = DEFAULT_MATCHING_LIMIT,
) -> Fraction:
    """Exact expected per-item error rate by direct expectation.

    Averages fa/(non-defective count) for COMP or md/(defective count) for
    DD over matchings and Bernoulli(delta) patterns, without grouping into
    a table first. Patterns with a zero denominator contribute 0.
    """
    d = exact_delta(delta)
    n = spec.n
    fact = math.factorial(spec.edge_count)
    if fact * (1 << n) > limit:
        raise SizeLimitError(
            f"{fact} matchings x {1 << n} patterns exceeds the oracle limit {limit}"
        )
    err_sums = np.zeros(1 << n, dtype=np.int64)
    matchings = 0
    for errors in _error_blocks(spec, algorithm):
        matchings += len(errors)
        err_sums += errors.sum(axis=0)
    total = Fraction(0)
    for mask in range(1 << n):
        if not err_sums[mask]:
            continue
        a = mask.bit_count()
        denom = (n - a) if algorithm is Algorithm.COMP else a
        if denom == 0:
            continue
        weight = d**a * (1 - d) ** (n - a)
        total += weight * Fraction(int(err_sums[mask]), denom * matchings)
    return total
