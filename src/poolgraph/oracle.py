"""Exhaustive ground truth for tiny ensembles.

Walks every socket matching (all E! permutations) and every defective set
(all 2^n bit patterns), decodes each pair, and tallies outcomes as exact
integer counts over the E! matchings. No generating functions anywhere:
this is the independent yardstick the enumerator module is measured
against, so every matching and every pattern is counted once, with no
weighting and no merging of matchings that give the same graph.

Decoding is batched. The 2^n patterns are packed once as an n x W uint64
matrix, W = ceil(2^n / 64): bit p % 64 of word p // 64 in row v is item v
of pattern p, and the padding bits are zero. The matchings come as numpy
blocks of k! rows, in exactly itertools.permutations order: one
(E - k)-prefix, then the sockets it leaves, in sorted order, permuted by
a precomputed k! x k table of tail permutations. k is the largest value
with k! * W <= CHUNK_PATTERNS, so no block is partial and no matching is
built as a Python tuple; if even one matching's words exceed the bound, a
block is one matching. A block is decoded as one graph: the disjoint
union of its K matchings, with matching k's items at k*n + v and its tests
at k*m + c. detection.index_tables lays out its index tables, the pattern
words are tiled once per matching, and one detection.decode_tables call
decodes all K * 2^n (matching, pattern) pairs; the wrong items are
unpacked once, dropping the padding, and summed per matching. COMP and DD
look only within a connected component, so each matching of the union
decodes exactly as it would alone. The per-pattern bitmask decoders stay
the literal reference in the tests (tests/oracle_reference.py).

Costs explode factorially. Both entry points decode the same blocks, so
both size them the same way: more than `limit` matchings are refused
(ensemble.matching_count), before anything is allocated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .combinatorics import exact_delta
from .detection import CHUNK_PATTERNS, Algorithm, decode_tables, index_tables, wrong_items
from .ensemble import DEFAULT_MATCHING_LIMIT, EnsembleSpec, _socket_layout, matching_count
from .enumerator import EnumeratorTable, table_domain

# perfbench/layers.py rebinds these names here to trace them; the oracle calls none of them.
from .detection import comp_pd_mask, dd_certified_mask  # noqa: F401
from .ensemble import enumerate_matchings  # noqa: F401

__all__ = ["OracleReport", "exact_enumerators", "exact_error_probability"]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Exhaustively computed ensemble-average table plus the matching count behind it."""

    table: EnumeratorTable
    matchings_enumerated: int


def _matching_blocks(edges: int, words: int) -> Iterator[np.ndarray]:
    """Every permutation of range(edges), in itertools.permutations order, in blocks of k! rows.

    k is the largest value with k! * words <= CHUNK_PATTERNS; if even one
    matching's words exceed the bound, a block is one row.
    """
    k, size = 0, 1
    while k < edges and size * (k + 1) * words <= CHUNK_PATTERNS:
        k += 1
        size *= k
    tails = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    for prefix in itertools.permutations(range(edges), edges - k):
        free = np.ones(edges, dtype=bool)
        free[list(prefix)] = False
        block = np.empty((size, edges), dtype=np.intp)
        block[:, : edges - k] = prefix
        block[:, edges - k :] = np.flatnonzero(free)[tails]
        yield block


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
    # Bit p % 64 of word p // 64 in row v is item v of pattern p; the padding is zero.
    patterns = np.zeros((n, -(-len(masks) // 64)), dtype=np.uint64)
    patterns.view(np.uint8)[:, : -(-len(masks) // 8)] = np.packbits(
        (masks >> np.arange(n)[:, None]) & 1, axis=1, bitorder="little"
    )
    for block in _matching_blocks(spec.edge_count, patterns.shape[1]):
        # Matching k puts item socket block[k, q] on test socket q.
        tables = index_tables(left_owner[block], n, test_degrees)
        defective = np.tile(patterns, (len(block), 1))
        wrong = wrong_items(decode_tables(*tables, defective, algorithm), defective, algorithm)
        wrong = np.unpackbits(wrong.view(np.uint8), axis=1, count=len(masks), bitorder="little")
        yield wrong.reshape(len(block), n, -1).sum(axis=1, dtype=np.intp)


def exact_enumerators(
    spec: EnsembleSpec,
    algorithm: Algorithm,
    *,
    limit: int = DEFAULT_MATCHING_LIMIT,
) -> OracleReport:
    """Average pattern counts over every matching, by brute force.

    Tallies (defective count, error count) across all matchings and all
    defective sets: integer counts over the E! matchings.
    """
    matching_count(spec, limit)
    n = spec.n
    a = np.bitwise_count(np.arange(1 << n)).astype(np.intp)
    counts = np.zeros((n + 1) ** 2, dtype=np.int64)
    matchings = 0
    for errors in _error_blocks(spec, algorithm):
        matchings += len(errors)
        counts += np.bincount((a * (n + 1) + errors).ravel(), minlength=len(counts))
    tally = counts.reshape(n + 1, n + 1).tolist()
    table = {(i, j): tally[i][j] for i, j in table_domain(n, algorithm)}
    return OracleReport(EnumeratorTable(algorithm, spec, table, matchings, source="oracle"), matchings)


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
    matching_count(spec, limit)
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
