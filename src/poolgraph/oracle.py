"""Exhaustive ground truth for tiny ensembles.

Walks every socket matching (all E! permutations) and every defective set
(all 2^n bit patterns), decodes each pair, and tallies outcomes as exact
integer counts over the E! matchings. No generating functions anywhere:
this is the independent yardstick the enumerator module is measured
against, so every matching and every pattern is counted once, with no
weighting and no merging of matchings that give the same graph.

Decoding is batched. The 2^n patterns are packed once as an n x W uint64
matrix, W = ceil(2^n / 64): bit p % 64 of word p // 64 in row v is item v
of pattern p, and the padding bits are zero. The matchings come in blocks
of k! rows, in exactly itertools.permutations order: one (E - k)-prefix,
then the sockets it leaves, in sorted order, permuted by the k! tails. k is
the largest value with k! * W <= CHUNK_PATTERNS, so no block is partial;
if even one matching's words exceed the bound, a block is one matching.
A block is decoded as one graph: the disjoint union of its K matchings,
with matching k's items at k*n + v and its tests at k*m + c. Only the
prefix changes between blocks, so the tails' item-socket tests, the
detection.index_tables indices and the tiled pattern words are made once;
a block writes both directions of its matchings, takes its two tables and
decodes all K * 2^n (matching, pattern) pairs in one decode_tables call.
The wrong items are unpacked once and summed per matching. COMP and DD
look only within a connected component, so each matching of the union
decodes exactly as it would alone. The per-pattern bitmask decoders stay
the literal reference in the tests (tests/oracle_reference.py).

Both entry points read one pass: _oracle_table tallies every block with
one bincount of the keys a (n + 1) + j, a the pattern's defective count
(a popcount taken once per pass) and j its errors, in the smallest type
that holds them all, and keeps the resulting table, source "oracle", per
(spec, decoder) in an lru_cache of 16 entries as build_table keeps
tables. exact_error_probability sums that table's rows itself, never
through fa_probability or md_probability, so the two probability routes
stay independent.

Costs explode factorially. Both entry points size the same blocks the same
way: E! x ceil(2^n / 64) matching words at a fitted cost each
(ensemble.matching_count), refused over the one limit in seconds
(errors.LIMIT_SECONDS) on every call, before the cache is read or anything
is allocated: 11 edges pass up to n = 9, 12 never do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .combinatorics import exact_delta
from .detection import CHUNK_PATTERNS, Algorithm, decode_tables, index_tables, wrong_items
from .ensemble import EnsembleSpec, matching_count
from .enumerator import EnumeratorTable, check_algorithm, empty_rows

# perfbench/layers.py rebinds these names here to trace them; the oracle calls none of them.
from .detection import comp_pd_mask, dd_certified_mask  # noqa: F401
from .ensemble import enumerate_matchings  # noqa: F401

__all__ = ["OracleReport", "exact_enumerators", "exact_error_probability"]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Exhaustively computed ensemble-average table plus the matching count behind it."""

    table: EnumeratorTable
    matchings_enumerated: int


def _count_type(n: int) -> np.dtype:
    """The smallest unsigned type holding every tally key a (n + 1) + j, at most (n + 1)^2 - 1, so none can wrap."""
    return np.min_scalar_type((n + 1) ** 2 - 1)


def _matching_blocks(edges: int, words: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Every permutation of range(edges), in itertools.permutations order, as blocks order[columns].

    Each order is an (edges - k)-prefix, then the sockets it leaves in
    sorted order; the fixed k! x edges columns keep the prefix and permute
    the rest by the k! tails, so a block is k! rows. k is the largest value
    with k! * words <= CHUNK_PATTERNS; if even one matching's words exceed
    the bound, a block is one row.
    """
    k, size = 0, 1
    while k < edges and size * (k + 1) * words <= CHUNK_PATTERNS:
        k += 1
        size *= k
    head = edges - k
    tails = np.array(list(itertools.permutations(range(head, edges))), dtype=np.intp).reshape(size, k)
    columns = np.hstack((np.broadcast_to(np.arange(head), (size, head)), tails))
    prefixes = itertools.permutations(range(edges), head)
    return columns, (np.array([*p, *sorted(set(range(edges)).difference(p))], dtype=np.intp) for p in prefixes)


def _error_blocks(spec: EnsembleSpec, algorithm: Algorithm) -> Iterator[np.ndarray]:
    """Errors of every (matching, pattern) pair, as K x 2^n blocks in permutation order.

    Entry [k, mask] is the false-alarm count (COMP) or misdetection count
    (DD) of pattern mask on the block's k-th matching, of type _count_type(n).
    Callers size the work first.
    """
    n, m, edges = spec.n, spec.m, spec.edge_count
    socket_items = np.array(spec.socket_items, dtype=np.intp)
    masks = np.arange(1 << n)
    # Bit p % 64 of word p // 64 in row v is item v of pattern p; the padding is zero.
    patterns = np.zeros((n, -(-len(masks) // 64)), dtype=np.uint64)
    patterns.view(np.uint8)[:, : -(-len(masks) // 8)] = np.packbits(
        (masks >> np.arange(n)[:, None]) & 1, axis=1, bitorder="little"
    )
    columns, orders = _matching_blocks(edges, patterns.shape[1])
    size, k = len(columns), np.arange(len(columns))[:, None]
    sockets, slots = index_tables(spec.test_degrees, np.bincount(socket_items, minlength=n), size)
    # Matching k puts item socket order[columns[k, q]] on test socket q, so
    # item socket order[i] is on test socket argsort(columns[k])[i], whatever the order.
    order_tests = np.repeat(np.arange(m), spec.test_degrees)[np.argsort(columns, axis=1)] + k * m
    # Both directions of the block's matchings, offset per matching; the last column is the dummy.
    items, tests = (np.full((size, edges + 1), size * nodes) for nodes in (n, m))
    defective = np.tile(patterns, (size, 1))
    for order in orders:
        np.add(socket_items[order][columns], k * n, out=items[:, :-1])
        tests[:, order] = order_tests
        estimate = decode_tables(np.take(items, sockets), np.take(tests, slots), defective, algorithm)
        wrong = wrong_items(estimate, defective, algorithm)
        wrong = np.unpackbits(wrong.view(np.uint8), axis=1, count=len(masks), bitorder="little")
        yield wrong.reshape(size, n, -1).sum(axis=1, dtype=_count_type(n))


@lru_cache(maxsize=16)
def _oracle_table(spec: EnsembleSpec, algorithm: Algorithm) -> EnumeratorTable:
    """The exhaustive table: cell (a, j) counts the (matching, a-defective pattern) pairs with j errors.

    One bincount of the keys a (n + 1) + j per block. Callers size the work first.
    """
    n = spec.n
    keys = (np.bitwise_count(np.arange(1 << n)) * (n + 1)).astype(_count_type(n))
    counts = np.zeros((n + 1) ** 2, dtype=np.int64)
    for errors in _error_blocks(spec, algorithm):
        counts += np.bincount((keys + errors).ravel(), minlength=len(counts))
    tally = counts.reshape(n + 1, n + 1).tolist()
    rows = tuple(tuple(tally[a][: len(row)]) for a, row in enumerate(empty_rows(n, algorithm)))
    return EnumeratorTable(algorithm, spec, rows, sum(rows[0]), source="oracle")


def exact_enumerators(spec: EnsembleSpec, algorithm: Algorithm) -> OracleReport:
    """Average pattern counts over every matching, by brute force.

    Tallies (defective count, error count) across all matchings and all
    defective sets: integer counts over the E! matchings.
    """
    check_algorithm(algorithm)
    matching_count(spec)
    table = _oracle_table(spec, algorithm)
    return OracleReport(table, table.denominator)


def exact_error_probability(spec: EnsembleSpec, algorithm: Algorithm, delta) -> Fraction:
    """Exact expected per-item error rate by direct expectation over the exhaustive table.

    Averages fa/(non-defective count) for COMP or md/(defective count) for
    DD over matchings and Bernoulli(delta) patterns; rows with no candidate
    to err contribute 0. For delta = p / q, the integer terms
    (L / e_a) p^a (q - p)^(n - a) sum_j j N_{a,j}, e_a = len(row a) - 1 and L
    the lcm of the nonzero e_a, are summed and reduced over L M q^n once,
    without the table's error_weights or fa/md_probability.
    """
    check_algorithm(algorithm)
    d = exact_delta(delta)
    matching_count(spec)
    table = _oracle_table(spec, algorithm)
    n, p, q = spec.n, d.numerator, d.denominator
    rows = [(a, len(row) - 1, sum(j * c for j, c in enumerate(row))) for a, row in enumerate(table.rows)]
    lcm = math.lcm(*(e for _, e, _ in rows if e))
    total = sum(lcm // e * p**a * (q - p) ** (n - a) * errors for a, e, errors in rows if e)
    return Fraction(total, lcm * table.denominator * q**n)
