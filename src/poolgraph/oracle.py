"""Exhaustive ground truth for tiny ensembles.

A graph of the ensemble is fixed by its multiplicity matrix M, M_vc edges
between item v and test c, and exactly W(M) = prod_v l_v! prod_c r_c! /
prod_vc M_vc! of the E! socket matchings give it (Bollobas, Europ. J.
Combin. 1980). So the oracle enumerates every matrix with the spec's row
and column sums once, decodes it under all 2^n defective sets and weights
its outcomes by W(M): exact integer counts over the E! matchings, with no
generating functions anywhere, the independent yardstick the enumerator
module is measured against. Every pass checks that the weights sum to E!.

Each matrix is laid out as one canonical matching, test c's sockets
holding its items in item order, item v on M_vc of them. A block of K of
them, K the most with K * ceil(2^n / 64) <= CHUNK_PATTERNS, is laid out
as one disjoint union by detection.union_tables, then decoded and
counted on uint64 pattern words by detection.decode_counts: COMP and DD
look only within a component and only at M. W(M) varies only through
prod M_vc!, so one int64 bincount per block counts the keys (exact value
of prod M_vc!, a (n + 1) + j), a the pattern's defective count and j its
errors, and each value's counts are multiplied by its big-integer weight
once, at the end. The table, source "oracle", is cached per (spec,
decoder) in an lru_cache of 16 entries, and each call is sized first by
ensemble.multigraph_count. exact_error_probability sums the table's rows
itself, never through fa_probability or md_probability. The literal walk
over all E! matchings is tests/oracle_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .combinatorics import exact_delta
from .detection import CHUNK_PATTERNS, Algorithm, decode_counts, union_tables
from .ensemble import EnsembleSpec, multigraph_count
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


def _matrix_blocks(spec: EnsembleSpec, size: int) -> Iterator[np.ndarray]:
    """Every multiplicity matrix once, as blocks of at most `size` rows of its n m entries, item by item.

    The matrices come in descending lexicographic order of their entries. On
    (E, 1, 1), where each matrix is one matching, sending item v to the test
    in its row, that is itertools.permutations order.
    """
    degrees = spec.item_degrees

    def extend(cells: np.ndarray, left: np.ndarray, v: int) -> Iterator[np.ndarray]:
        if v == len(degrees):
            yield from (cells[start : start + size] for start in range(0, len(cells), size))
            return
        parent, row, need = np.arange(len(cells)), np.zeros((len(cells), 0), np.intp), np.full(len(cells), degrees[v])
        for c in range(spec.m):
            # Take at least what the later columns cannot hold, so every partial matrix completes.
            low = np.maximum(need - left[parent, c + 1 :].sum(axis=1), 0)
            high = np.minimum(need, left[parent, c])
            ways = high - low + 1
            step = np.repeat(np.arange(len(ways)), ways)
            take = high[step] - np.arange(len(step)) + np.repeat(np.cumsum(ways) - ways, ways)
            parent, row, need = parent[step], np.column_stack((row[step], take)), need[step] - take
        cells, left = np.concatenate((cells[parent], row), axis=1, dtype=cells.dtype), left[parent] - row
        # Chunks of CHUNK_PATTERNS partial matrices: chunks of `size` would be tiny where each graph has many words.
        for start in range(0, len(cells), CHUNK_PATTERNS):
            yield from extend(cells[start : start + CHUNK_PATTERNS], left[start : start + CHUNK_PATTERNS], v + 1)

    # No entry exceeds the largest degree: the smallest signed type holding it keeps chunks small.
    yield from extend(np.zeros((1, 0), np.min_scalar_type(-degrees[-1])), np.array([spec.test_degrees]), 0)


def _error_blocks(spec: EnsembleSpec, algorithm: Algorithm) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every multiplicity matrix with its errors, as blocks (K x n m entries, K x 2^n errors).

    Entry [k, mask] of the errors is the false-alarm count (COMP) or
    misdetection count (DD) of pattern mask on the block's k-th graph, of
    the smallest unsigned type holding n. Callers size the work first.
    """
    n, m, masks = spec.n, spec.m, np.arange(1 << spec.n)
    # Bit p % 64 of word p // 64 in row v is item v of pattern p; the padding is zero.
    patterns = np.zeros((n, -(-len(masks) // 64)), dtype=np.uint64)
    bits = np.packbits((masks >> np.arange(n)[:, None]) & 1, axis=1, bitorder="little")
    patterns.view(np.uint8)[:, : bits.shape[1]] = bits
    size = min(max(CHUNK_PATTERNS // patterns.shape[1], 1), multigraph_count(spec))
    tiled = np.tile(patterns, (size, 1, 1))
    for cells in _matrix_blocks(spec, size):
        k = len(cells)
        # Each graph's canonical matching: test c's sockets hold its items v in order, M_vc times each.
        items = np.repeat(np.tile(np.arange(n), k * m), cells.reshape(k, n, m).transpose(0, 2, 1).ravel())
        tables = union_tables(items.reshape(k, -1), n, spec.test_degrees)
        yield cells, decode_counts(tables, tiled[:k], algorithm, len(masks))[1]


@lru_cache(maxsize=16)
def _oracle_table(spec: EnsembleSpec, algorithm: Algorithm) -> EnumeratorTable:
    """The exhaustive table: cell (a, j) counts the (matching, a-defective pattern) pairs with j errors.

    One bincount per block of the keys i (n + 1)^2 + a (n + 1) + j, i the
    index of the graph's prod M_vc! among the block's values. Callers size
    the work first.
    """
    n, cells = spec.n, (spec.n + 1) ** 2
    keys = np.bitwise_count(np.arange(1 << n)).astype(_count_type(n)) * (n + 1)
    # Python ints, so prod M_vc! is exact at any degree.
    factorials = np.array([math.factorial(k) for k in range(max(spec.item_degrees) + 1)], dtype=object)
    tally: dict[int, np.ndarray] = {}  # prod M_vc! -> the counts of its graphs
    for matrices, errors in _error_blocks(spec, algorithm):
        products, kind = np.unique(factorials[matrices].prod(axis=1), return_inverse=True)
        counts = np.bincount((kind[:, None] * cells + (keys + errors)).ravel(), minlength=len(products) * cells)
        for product, count in zip(products.tolist(), counts.reshape(-1, cells)):
            tally[product] = tally.get(product, 0) + count
    numerator = math.prod(map(math.factorial, (*spec.item_degrees, *spec.test_degrees)))
    totals = [sum(numerator // p * c for p, c in zip(tally, column)) for column in np.array([*tally.values()]).T.tolist()]
    rows = tuple(tuple(totals[a * (n + 1) : a * (n + 1) + len(row)]) for a, row in enumerate(empty_rows(n, algorithm)))
    # Row 0 holds one pattern per graph, so its sum is the sum of the weights W(M).
    assert sum(rows[0]) == math.factorial(spec.edge_count), "multigraph weights do not sum to E!"
    return EnumeratorTable(algorithm, spec, rows, sum(rows[0]), source="oracle")


def exact_enumerators(spec: EnsembleSpec, algorithm: Algorithm) -> OracleReport:
    """Average pattern counts over every matching, by brute force over the multigraphs.

    Tallies (defective count, error count) across all multigraphs, each
    weighted by the matchings that give it, and all defective sets: integer
    counts over the E! matchings.
    """
    check_algorithm(algorithm)
    multigraph_count(spec)
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
    multigraph_count(spec)
    table = _oracle_table(spec, algorithm)
    n, p, q = spec.n, d.numerator, d.denominator
    rows = [(a, len(row) - 1, sum(j * c for j, c in enumerate(row))) for a, row in enumerate(table.rows)]
    lcm = math.lcm(*(e for _, e, _ in rows if e))
    total = sum(lcm // e * p**a * (q - p) ** (n - a) * errors for a, e, errors in rows if e)
    return Fraction(total, lcm * table.denominator * q**n)
