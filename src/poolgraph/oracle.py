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
errors; the block's counts, times each value's big-integer weight, go
straight into the table's Python-int totals. The table, source "oracle",
is cached per (spec, decoder) in an lru_cache of 16 entries, and each build
is sized first by multigraph_count. exact_error_probability sums the table's
rows itself, never through fa_probability or md_probability. The literal
walk over all E! matchings is tests/oracle_reference.py.
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
from .ensemble import EnsembleSpec
from .enumerator import EnumeratorTable, check_algorithm, empty_rows
from .errors import SizeLimitError, refuse_over_limit

# perfbench/layers.py rebinds these names here to trace them; the oracle calls none of them.
from .detection import comp_pd_mask, dd_certified_mask  # noqa: F401
from .ensemble import enumerate_matchings  # noqa: F401

__all__ = ["OracleReport", "exact_enumerators", "exact_error_probability"]

# One process on a 2-vCPU x86_64 host: seconds per (multigraph, 64-pattern
# word) decoded and per multigraph enumerated, fitted in BENCH_31.json.
_GRAPH_SECONDS_PER_WORD = 9.4e-7
_GRAPH_SECONDS = 3.0e-6
# Most items the oracle takes: one decode unpacks n x 2^n error bytes, 400 MB
# at n = 24, where a one-graph spec is cheap in time.
ORACLE_MAX_ITEMS = 16
# Most remainder entries multigraph_count visits to count the matrices
# exactly, about 0.2 s (BENCH_31.json).
_COUNT_ENTRIES = 300_000


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Exhaustively computed ensemble-average table plus the matching count behind it."""

    table: EnumeratorTable
    matchings_enumerated: int


def _count_type(n: int) -> np.dtype:
    """The smallest unsigned type holding every tally key a (n + 1) + j, at most (n + 1)^2 - 1, so none can wrap."""
    return np.min_scalar_type((n + 1) ** 2 - 1)


def _graph_seconds(spec: EnsembleSpec, graphs) -> float:
    """The weighted oracle's seconds over `graphs` multigraphs, each enumerated and decoded on ceil(2^n / 64) words."""
    return graphs * (2 ** max(spec.n - 6, 0) * _GRAPH_SECONDS_PER_WORD + _GRAPH_SECONDS)


def _graph_bound(spec: EnsembleSpec) -> float:
    """E! / (prod l_v! prod r_c!) from lgamma: no multigraph has more matchings, so there are at least this many."""
    degrees = (*spec.item_classes, *spec.test_classes)
    return math.exp(math.lgamma(spec.edge_count + 1) - sum(k * math.lgamma(d + 1) for d, k in degrees))


def _fills(degree: int, left: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each remainder of `left` after `degree` <= sum(left) edges take at most left[i] from each entry i, lazily."""
    if len(left) == 1:
        yield (left[0] - degree,)
        return
    for take in range(max(degree - sum(left[1:]), 0), min(degree, left[0]) + 1):
        yield from ((left[0] - take, *rest) for rest in _fills(degree - take, left[1:]))


def _matrix_count(spec: EnsembleSpec) -> int:
    """The multiplicity matrices, counted line by line over the sorted nonzero remainders of the other side.

    Transposing swaps the margins, so the lines are the side with fewer
    unbounded placements, sum over its degrees d of C(d + k - 1, d), k the
    other side's size.
    """
    sides = (spec.item_degrees, spec.test_degrees)
    other, lines = min(sides, sides[::-1], key=lambda pair: sum(math.comb(d + len(pair[0]) - 1, d) for d in pair[1]))
    ways, entries = {tuple(sorted(other)): 1}, 0
    for degree in lines:
        after: dict[tuple[int, ...], int] = {}
        for left, count in ways.items():
            for rest in _fills(degree, left):
                entries += len(rest)
                if entries > _COUNT_ENTRIES:
                    work = f"the oracle over {spec.edge_count}! matchings"
                    raise SizeLimitError(f"{work} counts its multigraphs over at most {_COUNT_ENTRIES:,} entries")
                key = tuple(sorted(filter(None, rest)))
                after[key] = after.get(key, 0) + count
        ways = after
    return ways[()]


def multigraph_count(spec: EnsembleSpec) -> int:
    """The oracle's graphs, one per multiplicity matrix; first SizeLimitError when the oracle would take too long.

    Refused first on the lgamma bound of the count, then past
    ORACLE_MAX_ITEMS items, and only then counted exactly, over at most
    _COUNT_ENTRIES remainder entries.
    """
    work = f"the oracle over {spec.edge_count}! matchings"
    refuse_over_limit(work, lambda: _graph_seconds(spec, _graph_bound(spec)))
    if spec.n > ORACLE_MAX_ITEMS:
        raise SizeLimitError(f"{work} takes at most {ORACLE_MAX_ITEMS} items, got n = {spec.n}")
    graphs = _matrix_count(spec)
    refuse_over_limit(work, _graph_seconds, spec, graphs)
    return graphs


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


def _error_blocks(spec: EnsembleSpec, algorithm: Algorithm, graphs: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every multiplicity matrix with its errors, as blocks (K x n m entries, K x 2^n errors).

    Entry [k, mask] of the errors is the false-alarm count (COMP) or
    misdetection count (DD) of pattern mask on the block's k-th graph, of
    the smallest unsigned type holding n. `graphs`, the matrix count, caps K.
    """
    n, m, masks = spec.n, spec.m, np.arange(1 << spec.n)
    # Bit p % 64 of word p // 64 in row v is item v of pattern p; the padding is zero.
    patterns = np.zeros((n, -(-len(masks) // 64)), dtype=np.uint64)
    bits = np.packbits((masks >> np.arange(n)[:, None]) & 1, axis=1, bitorder="little")
    patterns.view(np.uint8)[:, : bits.shape[1]] = bits
    size = min(max(CHUNK_PATTERNS // patterns.shape[1], 1), graphs)
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
    index of the graph's prod M_vc! among the block's values; each block is
    weighted and added in before the next. multigraph_count sizes the build first.
    """
    graphs = multigraph_count(spec)
    n, cells = spec.n, (spec.n + 1) ** 2
    keys = np.bitwise_count(np.arange(1 << n)).astype(_count_type(n)) * (n + 1)
    # Python ints, so prod M_vc! is exact at any degree.
    factorials = np.array([math.factorial(k) for k in range(max(spec.item_degrees) + 1)], dtype=object)
    numerator = math.prod(map(math.factorial, (*spec.item_degrees, *spec.test_degrees)))
    totals = np.zeros(cells, dtype=object)
    for matrices, errors in _error_blocks(spec, algorithm, graphs):
        products, kind = np.unique(factorials[matrices].prod(axis=1), return_inverse=True)
        counts = np.bincount((kind[:, None] * cells + (keys + errors)).ravel(), minlength=len(products) * cells)
        # Each value's counts times its exact weight W(M), in Python ints.
        totals += (numerator // products) @ counts.reshape(-1, cells).astype(object)
    rows = tuple(tuple(totals[a * (n + 1) : a * (n + 1) + len(row)]) for a, row in enumerate(empty_rows(n, algorithm)))
    # Row 0 holds one pattern per graph, so its sum is the sum of the weights W(M); checked under python -O too.
    if sum(rows[0]) != math.factorial(spec.edge_count):
        raise AssertionError("multigraph weights do not sum to E!")
    return EnumeratorTable(algorithm, spec, rows, sum(rows[0]), source="oracle")


def exact_enumerators(spec: EnsembleSpec, algorithm: Algorithm) -> OracleReport:
    """Average pattern counts over every matching, by brute force over the multigraphs.

    Tallies (defective count, error count) across all multigraphs, each
    weighted by the matchings that give it, and all defective sets: integer
    counts over the E! matchings.
    """
    check_algorithm(algorithm)
    table = _oracle_table(spec, algorithm)
    return OracleReport(table, table.denominator)


def exact_error_probability(spec: EnsembleSpec, algorithm: Algorithm, delta) -> Fraction:
    """Exact expected per-item error rate by direct expectation over the exhaustive table.

    Averages fa/(non-defective count) for COMP or md/(defective count) for
    DD over matchings and Bernoulli(delta) patterns; rows with no candidate
    to err contribute 0. For delta = p / q, the terms
    Fraction(sum_j j N_{a,j}, e_a) p^a (q - p)^(n - a), e_a = len(row a) - 1,
    are summed over the rows with e_a >= 1 and divided once by M q^n,
    without the table's error_weights or fa/md_probability.
    """
    check_algorithm(algorithm)
    d = exact_delta(delta)
    table = _oracle_table(spec, algorithm)
    n, p, q = spec.n, d.numerator, d.denominator
    rows = ((a, len(row) - 1, sum(j * c for j, c in enumerate(row))) for a, row in enumerate(table.rows))
    total = sum(Fraction(errors, e) * p**a * (q - p) ** (n - a) for a, e, errors in rows if e)
    return total / (table.denominator * q**n)
