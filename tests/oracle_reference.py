"""Reference oracle: one graph per matching, one bitmask decode per pattern.

The literal form of `poolgraph.oracle`: walk every socket matching with
`enumerate_matchings`, build its `PoolingGraph`, and decode each of the 2^n
defective sets with the one-pattern bitmask decoders `comp_pd_mask` and
`dd_certified_mask`. It shares no decoding code with the batched oracle,
which the tests hold equal to it. Slow: one (4,2,2) table, 8! matchings x
16 patterns, takes seconds, so the tests keep to smaller specs. The
multiplicity matrix of a graph and its weight W(M) are given here from
their definitions too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from poolgraph.combinatorics import exact_delta
from poolgraph.detection import Algorithm, comp_pd_mask, dd_certified_mask
from poolgraph.ensemble import EnsembleSpec, enumerate_matchings, matching_count
from poolgraph.enumerator import EnumeratorTable, empty_rows
from poolgraph.oracle import OracleReport


def multiplicity_matrix(spec: EnsembleSpec, graph) -> tuple[int, ...]:
    """The graph's multiplicity matrix, item by item: entry v m + c counts the edges of item v and test c."""
    return tuple(graph.adj[c].count(v) for v in range(spec.n) for c in range(spec.m))


def weight(spec: EnsembleSpec, matrix: tuple[int, ...]) -> int:
    """W(M) = prod_v l_v! prod_c r_c! / prod_vc M_vc!, the socket matchings that give M."""
    sides = math.prod(map(math.factorial, (*spec.item_degrees, *spec.test_degrees)))
    return sides // math.prod(map(math.factorial, matrix))


def _pattern_errors(graph, mask: int, algorithm: Algorithm) -> int:
    """False-alarm count under COMP, misdetection count under DD."""
    if algorithm is Algorithm.COMP:
        estimate = comp_pd_mask(graph, mask)
        return (estimate & ~mask).bit_count()
    estimate = dd_certified_mask(graph, mask)
    return (mask & ~estimate).bit_count()


def exact_enumerators(spec: EnsembleSpec, algorithm: Algorithm) -> OracleReport:
    """Average pattern counts over every matching, by brute force.

    Tallies (defective count, error count) across all matchings and all
    defective sets: integer counts over the E! matchings.
    """
    n = spec.n
    counts: dict[tuple[int, int], int] = {}
    matchings = 0
    for graph in enumerate_matchings(spec):
        matchings += 1
        for mask in range(1 << n):
            a = mask.bit_count()
            err = _pattern_errors(graph, mask, algorithm)
            key = (a, err)
            counts[key] = counts.get(key, 0) + 1
    shape = empty_rows(n, algorithm)
    rows = tuple(tuple(counts.get((a, j), 0) for j in range(len(row))) for a, row in enumerate(shape))
    return OracleReport(EnumeratorTable(algorithm, spec, rows, matchings, source="oracle"), matchings)


def exact_error_probability(spec: EnsembleSpec, algorithm: Algorithm, delta) -> Fraction:
    """Exact expected per-item error rate by direct expectation.

    Averages fa/(non-defective count) for COMP or md/(defective count) for
    DD over matchings and Bernoulli(delta) patterns, without grouping into
    a table first. Patterns with a zero denominator contribute 0.
    """
    d = exact_delta(delta)
    n = spec.n
    # Refused like the library, before the 2^n sums are allocated.
    matching_count(spec)
    err_sums = [0] * (1 << n)
    matchings = 0
    for graph in enumerate_matchings(spec):
        matchings += 1
        for mask in range(1 << n):
            err_sums[mask] += _pattern_errors(graph, mask, algorithm)
    total = Fraction(0)
    for mask in range(1 << n):
        if not err_sums[mask]:
            continue
        a = mask.bit_count()
        denom = (n - a) if algorithm is Algorithm.COMP else a
        if denom == 0:
            continue
        weight = d**a * (1 - d) ** (n - a)
        total += weight * Fraction(err_sums[mask], denom * matchings)
    return total
