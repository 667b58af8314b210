"""Exhaustive ground truth for tiny ensembles.

Walks every socket matching (all E! permutations) and every defective set
(all 2^n bit patterns), runs the actual decoder on each, and tallies
outcomes in exact rationals. No generating functions anywhere: this is the
independent yardstick the enumerator module is measured against, so it
must stay brutally literal. Anything clever belongs in the other module.

Costs explode factorially; both entry points refuse work past a size
limit instead of grinding forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .combinatorics import exact_delta
from .detection import Algorithm, comp_pd_mask, dd_certified_mask
from .ensemble import DEFAULT_MATCHING_LIMIT, EnsembleSpec, enumerate_matchings
from .enumerator import EnumeratorTable, table_domain
from .errors import SizeLimitError

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


def _pattern_errors(graph, mask: int, algorithm: Algorithm) -> int:
    """False-alarm count under COMP, misdetection count under DD."""
    if algorithm is Algorithm.COMP:
        estimate = comp_pd_mask(graph, mask)
        return (estimate & ~mask).bit_count()
    estimate = dd_certified_mask(graph, mask)
    return (mask & ~estimate).bit_count()


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
    n = spec.n
    counts: dict[tuple[int, int], int] = {}
    matchings = 0
    for graph in enumerate_matchings(spec, limit=limit):
        matchings += 1
        for mask in range(1 << n):
            a = mask.bit_count()
            err = _pattern_errors(graph, mask, algorithm)
            key = (a, err)
            counts[key] = counts.get(key, 0) + 1
    table = {key: Fraction(0) for key in table_domain(n, algorithm)}
    for key, count in counts.items():
        table[key] = Fraction(count, matchings)
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
    err_sums = [0] * (1 << n)
    matchings = 0
    for graph in enumerate_matchings(spec, limit=limit):
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
