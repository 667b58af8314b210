"""Reference enumerator: multiply the literal generating functions out.

One factor per node degree, raised to the node count of that degree, then
one coefficient read per edge-class split. This is the slow, literal form of
the configuration-model counting that `poolgraph.enumerator` evaluates by
degree-class closed forms; the tests compare the two cell by cell. Usable on
small specs only (n up to about 8).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from poolgraph.combinatorics import multinomial
from poolgraph.detection import Algorithm
from poolgraph.ensemble import EnsembleSpec, validate
from poolgraph.enumerator import table_domain
from poolgraph.polynomial import SparsePoly, poly_add, poly_mul, poly_pow, poly_product_of_powers


def _rows(g, edges):
    return tuple(
        (exps, gc, multinomial(edges, exps + (edges - sum(exps),)))
        for exps, gc in sorted(g.items())
    )


@lru_cache(maxsize=32)
def _comp_parts(spec: EnsembleSpec):
    """(rows, item_gf) where rows = ((exponents, coefficient, pair count), ...).

    Test-side variables: x1 edges to defectives, x2 to false alarms, x3 to
    dismissed items. Item-side adds markers t1 (defective) and t2 (false
    alarm) onto matching socket variables s1..s3.
    """
    validate(spec)
    edges = spec.edge_count
    caps_g = (edges, edges, edges)
    g_factors = []
    for d, count in sorted(spec.right_counts().items()):
        any_edge = SparsePoly.sum_of_variables(3, [0, 1, 2], caps_g)
        no_def = SparsePoly.sum_of_variables(3, [1, 2], caps_g)
        bracket = poly_add(
            poly_add(SparsePoly.constant(3, 1, caps_g), poly_pow(any_edge, d)),
            -poly_pow(no_def, d),
        )
        g_factors.append((bracket, count))
    g = poly_product_of_powers(g_factors, caps_g)
    n = spec.n
    caps_f = (n, n, edges, edges, edges)
    f_factors = []
    for d, count in sorted(spec.left_counts().items()):
        defective = SparsePoly.monomial(5, (1, 0, d, 0, 0), 1, caps_f)
        false_alarm = SparsePoly.monomial(5, (0, 1, 0, d, 0), 1, caps_f)
        with_neg = SparsePoly(5, {(0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 1}, caps_f)
        all_pos = SparsePoly.monomial(5, (0, 0, 0, 0, 1), 1, caps_f)
        dismissed = poly_add(poly_pow(with_neg, d), -poly_pow(all_pos, d))
        bracket = poly_add(poly_add(defective, false_alarm), dismissed)
        f_factors.append((bracket, count))
    f = poly_product_of_powers(f_factors, caps_f)
    return _rows(g, edges), f


@lru_cache(maxsize=32)
def _dd_parts(spec: EnsembleSpec):
    """Test- and item-side generating functions for DD, six edge classes.

    x1/s1 missed-defective edges, x2/s2 dismissed items at ordinary positive
    tests, x3/s3 dismissed items at certifying tests, x4/s4 fully-covered
    non-defectives, x5/s5 certified defectives at ordinary positive tests,
    x6/s6 certified defectives at their certifying tests.
    """
    validate(spec)
    edges = spec.edge_count
    caps_g = (edges,) * 6
    g_factors = []
    for d, count in sorted(spec.right_counts().items()):
        pd_adjacent = SparsePoly.sum_of_variables(6, [0, 1, 3, 4], caps_g)
        no_def = SparsePoly.sum_of_variables(6, [1, 3], caps_g)
        bracket = poly_add(SparsePoly.constant(6, 1, caps_g), poly_pow(pd_adjacent, d))
        bracket = poly_add(bracket, -poly_pow(no_def, d))
        sole_missed = {(1, d - 1, 0, 0, 0, 0): -d}
        sole_cert = {(0, d - 1, 0, 0, 1, 0): -d}
        certifying = {(0, 0, d - 1, 0, 0, 1): d}
        for terms in (sole_missed, sole_cert, certifying):
            bracket = poly_add(bracket, SparsePoly(6, terms, caps_g))
        g_factors.append((bracket, count))
    g = poly_product_of_powers(g_factors, caps_g)
    n = spec.n
    caps_f = (n, n) + (edges,) * 6
    f_factors = []
    for d, count in sorted(spec.left_counts().items()):
        s5_plus_s6 = SparsePoly.sum_of_variables(8, [6, 7], caps_f)
        s5_only = SparsePoly.monomial(8, (0, 0, 0, 0, 0, 0, 1, 0), 1, caps_f)
        t1 = SparsePoly.monomial(8, (1, 0, 0, 0, 0, 0, 0, 0), 1, caps_f)
        certified = poly_mul(t1, poly_add(poly_pow(s5_plus_s6, d), -poly_pow(s5_only, d)), caps_f)
        missed = SparsePoly.monomial(8, (0, 1, d, 0, 0, 0, 0, 0), 1, caps_f)
        covered = SparsePoly.monomial(8, (0, 0, 0, 0, 0, d, 0, 0), 1, caps_f)
        with_neg = SparsePoly(
            8, {(0,) * 8: 1, (0, 0, 0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0, 0, 0): 1}, caps_f
        )
        all_pos = SparsePoly(
            8, {(0, 0, 0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0, 0, 0): 1}, caps_f
        )
        dismissed = poly_add(poly_pow(with_neg, d), -poly_pow(all_pos, d))
        bracket = poly_add(poly_add(certified, missed), poly_add(covered, dismissed))
        f_factors.append((bracket, count))
    f = poly_product_of_powers(f_factors, caps_f)
    return _rows(g, edges), f


def reference_cell(spec: EnsembleSpec, algorithm: Algorithm, i: int, j: int) -> Fraction:
    """COMP: A_{i,j} (i defectives, j false alarms); DD: A_{i+j,j} (i certified, j missed)."""
    rows, f = (_comp_parts if algorithm is Algorithm.COMP else _dd_parts)(spec)
    f_terms = f.terms
    total = Fraction(0)
    for exps, gc, pairings in rows:
        fc = f_terms.get((i, j) + exps)
        if fc:
            total += Fraction(gc * fc, pairings)
    return total


def reference_table(spec: EnsembleSpec, algorithm: Algorithm) -> dict[tuple[int, int], Fraction]:
    """Every (a, j) cell of the table, keyed as `EnumeratorTable.values` is."""
    values = {}
    for a, j in table_domain(spec.n, algorithm):
        i = a if algorithm is Algorithm.COMP else a - j
        values[(a, j)] = reference_cell(spec, algorithm, i, j)
    return values
