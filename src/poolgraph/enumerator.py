"""Ensemble-average outcome-pattern enumerators, exact over the rationals.

A_{a,j} is the expected number of (defective set, outcome) pairs with a
defectives and j decoding errors (false alarms for COMP, misdetections for
DD), averaged over the uniform socket-matching ensemble. Each entry is
recovered by coefficient extraction from powers of small generating
polynomials (the configuration-model generating-function method of Di,
Proietti, Telatar, Richardson and Urbanke, IEEE T-IT 2002): one polynomial
encodes how test sockets split across edge classes, one encodes how item
sockets do, and a multinomial counts the socket pairings consistent with
both. Everything is exact; the only floats anywhere are in the CSV decimal
column.

Row sums obey sum_j A_{a,j} = C(n, a): every defective set realizes exactly
one error count per matching. This identity is the cheap self-check used
by the CLI and the acceptance tests.

General designs take truncated sparse powers (`polynomial`). Regular
designs get dedicated fast paths that never multiply a polynomial out:
every regular-route polynomial is a binomial bracket, so each coefficient
of its powers is a short closed form. With the implicit slack variable set
to 1 and S_d(q, w) = sum_t (-1)^(q-t) C(q, t) C(d t, w):

    COMP g = (1+x+y)^r - (x+y)^r          [x^a1 y^a2] g^b = C(a1+a2, a1) S_r(b, b r - a1 - a2)
    COMP f, DD f1 = (1+s)^l - s^l         [s^y] f^q = S_l(q, l q - y)
    DD f2 = (1+s2+s3)^l - (s2+s3)^l       [s2^c2 s3^c3] f2^q = C(c2+c3, c2) S_l(q, l q - c2 - c3)
    DD g = (1+y1+y2+y3)^r - (y1+y2)^r - r y1^(r-1) (1+y3)
        [y1^a1 y2^a2 y3^a3] g^b
            = C(U, a3) sum_p C(b, p) (-r)^p C(a1 - p(r-1) + a2, a2) S_r(b-p, U-p),
        with U = b r - a1 - a2.

The general route reproduces the fast paths exactly, and the closed forms
equal sparse powers of the literal polynomials; tests pin down both.
Tables for the same spec are cached, so probability evaluations over a
delta grid pay for enumeration once.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping, Union

from .combinatorics import binomial, multinomial, to_decimal
from .detection import Algorithm
from .ensemble import EnsembleSpec, regular_spec, spec_hash, validate
from .polynomial import SparsePoly, poly_add, poly_mul, poly_pow, poly_product_of_powers

__all__ = [
    "EnumeratorTable",
    "comp_regular",
    "comp_irregular",
    "dd_regular",
    "dd_irregular",
    "build_table",
    "fa_probability",
    "md_probability",
    "write_table_csv",
    "table_domain",
]


@dataclass(frozen=True, eq=False)
class EnumeratorTable:
    """Complete map (a, j) -> A_{a,j} for one spec and decoder.

    For COMP, j counts false alarms (0 <= j <= n - a); for DD, j counts
    misdetections (0 <= j <= a).
    """

    algorithm: Algorithm
    spec: EnsembleSpec
    values: Mapping[tuple[int, int], Fraction]
    source: str = field(default="enumerator")

    def row_sums(self) -> dict[int, Fraction]:
        sums: dict[int, Fraction] = {}
        for (a, _), value in self.values.items():
            sums[a] = sums.get(a, Fraction(0)) + value
        return sums

    def check_row_sums(self) -> bool:
        return all(self.row_sums()[a] == binomial(self.spec.n, a) for a in range(self.spec.n + 1))


def table_domain(n: int, algorithm: Algorithm) -> Iterator[tuple[int, int]]:
    """All (defective count, error count) keys a complete table must carry."""
    for a in range(n + 1):
        errs = (n - a) if algorithm is Algorithm.COMP else a
        for j in range(errs + 1):
            yield (a, j)


def _check_cell(n: int, i: int, j: int) -> None:
    if i < 0 or j < 0 or i + j > n:
        raise ValueError(f"cell out of range: i={i}, j={j}, n={n}")


def _as_exact(delta) -> Fraction:
    if isinstance(delta, float):
        raise TypeError(
            "delta must be exact (int, str, or Fraction); floats silently misstate "
            "values like 0.05 in binary"
        )
    value = Fraction(delta)
    if not 0 <= value <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {value}")
    return value


# ---------------------------------------------------------------------------
# Regular designs: every item in l tests, every test pooling r items.
#
# A cell sums integer terms over the common denominator edges!: a term
# num / multinomial(edges, parts) equals num * prod(part!) / edges!.
# ---------------------------------------------------------------------------


class _ClosedForms:
    """Closed-form coefficients of the regular-route powers (see the module docstring).

    Memoizes S_d(q, w) = [slack^w] ((slack + s)^d - s^d)^q per instance, so
    build one instance per table. `fact` holds 0!, ..., edges!.
    """

    __slots__ = ("fact", "_alt")

    def __init__(self, edges: int):
        fact = [1]
        for v in range(1, edges + 1):
            fact.append(fact[-1] * v)
        self.fact = fact
        self._alt: dict[tuple[int, int, int], int] = {}

    def alt(self, d: int, q: int, w: int) -> int:
        """S_d(q, w); zero unless 0 <= w <= d q."""
        key = (d, q, w)
        value = self._alt.get(key)
        if value is None:
            value = 0
            if 0 <= w <= d * q:
                for t in range(-(-w // d), q + 1):
                    term = binomial(q, t) * binomial(d * t, w)
                    value += -term if (q - t) & 1 else term
            self._alt[key] = value
        return value

    def at_least_one(self, d: int, q: int, a1: int, a2: int = 0) -> int:
        """[x^a1 y^a2] ((1 + x + y)^d - (x + y)^d)^q: d sockets, at least one on the slack.

        With a2 = 0 this is the one-variable bracket (1 + x)^d - x^d.
        """
        return binomial(a1 + a2, a1) * self.alt(d, q, d * q - a1 - a2)

    def dd_g(self, r: int, b: int, a1: int, a2: int, a3: int) -> int:
        """[y1^a1 y2^a2 y3^a3] g^b for g = (1 + y1 + y2 + y3)^r - (y1 + y2)^r - r y1^(r-1) (1 + y3).

        With u = 1 + y3 and v = y1 + y2, g = ((u + v)^r - v^r) - r y1^(r-1) u.
        Taking the sole term p times leaves u^p ((u + v)^r - v^r)^(b-p), whose
        u^(U-p) coefficient is S_r(b - p, U - p); C(U, a3) picks y3 out of u^U.
        """
        u = b * r - a1 - a2
        if u < a3:
            return 0
        top = min(b, u, a1 // (r - 1) if r > 1 else b)
        total = 0
        for p in range(top + 1):
            total += (
                binomial(b, p)
                * (-r) ** p
                * binomial(a1 - p * (r - 1) + a2, a2)
                * self.alt(r, b - p, u - p)
            )
        return binomial(u, a3) * total


def _comp_cell(forms: _ClosedForms, n: int, l: int, r: int, m: int, i: int, j: int) -> Fraction:
    # b positive tests. Test-side classes at a positive test: slack = edges
    # to defectives (at least one), x = edges to false-alarm items, y = edges
    # to dismissed items. A dismissed item splits its l sockets between
    # negative tests (slack, at least one) and positive tests (s).
    fact = forms.fact
    q = n - i - j
    total = 0
    for b in range(m + 1):
        y = b * r - l * (i + j)
        if y < 0:
            continue
        gc = forms.at_least_one(r, b, l * j, y)
        fc = forms.at_least_one(l, q, y)
        if gc and fc:
            total += (
                binomial(m, b) * gc * fc
                * fact[l * i] * fact[l * j] * fact[y] * fact[(m - b) * r]
            )
    return Fraction(multinomial(n, (i, j, q)) * total, fact[m * r])


def comp_regular(n: int, l: int, r: int, i: int, j: int) -> Fraction:
    """A_{i,j} for COMP on the (n, l, r)-regular ensemble: i defectives, j false alarms."""
    spec = regular_spec(n, l, r)
    _check_cell(n, i, j)
    return _comp_cell(_ClosedForms(spec.edge_count), n, l, r, spec.m, i, j)


def _comp_regular_table(n: int, l: int, r: int) -> dict[tuple[int, int], Fraction]:
    spec = regular_spec(n, l, r)
    forms = _ClosedForms(spec.edge_count)
    return {
        (i, j): _comp_cell(forms, n, l, r, spec.m, i, j)
        for i, j in table_domain(n, Algorithm.COMP)
    }


def _dd_cell(forms: _ClosedForms, n: int, l: int, r: int, m: int, i: int, j: int) -> Fraction:
    # b1 certifying tests (one certified defective, r - 1 dismissed items;
    # r choices of the defective's socket), b2 other positive tests, k
    # fully-covered non-defectives. Test-side classes at another positive
    # test (g): slack = edges to missed defectives, y1 = dismissed items,
    # y2 = fully-covered non-defectives, y3 = certified defectives. Certified
    # defectives split their sockets between certifying tests (slack, at
    # least one) and other positives (f1). Dismissed items split theirs
    # between negative tests (slack, at least one), other positives (s2) and
    # certifying tests (s3) (f2).
    fact = forms.fact
    total = 0
    for b2 in range(m + 1):
        for b1 in range(i, min(i * l, m - b2) + 1):
            x3e = i * l - b1
            f1c = forms.at_least_one(l, i, x3e)
            if not f1c:
                continue
            c3 = b1 * (r - 1)
            outer = (
                multinomial(m, (b1, b2, m - b1 - b2)) * r**b1 * f1c
                * fact[(m - b1 - b2) * r] * fact[j * l] * fact[c3] * fact[x3e] * fact[b1]
            )
            for k in range(n - i - j + 1):
                e2 = b2 * r + b1 - (i + j + k) * l
                if e2 < 0:
                    break
                q = n - i - j - k
                f2c = forms.at_least_one(l, q, e2, c3)
                if not f2c:
                    continue
                gc = forms.dd_g(r, b2, e2, k * l, x3e)
                if gc:
                    total += outer * multinomial(n, (i, j, k, q)) * f2c * gc * fact[e2] * fact[k * l]
    return Fraction(total, fact[m * r])


def dd_regular(n: int, l: int, r: int, i: int, j: int) -> Fraction:
    """A_{i+j,j} for DD on the (n, l, r)-regular ensemble: i certified, j missed."""
    spec = regular_spec(n, l, r)
    _check_cell(n, i, j)
    return _dd_cell(_ClosedForms(spec.edge_count), n, l, r, spec.m, i, j)


def _dd_regular_table(n: int, l: int, r: int) -> dict[tuple[int, int], Fraction]:
    spec = regular_spec(n, l, r)
    forms = _ClosedForms(spec.edge_count)
    return {
        (a, j): _dd_cell(forms, n, l, r, spec.m, a - j, j)
        for a, j in table_domain(n, Algorithm.DD)
    }


# ---------------------------------------------------------------------------
# General (possibly irregular) designs: one generating-function factor per
# node degree, raised to the node count of that degree.
# ---------------------------------------------------------------------------


def _right_counts_checked(spec: EnsembleSpec) -> dict[int, int]:
    validate(spec)
    return spec.right_counts()


@lru_cache(maxsize=32)
def _comp_general_parts(spec: EnsembleSpec):
    """(edges, rows, item_gf) where rows = ((exponents, coefficient, pair count), ...).

    Test-side variables: x1 edges to defectives, x2 to false alarms, x3 to
    dismissed items. Item-side adds markers t1 (defective) and t2 (false
    alarm) onto matching socket variables s1..s3.
    """
    right_counts = _right_counts_checked(spec)
    edges = spec.edge_count
    caps_g = (edges, edges, edges)
    g_factors = []
    for d, count in sorted(right_counts.items()):
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
    rows = tuple(
        (exps, gc, multinomial(edges, exps + (edges - sum(exps),)))
        for exps, gc in sorted(g.items())
    )
    return edges, rows, f


def comp_irregular(spec: EnsembleSpec, i: int, j: int) -> Fraction:
    """A_{i,j} for COMP on an arbitrary-degree ensemble."""
    _check_cell(spec.n, i, j)
    _, rows, f = _comp_general_parts(spec)
    f_terms = f.terms
    total = Fraction(0)
    for exps, gc, pairings in rows:
        fc = f_terms.get((i, j) + exps)
        if fc:
            total += Fraction(gc * fc, pairings)
    return total


def _comp_irregular_table(spec: EnsembleSpec) -> dict[tuple[int, int], Fraction]:
    values = {key: Fraction(0) for key in table_domain(spec.n, Algorithm.COMP)}
    for i in range(spec.n + 1):
        for j in range(spec.n - i + 1):
            values[(i, j)] = comp_irregular(spec, i, j)
    return values


@lru_cache(maxsize=32)
def _dd_general_parts(spec: EnsembleSpec):
    """Test- and item-side generating functions for DD, six edge classes.

    x1/s1 missed-defective edges, x2/s2 dismissed items at ordinary positive
    tests, x3/s3 dismissed items at certifying tests, x4/s4 fully-covered
    non-defectives, x5/s5 certified defectives at ordinary positive tests,
    x6/s6 certified defectives at their certifying tests.
    """
    right_counts = _right_counts_checked(spec)
    edges = spec.edge_count
    caps_g = (edges,) * 6
    g_factors = []
    for d, count in sorted(right_counts.items()):
        pd_adjacent = SparsePoly.sum_of_variables(6, [0, 1, 3, 4], caps_g)
        no_def = SparsePoly.sum_of_variables(6, [1, 3], caps_g)
        bracket = poly_add(SparsePoly.constant(6, 1, caps_g), poly_pow(pd_adjacent, d))
        bracket = poly_add(bracket, -poly_pow(no_def, d))
        sole_missed = {(1, d - 1, 0, 0, 0, 0): d}
        sole_cert = {(0, d - 1, 0, 0, 1, 0): d}
        certifying = {(0, 0, d - 1, 0, 0, 1): d}
        bracket = poly_add(bracket, SparsePoly(6, {k: -v for k, v in sole_missed.items()}, caps_g))
        bracket = poly_add(bracket, SparsePoly(6, {k: -v for k, v in sole_cert.items()}, caps_g))
        bracket = poly_add(bracket, SparsePoly(6, certifying, caps_g))
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
    rows = tuple(
        (exps, gc, multinomial(edges, exps + (edges - sum(exps),)))
        for exps, gc in sorted(g.items())
    )
    return edges, rows, f


def dd_irregular(spec: EnsembleSpec, i: int, j: int) -> Fraction:
    """A_{i+j,j} for DD on an arbitrary-degree ensemble: i certified, j missed."""
    _check_cell(spec.n, i, j)
    _, rows, f = _dd_general_parts(spec)
    f_terms = f.terms
    total = Fraction(0)
    for exps, gc, pairings in rows:
        fc = f_terms.get((i, j) + exps)
        if fc:
            total += Fraction(gc * fc, pairings)
    return total


# ---------------------------------------------------------------------------
# Tables and error probabilities.
# ---------------------------------------------------------------------------


def _regular_degrees(spec: EnsembleSpec) -> tuple[int, int]:
    return spec.left.entries[0][0], spec.right.entries[0][0]


@lru_cache(maxsize=16)
def build_table(spec: EnsembleSpec, algorithm: Algorithm) -> EnumeratorTable:
    """Complete enumerator table for one ensemble, via the regular fast path when it applies."""
    validate(spec)
    if spec.is_regular:
        l, r = _regular_degrees(spec)
        if algorithm is Algorithm.COMP:
            values = _comp_regular_table(spec.n, l, r)
        else:
            values = _dd_regular_table(spec.n, l, r)
    else:
        if algorithm is Algorithm.COMP:
            values = _comp_irregular_table(spec)
        else:
            values = {key: Fraction(0) for key in table_domain(spec.n, Algorithm.DD)}
            for a in range(spec.n + 1):
                for j in range(a + 1):
                    values[(a, j)] = dd_irregular(spec, a - j, j)
    return EnumeratorTable(algorithm=algorithm, spec=spec, values=values)


def _require_complete(table: EnumeratorTable) -> None:
    missing = [key for key in table_domain(table.spec.n, table.algorithm) if key not in table.values]
    if missing:
        raise ValueError(f"incomplete table: missing {len(missing)} cells, first {missing[0]}")


def fa_probability(table: EnumeratorTable, delta) -> Fraction:
    """Expected per-item false-alarm rate E[fa / (n - defectives)] under i.i.d. Bernoulli(delta)."""
    if table.algorithm is not Algorithm.COMP:
        raise ValueError("false-alarm probability is defined on COMP tables")
    _require_complete(table)
    d = _as_exact(delta)
    n = table.spec.n
    total = Fraction(0)
    for i in range(1, n + 1):
        if i == n:
            continue  # no non-defectives to falsely accuse
        inner = Fraction(0)
        for j in range(1, n - i + 1):
            inner += Fraction(j, n - i) * table.values[(i, j)]
        if inner:
            total += inner * d**i * (1 - d) ** (n - i)
    return total


def md_probability(table: EnumeratorTable, delta) -> Fraction:
    """Expected per-item misdetection rate E[md / defectives] under i.i.d. Bernoulli(delta)."""
    if table.algorithm is not Algorithm.DD:
        raise ValueError("misdetection probability is defined on DD tables")
    _require_complete(table)
    d = _as_exact(delta)
    n = table.spec.n
    total = Fraction(0)
    for a in range(1, n + 1):
        inner = Fraction(0)
        for j in range(1, a + 1):
            inner += Fraction(j, a) * table.values[(a, j)]
        if inner:
            total += inner * d**a * (1 - d) ** (n - a)
    return total


def write_table_csv(table: EnumeratorTable, out: Union[str, Path, io.TextIOBase], precision: int = 12) -> None:
    """CSV rows (a, j, numerator, denominator, decimal) with a spec-hash comment line."""
    _require_complete(table)

    def _write(fh) -> None:
        fh.write(
            f"# spec_hash={spec_hash(table.spec)} algorithm={table.algorithm.value} "
            f"source={table.source}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "j", "numerator", "denominator", "decimal"])
        for (a, j) in sorted(table.values):
            value = table.values[(a, j)]
            writer.writerow([a, j, value.numerator, value.denominator, to_decimal(value, precision)])

    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(out)
