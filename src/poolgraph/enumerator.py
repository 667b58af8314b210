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

No table builder multiplies a polynomial out. Every generating polynomial
is a binomial bracket per node, so each coefficient of its powers is a
short closed form. With S_d(q, w) = sum_t (-1)^(q-t) C(q, t) C(d t, w):

    [x^w] ((1+x)^d - 1)^q = S_d(q, w)
    [s^y] ((1+s)^d - s^d)^q = S_d(q, d q - y)
    O = (x1+x2+x4)^d - (x2+x4)^d - d x1 x2^(d-1)
        [x1^W x2^a x4^c] O^o = sum_p C(o, p) (-d)^p C(a - p(d-1) + c, c) S_d(o-p, W-p),
        with W = d o - a - c: the sole term d x1 x2^(d-1) taken p times.

The S_d(q, .) rows come from row_q = row_(q-1) ((1+x)^d - 1), one short
convolution each, and binomials from Pascal rows; both grow on demand.

Every design goes by degree classes; a regular design has one class per
side. L_d items and R_d tests have degree d; a cell sums over per-class role
counts, and within a side the classes combine by convolving their
coefficient lists (written *):

    COMP, items: i_d defectives, j_d false alarms, q_d dismissed;
          tests: b_d positive. With e1 = sum d i_d, e2 = sum d j_d and
          D = sum d b_d positive-test sockets,
        A_{i,j} = sum prod_d M(L_d; i_d, j_d, q_d) prod_d C(R_d, b_d)
                  (*_d S_d(b_d, .))[e1] (*_d S_d(q_d, d q_d - .))[D - e1 - e2]
                  e1! (D - e1)! (E - D)! / E!
        e1 + e2 = E - Q for Q = sum d q_d dismissed sockets, so the slack
        index D - e1 - e2 = D - E + Q does not depend on the defective
        split: one dot product serves every split with the same (q, e1).
    DD, items: i_d certified, j_d missed, k_d covered, q_d dismissed;
        tests: c_d certifying, o_d ordinary positive. With B = sum c_d,
        W = sum d (i_d + j_d) - B defective sockets at ordinary tests,
        K = sum d k_d, E2 = sum d o_d - W - K, s = E2 + sum (d-1) c_d and
        E0 negative-test sockets,
        A_{i+j,j} = sum prod_d M(L_d; i_d, j_d, k_d, q_d) prod_d M(R_d; c_d, o_d, .) d^(c_d)
                    (*_d S_d(i_d, .))[B] (*_d S_d(q_d, d q_d - .))[s] H_o(W, E2)
                    W! s! K! B! E0! / E!
        where H_o(W, E2) = [x1^W x2^E2 x4^K] prod_d O_d^(o_d). W + K = E - Q - B
        and E2 = sum d o_d - (E - Q - B), so given q and B a term depends on the
        certified items only through [x^B] and K: the tests are summed once per
        (q, B) into a row over K. H_o is read a row over K at a time: computed
        whole for one test degree, else folding the first class's O^o terms
        against the lazy product of the others.

M is a multinomial and E the edge count. Variables that only appear summed
collapse to one exponent and a binomial: x2+x3 for COMP, x1+x5 and s2+s3
for DD. A cell is an integer N_{a,j} over the common denominator E!, and a
table keeps exactly those integers and that one denominator: the row-sum
check and the row weights are integer arithmetic, and a cell is reduced to
lowest terms only when the CSV writer prints it. The tests check every cell
against multiplied-out generating functions and the brute-force oracle.
Tables for the same spec are cached, and each table keeps its
delta-independent row weights, so probability evaluations over a delta grid
pay for enumeration and weights once.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice, product
from operator import mul
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .combinatorics import DEFAULT_DECIMAL_DIGITS, binomial, exact_delta, multinomial, to_decimal
from .ensemble import EnsembleSpec, spec_hash
from .errors import SizeLimitError
# No table builder multiplies polynomials; these names stay importable here
# because perfbench/layers.py rebinds them on this module to trace that layer.
from .polynomial import poly_add, poly_mul, poly_pow, poly_product_of_powers  # noqa: F401

__all__ = [
    "Algorithm",
    "EnumeratorTable",
    "build_table",
    "fa_probability",
    "md_probability",
    "write_table_csv",
    "table_domain",
]


class Algorithm(enum.Enum):
    COMP = "comp"
    DD = "dd"


@dataclass(frozen=True, eq=False)
class EnumeratorTable:
    """Complete map (a, j) -> A_{a,j} = counts[(a, j)] / denominator for one spec and decoder.

    For COMP, j counts false alarms (0 <= j <= n - a); for DD, j counts
    misdetections (0 <= j <= a). Every cell is an integer over the one
    denominator E!, the number of socket matchings.
    """

    algorithm: Algorithm
    spec: EnsembleSpec
    counts: Mapping[tuple[int, int], int]
    denominator: int
    source: str = field(default="enumerator")

    @cached_property
    def values(self) -> Mapping[tuple[int, int], Fraction]:
        """Read-only view of the cells as reduced Fractions, built on first access; no CLI path reads it."""
        den = self.denominator
        return MappingProxyType({key: Fraction(count, den) for key, count in self.counts.items()})

    def bad_rows(self) -> list[int]:
        """Every a whose row breaks sum_j counts[(a, j)] = C(n, a) * denominator; empty for a sound table."""
        sums: dict[int, int] = {}
        for (a, _), count in self.counts.items():
            sums[a] = sums.get(a, 0) + count
        n, den = self.spec.n, self.denominator
        return [a for a in range(n + 1) if sums.get(a) != binomial(n, a) * den]

    @cached_property
    def error_weights(self) -> tuple[tuple[int, ...], int]:
        """Row weights w_a = sum_j (j / e_a) A_{a,j} as numerators over one denominator, in lowest terms.

        e_a is the number of items that can err with a defectives: n - a
        false-alarm candidates under COMP, a misdetection candidates under
        DD. Rows with a = 0 or e_a = 0 weigh 0. The weights do not depend on
        delta, so a grid of error probabilities pays for them once.
        """
        _require_complete(self)
        n = self.spec.n
        scale = math.lcm(*range(1, n + 1))  # a multiple of every e_a
        weights = [0] * (n + 1)
        for a in range(1, n + 1):
            errs = (n - a) if self.algorithm is Algorithm.COMP else a
            if errs:
                weights[a] = scale // errs * sum(j * self.counts[(a, j)] for j in range(1, errs + 1))
        den = scale * self.denominator
        common = math.gcd(den, *weights)
        return tuple(w // common for w in weights), den // common


def table_domain(n: int, algorithm: Algorithm) -> Iterator[tuple[int, int]]:
    """All (defective count, error count) keys a complete table must carry."""
    for a in range(n + 1):
        errs = (n - a) if algorithm is Algorithm.COMP else a
        for j in range(errs + 1):
            yield (a, j)


# ---------------------------------------------------------------------------
# Closed forms of the bracket powers. A cell sums integer terms over the
# common denominator edges!: a term num / multinomial(edges, parts) equals
# num * prod(part!) / edges!.
# ---------------------------------------------------------------------------


class _ClosedForms:
    """Closed-form coefficients of the bracket powers (see the module docstring).

    Memoizes Pascal rows, the S_d(q, .) rows, the O^o tables and their lazy
    products per instance, so build one instance per table. `fact` holds
    0!, ..., edges!; the rows grow on demand, whatever `edges` is.
    """

    __slots__ = ("fact", "_pascal", "_powers", "_ordinary", "_products")

    def __init__(self, edges: int):
        self.fact = list(accumulate(range(1, edges + 1), mul, initial=1))
        self._pascal: list[list[int]] = [[1]]
        self._powers: dict[int, list[list[int]]] = {}
        self._ordinary: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        self._products: dict[tuple[tuple[int, int], ...], _LazyOrdinary] = {}

    def choose(self, k: int) -> list[int]:
        """[C(k, 0), ..., C(k, k)]."""
        rows = self._pascal
        while len(rows) <= k:
            rows.append(_convolve([rows[-1], [1, 1]]))
        return rows[k]

    def powers(self, d: int, q: int) -> list[int]:
        """[x^w] ((1 + x)^d - 1)^q = S_d(q, w) for w = 0, ..., d q; row q is row q - 1 times the bracket."""
        rows, bracket = self._powers.setdefault(d, [[1]]), [0, *self.choose(d)[1:]]
        while len(rows) <= q:
            rows.append(_convolve([rows[-1], bracket]))
        return rows[q]

    def slack_powers(self, d: int, q: int) -> list[int]:
        """[s^y] ((1 + s)^d - s^d)^q = S_d(q, d q - y) for y = 0, ..., (d - 1) q."""
        return self.powers(d, q)[::-1][: (d - 1) * q + 1]

    def dd_ordinary(self, d: int, o: int) -> dict[tuple[int, int], int]:
        """{(W, a): [x1^W x2^a x4^(d o - W - a)] O^o}, nonzero terms only."""
        table = self._ordinary.get((d, o))
        if table is None:
            table = self._ordinary[(d, o)] = {}
            for a in range(d * o + 1):
                for c, value in enumerate(self.dd_row(d, o, a, range(d * o - a + 1))):
                    if value:
                        table[(d * o - a - c, a)] = value
        return table

    def ordinary(self, classes) -> _LazyOrdinary:
        """H_o: the lazy coefficients of prod O_d^(o_d) over the (d, o_d) in `classes`."""
        key = tuple((d, o) for d, o in classes if o)
        product = self._products.get(key)
        if product is None:
            product = self._products[key] = _LazyOrdinary(self, key)
        return product

    def dd_g(self, d: int, o: int, a: int, c: int) -> int:
        """[x1^W x2^a x4^c] O^o with W = d o - a - c.

        O = (x1 + x2 + x4)^d - (x2 + x4)^d - d x1 x2^(d-1) is DD's bracket at
        an ordinary positive test. With v = x2 + x4, taking the sole term
        p times leaves x1^p ((x1 + v)^d - v^d)^(o-p), whose x1^(W-p) coefficient
        is S_d(o - p, W - p) v^(a + c - p(d-1)); C(a - p(d-1) + c, c) picks
        x2^(a - p(d-1)) x4^c out of that power of v.
        """
        return self.dd_row(d, o, a, range(c, c + 1))[0]

    def dd_row(self, d: int, o: int, a: int, cs: range) -> list[int]:
        """[dd_g(d, o, a, c) for c in cs], for a range of c >= 0 with a positive step."""
        row, w0 = [0] * len(cs), d * o - a
        live = range(cs.start, min(cs.stop, w0 - o + 1), cs.step)  # W >= o: every factor holds x1
        if live:
            self.powers(d, o)  # grow the S_d and Pascal rows the sum reads
            self.choose(max(o, a + live[-1]))
            s_rows, pascal, sign = self._powers[d], self._pascal, 1
            for p in range(min(o, a // (d - 1) if d > 1 else o) + 1):
                coef, s, n = sign * pascal[o][p], s_rows[o - p], a - p * (d - 1)
                for k, c in enumerate(live):
                    row[k] += coef * pascal[n + c][c] * s[w0 - p - c]
                sign *= -d
        return row


class _LazyOrdinary(dict):
    """{(W, a): [x1^W x2^a x4^(D - W - a)] prod O_d^(o_d)}, each coefficient computed when first read.

    `classes` holds the (d, o_d) with o_d > 0, and D = sum d o_d. Several
    classes fold the first one's O^o terms against the product of the rest.
    """

    __slots__ = ("forms", "classes", "sockets", "_rows")

    def __init__(self, forms: _ClosedForms, classes: tuple[tuple[int, int], ...]):
        super().__init__()
        self.forms, self.classes = forms, classes
        self.sockets = sum(d * o for d, o in classes)
        self._rows: dict[tuple[int, int], list[int]] = {}

    def row(self, a: int, step: int) -> list[int]:
        """[x1^(D - a - K) x2^a x4^K] for K = 0, step, 2 step, ..., D - a; memoized."""
        row = self._rows.get((a, step))
        if row is None:
            top, classes = self.sockets - a, self.classes
            if len(classes) == 1:
                row = self.forms.dd_row(*classes[0], a, range(0, top + 1, step))
            else:
                row = [self[(top - k, a)] for k in range(0, top + 1, step)]
            self._rows[(a, step)] = row
        return row

    def __missing__(self, key: tuple[int, int]) -> int:
        w, a = key
        c = self.sockets - w - a
        if w < 0 or a < 0 or c < 0:
            value = 0
        elif not self.classes:
            value = 1  # the empty product at (0, 0), the one key the guard lets through
        elif len(self.classes) == 1:
            (d, o), = self.classes
            value = self.forms.dd_g(d, o, a, c)
        else:
            (d, o), rest = self.classes[0], self.forms.ordinary(self.classes[1:])
            low = w + a - rest.sockets
            value = 0
            for (w1, a1), t in self.forms.dd_ordinary(d, o).items():
                if w1 <= w and a1 <= a and w1 + a1 >= low:
                    value += t * rest[(w - w1, a - a1)]
        self[key] = value
        return value


# ---------------------------------------------------------------------------
# Degree classes: the counting with role counts per node degree. Each class
# contributes a binomial bracket whose powers have the closed forms above;
# classes of one side combine by short convolutions, or by lazy folds.
# ---------------------------------------------------------------------------

# Most work (see _degree_class_work) a degree-class table may take:
# an irregular n = 50 DD table (lambda = {2: 1/2, 4: 1/2}, rho = {6: 1})
# takes about 4.3 * 10^7 and builds in seconds; n = 60 of the same family
# would take 1.2 * 10^8 and is refused.
_WORK_LIMIT = 10**8


def _degree_class_work(spec: EnsembleSpec, algorithm: Algorithm) -> int:
    """Item-role compositions times test-class splits the degree-class route loops over.

    COMP splits each item class into (defective, false alarm, dismissed) and
    each test class into (positive, negative). DD's loops split each item
    class into (certified, dismissed, rest) and each test class into
    (certifying, ordinary, negative); the missed items among the rest are
    tallied once per rest vector. Per class of c nodes with k options there
    are C(c + k - 1, k - 1) ways to count them. DD with several test degrees
    adds a bound on its lazy folds: o ordinary tests of degree d have at
    most C(d o + 2, 2) O^o terms, so the folds do at most
    prod_d sum_{o <= R_d} C(d o + 2, 2) term pairs, fewer if fewer are read.
    """
    roles, states = (3, 2) if algorithm is Algorithm.COMP else (3, 3)
    tests = spec.right_counts()
    work = 1
    for count in spec.left_counts().values():
        work *= binomial(count + roles - 1, roles - 1)
    for count in tests.values():
        work *= binomial(count + states - 1, states - 1)
    if algorithm is Algorithm.DD and len(tests) > 1:
        pairs = 1
        for d, count in tests.items():
            pairs *= sum(binomial(d * o + 2, 2) for o in range(count + 1))
        work += pairs
    return work


def _convolve(lists) -> list[int]:
    """Coefficient list of the product of polynomials given as coefficient lists."""
    out = [1]
    for coeffs in lists:
        prod = [0] * (len(out) + len(coeffs) - 1)
        for s, x in enumerate(out):
            if x:
                for t, y in enumerate(coeffs):
                    prod[s + t] += x * y
        out = prod
    return out


def _splits(counts) -> Iterator[tuple[int, ...]]:
    """Every vector v with 0 <= v[c] <= counts[c]."""
    return product(*(range(c + 1) for c in counts))


def _comp_class_table(spec: EnsembleSpec, forms: _ClosedForms) -> dict[tuple[int, int], int]:
    # The COMP formula of the module docstring; returns numerators over edges!.
    # D = sockets on positive tests; y = D - E + Q of them hold dismissed items.
    degrees, counts = zip(*sorted(spec.left_counts().items()))
    test_degrees, test_counts = zip(*sorted(spec.right_counts().items()))
    fact, edges, choose = forms.fact, spec.edge_count, forms.choose
    step = math.gcd(*test_degrees)  # D is a multiple of it
    # by_e1[e1][D / step]: every split with D positive-test sockets, e1 of them on
    # defectives: prod C(R_d, b_d) [x^e1] prod ((1 + x)^d - 1)^(b_d), times pairings.
    by_e1: dict[int, list[int]] = {}
    for split in _splits(test_counts):
        sockets = sum(d * b for d, b in zip(test_degrees, split))
        weight = fact[edges - sockets]
        for count, b in zip(test_counts, split):
            weight *= choose(count)[b]
        spread = _convolve(forms.powers(d, b) for d, b in zip(test_degrees, split))
        for e1, t in enumerate(spread):
            if t:
                row = by_e1.setdefault(e1, [0] * (edges // step + 1))
                row[sockets // step] += weight * t * fact[e1] * fact[sockets - e1]
    values = dict.fromkeys(table_domain(spec.n, Algorithm.COMP), 0)
    for dismissed in _splits(counts):
        shift = edges - sum(d * q for d, q in zip(degrees, dismissed))
        first = -(-shift // step)  # the least D / step with y = D - shift >= 0
        slack = _convolve(forms.slack_powers(d, q) for d, q in zip(degrees, dismissed))
        slack = slack[first * step - shift :: step]
        dots: dict[int, int] = {}
        for defective in _splits([c - q for c, q in zip(counts, dismissed)]):
            e1 = sum(d * c for d, c in zip(degrees, defective))
            dot = dots.get(e1)
            if dot is None:
                row = by_e1.get(e1)
                dot = dots[e1] = sum(map(mul, islice(row, first, None), slack)) if row else 0
            if dot:
                for c, q, i_d in zip(counts, dismissed, defective):
                    dot *= choose(c)[q] * choose(c - q)[i_d]
                i = sum(defective)
                values[(i, spec.n - sum(dismissed) - i)] += dot
    return values


def _dd_class_table(spec: EnsembleSpec, forms: _ClosedForms) -> dict[tuple[int, int], int]:
    # The DD formula of the module docstring; returns numerators over edges!.
    # A certifying test holds one certified defective (d choices of its
    # socket) and d - 1 dismissed items. Each certified item has a socket on
    # at least one; its others, I - B in all, join the missed items' J
    # sockets as the W = I - B + J defective sockets at ordinary tests.
    # Covered items (non-defective, in no negative test) have all K sockets
    # there too. Missed and covered items enter only through J and K, so for
    # each count r_d of the two per class the j-splits are tallied by J once.
    degrees, counts = zip(*sorted(spec.left_counts().items()))
    test_degrees, test_counts = zip(*sorted(spec.right_counts().items()))
    fact, edges = forms.fact, spec.edge_count
    step = math.gcd(*degrees)  # K and J are multiples of it
    by_b: dict[int, list] = {}
    for certifying in _splits(test_counts):
        b = sum(certifying)
        dismissed_edges = sum((d - 1) * c for d, c in zip(test_degrees, certifying))
        for positive in _splits([count - c for count, c in zip(test_counts, certifying)]):
            ordinary = forms.ordinary(zip(test_degrees, positive))
            sockets = sum(d * o for d, o in zip(test_degrees, positive))
            weight = fact[b] * fact[edges - sockets - b - dismissed_edges]
            for d, count, c, o in zip(test_degrees, test_counts, certifying, positive):
                weight *= multinomial(count, (c, o, count - c - o)) * d**c
            by_b.setdefault(b, []).append((dismissed_edges, sockets, weight, ordinary))
    # For r_d missed-or-covered items per class: {J: {j: prod C(r_d, j_d)}}.
    missed_splits: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
    spreads: dict[tuple[int, ...], list[int]] = {}
    values = dict.fromkeys(table_domain(spec.n, Algorithm.DD), 0)
    for dismissed in _splits(counts):
        free = edges - sum(d * q for d, q in zip(degrees, dismissed))
        slack = _convolve(forms.slack_powers(d, q) for d, q in zip(degrees, dismissed))
        # by_k[B][K / step] = W! K! sum pre H(W, E2) over the tests with B certifying.
        by_k: dict[int, list[int]] = {}
        for b, entries in by_b.items():
            top = free - b
            sums = [0] * (top // step + 1)
            for dismissed_edges, sockets, weight, ordinary in entries:
                e2 = sockets - top
                s = e2 + dismissed_edges
                if e2 < 0 or s >= len(slack) or not slack[s]:
                    continue
                pre = weight * slack[s] * fact[s]
                for k, h in enumerate(ordinary.row(e2, step)):
                    if h:
                        sums[k] += pre * h
            if any(sums):
                covers = range(0, top + 1, step)
                by_k[b] = [t * fact[top - cover] * fact[cover] for cover, t in zip(covers, sums)]
        for certified in _splits([c - q for c, q in zip(counts, dismissed)]):
            spread = spreads.get(certified)
            if spread is None:
                spread = _convolve(forms.powers(d, i) for d, i in zip(degrees, certified))
                spreads[certified] = spread
            rest = tuple(c - i_d - q for c, i_d, q in zip(counts, certified, dismissed))
            r_deg = sum(d * r for d, r in zip(degrees, rest))
            splits = missed_splits.get(rest)
            if splits is None:
                splits = missed_splits[rest] = {}
                for missed in _splits(rest):
                    weight = 1
                    for r, j_d in zip(rest, missed):
                        weight *= forms.choose(r)[j_d]
                    by_j = splits.setdefault(sum(d * j for d, j in zip(degrees, missed)), {})
                    by_j[sum(missed)] = by_j.get(sum(missed), 0) + weight
            acc = dict.fromkeys(splits, 0)
            for b, row in by_k.items():
                x = spread[b] if b < len(spread) else 0
                if x:
                    for j_deg in acc:
                        acc[j_deg] += x * row[(r_deg - j_deg) // step]
            base = 1
            for c, i_d, r, q in zip(counts, certified, rest, dismissed):
                base *= multinomial(c, (i_d, r, q))
            i = sum(certified)
            for j_deg, total in acc.items():
                if total:
                    for j, weight in splits[j_deg].items():
                        values[(i + j, j)] += base * weight * total
    return values


# ---------------------------------------------------------------------------
# Tables and error probabilities.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def build_table(spec: EnsembleSpec, algorithm: Algorithm) -> EnumeratorTable:
    """Complete enumerator table for one ensemble; refuses runaway specs before starting."""
    work = _degree_class_work(spec, algorithm)
    if work > _WORK_LIMIT:
        raise SizeLimitError(
            f"degree-class {algorithm.value} table needs {work} compositions x splits, "
            f"over the limit of {_WORK_LIMIT}"
        )
    forms = _ClosedForms(spec.edge_count)
    build = _comp_class_table if algorithm is Algorithm.COMP else _dd_class_table
    return EnumeratorTable(algorithm, spec, build(spec, forms), forms.fact[spec.edge_count])


def _require_complete(table: EnumeratorTable) -> None:
    missing = [key for key in table_domain(table.spec.n, table.algorithm) if key not in table.counts]
    if missing:
        raise ValueError(f"incomplete table: missing {len(missing)} cells, first {missing[0]}")


def _error_probability(table: EnumeratorTable, delta) -> Fraction:
    # sum_a w_a delta^a (1 - delta)^(n - a); with delta = p / q every term
    # shares the denominator q^n, so the sum is reduced once.
    numerators, den = table.error_weights
    d = exact_delta(delta)
    p, q, n = d.numerator, d.denominator, table.spec.n
    total = sum(w * p**a * (q - p) ** (n - a) for a, w in enumerate(numerators) if w)
    return Fraction(total, den * q**n)


def fa_probability(table: EnumeratorTable, delta) -> Fraction:
    """Expected per-item false-alarm rate E[fa / (n - defectives)] under i.i.d. Bernoulli(delta)."""
    if table.algorithm is not Algorithm.COMP:
        raise ValueError("false-alarm probability is defined on COMP tables")
    return _error_probability(table, delta)


def md_probability(table: EnumeratorTable, delta) -> Fraction:
    """Expected per-item misdetection rate E[md / defectives] under i.i.d. Bernoulli(delta)."""
    if table.algorithm is not Algorithm.DD:
        raise ValueError("misdetection probability is defined on DD tables")
    return _error_probability(table, delta)


def write_table_csv(
    table: EnumeratorTable, out: Union[str, Path, io.TextIOBase], precision: int = DEFAULT_DECIMAL_DIGITS
) -> None:
    """CSV rows (a, j, numerator, denominator, decimal) with a spec-hash comment line."""
    _require_complete(table)

    def _write(fh) -> None:
        fh.write(
            f"# spec_hash={spec_hash(table.spec)} algorithm={table.algorithm.value} "
            f"source={table.source}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "j", "numerator", "denominator", "decimal"])
        for (a, j) in sorted(table.counts):
            value = Fraction(table.counts[(a, j)], table.denominator)
            writer.writerow([a, j, value.numerator, value.denominator, to_decimal(value, precision)])

    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(out)
