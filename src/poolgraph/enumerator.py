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

No route multiplies a polynomial out. Every generating polynomial is a
binomial bracket per node, so each coefficient of its powers is a short
closed form. With the implicit slack variable set to 1 and
S_d(q, w) = sum_t (-1)^(q-t) C(q, t) C(d t, w) = [x^w] ((1+x)^d - 1)^q:

    COMP g = (1+x+y)^r - (x+y)^r          [x^a1 y^a2] g^b = C(a1+a2, a1) S_r(b, b r - a1 - a2)
    COMP f, DD f1 = (1+s)^l - s^l         [s^y] f^q = S_l(q, l q - y)
    DD f2 = (1+s2+s3)^l - (s2+s3)^l       [s2^c2 s3^c3] f2^q = C(c2+c3, c2) S_l(q, l q - c2 - c3)
    DD g = (1+y1+y2+y3)^r - (y1+y2)^r - r y1^(r-1) (1+y3)
        [y1^a1 y2^a2 y3^a3] g^b
            = C(U, a3) sum_p C(b, p) (-r)^p C(a1 - p(r-1) + a2, a2) S_r(b-p, U-p),
        with U = b r - a1 - a2.

Regular designs (one item degree l, one test degree r) sum these over the
number of positive tests b per cell (`_comp_cell`, `_dd_cell`).

Any other design goes by degree classes. L_d items and R_d tests have
degree d; a cell sums over per-class role counts, and within a side the
classes combine by convolving their coefficient lists (written *):

    COMP, items: i_d defectives, j_d false alarms, q_d dismissed;
          tests: b_d positive. With e1 = sum d i_d, e2 = sum d j_d and
          D = sum d b_d positive-test sockets,
        A_{i,j} = sum prod_d M(L_d; i_d, j_d, q_d) prod_d C(R_d, b_d)
                  (*_d S_d(b_d, .))[e1] (*_d S_d(q_d, d q_d - .))[D - e1 - e2]
                  e1! (D - e1)! (E - D)! / E!
    DD, items: i_d certified, j_d missed, k_d covered, q_d dismissed;
        tests: c_d certifying, o_d ordinary positive. With B = sum c_d,
        W = sum d (i_d + j_d) - B defective sockets at ordinary tests,
        K = sum d k_d, E2 = sum d o_d - W - K, s = E2 + sum (d-1) c_d and
        E0 negative-test sockets,
        A_{i+j,j} = sum prod_d M(L_d; i_d, j_d, k_d, q_d) prod_d M(R_d; c_d, o_d, .) d^(c_d)
                    (*_d S_d(i_d, .))[B] (*_d S_d(q_d, d q_d - .))[s] H_o(W, E2)
                    W! s! K! B! E0! / E!
        where H_o(W, E2) = [x1^W x2^E2 x4^K] prod_d O_d^(o_d) with
        O_d = (x1+x2+x4)^d - (x2+x4)^d - d x1 x2^(d-1): per class, DD g's sum
        over p at y3 = 0; for several test degrees, their 2-D convolution.

M is a multinomial and E the edge count. Variables that only appear summed
collapse to one exponent and a binomial, as in the regular formulas: x2+x3
for COMP, x1+x5 and s2+s3 for DD. A cell is an integer over the common
denominator E!. The regular and degree-class routes give identical tables
on regular specs; the tests check both against multiplied-out generating
functions and the brute-force oracle. Tables for the same spec are cached,
so probability evaluations over a delta grid pay for enumeration once.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Iterator, Mapping, Union

from .combinatorics import binomial, exact_delta, multinomial, to_decimal
from .detection import Algorithm
from .ensemble import EnsembleSpec, regular_spec, spec_hash, validate
from .errors import SizeLimitError
# No table builder multiplies polynomials; these names stay importable here
# because perfbench/layers.py rebinds them on this module to trace that layer.
from .polynomial import poly_add, poly_mul, poly_pow, poly_product_of_powers  # noqa: F401

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
    # Which enumerator route filled the table: "regular" or "degree-class";
    # empty for tables from elsewhere (the oracle).
    route: str = field(default="")

    def row_sums(self) -> dict[int, Fraction]:
        # One sum per row over the row's common denominator; adding Fractions
        # one by one would reduce every partial sum by a big gcd.
        rows: dict[int, list[Fraction]] = {}
        for (a, _), value in self.values.items():
            rows.setdefault(a, []).append(value)
        sums = {}
        for a, row in rows.items():
            den = math.lcm(*(v.denominator for v in row))
            sums[a] = Fraction(sum(v.numerator * (den // v.denominator) for v in row), den)
        return sums

    def check_row_sums(self) -> bool:
        sums = self.row_sums()
        return all(sums.get(a) == binomial(self.spec.n, a) for a in range(self.spec.n + 1))


def table_domain(n: int, algorithm: Algorithm) -> Iterator[tuple[int, int]]:
    """All (defective count, error count) keys a complete table must carry."""
    for a in range(n + 1):
        errs = (n - a) if algorithm is Algorithm.COMP else a
        for j in range(errs + 1):
            yield (a, j)


def _check_cell(n: int, i: int, j: int) -> None:
    if i < 0 or j < 0 or i + j > n:
        raise ValueError(f"cell out of range: i={i}, j={j}, n={n}")


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

    def powers(self, d: int, q: int) -> list[int]:
        """[x^w] ((1 + x)^d - 1)^q = S_d(q, w) for w = 0, ..., d q."""
        return [self.alt(d, q, w) for w in range(d * q + 1)]

    def slack_powers(self, d: int, q: int) -> list[int]:
        """[s^y] ((1 + s)^d - s^d)^q for y = 0, ..., (d - 1) q."""
        return [self.at_least_one(d, q, y) for y in range((d - 1) * q + 1)]

    def dd_ordinary(self, d: int, o: int) -> dict[tuple[int, int], int]:
        """{(w, a): [x1^w x2^a x4^(d o - w - a)] O^o}, nonzero terms only.

        O = (x1 + x2 + x4)^d - (x2 + x4)^d - d x1 x2^(d-1) is dd_g's bracket
        with y3 = 0 and the slack written out as x1.
        """
        out = {}
        for a in range(d * o + 1):
            for c in range(d * o - a + 1):
                value = self.dd_g(d, o, a, c, 0)
                if value:
                    out[(d * o - a - c, a)] = value
        return out

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
# Degree classes (any degree distributions): the same counting, with role
# counts per node degree. Each class contributes a binomial bracket whose
# powers have the closed forms above; classes of one side combine by short
# convolutions of coefficient lists.
# ---------------------------------------------------------------------------

# Most (compositions x test-class splits) a degree-class table may sum over:
# an irregular n = 30 DD table (lambda = {2: 1/2, 4: 1/2}, rho = {6: 1})
# takes about 9 * 10^7 and builds; n = 60 of the same family would take
# 1.5 * 10^10 and is refused.
_WORK_LIMIT = 10**8


def _degree_class_work(spec: EnsembleSpec, algorithm: Algorithm) -> int:
    """Item-role compositions times test-class splits of the degree-class route.

    COMP gives each item one of 3 roles and each test one of 2 states; DD
    has 4 item roles and 3 test states. Per class of c nodes with k options
    there are C(c + k - 1, k - 1) ways to count them.
    """
    roles, states = (3, 2) if algorithm is Algorithm.COMP else (4, 3)
    work = 1
    for count in spec.left_counts().values():
        work *= binomial(count + roles - 1, roles - 1)
    for count in spec.right_counts().values():
        work *= binomial(count + states - 1, states - 1)
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


def _convolve2(tables) -> dict[tuple[int, int], int]:
    """Product of two-variable polynomials given as {(e, f): coefficient} dicts."""
    out = {(0, 0): 1}
    for table in tables:
        prod: dict[tuple[int, int], int] = {}
        for (e1, f1), x in out.items():
            for (e2, f2), y in table.items():
                key = (e1 + e2, f1 + f2)
                prod[key] = prod.get(key, 0) + x * y
        out = prod
    return out


def _splits(counts) -> Iterator[tuple[int, ...]]:
    """Every vector v with 0 <= v[c] <= counts[c]."""
    return product(*(range(c + 1) for c in counts))


def _dismissed_slack(forms: _ClosedForms, degrees, dismissed, memo: dict) -> list[int]:
    """[s^y] prod ((1 + s)^d - s^d)^(q_d): q_d dismissed items of degree d, y sockets on positive tests."""
    slack = memo.get(dismissed)
    if slack is None:
        slack = memo[dismissed] = _convolve(forms.slack_powers(d, q) for d, q in zip(degrees, dismissed))
    return slack


def _comp_class_table(spec: EnsembleSpec, forms: _ClosedForms) -> dict[tuple[int, int], int]:
    # The COMP formula of the module docstring; returns numerators over edges!.
    # D = sockets on positive tests; y = D - e1 - e2 of them hold dismissed items.
    degrees, counts = zip(*sorted(spec.left_counts().items()))
    test_degrees, test_counts = zip(*sorted(spec.right_counts().items()))
    fact, edges = forms.fact, spec.edge_count
    # by_e1[e1][D]: every split with D positive-test sockets, e1 of them on
    # defectives: prod C(R_d, b_d) [x^e1] prod ((1 + x)^d - 1)^(b_d), times pairings.
    by_e1: dict[int, dict[int, int]] = {}
    for split in _splits(test_counts):
        sockets = sum(d * b for d, b in zip(test_degrees, split))
        weight = fact[edges - sockets]
        for count, b in zip(test_counts, split):
            weight *= binomial(count, b)
        spread = _convolve(forms.powers(d, b) for d, b in zip(test_degrees, split))
        for e1, t in enumerate(spread):
            if t:
                row = by_e1.setdefault(e1, {})
                row[sockets] = row.get(sockets, 0) + weight * t * fact[e1] * fact[sockets - e1]
    slack_memo: dict[tuple[int, ...], list[int]] = {}
    values = dict.fromkeys(table_domain(spec.n, Algorithm.COMP), 0)
    for defective in _splits(counts):
        e1 = sum(d * c for d, c in zip(degrees, defective))
        row = by_e1.get(e1)
        if not row:
            continue
        i = sum(defective)
        for dismissed in _splits([c - i_d for c, i_d in zip(counts, defective)]):
            alarms = [c - i_d - q for c, i_d, q in zip(counts, defective, dismissed)]
            e2 = sum(d * j for d, j in zip(degrees, alarms))
            slack = _dismissed_slack(forms, degrees, dismissed, slack_memo)
            total = 0
            for sockets, weight in row.items():
                y = sockets - e1 - e2
                if 0 <= y < len(slack):
                    total += weight * slack[y]
            if total:
                for c, i_d, j_d, q in zip(counts, defective, alarms, dismissed):
                    total *= multinomial(c, (i_d, j_d, q))
                values[(i, sum(alarms))] += total
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
    ordinary: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    by_b: dict[int, list] = {}
    for certifying in _splits(test_counts):
        b = sum(certifying)
        dismissed_edges = sum((d - 1) * c for d, c in zip(test_degrees, certifying))
        for positive in _splits([count - c for count, c in zip(test_counts, certifying)]):
            table = ordinary.get(positive)
            if table is None:
                table = ordinary[positive] = _convolve2(
                    forms.dd_ordinary(d, o) for d, o in zip(test_degrees, positive)
                )
            sockets = sum(d * o for d, o in zip(test_degrees, positive))
            weight = fact[b] * fact[edges - sockets - b - dismissed_edges]
            for d, count, c, o in zip(test_degrees, test_counts, certifying, positive):
                weight *= multinomial(count, (c, o, count - c - o)) * d**c
            by_b.setdefault(b, []).append((dismissed_edges, sockets, weight, table))
    # For r_d missed-or-covered items per class: {J: {j: prod C(r_d, j_d)}}.
    missed_splits: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
    slack_memo: dict[tuple[int, ...], list[int]] = {}
    values = dict.fromkeys(table_domain(spec.n, Algorithm.DD), 0)
    for certified in _splits(counts):
        spread = _convolve(forms.powers(d, i) for d, i in zip(degrees, certified))
        tests = [(b, x, by_b[b]) for b, x in enumerate(spread) if x and b in by_b]
        if not tests:
            continue
        i, i_deg = sum(certified), sum(d * c for d, c in zip(degrees, certified))
        for dismissed in _splits([c - i_d for c, i_d in zip(counts, certified)]):
            rest = tuple(c - i_d - q for c, i_d, q in zip(counts, certified, dismissed))
            r_deg = sum(d * r for d, r in zip(degrees, rest))
            slack = _dismissed_slack(forms, degrees, dismissed, slack_memo)
            splits = missed_splits.get(rest)
            if splits is None:
                splits = missed_splits[rest] = {}
                for missed in _splits(rest):
                    weight = 1
                    for r, j_d in zip(rest, missed):
                        weight *= binomial(r, j_d)
                    by_j = splits.setdefault(sum(d * j for d, j in zip(degrees, missed)), {})
                    by_j[sum(missed)] = by_j.get(sum(missed), 0) + weight
            acc = dict.fromkeys(splits, 0)
            for b, x, entries in tests:
                w0 = i_deg - b
                for dismissed_edges, sockets, weight, table in entries:
                    e2 = sockets - w0 - r_deg
                    s = e2 + dismissed_edges
                    if e2 < 0 or s >= len(slack) or not slack[s]:
                        continue
                    pre = x * weight * slack[s] * fact[s]
                    for j_deg in acc:
                        h = table.get((w0 + j_deg, e2))
                        if h:
                            acc[j_deg] += pre * h * fact[w0 + j_deg] * fact[r_deg - j_deg]
            base = 1
            for c, i_d, r, q in zip(counts, certified, rest, dismissed):
                base *= multinomial(c, (i_d, r, q))
            for j_deg, total in acc.items():
                if total:
                    for j, weight in splits[j_deg].items():
                        values[(i + j, j)] += base * weight * total
    return values


@lru_cache(maxsize=32)
def _class_table(spec: EnsembleSpec, algorithm: Algorithm) -> dict[tuple[int, int], Fraction]:
    """Every cell of the degree-class route's table; refuses runaway specs before starting."""
    validate(spec)
    work = _degree_class_work(spec, algorithm)
    if work > _WORK_LIMIT:
        raise SizeLimitError(
            f"degree-class {algorithm.value} table needs {work} compositions x splits, "
            f"over the limit of {_WORK_LIMIT}"
        )
    forms = _ClosedForms(spec.edge_count)
    build = _comp_class_table if algorithm is Algorithm.COMP else _dd_class_table
    denominator = forms.fact[spec.edge_count]
    return {key: Fraction(v, denominator) for key, v in build(spec, forms).items()}


def comp_irregular(spec: EnsembleSpec, i: int, j: int) -> Fraction:
    """A_{i,j} for COMP on an arbitrary-degree ensemble, by degree classes."""
    _check_cell(spec.n, i, j)
    return _class_table(spec, Algorithm.COMP)[(i, j)]


def dd_irregular(spec: EnsembleSpec, i: int, j: int) -> Fraction:
    """A_{i+j,j} for DD on an arbitrary-degree ensemble, by degree classes: i certified, j missed."""
    _check_cell(spec.n, i, j)
    return _class_table(spec, Algorithm.DD)[(i + j, j)]


# ---------------------------------------------------------------------------
# Tables and error probabilities.
# ---------------------------------------------------------------------------


def _regular_degrees(spec: EnsembleSpec) -> tuple[int, int]:
    return spec.left.entries[0][0], spec.right.entries[0][0]


@lru_cache(maxsize=16)
def build_table(spec: EnsembleSpec, algorithm: Algorithm) -> EnumeratorTable:
    """Complete enumerator table for one ensemble, via the regular fast path when it applies."""
    validate(spec)
    if not spec.is_regular:
        return EnumeratorTable(algorithm, spec, _class_table(spec, algorithm), route="degree-class")
    l, r = _regular_degrees(spec)
    if algorithm is Algorithm.COMP:
        values = _comp_regular_table(spec.n, l, r)
    else:
        values = _dd_regular_table(spec.n, l, r)
    return EnumeratorTable(algorithm, spec, values, route="regular")


def _require_complete(table: EnumeratorTable) -> None:
    missing = [key for key in table_domain(table.spec.n, table.algorithm) if key not in table.values]
    if missing:
        raise ValueError(f"incomplete table: missing {len(missing)} cells, first {missing[0]}")


def fa_probability(table: EnumeratorTable, delta) -> Fraction:
    """Expected per-item false-alarm rate E[fa / (n - defectives)] under i.i.d. Bernoulli(delta)."""
    if table.algorithm is not Algorithm.COMP:
        raise ValueError("false-alarm probability is defined on COMP tables")
    _require_complete(table)
    d = exact_delta(delta)
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
    d = exact_delta(delta)
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

    route = f" route={table.route}" if table.route else ""

    def _write(fh) -> None:
        fh.write(
            f"# spec_hash={spec_hash(table.spec)} algorithm={table.algorithm.value} "
            f"source={table.source}{route}\n"
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
