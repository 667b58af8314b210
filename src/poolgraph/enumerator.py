"""Ensemble-average outcome-pattern enumerators, exact over the rationals.

A_{a,j} is the expected number of (defective set, outcome) pairs with a
defectives and j decoding errors (false alarms for COMP, misdetections for
DD), averaged over the uniform socket-matching ensemble. Each entry is
recovered by coefficient extraction from powers of small generating
polynomials (the configuration-model generating-function method of Di,
Proietti, Telatar, Richardson and Urbanke, IEEE T-IT 2002): one polynomial
encodes how test sockets split across edge classes, one encodes how item
sockets do, and factorials over E! count the socket pairings consistent
with both. Everything is exact; the only floats anywhere are in the CSV
decimal column.

Row sums obey sum_j A_{a,j} = C(n, a): every defective set realizes exactly
one error count per matching. This identity is the cheap self-check used
by the CLI and the acceptance tests.

No table builder multiplies a polynomial out. Every generating polynomial
is a binomial bracket per node, so each coefficient of its powers is a
short closed form. With S_d(q, w) = sum_t (-1)^(q-t) C(q, t) C(d t, w):

    [x^w] ((1+x)^d - 1)^q = S_d(q, w)
    [s^y] ((1+s)^d - s^d)^q = S_d(q, d q - y)
    O_d = (x1+x2+x4)^d - (x2+x4)^d - d x1 x2^(d-1); with D = sum d o_d and W = D - a - K,
        [x1^W x2^a x4^K] prod_d O_d^(o_d) = sum_p prod_d C(o_d, p_d) (-d)^(p_d) C(a - A + K, K) spread(o - p)[W - P],
        the sole term d x1 x2^(d-1) taken p_d times per class, P = sum p_d, A = sum (d-1) p_d,
        and spread(q)[w] = [x^w] prod_d ((1+x)^d - 1)^(q_d), the S_d(q_d, .) rows convolved.

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
        split: one dot product, taken on first use, serves every split with
        the same (q, e1). The defective splits of one q are one flat list of
        (e1, i, small weight) from walk, built class by class from Pascal
        rows, and each adds weight x dot into its cell. The slack residue that
        the dots read, D a multiple of the test degrees' gcd, is computed once per q.
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
        (q, B) into a row over K. H_o is read the same way, one memoized row
        over K per (classes, E2), from the closed form above whatever the number
        of test degrees, its sole terms taken in ascending A up to A = E2.
        The certified splits of one q are one flat list built like COMP's, and
        each meets the sums over its missed splits once per J: per rest, walk's
        entries with their small weights summed per (J, j). Every other split
        loop reads splits: each split vector with walk's entry for it.

M is a multinomial and E the edge count. Variables that only appear summed
collapse to one exponent and a binomial: x2+x3 for COMP, x1+x5 and s2+s3
for DD. A cell is an integer N_{a,j} over the common denominator E!, and a
table keeps exactly those integers and that one denominator, row a holding
j = 0..e_a for the e_a items that can err (the triangle empty_rows, checked
once when a table is made). The row-sum check is integer arithmetic, and a
cell is reduced to lowest terms only when the CSV writer prints it. The
tests check every cell against multiplied-out generating functions and the
brute-force oracle. A table counts; its RowWeights evaluate: an error
probability reads only the n + 1 delta-independent row weights. Tables are
cached per spec, each with its row-sum check and its weights, whose
power-basis coefficients c_k and coupling check are made once, so a delta
grid pays for enumeration, check and weights once. A probability at
delta = p / q is Horner's rule in p over c_n, c_(n-1) q, ..., c_0 q^n, a row
cached per (weights, q): n multiplications by the small p and one reduction.
Rendering reuses one fixed decimal context per precision. A build
predicted (_table_units, one term per loop) to take over
errors.LIMIT_SECONDS is refused before it starts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice, product, repeat
from operator import add, itemgetter, mul, sub
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, TextIO, Union

from .combinatorics import DEFAULT_DECIMAL_DIGITS, binomial, exact_delta, to_decimal
from .ensemble import EnsembleSpec, write_csv
from .errors import refuse_over_limit
# No table builder multiplies polynomials or calls multinomial; these names stay
# importable here because perfbench/layers.py rebinds them on this module to trace those layers.
from .combinatorics import multinomial  # noqa: F401
from .polynomial import poly_add, poly_mul, poly_pow, poly_product_of_powers  # noqa: F401

__all__ = [
    "Algorithm",
    "EnumeratorTable",
    "RowWeights",
    "build_table",
    "check_algorithm",
    "fa_probability",
    "md_probability",
    "write_table_csv",
    "empty_rows",
]


class Algorithm(enum.Enum):
    COMP = "comp"
    DD = "dd"


def check_algorithm(algorithm) -> None:
    """TypeError for anything but an Algorithm member: a string such as "comp" is never read as either decoder."""
    if not isinstance(algorithm, Algorithm):
        raise TypeError(f"algorithm must be an Algorithm, got {algorithm!r}")


def empty_rows(n: int, algorithm: Algorithm) -> list[list[int]]:
    """Zeroed rows a = 0..n of e_a + 1 cells, e_a = n - a false-alarm (COMP) or a misdetection (DD) candidates."""
    return [[0] * ((n - a if algorithm is Algorithm.COMP else a) + 1) for a in range(n + 1)]


@dataclass(frozen=True, eq=False)
class EnumeratorTable:
    """A_{a,j} = rows[a][j] / denominator for one spec and decoder, for every a and j = 0, ..., e_a.

    j counts false alarms under COMP, misdetections under DD. Every cell is an
    integer over the one denominator E!, the number of socket matchings. The
    row lengths must be those of empty_rows; the constructor checks them.
    """

    algorithm: Algorithm
    spec: EnsembleSpec
    rows: tuple[tuple[int, ...], ...]
    denominator: int
    source: str = field(default="enumerator")

    def __post_init__(self):
        if list(map(len, self.rows)) != list(map(len, empty_rows(self.spec.n, self.algorithm))):
            raise ValueError("incomplete table: its row lengths are not those of empty_rows(n, algorithm)")

    @cached_property
    def values(self) -> Mapping[tuple[int, int], Fraction]:
        """Read-only view of the cells by (a, j) as reduced Fractions, built on first access; no CLI path reads it."""
        den = self.denominator
        return MappingProxyType({(a, j): Fraction(c, den) for a, row in enumerate(self.rows) for j, c in enumerate(row)})

    @cached_property
    def bad_rows(self) -> list[int]:
        """Every a whose row breaks sum_j rows[a][j] = C(n, a) * denominator; empty for a sound table."""
        n, den = self.spec.n, self.denominator
        return [a for a, row in enumerate(self.rows) if sum(row) != binomial(n, a) * den]

    @cached_property
    def error_weights(self) -> RowWeights:
        """The table's RowWeights: w_a = sum_j (j / e_a) A_{a,j} with e_a = len(rows[a]) - 1, 0 where a = 0 or e_a = 0."""
        return RowWeights(self.spec, self.algorithm, tuple(
            Fraction(sum(map(mul, range(len(row)), row)), (len(row) - 1) * self.denominator) if a and len(row) > 1 else Fraction(0)
            for a, row in enumerate(self.rows)))


@dataclass(frozen=True, eq=False)
class RowWeights:
    """Row weights w_a = sum_j (j / e_a) A_{a,j}, a = 0..n, as Fractions: P(delta) = sum_a w_a delta^a (1 - delta)^(n - a)."""

    spec: EnsembleSpec
    algorithm: Algorithm
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.spec.n + 1:
            raise ValueError(f"row weights need n + 1 = {self.spec.n + 1} entries, got {len(self.weights)}")
        for w in self.weights:
            if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
                raise TypeError(f"row weights must be exact rationals (int or Fraction), got {w!r}")

    @cached_property
    def power_weights(self) -> tuple[tuple[int, ...], int]:
        """(c, den), sum_a w_a x^a (1 - x)^(n - a) = sum_k c_k x^k / den over the weights' least common denominator."""
        den = math.lcm(*(w.denominator for w in self.weights))
        coeffs: list[int] = []
        for w in self.weights:  # Q_a = (1 - x) Q_(a-1) + w_a x^a, from Q_0 = w_0 to Q_n = sum_k c_k x^k
            coeffs = [*map(sub, [*coeffs, w.numerator * (den // w.denominator)], [0, *coeffs])]
        return tuple(coeffs), den

    @cached_property
    def coupling_violations(self) -> list[int]:
        """Every live a (1 <= a < n under COMP, 1 <= a <= n under DD) where r_a = w_a / C(n, a) leaves [0, 1] or exceeds r_(a+1).

        r_a is the chance that a fixed candidate errs with a defectives. With S inside S' = S + one item, PD(S)
        is inside PD(S'), so on every graph a COMP false alarm or a DD miss of that item under S stays one under S'.
        """
        n = self.spec.n
        live = range(1, n if self.algorithm is Algorithm.COMP else n + 1)
        rates = [Fraction(w, binomial(n, a)) for a, w in enumerate(self.weights)]
        return [a for a in live if not 0 <= rates[a] <= 1 or a + 1 in live and rates[a] > rates[a + 1]]


# ---------------------------------------------------------------------------
# Closed forms of the bracket powers. A cell sums integer terms over the
# common denominator edges!: a term num / multinomial(edges, parts) equals
# num * prod(part!) / edges!.
# ---------------------------------------------------------------------------


class _ClosedForms:
    """Closed-form coefficients of the bracket powers (see the module docstring).

    Memoizes Pascal rows, the S_d(q, .) rows, spreads, sole terms and H_o
    rows over K per instance, so build one instance per table. `fact` holds
    0!, ..., edges!; the rows grow on demand, whatever `edges` is.
    """

    __slots__ = ("fact", "_pascal", "_powers", "_spreads", "_sole", "_ordinary")

    def __init__(self, edges: int):
        self.fact = list(accumulate(range(1, edges + 1), mul, initial=1))
        self._pascal: list[list[int]] = [[1]]
        self._powers: dict[int, list[list[int]]] = {}
        self._spreads: dict[tuple, list[int]] = {}
        self._sole: dict[tuple, list[tuple[int, int, int, list[int]]]] = {}
        self._ordinary: dict[tuple, list[int]] = {}

    def choose(self, k: int) -> list[int]:
        """[C(k, 0), ..., C(k, k)]."""
        rows = self._pascal
        while len(rows) <= k:
            rows.append([1, *map(add, rows[-1], rows[-1][1:]), 1])
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

    def walk(self, degrees, tops, base: int = 1) -> list[tuple[int, int, int]]:
        """[(sum d t_d, sum t_d, base prod C(top_d, t_d))] over every 0 <= t_d <= top_d, built class by class."""
        out = [(0, 0, base)]
        for d, top in zip(degrees, tops):
            out = [(e + d * t, v + t, w * x) for e, v, w in out for t, x in enumerate(self.choose(top))]
        return out

    def splits(self, degrees, tops, base: int = 1) -> Iterator[tuple[tuple[int, ...], tuple[int, int, int]]]:
        """Each split t, 0 <= t_d <= top_d in itertools.product order, paired with walk's entry for it."""
        return zip(product(*(range(top + 1) for top in tops)), self.walk(degrees, tops, base))

    def spread(self, classes: tuple[tuple[int, int], ...]) -> list[int]:
        """[x^w] prod_d ((1 + x)^d - 1)^(q_d), (d, q_d) in `classes`; memoized."""
        row = self._spreads.get(classes)
        if row is None:
            row = self._spreads[classes] = _convolve(self.powers(d, q) for d, q in classes if q)
        return row

    def ordinary(self, classes: tuple[tuple[int, int], ...], a: int, step: int) -> list[int]:
        """H_o: [x1^(D - a - K) x2^a x4^K] prod O_d^(o_d) for K = 0, step, 2 step, ..., D - a; memoized.

        `classes` holds the (d, o_d) with o_d > 0, and D = sum d o_d. With
        v = x2 + x4, taking class d's sole term d x1 x2^(d-1) p_d times leaves
        x1^P x2^A prod_d ((x1 + v)^d - v^d)^(o_d - p_d), whose x1^(W - P)
        coefficient is spread(o - p)[W - P] v^(a - A + K), W = D - a - K;
        C(a - A + K, K) picks x2^(a - A) x4^K out of that power of v. Every
        p's (A, P, coefficient, spread) is kept per classes, ascending in A.
        """
        key = (classes, a, step)
        row = self._ordinary.get(key)
        if row is None:
            top = sum(d * o for d, o in classes) - a
            row, live = [0] * (top // step + 1), range(0, top - sum(o for _, o in classes) + 1, step)
            if live:  # W >= sum o_d: every factor holds x1
                terms = self._sole.get(classes)
                if terms is None:
                    terms = self._sole[classes] = sorted((
                        (sockets - picked, picked, weight * math.prod((-d) ** p for (d, _), p in zip(classes, picks)),
                         self.spread(tuple((d, o - p) for (d, o), p in zip(classes, picks))))
                        for picks, (sockets, picked, weight) in self.splits([d for d, _ in classes], [o for _, o in classes])
                    ), key=itemgetter(0))
                self.choose(a + live[-1])
                pascal = self._pascal
                for lift, picks, coef, spread in terms:
                    if lift > a:
                        break
                    n, w0 = a - lift, top - picks
                    for k, c in enumerate(live):
                        row[k] += coef * pascal[n + c][c] * spread[w0 - c]
            self._ordinary[key] = row
        return row


# ---------------------------------------------------------------------------
# Degree classes: the counting with role counts per node degree. Each class
# contributes a binomial bracket whose powers have the closed forms above;
# classes of one side combine by short convolutions.
# ---------------------------------------------------------------------------

# Seconds per table unit, alpha + beta w^2 for w = ceil(bits(E!) / 64): a unit
# multiplies integers that grow with E!. One 2-vCPU x86_64 host; BENCH_20.json.
_UNIT_SECONDS = {Algorithm.COMP: (6.31e-7, 1.77e-10), Algorithm.DD: (1.29e-7, 1.43e-10)}


def _pair_sum(classes) -> int:
    """About sum of C(D + 2, 2), D = sum_d d o_d, over every 0 <= o_d <= R_d: each D at its mean."""
    return math.prod(c + 1 for _, c in classes) * binomial(sum(d * c for d, c in classes) // 2 + 2, 2)


def _table_units(spec: EnsembleSpec, algorithm: Algorithm) -> int:
    """The builder's inner-loop steps in closed form: per loop, outer iterations x mean inner length.

    COMP: compositions (one defective split each), slack dot products
    per (dismissed, e1), and spread entries per test split, three big
    products each. DD: (B, J) pairs per composition, H_o rows (p x K per
    class, and with several test degrees the a1 x K pair sums of a
    convolution no longer run: a bound above the measured seconds of
    BENCH_25.json, kept so that no refusal moves), and a fixed cost per
    composition and per H_o read.
    """
    items, tests = spec.item_classes, spec.test_classes
    edges, step = spec.edge_count, math.gcd(*(d for d, _ in items))
    compositions = math.prod(binomial(c + 2, 2) for _, c in items)
    if algorithm is Algorithm.COMP:
        dots = min(compositions, math.prod(c + 1 for _, c in items) * (edges // (2 * step) + 1))
        slack = sum((d - 1) * c for d, c in items) // (3 * math.gcd(*(d for d, _ in tests))) + 1
        spreads = math.prod(c + 1 for _, c in tests) * (edges // 2 + 1)
        return compositions + dots * slack + 3 * spreads
    certifying = min(spec.m + 1, sum((d - 1) * c for d, c in items) // (3 * max(tests[0][0] - 1, 1)) + 1)
    missed = min(math.prod(c // 3 + 1 for _, c in items), sum(d * c for d, c in items) // (3 * step) + 1)
    rows = sum((d - 1) ** 2 * c**3 * (c + 4) // 24 for d, c in tests) // step
    rows += sum(_pair_sum([(d - 1, c)]) * _pair_sum(tests[k + 1 :]) for k, (d, c) in enumerate(tests[:-1]))
    reads = math.prod(c + 1 for _, c in tests) * (edges // step + 1)
    return compositions * certifying * missed * 2 // 3 + rows + 50 * compositions * len(items) + 200 * reads


def _predicted_seconds(spec: EnsembleSpec, algorithm: Algorithm) -> float:
    """Table units times the seconds per unit, which grow with the words of E!, the cells' common denominator."""
    alpha, beta = _UNIT_SECONDS[algorithm]
    words = math.ceil(math.lgamma(spec.edge_count + 1) / math.log(2) / 64)
    return _table_units(spec, algorithm) * (alpha + beta * words**2)


def _convolve(lists) -> list[int]:
    """Coefficients of the product of polynomials given as coefficient lists: a copy of the first, [1] for none."""
    lists = iter(lists)
    out = list(next(lists, [1]))
    for coeffs in lists:
        prod = [0] * (len(out) + len(coeffs) - 1)
        for s, x in enumerate(out):
            if x:
                for t, y in enumerate(coeffs):
                    prod[s + t] += x * y
        out = prod
    return out


def _residue(lists, start: int, step: int) -> list[int]:
    """Entries start, start + step, start + 2 step, ... of _convolve(lists), for 0 <= start < step."""
    *head, last = lists
    full = _convolve(head)
    out = [0] * ((len(full) + len(last) - 1 - start + step - 1) // step)
    for s, x in enumerate(full):
        t0 = (start - s) % step  # s + t0 = start (mod step), and so s + t0 >= start
        for k, t in enumerate(range(t0, len(last), step), (s + t0 - start) // step):
            out[k] += x * last[t]
    return out


def _comp_class_table(spec: EnsembleSpec, forms: _ClosedForms) -> list[list[int]]:
    # The COMP formula of the module docstring; returns numerators over edges!.
    # D = sockets on positive tests; y = D - E + Q of them hold dismissed items.
    degrees, counts = zip(*spec.item_classes)
    test_degrees, test_counts = zip(*spec.test_classes)
    fact, edges = forms.fact, spec.edge_count
    step = math.gcd(*test_degrees)  # D is a multiple of it
    # by_e1[e1][D / step]: every split with D positive-test sockets, e1 of them on
    # defectives: prod C(R_d, b_d) [x^e1] prod ((1 + x)^d - 1)^(b_d), times pairings.
    by_e1: dict[int, list[int]] = {}
    for split, (sockets, _, weight) in forms.splits(test_degrees, test_counts):
        weight *= fact[edges - sockets]
        # Each split's spread is read once, so none is memoized: all of them would outlive the loop.
        for e1, t in enumerate(_convolve(forms.powers(d, b) for d, b in zip(test_degrees, split) if b)):
            if t:
                row = by_e1.setdefault(e1, [0] * (edges // step + 1))
                row[sockets // step] += weight * t * fact[e1] * fact[sockets - e1]
    values = empty_rows(spec.n, Algorithm.COMP)
    for dismissed, (dismissed_sockets, dismissed_items, base) in forms.splits(degrees, counts):
        shift = edges - dismissed_sockets
        first = -(-shift // step)  # the least D / step with y = D - shift >= 0
        slack = _residue([forms.slack_powers(d, q) for d, q in zip(degrees, dismissed)], first * step - shift, step)
        # Every defective split: (e1, i, prod C(c_d, q_d) C(c_d - q_d, i_d)).
        left, dots = spec.n - dismissed_items, {}
        for e1, i, w in forms.walk(degrees, [c - q for c, q in zip(counts, dismissed)], base):
            dot = dots.get(e1)
            if dot is None:
                row = by_e1.get(e1)
                dot = dots[e1] = sum(map(mul, islice(row, first, None), slack)) if row else 0
            if dot:
                values[i][left - i] += w * dot
    return values


def _dd_class_table(spec: EnsembleSpec, forms: _ClosedForms) -> list[list[int]]:
    # The DD formula of the module docstring; returns numerators over edges!.
    # A certifying test holds one certified defective (d choices of its
    # socket) and d - 1 dismissed items. Each certified item has a socket on
    # at least one; its others, I - B in all, join the missed items' J
    # sockets as the W = I - B + J defective sockets at ordinary tests.
    # Covered items (non-defective, in no negative test) have all K sockets
    # there too. Missed and covered items enter only through J and K, so for
    # each count r_d of the two per class the j-splits are tallied by J once.
    degrees, counts = zip(*spec.item_classes)
    test_degrees, test_counts = zip(*spec.test_classes)
    fact, edges, choose = forms.fact, spec.edge_count, forms.choose
    step = math.gcd(*degrees)  # K and J are multiples of it
    by_b: dict[int, list] = {}
    for certifying, (certifying_sockets, b, ways) in forms.splits(test_degrees, test_counts):
        dismissed_edges = certifying_sockets - b
        base = ways * math.prod(d**c for d, c in zip(test_degrees, certifying)) * fact[b]
        for positive, (sockets, _, weight) in forms.splits(test_degrees, [count - c for count, c in zip(test_counts, certifying)], base):
            classes = tuple((d, o) for d, o in zip(test_degrees, positive) if o)
            weight *= fact[edges - sockets - b - dismissed_edges]
            by_b.setdefault(b, []).append((dismissed_edges, sockets, weight, classes))
    # Per rest r_d (missed or covered items per class), per J: (R - J) / step, R = sum d r_d, and
    # [(j, sum prod C(r_d, j_d))], the sum over the missed splits j_d with that J and j.
    missed_splits: dict[tuple[int, ...], tuple[list[int], list[list[tuple[int, int]]]]] = {}
    values = empty_rows(spec.n, Algorithm.DD)
    for dismissed, (dismissed_sockets, _, ways) in forms.splits(degrees, counts):
        free = edges - dismissed_sockets
        slack = _convolve(forms.slack_powers(d, q) for d, q in zip(degrees, dismissed))
        # by_k: (B, row), row[K / step] = W! K! sum pre H(W, E2) over the tests with B certifying.
        by_k: list[tuple[int, list[int]]] = []
        for b, entries in by_b.items():
            top = free - b
            sums = [0] * (top // step + 1)
            for dismissed_edges, sockets, weight, classes in entries:
                e2 = sockets - top
                s = e2 + dismissed_edges
                if e2 < 0 or s >= len(slack) or not slack[s]:
                    continue
                pre = weight * slack[s] * fact[s]
                for k, h in enumerate(forms.ordinary(classes, e2, step)):
                    if h:
                        sums[k] += pre * h
            if any(sums):
                covers = range(0, top + 1, step)
                by_k.append((b, [t * fact[top - cover] * fact[cover] for cover, t in zip(covers, sums)]))
        # Every certified split, class by class: (spread classes, rest r_d, R, i, prod C(c_d, q_d) C(c_d - q_d, i_d)).
        certified = [((), (), 0, 0, ways)]
        for d, c, q in zip(degrees, counts, dismissed):
            certified = [(classes + ((d, t),), rest + (c - q - t,), r_deg + d * (c - q - t), i + t, split_ways * x)
                         for classes, rest, r_deg, i, split_ways in certified for t, x in enumerate(choose(c - q))]
        for classes, rest, r_deg, i, split_ways in certified:
            spread = forms.spread(classes)
            if rest not in missed_splits:
                by_e: dict[int, dict[int, int]] = {}  # small weights, summed before acc's big ones
                for e, j, weight in forms.walk(degrees, rest):
                    js = by_e.setdefault(e, {})
                    js[j] = js.get(j, 0) + weight
                missed_splits[rest] = [(r_deg - e) // step for e in by_e], [[*js.items()] for js in by_e.values()]
            ks, by_j = missed_splits[rest]
            acc = [0] * len(ks)
            for b, row in by_k:
                x = spread[b] if b < len(spread) else 0
                if x:
                    acc = [s + x * row[k] for s, k in zip(acc, ks)]
            for total, js in zip(acc, by_j):
                if total:
                    total *= split_ways
                    for j, weight in js:
                        values[i + j][j] += weight * total
    return values


# ---------------------------------------------------------------------------
# Tables and error probabilities.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def build_table(spec: EnsembleSpec, algorithm: Algorithm) -> EnumeratorTable:
    """Complete enumerator table for one ensemble; refuses, before starting, one predicted to take too long."""
    check_algorithm(algorithm)
    refuse_over_limit(f"the {algorithm.value} table for n={spec.n}", _predicted_seconds, spec, algorithm)
    forms = _ClosedForms(spec.edge_count)
    build = _comp_class_table if algorithm is Algorithm.COMP else _dd_class_table
    rows = tuple(map(tuple, build(spec, forms)))
    return EnumeratorTable(algorithm, spec, rows, forms.fact[spec.edge_count])


@lru_cache(maxsize=64)
def _scaled_row(weights: RowWeights, q: int) -> tuple[tuple[int, ...], int]:
    """(c_n, c_(n-1) q, ..., c_0 q^n) and den q^n for the weights' power_weights (c, den).

    Keyed on the weights' identity and q. No integer up to 10,000 has more than
    64 divisors, so the 64 entries hold every reduced denominator of a grid
    whose common denominator is at most 10,000. Each scaled coefficient is
    below den (q + 2)^n in size, so the worst case is 64 rows of n + 1 integers
    of bits(den) + n log2(q + 2) bits, and an entry keeps its weights alive.
    """
    coeffs, den = weights.power_weights
    powers = list(accumulate(repeat(q, weights.spec.n), mul, initial=1))
    return tuple(map(mul, reversed(coeffs), powers)), den * powers[-1]


def _error_probability(source: Union[EnumeratorTable, RowWeights], algorithm: Algorithm, delta) -> Fraction:
    # sum_k c_k delta^k for delta = p / q: Horner's rule in p over the row scaled by powers of q, reduced once.
    weights = source.error_weights if isinstance(source, EnumeratorTable) else source
    if weights.algorithm is not algorithm:
        rate = "false-alarm" if algorithm is Algorithm.COMP else "misdetection"
        raise ValueError(f"{rate} probability is defined on {algorithm.name} tables")
    d = exact_delta(delta)
    row, den = _scaled_row(weights, d.denominator)
    p, total = d.numerator, 0
    for c in row:
        total = total * p + c
    return Fraction(total, den)


def fa_probability(source: Union[EnumeratorTable, RowWeights], delta) -> Fraction:
    """Expected per-item false-alarm rate E[fa / (n - defectives)] under i.i.d. Bernoulli(delta), from a COMP table or its weights."""
    return _error_probability(source, Algorithm.COMP, delta)


def md_probability(source: Union[EnumeratorTable, RowWeights], delta) -> Fraction:
    """Expected per-item misdetection rate E[md / defectives] under i.i.d. Bernoulli(delta), from a DD table or its weights."""
    return _error_probability(source, Algorithm.DD, delta)


def write_table_csv(
    table: EnumeratorTable, out: Union[str, Path, TextIO], precision: int = DEFAULT_DECIMAL_DIGITS
) -> None:
    """CSV rows (a, j, numerator, denominator, decimal) with a spec-hash comment line."""

    def rows():
        for a, row in enumerate(table.rows):
            for j, count in enumerate(row):
                value = Fraction(count, table.denominator)
                yield a, j, value.numerator, value.denominator, to_decimal(value, precision)

    header = {"algorithm": table.algorithm.value, "source": table.source}
    write_csv(out, table.spec, header, "a,j,numerator,denominator,decimal", rows())
