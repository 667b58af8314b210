import csv
import io
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gf_reference import reference_cell, reference_table
from poolgraph import montecarlo, oracle
from poolgraph.combinatorics import binomial
from poolgraph.detection import Algorithm
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, regular_spec, spec_hash
from poolgraph.enumerator import (
    EnumeratorTable,
    _ClosedForms,
    _comp_class_table,
    _dd_class_table,
    _predicted_seconds,
    _table_units,
    build_table,
    fa_probability,
    empty_rows,
    md_probability,
    write_table_csv,
)
from poolgraph.errors import LIMIT_SECONDS, SizeLimitError
from poolgraph.polynomial import SparsePoly, poly_pow


def mixed_spec():
    return EnsembleSpec(
        n=3,
        m=2,
        left=DegreeDistribution.from_dict({1: Fraction(2, 3), 2: Fraction(1, 3)}),
        right=DegreeDistribution.regular(2),
    )


def cell(spec, algorithm, i, j):
    """COMP: A_{i,j} (i defectives, j false alarms); DD: A_{i+j,j} (i certified, j missed)."""
    a = i if algorithm is Algorithm.COMP else i + j
    return build_table(spec, algorithm).values[(a, j)]


@pytest.mark.parametrize("n,l,r", [(4, 1, 2), (4, 2, 2), (6, 2, 3), (6, 2, 4)])
def test_empty_defective_set_single_pattern(n, l, r):
    assert cell(regular_spec(n, l, r), Algorithm.COMP, 0, 0) == 1
    assert cell(regular_spec(n, l, r), Algorithm.DD, 0, 0) == 1


@pytest.mark.parametrize("j", [1, 2, 3])
def test_no_defectives_means_no_false_alarms(j):
    assert cell(regular_spec(4, 1, 2), Algorithm.COMP, 0, j) == 0
    assert cell(mixed_spec(), Algorithm.COMP, 0, j) == 0


def test_no_defectives_row_carries_no_misdetection_mass():
    for spec in (regular_spec(4, 1, 2), mixed_spec()):
        table = build_table(spec, Algorithm.DD)
        for j in range(1, spec.n + 1):
            assert table.values.get((0, j), Fraction(0)) == 0


def test_degree_one_items_are_never_certified():
    # (4,1,2): every positive test holds the defective plus a PD partner,
    # so certification is impossible and whole defective sets go missed.
    spec = regular_spec(4, 1, 2)
    assert cell(spec, Algorithm.DD, 0, 1) == 4
    assert cell(spec, Algorithm.DD, 0, 2) == 6
    assert cell(spec, Algorithm.DD, 1, 0) == 0
    assert cell(spec, Algorithm.DD, 1, 1) == 0


def test_irregular_trivial_cell():
    assert cell(mixed_spec(), Algorithm.COMP, 0, 0) == 1
    assert cell(mixed_spec(), Algorithm.DD, 0, 0) == 1


def test_single_item_single_partner_anchor():
    # (4,1,2): a lone defective's test partner is always the one false alarm.
    spec = regular_spec(4, 1, 2)
    assert cell(spec, Algorithm.COMP, 1, 1) == 4
    assert cell(spec, Algorithm.COMP, 1, 0) == 0
    assert cell(spec, Algorithm.COMP, 1, 2) == 0


def test_two_defective_anchor_cells():
    # (4,1,2) with two defectives: either they share a test (no false alarms,
    # 2 of 6 pairings... weighted over matchings) or they cover both tests.
    spec = regular_spec(4, 1, 2)
    assert cell(spec, Algorithm.COMP, 2, 0) == 2
    assert cell(spec, Algorithm.COMP, 2, 1) == 0
    assert cell(spec, Algorithm.COMP, 2, 2) == 4


def test_pair_in_single_test_is_never_resolved():
    # (2,1,2): one test holding both items.
    spec = regular_spec(2, 1, 2)
    assert cell(spec, Algorithm.DD, 1, 0) == 0
    assert cell(spec, Algorithm.DD, 0, 1) == 2
    assert cell(spec, Algorithm.DD, 0, 2) == 1


@pytest.mark.parametrize("n,l,r", [(4, 1, 2), (4, 2, 2), (6, 2, 3)])
def test_regular_row_sums(n, l, r):
    spec = regular_spec(n, l, r)
    for algorithm in Algorithm:
        table = build_table(spec, algorithm)
        assert table.denominator == math.factorial(spec.edge_count)
        for a in range(n + 1):
            assert sum(table.values.get((a, j), 0) for j in range(n + 1)) == binomial(n, a)
        assert table.bad_rows == []


def test_mixed_spec_row_sums():
    for algorithm in Algorithm:
        assert build_table(mixed_spec(), algorithm).bad_rows == []


def test_nonnegative_values():
    for algorithm in Algorithm:
        for value in build_table(regular_spec(6, 2, 3), algorithm).values.values():
            assert value >= 0


# Each (4,2,2) cell against the multiplied-out generating functions of the
# general ensemble (tests/gf_reference.py), which share no code with the
# degree-class route's closed forms.
@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_regular_and_general_routes_agree_comp(i, j):
    spec = regular_spec(4, 2, 2)
    assert cell(spec, Algorithm.COMP, i, j) == reference_cell(spec, Algorithm.COMP, i, j)


@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_regular_and_general_routes_agree_dd(i, j):
    spec = regular_spec(4, 2, 2)
    assert cell(spec, Algorithm.DD, i, j) == reference_cell(spec, Algorithm.DD, i, j)


def _dd_ordinary_polynomial(d):
    # O = (x1 + x2 + x4)^d - (x2 + x4)^d - d x1 x2^(d-1), variables (x1, x2, x4).
    x1, x2, x4 = (SparsePoly.sum_of_variables(3, [v]) for v in range(3))
    sole = SparsePoly.monomial(3, (1, d - 1, 0), d)
    return (x1 + x2 + x4) ** d - (x2 + x4) ** d - sole


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(0, 6))
def test_one_variable_bracket_powers_match_sparse_powers(l, q):
    x = SparsePoly.sum_of_variables(1, [0])
    one = SparsePoly.constant(1, 1)
    spread = poly_pow((one + x) ** l - one, q)
    slack = poly_pow((one + x) ** l - x**l, q)
    forms = _ClosedForms(0)
    powers, slack_powers = forms.powers(l, q), forms.slack_powers(l, q)
    for y in range(l * q + 2):
        assert (powers[y] if y < len(powers) else 0) == spread.coefficient((y,))
        assert (slack_powers[y] if y < len(slack_powers) else 0) == slack.coefficient((y,))


def _literal_alt(d, q, w):
    # S_d(q, w) = sum_t (-1)^(q-t) C(q, t) C(d t, w), term by term.
    if w < 0:
        return 0
    return sum((-1) ** (q - t) * math.comb(q, t) * math.comb(d * t, w) for t in range(q + 1))


def _literal_dd_g(d, o, a, c):
    # sum_p C(o, p) (-d)^p C(a - p(d-1) + c, c) S_d(o - p, W - p) with W = d o - a - c.
    w = d * o - a - c
    return sum(
        math.comb(o, p) * (-d) ** p * math.comb(a - p * (d - 1) + c, c) * _literal_alt(d, o - p, w - p)
        for p in range(o + 1)
        if a >= p * (d - 1)
    )


def test_bracket_rows_equal_the_literal_signed_sum():
    # An instance sized for no edges still serves every row: Pascal and
    # S_d rows grow on demand.
    forms = _ClosedForms(0)
    assert forms.fact == [1]
    for d in range(1, 7):
        for q in range(21):
            row, slack = forms.powers(d, q), forms.slack_powers(d, q)
            assert (len(row), len(slack)) == (d * q + 1, (d - 1) * q + 1)
            for w in range(-1, d * q + 2):
                expected = _literal_alt(d, q, w)
                assert (row[w] if 0 <= w < len(row) else 0) == expected
                y = d * q - w
                assert (slack[y] if 0 <= y < len(slack) else 0) == expected


@pytest.mark.parametrize("d,o", [(1, 3), (2, 9), (3, 12), (6, 10)])
def test_dd_rows_equal_the_literal_sum(d, o):
    # a = d o + 1 is past every row: its rows are empty.
    forms = _ClosedForms(0)
    for a in range(d * o + 2):
        for step in (1, 2, 3):
            cs = range(0, d * o - a + 1, step)
            assert forms.ordinary(((d, o),), a, step) == [_literal_dd_g(d, o, a, c) for c in cs]


def _assert_rows_match(classes, power):
    # Every row over K against the multiplied-out product, one a past the
    # end of the box; a c past a row's end reads as 0.
    forms, sockets = _ClosedForms(0), sum(d * o for d, o in classes)
    for a in range(sockets + 2):
        for step in (1, 2, 3):
            row = forms.ordinary(tuple((d, o) for d, o in classes if o), a, step)
            assert len(row) == max(0, (sockets - a) // step + 1)
            for k, c in enumerate(range(0, sockets + 2, step)):
                w = sockets - a - c
                expected = power.coefficient((w, a, c)) if w >= 0 else 0
                assert (row[k] if k < len(row) else 0) == expected


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(0, 6))
def test_dd_test_polynomial_powers_match_sparse_powers(d, o):
    _assert_rows_match([(d, o)], poly_pow(_dd_ordinary_polynomial(d), o))


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4)), min_size=2, max_size=3))
@example([(2, 2), (3, 1), (4, 2)])
@example([(1, 2), (3, 2), (3, 1)])
@example([(4, 2), (4, 1)])
@example([(1, 1), (5, 2)])
def test_dd_two_class_products_match_sparse_powers(classes):
    # Several ordinary-test classes, each row one sum over every class's
    # sole-term count, against the multiplied-out product. A degree may
    # repeat, and O_1 = 0, so a degree-1 class zeroes every row.
    power = poly_pow(_dd_ordinary_polynomial(classes[0][0]), classes[0][1])
    for d, o in classes[1:]:
        power = power * poly_pow(_dd_ordinary_polynomial(d), o)
    _assert_rows_match(classes, power)


def two_by_two_spec():
    # Two degrees on each side: lambda = {1: 1/2, 3: 1/2}, rho = {2: 2/3, 4: 1/3}.
    return EnsembleSpec(
        n=4,
        m=3,
        left=DegreeDistribution.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}),
        right=DegreeDistribution.from_dict({2: Fraction(2, 3), 4: Fraction(1, 3)}),
    )


def counted_spec(items, tests):
    # A spec from {degree: node count} on each side.
    n, m = sum(items.values()), sum(tests.values())
    return EnsembleSpec(
        n=n,
        m=m,
        left=DegreeDistribution.from_dict({d: Fraction(c, n) for d, c in items.items()}),
        right=DegreeDistribution.from_dict({d: Fraction(c, m) for d, c in tests.items()}),
    )


def one_test_degree_spec():
    # Two item degrees, one test degree: lambda = {1: 1/2, 3: 1/2}, rho = {4: 1}.
    return EnsembleSpec(
        n=4,
        m=2,
        left=DegreeDistribution.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}),
        right=DegreeDistribution.regular(4),
    )


def test_regular_route_builds_no_polynomial(monkeypatch):
    import poolgraph.enumerator as enumerator
    import poolgraph.polynomial as polynomial

    # A regular spec, one test degree (one O^o row) and two test degrees
    # (rows convolved over K).
    specs = (regular_spec(6, 2, 3), one_test_degree_spec(), two_by_two_spec())
    expected = {(spec, alg): reference_table(spec, alg) for spec in specs for alg in Algorithm}

    def refuse(*args, **kwargs):
        raise AssertionError("an enumerator route touched the polynomial layer")

    for module in (enumerator, polynomial):
        for name in ("poly_add", "poly_mul", "poly_pow", "poly_product_of_powers"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(polynomial, "SparsePoly", refuse)
    for (spec, alg), values in expected.items():
        assert build_table.__wrapped__(spec, alg).values == values


@st.composite
def small_irregular_specs(draw):
    """n <= 6 items of degree 1..3 and tests of degree 1..3."""
    n = draw(st.integers(2, 6))
    item_degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    edges = sum(item_degrees)
    threes = draw(st.integers(0, edges // 3))
    twos = draw(st.integers(0, (edges - 3 * threes) // 2))
    tests = {3: threes, 2: twos, 1: edges - 3 * threes - 2 * twos}
    m = sum(tests.values())
    assume(m <= n)
    items = {d: item_degrees.count(d) for d in set(item_degrees)}
    spec = EnsembleSpec(
        n=n,
        m=m,
        left=DegreeDistribution.from_dict({d: Fraction(c, n) for d, c in items.items()}),
        right=DegreeDistribution.from_dict({d: Fraction(c, m) for d, c in tests.items() if c}),
    )
    return spec


@settings(deadline=None, max_examples=40)
@given(small_irregular_specs(), st.sampled_from(list(Algorithm)))
@example(regular_spec(6, 2, 3), Algorithm.COMP)
@example(regular_spec(6, 2, 3), Algorithm.DD)
@example(one_test_degree_spec(), Algorithm.COMP)
@example(one_test_degree_spec(), Algorithm.DD)
# Three item degrees against tests all of degree 3 (D and the slack read in
# steps of 3), and against tests of degrees 2 and 4 (steps of 2).
@example(counted_spec({1: 1, 2: 1, 3: 3}, {3: 4}), Algorithm.COMP)
@example(counted_spec({1: 1, 2: 1, 3: 3}, {3: 4}), Algorithm.DD)
@example(counted_spec({1: 2, 2: 1, 3: 2}, {2: 1, 4: 2}), Algorithm.COMP)
@example(counted_spec({1: 2, 2: 1, 3: 2}, {2: 1, 4: 2}), Algorithm.DD)
# Missed splits t = (1, 0, 1) and (0, 2, 0) of rest (1, 2, 1) share J = 4 and
# j = 2: the split walk has 12 entries but 11 distinct (J, j) keys.
@example(counted_spec({1: 1, 2: 2, 3: 1}, {2: 4}), Algorithm.COMP)
@example(counted_spec({1: 1, 2: 2, 3: 1}, {2: 4}), Algorithm.DD)
def test_degree_class_route_matches_multiplied_out_generating_functions(spec, algorithm):
    assert build_table(spec, algorithm).values == reference_table(spec, algorithm)


def test_comp_memoizes_no_spread():
    # COMP reads each positive-test split's spread once; memoizing them would
    # hold every split's row for the whole build (33.5 MB against 23.1 MB on
    # this ensemble at n = 72). DD's certified items memoize theirs, in the same dict.
    spec = EnsembleSpec(
        n=24,
        m=12,
        left=DegreeDistribution.regular(3),
        right=DegreeDistribution.from_dict({d: Fraction(1, 3) for d in (4, 6, 8)}),
    )
    comp, dd = _ClosedForms(spec.edge_count), _ClosedForms(spec.edge_count)
    assert _comp_class_table(spec, comp) == [list(row) for row in build_table(spec, Algorithm.COMP).rows]
    assert comp._spreads == {}
    _dd_class_table(counted_spec({3: 4}, {4: 1, 8: 1}), dd)
    assert dd._spreads


@settings(deadline=None, max_examples=40)
@given(small_irregular_specs(), st.sampled_from(list(Algorithm)))
@example(regular_spec(30, 3, 6), Algorithm.COMP)
@example(regular_spec(30, 3, 6), Algorithm.DD)
@example(regular_spec(12, 3, 6), Algorithm.COMP)
@example(regular_spec(12, 3, 6), Algorithm.DD)
@example(regular_spec(8, 2, 4), Algorithm.COMP)
@example(regular_spec(8, 2, 4), Algorithm.DD)
@example(regular_spec(4, 2, 2), Algorithm.COMP)
@example(regular_spec(4, 2, 2), Algorithm.DD)
@example(regular_spec(6, 1, 2), Algorithm.COMP)
@example(regular_spec(6, 1, 2), Algorithm.DD)
@example(regular_spec(2, 2, 2), Algorithm.COMP)
@example(regular_spec(2, 2, 2), Algorithm.DD)
@example(regular_spec(1, 1, 1), Algorithm.COMP)
@example(regular_spec(1, 1, 1), Algorithm.DD)
def test_per_item_error_rate_is_a_probability_that_grows_with_defectives(spec, algorithm):
    # The coupling invariant of EnumeratorTable.coupling_violations, which the CLI also runs.
    assert build_table(spec, algorithm).coupling_violations() == []


def test_table_units_follow_the_builders_loops():
    n30 = EnsembleSpec(
        n=30,
        m=15,
        left=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
        right=DegreeDistribution.regular(6),
    )
    # COMP: 136^2 compositions of two item classes of 15, one defective split
    # each; dots = 16^2 dismissed vectors x (90 / 4 + 1) e1 values, each
    # 60 / 18 + 1 slack entries long; and 16 test splits x (90 / 2 + 1) spread
    # entries, three big products each.
    assert _table_units(n30, Algorithm.COMP) == 136**2 + 256 * 23 * 4 + 3 * 16 * 46
    # DD: (certified B, missed J) pairs, 136^2 x 5 x 16 x 2 / 3; the H_o rows,
    # sole terms x K for the one test class, 25 x 15^3 x 19 / 24 / 2; 50 per
    # composition and 200 per H_o read, 16 x 46 of them.
    assert _table_units(n30, Algorithm.DD) == (
        136**2 * 5 * 16 * 2 // 3 + 25 * 15**3 * 19 // 24 // 2 + 50 * 2 * 136**2 + 200 * 16 * 46
    )
    # Three test degrees: the H_o rows of each class, plus pair sums of each
    # class of four tests against the later ones, the sockets D at their mean.
    # The pair sums price an a1 x K convolution that no builder runs since H_o
    # became one closed form: a conservative bound, kept so that no refusal moves.
    three = EnsembleSpec(
        n=24,
        m=12,
        left=DegreeDistribution.regular(3),
        right=DegreeDistribution.from_dict({4: Fraction(1, 3), 6: Fraction(1, 3), 8: Fraction(1, 3)}),
    )
    rows = sum((d - 1) ** 2 * 4**3 * 8 // 24 for d in (4, 6, 8)) // 3
    convolutions = 5 * binomial(8, 2) * 25 * binomial(30, 2) + 5 * binomial(12, 2) * 5 * binomial(18, 2)
    assert _table_units(three, Algorithm.DD) == (
        325 * 6 * 9 * 2 // 3 + rows + convolutions + 50 * 325 + 200 * 125 * 25
    ) == 2428490


def test_runaway_degree_class_table_is_refused_before_it_starts(monkeypatch):
    import poolgraph.enumerator as enumerator

    # Four item classes of 30: well over 10^10 role compositions alone.
    spec = EnsembleSpec(
        n=120,
        m=50,
        left=DegreeDistribution.from_dict({d: Fraction(1, 4) for d in (1, 2, 3, 4)}),
        right=DegreeDistribution.regular(6),
    )

    def never(*args, **kwargs):
        raise AssertionError("the refused build started")

    monkeypatch.setattr(enumerator, "_comp_class_table", never)
    monkeypatch.setattr(enumerator, "_dd_class_table", never)
    monkeypatch.setattr(enumerator, "_ClosedForms", never)
    for algorithm in Algorithm:
        assert _predicted_seconds(spec, algorithm) > LIMIT_SECONDS
        with pytest.raises(SizeLimitError, match="predicted to take .* s, over the limit of 600 s$"):
            build_table(spec, algorithm)
    # Regular tables are refused from n = 766 under COMP and n = 294 under DD.
    assert _predicted_seconds(regular_spec(766, 3, 6), Algorithm.COMP) > LIMIT_SECONDS
    assert _predicted_seconds(regular_spec(294, 3, 6), Algorithm.DD) > LIMIT_SECONDS


def test_build_table_is_cached():
    spec = regular_spec(4, 1, 2)
    assert build_table(spec, Algorithm.COMP) is build_table(spec, Algorithm.COMP)


def test_fa_probability_boundaries():
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    assert fa_probability(table, 0) == 0
    assert fa_probability(table, 1) == 0


def test_fa_probability_half_anchor():
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    assert fa_probability(table, Fraction(1, 2)) == Fraction(7, 12)


def test_md_probability_boundaries():
    table = build_table(regular_spec(4, 2, 2), Algorithm.DD)
    assert md_probability(table, 0) == 0


def test_md_probability_half_anchor():
    # (2,1,2): the pair is never separated, so certification always fails.
    table = build_table(regular_spec(2, 1, 2), Algorithm.DD)
    assert md_probability(table, Fraction(1, 2)) == Fraction(3, 4)
    assert md_probability(table, 1) == 1


@settings(deadline=None, max_examples=40)
@given(
    small_irregular_specs(),
    st.sampled_from(list(Algorithm)),
    st.one_of(st.fractions(min_value=0, max_value=1), st.sampled_from([0, 1, "2/4"])),
)
@example(regular_spec(12, 3, 6), Algorithm.COMP, Fraction(1, 7))
@example(regular_spec(12, 3, 6), Algorithm.DD, "2/4")
def test_error_probability_is_the_direct_sum_over_row_weights(spec, algorithm, delta):
    # The Horner evaluation against sum_a Fraction(w_a, den) delta^a (1 - delta)^(n - a), term by term.
    table = build_table(spec, algorithm)
    weights, den = table.error_weights
    d, n = Fraction(delta), spec.n
    direct = sum(Fraction(w, den) * d**a * (1 - d) ** (n - a) for a, w in enumerate(weights))
    prob = fa_probability if algorithm is Algorithm.COMP else md_probability
    assert prob(table, delta) == direct


def test_probability_rejects_wrong_algorithm():
    comp = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    dd = build_table(regular_spec(4, 1, 2), Algorithm.DD)
    with pytest.raises(ValueError):
        fa_probability(dd, Fraction(1, 2))
    with pytest.raises(ValueError):
        md_probability(comp, Fraction(1, 2))


# Every entry point would refuse this spec for size, so only a check made first can answer.
HUGE = regular_spec(10**6, 3, 6)


@pytest.mark.parametrize("call", [
    lambda decoder: build_table(HUGE, decoder),
    lambda decoder: montecarlo.simulate(HUGE, decoder, Fraction(1, 2), 10**9, 10**9, 0),
    lambda decoder: montecarlo.sweep(HUGE, decoder, [Fraction(1, 2)], 10**9, 10**9, 0),
    lambda decoder: oracle.exact_enumerators(HUGE, decoder),
    lambda decoder: oracle.exact_error_probability(HUGE, decoder, Fraction(1, 2)),
], ids=["build_table", "simulate", "sweep", "exact_enumerators", "exact_error_probability"])
@pytest.mark.parametrize("decoder", ["comp", "dd", None])
def test_a_decoder_that_is_not_an_algorithm_is_refused_before_any_work(call, decoder):
    # A string is neither member, so no branch on `is Algorithm.COMP` may read it as DD.
    with pytest.raises(TypeError, match=re.escape(f"algorithm must be an Algorithm, got {decoder!r}")):
        call(decoder)


def test_probability_rejects_floats_and_out_of_range():
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    for inexact in (0.5, True):
        with pytest.raises(TypeError):
            fa_probability(table, inexact)
    with pytest.raises(ValueError):
        fa_probability(table, Fraction(3, 2))


def test_incomplete_table_rejected():
    spec = regular_spec(4, 1, 2)
    for algorithm in (Algorithm.COMP, Algorithm.DD):
        full = build_table(spec, algorithm)
        rows = list(full.rows)
        rows[2] = rows[2][:1] + rows[2][2:]  # row 2 loses its cell j = 1
        with pytest.raises(ValueError, match="incomplete"):
            EnumeratorTable(algorithm=algorithm, spec=spec, rows=tuple(rows), denominator=full.denominator)


def polynomial_coefficients(table, algorithm):
    # P(delta) = sum_a delta^a (1-delta)^(n-a) * w_a with w_a the weighted row mass.
    n = table.spec.n
    weights = {}
    for a in range(1, n + 1):
        errs = (n - a) if algorithm is Algorithm.COMP else a
        if errs == 0:
            continue
        weights[a] = sum(
            Fraction(j, errs) * table.values[(a, j)] for j in range(1, errs + 1)
        )
    coeffs = [Fraction(0)] * (n + 1)
    for a, w in weights.items():
        # expand (1-delta)^(n-a) into monomials.
        for t in range(n - a + 1):
            coeffs[a + t] += w * binomial(n - a, t) * (-1) ** t
    return coeffs


def horner(coeffs, delta):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * delta + c
    return value


@settings(deadline=None, max_examples=25)
@given(st.fractions(min_value=0, max_value=1))
def test_fa_probability_matches_horner_form(delta):
    for spec in (regular_spec(4, 1, 2), two_by_two_spec()):
        table = build_table(spec, Algorithm.COMP)
        coeffs = polynomial_coefficients(table, Algorithm.COMP)
        assert fa_probability(table, delta) == horner(coeffs, delta)


@settings(deadline=None, max_examples=25)
@given(st.fractions(min_value=0, max_value=1))
def test_md_probability_matches_horner_form(delta):
    for spec in (regular_spec(4, 2, 2), two_by_two_spec()):
        table = build_table(spec, Algorithm.DD)
        coeffs = polynomial_coefficients(table, Algorithm.DD)
        assert md_probability(table, delta) == horner(coeffs, delta)


def test_table_domain_shapes():
    assert [len(row) for row in empty_rows(3, Algorithm.COMP)] == [4, 3, 2, 1]
    assert [len(row) for row in empty_rows(3, Algorithm.DD)] == [1, 2, 3, 4]
    assert not any(map(any, empty_rows(3, Algorithm.COMP)))


def test_csv_round_trip(tmp_path):
    spec = regular_spec(4, 1, 2)
    table = build_table(spec, Algorithm.COMP)
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    text = path.read_text()
    comment, rest = text.split("\n", 1)
    assert comment.startswith(f"# spec_hash={spec_hash(spec)}")
    assert "algorithm=comp" in comment and "source=enumerator" in comment
    rows = list(csv.DictReader(io.StringIO(rest)))
    parsed = {
        (int(row["a"]), int(row["j"])): Fraction(int(row["numerator"]), int(row["denominator"]))
        for row in rows
    }
    assert parsed == dict(table.values)
    for row in rows:
        float(row["decimal"])  # decimal column must parse as a number


def test_csv_to_stream():
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    buffer = io.StringIO()
    write_table_csv(table, buffer)
    assert buffer.getvalue().count("\n") == len(table.values) + 2


def test_exact_rates_approach_the_tree_limit():
    # On the (l, r) tree every item's neighbourhood is cycle-free, which
    # gives closed forms sharing nothing with the generating functions:
    # COMP's false-alarm rate (1 - (1 - delta)^(r-1))^l, and DD's misdetection
    # rate (1 - ((1 - delta)(1 - pi))^(r-1))^l with pi = (1 - (1 - delta)^(r-1))^(l-1),
    # the chance that a non-defective neighbour is PD through its other l - 1
    # tests. The ensemble averages close
    # the gap as n doubles: COMP at a 1/n rate (n x gap is printed), DD
    # more slowly.
    #
    # COMP's gap is c(delta)/n + O(1/n^2), with c from the same tree. With
    # q = 1 - delta and P_k = 1 - q^k, a test with k other distinct items is
    # positive with chance P_k, so FA_tree = P_{r-1}^l. A candidate's depth-1
    # neighbourhood holds one collision with chance rho/n + O(1/n^2): a pair of
    # sockets meets in one test with chance about (r-1)/E, and belongs to one
    # item with chance about (l-1)/E, E = nl. Each collision shape i moves the
    # candidate's false-alarm chance from FA_tree to FA_i:
    # - two of its own sockets in one test: C(l,2) pairs, rho = C(l,2)(r-1)/l,
    #   and one of its l - 1 tests has r - 2 others, FA = P_{r-2} P_{r-1}^(l-2);
    # - another item twice in one of its tests: l C(r-1,2) pairs,
    #   rho = C(r-1,2)(l-1), FA = P_{r-2} P_{r-1}^(l-1);
    # - another item in two of its tests (a 4-cycle): C(l,2)(r-1)^2 pairs,
    #   rho = C(l,2)(r-1)^2(l-1)/l; both tests are positive if that item is
    #   defective, or else through r - 2 others each:
    #   FA = (delta + q P_{r-2}^2) P_{r-1}^(l-2).
    # The rate is E[fa / (n - a)], and a false alarm's l(r-1) neighbours hold
    # l(r-1) delta / P_{r-1} defectives on average against l(r-1) delta at
    # large, so n - a is smaller by l(r-1) delta q^(r-1) / P_{r-1} when the
    # candidate errs. Against n - a ~ n q, that adds the ratio term
    # FA_tree l(r-1) delta q^(r-2) / P_{r-1} to c. So n gap_n - c falls as 1/n:
    # each doubling about halves it, in a band fixed before the test was run.
    l, r = 3, 6
    for delta in (Fraction(1, 20), Fraction(1, 10)):
        fa_tree = (1 - (1 - delta) ** (r - 1)) ** l
        pi = (1 - (1 - delta) ** (r - 1)) ** (l - 1)
        md_tree = (1 - ((1 - delta) * (1 - pi)) ** (r - 1)) ** l
        fa = {n: fa_probability(build_table(regular_spec(n, l, r), Algorithm.COMP), delta) for n in (30, 60, 120)}
        comp = {n: abs(rate - fa_tree) for n, rate in fa.items()}
        dd = {n: abs(md_probability(build_table(regular_spec(n, l, r), Algorithm.DD), delta) - md_tree)
              for n in (30, 60)}
        assert comp[30] > comp[60] > comp[120], (delta, comp)
        assert dd[30] > dd[60], (delta, dd)
        print(f"delta={delta}: COMP n x gap " + ", ".join(f"{n}: {float(n * gap):.3f}" for n, gap in comp.items()))
        q = 1 - delta
        P = {k: 1 - q**k for k in (r - 2, r - 1)}
        shapes = [
            (Fraction(math.comb(l, 2) * (r - 1), l), P[r - 2] * P[r - 1] ** (l - 2)),
            (math.comb(r - 1, 2) * (l - 1), P[r - 2] * P[r - 1] ** (l - 1)),
            (Fraction(math.comb(l, 2) * (r - 1) ** 2 * (l - 1), l), (delta + q * P[r - 2] ** 2) * P[r - 1] ** (l - 2)),
        ]
        ratio_term = fa_tree * l * (r - 1) * delta * q ** (r - 2) / P[r - 1]
        c = sum(rho * (fa_i - fa_tree) for rho, fa_i in shapes) + ratio_term
        remainder = {n: abs(n * (rate - fa_tree) - c) for n, rate in fa.items()}
        ratios = [remainder[n] / remainder[n // 2] for n in (60, 120)]
        print(f"delta={delta}: c = {float(c):.6f}, remainder ratios " + ", ".join(f"{float(x):.3f}" for x in ratios))
        assert all(Fraction(45, 100) <= x <= Fraction(55, 100) for x in ratios), (delta, float(c), ratios)
