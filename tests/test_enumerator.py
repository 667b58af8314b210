import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolgraph.combinatorics import binomial
from poolgraph.detection import Algorithm
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, regular_spec, spec_hash
from poolgraph.enumerator import (
    EnumeratorTable,
    _ClosedForms,
    build_table,
    comp_irregular,
    comp_regular,
    dd_irregular,
    dd_regular,
    fa_probability,
    md_probability,
    table_domain,
    write_table_csv,
)
from poolgraph.polynomial import SparsePoly, poly_pow


def mixed_spec():
    return EnsembleSpec(
        n=3,
        m=2,
        left=DegreeDistribution.from_dict({1: Fraction(2, 3), 2: Fraction(1, 3)}),
        right=DegreeDistribution.regular(2),
    )


@pytest.mark.parametrize("n,l,r", [(4, 1, 2), (4, 2, 2), (6, 2, 3), (6, 2, 4)])
def test_empty_defective_set_single_pattern(n, l, r):
    assert comp_regular(n, l, r, 0, 0) == 1
    assert dd_regular(n, l, r, 0, 0) == 1


@pytest.mark.parametrize("j", [1, 2, 3])
def test_no_defectives_means_no_false_alarms(j):
    assert comp_regular(4, 1, 2, 0, j) == 0
    assert comp_irregular(mixed_spec(), 0, j) == 0


def test_no_defectives_row_carries_no_misdetection_mass():
    for spec in (regular_spec(4, 1, 2), mixed_spec()):
        table = build_table(spec, Algorithm.DD)
        for j in range(1, spec.n + 1):
            assert table.values.get((0, j), Fraction(0)) == 0


def test_degree_one_items_are_never_certified():
    # (4,1,2): every positive test holds the defective plus a PD partner,
    # so certification is impossible and whole defective sets go missed.
    assert dd_regular(4, 1, 2, 0, 1) == 4
    assert dd_regular(4, 1, 2, 0, 2) == 6
    assert dd_regular(4, 1, 2, 1, 0) == 0
    assert dd_regular(4, 1, 2, 1, 1) == 0


def test_irregular_trivial_cell():
    assert comp_irregular(mixed_spec(), 0, 0) == 1
    assert dd_irregular(mixed_spec(), 0, 0) == 1


def test_single_item_single_partner_anchor():
    # (4,1,2): a lone defective's test partner is always the one false alarm.
    assert comp_regular(4, 1, 2, 1, 1) == 4
    assert comp_regular(4, 1, 2, 1, 0) == 0
    assert comp_regular(4, 1, 2, 1, 2) == 0


def test_two_defective_anchor_cells():
    # (4,1,2) with two defectives: either they share a test (no false alarms,
    # 2 of 6 pairings... weighted over matchings) or they cover both tests.
    assert comp_regular(4, 1, 2, 2, 0) == 2
    assert comp_regular(4, 1, 2, 2, 1) == 0
    assert comp_regular(4, 1, 2, 2, 2) == 4


def test_pair_in_single_test_is_never_resolved():
    # (2,1,2): one test holding both items.
    assert dd_regular(2, 1, 2, 1, 0) == 0
    assert dd_regular(2, 1, 2, 0, 1) == 2
    assert dd_regular(2, 1, 2, 0, 2) == 1


@pytest.mark.parametrize("n,l,r", [(4, 1, 2), (4, 2, 2), (6, 2, 3)])
def test_regular_row_sums(n, l, r):
    spec = regular_spec(n, l, r)
    for algorithm in Algorithm:
        table = build_table(spec, algorithm)
        sums = table.row_sums()
        for a in range(n + 1):
            assert sums[a] == binomial(n, a)


def test_mixed_spec_row_sums():
    for algorithm in Algorithm:
        assert build_table(mixed_spec(), algorithm).check_row_sums()


def test_nonnegative_values():
    for algorithm in Algorithm:
        for value in build_table(regular_spec(6, 2, 3), algorithm).values.values():
            assert value >= 0


@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_regular_and_general_routes_agree_comp(i, j):
    assert comp_irregular(regular_spec(4, 2, 2), i, j) == comp_regular(4, 2, 2, i, j)


@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_regular_and_general_routes_agree_dd(i, j):
    assert dd_irregular(regular_spec(4, 2, 2), i, j) == dd_regular(4, 2, 2, i, j)


def _bracket(arity, d):
    # (1 + x_0 + ... + x_{arity-1})^d - (x_0 + ... + x_{arity-1})^d
    spread = SparsePoly.sum_of_variables(arity, range(arity))
    return (SparsePoly.constant(arity, 1) + spread) ** d - spread**d


def _dd_test_polynomial(r):
    # (1 + y1 + y2 + y3)^r - (y1 + y2)^r - r y1^(r-1) (1 + y3)
    y1, y2, y3 = (SparsePoly.sum_of_variables(3, [v]) for v in range(3))
    one = SparsePoly.constant(3, 1)
    sole = SparsePoly.monomial(3, (r - 1, 0, 0), r) * (one + y3)
    return (one + y1 + y2 + y3) ** r - (y1 + y2) ** r - sole


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(0, 6))
def test_one_variable_bracket_powers_match_sparse_powers(l, q):
    power = poly_pow(_bracket(1, l), q)
    forms = _ClosedForms(0)
    for y in range(l * q + 2):
        assert forms.at_least_one(l, q, y) == power.coefficient((y,))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(0, 6))
def test_two_variable_bracket_powers_match_sparse_powers(d, b):
    # COMP's test polynomial (d = r) and DD's dismissed-item polynomial (d = l).
    power = poly_pow(_bracket(2, d), b)
    forms = _ClosedForms(0)
    top = d * b + 1
    for a1 in range(top + 1):
        for a2 in range(top + 1):
            assert forms.at_least_one(d, b, a1, a2) == power.coefficient((a1, a2))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(0, 6))
def test_dd_test_polynomial_powers_match_sparse_powers(r, b):
    power = poly_pow(_dd_test_polynomial(r), b)
    forms = _ClosedForms(0)
    top = r * b + 1
    for a1 in range(top + 1):
        for a2 in range(top + 1):
            for a3 in range(top + 1):
                assert forms.dd_g(r, b, a1, a2, a3) == power.coefficient((a1, a2, a3))


def test_regular_route_builds_no_polynomial(monkeypatch):
    import poolgraph.enumerator as enumerator

    spec = regular_spec(6, 2, 3)
    comp_expected = comp_irregular(spec, 2, 1)
    dd_expected = dd_irregular(spec, 2, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("regular route touched the polynomial layer")

    for name in ("SparsePoly", "poly_add", "poly_mul", "poly_pow", "poly_product_of_powers"):
        monkeypatch.setattr(enumerator, name, refuse)
    assert enumerator._comp_regular_table(6, 2, 3)[(2, 1)] == comp_expected
    assert enumerator._dd_regular_table(6, 2, 3)[(3, 1)] == dd_expected
    assert comp_regular(6, 2, 3, 2, 1) == comp_expected
    assert dd_regular(6, 2, 3, 2, 1) == dd_expected


def test_out_of_range_cells_rejected():
    with pytest.raises(ValueError):
        comp_regular(4, 1, 2, 3, 2)
    with pytest.raises(ValueError):
        dd_regular(4, 1, 2, -1, 0)
    with pytest.raises(ValueError):
        comp_irregular(mixed_spec(), 2, 2)


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


def test_probability_rejects_wrong_algorithm():
    comp = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    dd = build_table(regular_spec(4, 1, 2), Algorithm.DD)
    with pytest.raises(ValueError):
        fa_probability(dd, Fraction(1, 2))
    with pytest.raises(ValueError):
        md_probability(comp, Fraction(1, 2))


def test_probability_rejects_floats_and_out_of_range():
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    with pytest.raises(TypeError):
        fa_probability(table, 0.5)
    with pytest.raises(ValueError):
        fa_probability(table, Fraction(3, 2))


def test_incomplete_table_rejected():
    spec = regular_spec(4, 1, 2)
    full = build_table(spec, Algorithm.COMP)
    partial = EnumeratorTable(
        algorithm=Algorithm.COMP,
        spec=spec,
        values={k: v for k, v in full.values.items() if k != (2, 1)},
    )
    with pytest.raises(ValueError, match="incomplete"):
        fa_probability(partial, Fraction(1, 2))


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


@settings(deadline=None, max_examples=25)
@given(st.fractions(min_value=0, max_value=1))
def test_fa_probability_matches_horner_form(delta):
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    coeffs = polynomial_coefficients(table, Algorithm.COMP)
    horner = Fraction(0)
    for c in reversed(coeffs):
        horner = horner * delta + c
    assert fa_probability(table, delta) == horner


@settings(deadline=None, max_examples=25)
@given(st.fractions(min_value=0, max_value=1))
def test_md_probability_matches_horner_form(delta):
    table = build_table(regular_spec(4, 2, 2), Algorithm.DD)
    coeffs = polynomial_coefficients(table, Algorithm.DD)
    horner = Fraction(0)
    for c in reversed(coeffs):
        horner = horner * delta + c
    assert md_probability(table, delta) == horner


def test_table_domain_shapes():
    comp_keys = set(table_domain(3, Algorithm.COMP))
    dd_keys = set(table_domain(3, Algorithm.DD))
    assert (0, 3) in comp_keys and (3, 1) not in comp_keys
    assert (3, 3) in dd_keys and (0, 1) not in dd_keys
    assert len(comp_keys) == len(dd_keys) == 10


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
