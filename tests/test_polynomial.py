"""Truncated sparse-polynomial arithmetic against a naive expansion oracle.

The oracle below multiplies term lists with no packing, no caps, no
shortcuts. Expected values in the frozen tests were computed with it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolgraph.combinatorics import multinomial
from poolgraph.polynomial import (
    SparsePoly,
    poly_add,
    poly_mul,
    poly_pow,
    poly_product_of_powers,
)


def naive_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def naive_pow(terms, k):
    out = {(0,) * len(next(iter(terms))): 1} if terms else {}
    for _ in range(k):
        out = naive_mul(out, terms)
    return out


def trim(terms, caps):
    return {e: c for e, c in terms.items() if all(x <= cap for x, cap in zip(e, caps))}


def as_poly(arity, terms, caps=None):
    return SparsePoly(arity, terms, caps)


ONE_PLUS_S = {(0,): 1, (1,): 1}
S = {(1,): 1}


def test_add_examples():
    one_plus_x = as_poly(1, ONE_PLUS_S)
    x = as_poly(1, S)
    assert dict(poly_add(one_plus_x, x).items()) == {(0,): 1, (1,): 2}
    assert poly_add(one_plus_x, SparsePoly.zero(1)) == one_plus_x


def test_add_cancels_squares():
    base = as_poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    minus = as_poly(2, {(1, 0): 1, (0, 1): 1})
    total = poly_add(poly_pow(base, 2), -poly_pow(minus, 2))
    assert dict(total.items()) == {(0, 0): 1, (1, 0): 2, (0, 1): 2}


def test_mul_square_of_binomial():
    p = as_poly(1, ONE_PLUS_S)
    assert dict(poly_mul(p, p).items()) == {(0,): 1, (1,): 2, (2,): 1}


def test_mul_truncates_at_caps():
    p = as_poly(1, ONE_PLUS_S)
    assert dict(poly_mul(p, p, caps=(1,)).items()) == {(0,): 1, (1,): 2}


def test_mul_frozen_coefficient():
    base = {(0,): 1, (1,): 3, (2,): 3}
    assert naive_mul(base, base)[(2,)] == 15
    p = as_poly(1, base)
    assert poly_mul(p, p).coefficient((2,)) == 15


def test_coeff_frozen_fourth_power_term():
    base = {(0,): 1, (1,): 3, (2,): 3}
    assert naive_mul(base, base)[(4,)] == 9
    p = as_poly(1, base)
    assert poly_mul(p, p).coefficient((4,)) == 9


def test_pow_frozen_bivariate_coefficient():
    # ((1+x+y)^3 - (x+y)^3) squared, term x^0 y^3.
    full = naive_pow({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 3)
    hollow = naive_pow({(1, 0): 1, (0, 1): 1}, 3)
    base = {e: full.get(e, 0) - hollow.get(e, 0) for e in full | hollow}
    base = {e: c for e, c in base.items() if c}
    assert naive_mul(base, base)[(0, 3)] == 18

    p = poly_add(
        poly_pow(as_poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), 3),
        -poly_pow(as_poly(2, {(1, 0): 1, (0, 1): 1}), 3),
    )
    assert poly_pow(p, 2).coefficient((0, 3)) == 18


def test_pow_zero_is_one():
    p = as_poly(1, ONE_PLUS_S)
    assert dict(poly_pow(p, 0).items()) == {(0,): 1}


def test_pow_collapsed_binomial():
    # (1+s)^2 - s^2 = 1 + 2s; cubed by the oracle.
    squared = naive_pow(ONE_PLUS_S, 2)
    squared[(2,)] -= 1
    expected = naive_pow({e: c for e, c in squared.items() if c}, 3)
    assert expected == {(0,): 1, (1,): 6, (2,): 12, (3,): 8}
    p = poly_add(poly_pow(as_poly(1, ONE_PLUS_S), 2), -poly_pow(as_poly(1, S), 2))
    assert dict(poly_pow(p, 3).items()) == expected


def test_coeff_examples():
    p = as_poly(2, {(0, 0): 1, (1, 0): 2, (0, 1): 2})
    assert p.coefficient((1, 0)) == 2
    assert p.coefficient((1, 1)) == 0


def test_product_of_powers_single_factor():
    p = as_poly(1, ONE_PLUS_S)
    assert poly_product_of_powers([(p, 1)]) == p


def test_product_of_powers_exponents_add():
    p = as_poly(1, ONE_PLUS_S)
    combined = poly_product_of_powers([(p, 2), (p, 3)])
    assert combined == poly_pow(p, 5)


def test_product_of_powers_two_brackets():
    # ((1+x1+x2+x3)^2 - (x2+x3)^2) squared, all coefficients.
    full = naive_pow({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 2)
    hollow = naive_pow({(0, 1, 0): 1, (0, 0, 1): 1}, 2)
    bracket = {e: full.get(e, 0) - hollow.get(e, 0) for e in full | hollow}
    bracket = {e: c for e, c in bracket.items() if c}
    expected = naive_mul(bracket, bracket)

    poly_bracket = poly_add(
        poly_pow(as_poly(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), 2),
        -poly_pow(as_poly(3, {(0, 1, 0): 1, (0, 0, 1): 1}), 2),
    )
    assert dict(poly_product_of_powers([(poly_bracket, 2)]).items()) == expected


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        poly_add(as_poly(1, ONE_PLUS_S), as_poly(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        poly_mul(as_poly(1, ONE_PLUS_S), as_poly(2, {(0, 0): 1}))


def test_constructor_drops_zero_terms_and_over_cap_terms():
    p = as_poly(1, {(0,): 1, (1,): 0, (5,): 3}, caps=(2,))
    assert dict(p.items()) == {(0,): 1}


def test_poly_is_immutable():
    p = as_poly(1, ONE_PLUS_S)
    with pytest.raises(AttributeError):
        p.terms = {}


exponent_vectors = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))


def sparse_terms(max_terms=5):
    return st.dictionaries(
        exponent_vectors, st.integers(-6, 6).filter(bool), min_size=0, max_size=max_terms
    )


@given(sparse_terms(), sparse_terms(), sparse_terms())
def test_mul_associative(a, b, c):
    pa, pb, pc = (as_poly(3, t) for t in (a, b, c))
    assert poly_mul(poly_mul(pa, pb), pc) == poly_mul(pa, poly_mul(pb, pc))


@given(sparse_terms(), sparse_terms(), sparse_terms())
def test_mul_distributes_over_add(a, b, c):
    pa, pb, pc = (as_poly(3, t) for t in (a, b, c))
    left = poly_mul(pa, poly_add(pb, pc))
    right = poly_add(poly_mul(pa, pb), poly_mul(pa, pc))
    assert left == right


cap_vectors = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))


@given(sparse_terms(), sparse_terms(), cap_vectors, cap_vectors, st.data())
def test_mul_of_differently_capped_operands_is_trimmed_naive_product(a, b, caps_a, caps_b, data):
    # Without explicit caps the product keeps the operands' merged caps;
    # explicit caps narrower than both replace them.
    merged = tuple(map(min, caps_a, caps_b))
    narrower = data.draw(st.tuples(*(st.integers(0, c) for c in merged)))
    pa, pb = as_poly(3, a, caps_a), as_poly(3, b, caps_b)
    for caps, effective in ((None, merged), (narrower, narrower)):
        product = poly_mul(pa, pb, caps)
        assert product.caps == effective
        assert dict(product.items()) == trim(naive_mul(a, b), effective)


@given(
    st.dictionaries(exponent_vectors, st.integers(-6, 6).filter(bool), min_size=1, max_size=4),
    st.integers(0, 5),
)
def test_pow_matches_naive_oracle(a, k):
    pa = as_poly(3, a)
    assert dict(poly_pow(pa, k).items()) == naive_pow(a, k)


@settings(deadline=None)
@given(
    sparse_terms(max_terms=4),
    st.integers(0, 5),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
)
def test_truncated_pow_equals_filtered_pow(terms, k, caps):
    full = poly_pow(as_poly(3, terms), k)
    truncated = poly_pow(as_poly(3, terms), k, caps=caps)
    assert dict(truncated.items()) == trim(dict(full.items()), caps)


@settings(deadline=None)
@given(sparse_terms(max_terms=4), st.integers(0, 4), exponent_vectors)
def test_coeff_invariant_to_sufficient_caps(terms, k, target):
    full = poly_pow(as_poly(3, terms), k).coefficient(target)
    capped = poly_pow(as_poly(3, terms), k, caps=target).coefficient(target)
    assert full == capped


@given(st.integers(1, 4), st.integers(0, 6))
def test_multinomial_expansion_coefficients(arity, n):
    p = SparsePoly.sum_of_variables(arity, range(arity))
    expanded = poly_pow(p, n)
    for exps, value in expanded.items():
        assert value == multinomial(n, list(exps))
