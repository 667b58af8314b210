import io
import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal, Inexact, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from poolgraph import montecarlo, oracle
from poolgraph.combinatorics import binomial, exact_delta, multinomial, to_decimal
from poolgraph.detection import Algorithm
from poolgraph.ensemble import regular_spec
from poolgraph.enumerator import build_table, fa_probability, md_probability, write_table_csv


def pascal_rows(count):
    rows = [[1]]
    for _ in range(count):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def test_binomial_matches_pascal_triangle():
    rows = pascal_rows(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]
    assert rows[30][3] == 4060


def test_binomial_30_3():
    assert binomial(30, 3) == 4060


def test_binomial_out_of_range_is_zero():
    assert binomial(5, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 60), st.integers(-10, 70))
def test_binomial_factorial_oracle(n, k):
    if 0 <= k <= n:
        expected = math.factorial(n) // (math.factorial(k) * math.factorial(n - k))
    else:
        expected = 0
    assert binomial(n, k) == expected


@given(st.integers(0, 25))
def test_binomial_row_sum(n):
    assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_multinomial_examples():
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(6, [1, 2, 3]) == 60
    assert multinomial(3, [3]) == 1
    assert multinomial(0, []) == 1


def test_multinomial_factorial_oracle():
    parts = [3, 1, 4, 2]
    expected = math.factorial(10)
    for p in parts:
        expected //= math.factorial(p)
    assert multinomial(10, parts) == expected


def test_multinomial_sum_mismatch_rejected():
    with pytest.raises(ValueError):
        multinomial(5, [2, 2])
    with pytest.raises(ValueError):
        multinomial(4, [5, -1])


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_multinomial_matches_iterated_factorials(parts):
    n = sum(parts)
    expected = math.factorial(n)
    for p in parts:
        expected //= math.factorial(p)
    assert multinomial(n, parts) == expected


@given(st.integers(0, 30), st.integers(0, 30))
def test_multinomial_two_parts_is_binomial(n, k):
    if k <= n:
        assert multinomial(n, [k, n - k]) == binomial(n, k)


def test_to_decimal_basics():
    assert to_decimal(Fraction(0)) == "0"
    assert to_decimal(Fraction(1, 8)) == "0.125"
    assert to_decimal(Fraction(-1, 4)) == "-0.25"
    assert to_decimal(Fraction(1, 3)) == "0.333333333333"
    assert to_decimal(Fraction(1, 3), digits=4) == "0.3333"


def test_to_decimal_small_values_use_exponent():
    rendered = to_decimal(Fraction(1, 10**20))
    assert Decimal(rendered) == Decimal(1).scaleb(-20)


def test_rendering_ignores_the_callers_decimal_context():
    values = [Fraction(2, 3), Fraction(-1, 3), Fraction(1, 10**20), Fraction(10**40, 3), Fraction(1, 8)]
    table = build_table(regular_spec(6, 2, 3), Algorithm.COMP)

    def render():
        csv_text = io.StringIO()
        write_table_csv(table, csv_text)
        return [to_decimal(v) for v in values], csv_text.getvalue()

    expected = render()
    assert expected[0][:4] == ["0.666666666667", "-0.333333333333", "1E-20", "3.33333333333E+39"]
    with localcontext() as ambient:
        ambient.rounding, ambient.capitals, ambient.Emin = ROUND_DOWN, 0, -5
        ambient.traps[Inexact] = True
        settings = (ambient.prec, ambient.rounding, ambient.Emin, ambient.Emax, ambient.capitals, ambient.clamp)
        traps, flags = dict(ambient.traps), dict(ambient.flags)
        assert render() == expected
        assert (ambient.prec, ambient.rounding, ambient.Emin, ambient.Emax, ambient.capitals, ambient.clamp) == settings
        assert dict(ambient.traps) == traps and dict(ambient.flags) == flags


big = st.integers(-(10**500) + 1, 10**500 - 1)


@given(st.lists(st.tuples(big, big.filter(bool), st.integers(1, 60)), min_size=1, max_size=6))
def test_to_decimal_is_a_division_in_a_fresh_context(calls):
    # Calls at different precisions interleave, so a reused context must not carry state between them.
    values = [(Fraction(p, q), digits) for p, q, digits in calls]
    rendered = [to_decimal(value, digits) for value, digits in values]
    for (value, digits), text in zip(values, rendered):
        ctx = Context(digits, ROUND_HALF_EVEN, MIN_EMIN, MAX_EMAX, capitals=1, clamp=0, flags=[], traps=[])
        assert text == ctx.to_sci_string(ctx.divide(Decimal(value.numerator), Decimal(value.denominator)))


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100)))
def test_to_decimal_parses_back_close(value):
    rendered = to_decimal(value, digits=15)
    assert abs(Decimal(rendered) - Decimal(value.numerator) / Decimal(value.denominator)) <= Decimal(
        "1e-10"
    )


def test_exact_delta_accepts_exact_values_only():
    assert exact_delta("1/20") == Fraction(1, 20)
    assert exact_delta(0) == 0 and exact_delta(Fraction(1)) == 1
    for inexact in (0.05, True):
        with pytest.raises(TypeError, match="exact"):
            exact_delta(inexact)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        exact_delta(Fraction(-1, 3))
    with pytest.raises(ValueError):
        exact_delta("3/2")


SMALL = regular_spec(4, 2, 2)


@pytest.mark.parametrize("call", [
    exact_delta,
    lambda d: fa_probability(build_table(SMALL, Algorithm.COMP), d),
    lambda d: md_probability(build_table(SMALL, Algorithm.DD), d),
    lambda d: montecarlo.check_run(SMALL, [d], 1, 1, 0),
    lambda d: montecarlo.simulate(SMALL, Algorithm.COMP, d, 1, 1, 0),
    lambda d: montecarlo.sweep(SMALL, Algorithm.DD, ["1/2", d], 1, 1, 0),
    lambda d: oracle.exact_error_probability(SMALL, Algorithm.DD, d),
], ids=["exact_delta", "fa_probability", "md_probability", "check_run", "simulate", "sweep", "oracle"])
def test_a_zero_denominator_delta_is_a_value_error_at_every_library_entry_point(call):
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        call("1/0")
