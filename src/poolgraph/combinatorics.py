"""Exact integer and rational combinatorics.

All counting here is exact: big integers for binomial/multinomial
coefficients, `fractions.Fraction` for every probability or ensemble
average. Nothing in this module (or anything downstream of it) ever
rounds; decimal strings are produced only for display via `to_decimal`.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

DEFAULT_DECIMAL_DIGITS = 12


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial: n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...) for non-negative parts summing to n."""
    if n < 0:
        raise ValueError(f"multinomial: n must be non-negative, got {n}")
    total = 0
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial: negative part {p}")
        total += p
    if total != n:
        raise ValueError(f"multinomial: parts sum to {total}, expected {n}")
    out = 1
    remaining = n
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def to_decimal(value: Fraction, digits: int = DEFAULT_DECIMAL_DIGITS) -> str:
    """Render an exact rational as a decimal string with `digits` significant digits.

    Rendering is locale-independent and deterministic; it is the only lossy
    step in the package and exists purely for CSV/display output.
    """
    if digits < 1:
        raise ValueError(f"to_decimal: digits must be >= 1, got {digits}")
    value = Fraction(value)
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        rendered = Decimal(value.numerator) / Decimal(value.denominator)
    return str(rendered)


def exact_delta(delta) -> Fraction:
    """A prevalence as an exact rational in [0, 1].

    Accepts int, str ("1/20") or Fraction. A float raises TypeError: 0.05 is
    not 1/20 in binary, and silently absorbing the difference would defeat
    the exact tables.
    """
    if isinstance(delta, float):
        raise TypeError(
            "delta must be exact (int, str, or Fraction); floats silently misstate "
            "values like 0.05 in binary"
        )
    value = Fraction(delta)
    if not 0 <= value <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {value}")
    return value
