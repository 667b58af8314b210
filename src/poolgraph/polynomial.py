"""Sparse multivariate polynomials over arbitrary-precision integers.

The enumerator formulas only ever need a handful of coefficients from huge
powers of small generating polynomials, so everything here is organized
around truncated arithmetic: a polynomial may carry per-variable exponent
caps, and every product drops monomials exceeding them. Because all
exponents are non-negative, a monomial above the caps can never contribute
to a kept coefficient later, so truncation is exact for the retained terms
(this is asserted by property tests, not just assumed).

Polynomials are immutable values: every operation returns a new instance.

Out of scope by design: division, GCD, factorization, floating-point
evaluation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

Exponents = Tuple[int, ...]
Caps = Tuple[int, ...]

__all__ = [
    "SparsePoly",
    "poly_add",
    "poly_mul",
    "poly_pow",
    "poly_product_of_powers",
]


def _merged_caps(a: Optional[Caps], b: Optional[Caps]) -> Optional[Caps]:
    if a is None:
        return b
    if b is None:
        return a
    return tuple(min(x, y) for x, y in zip(a, b))


def _within(exps: Exponents, caps: Caps) -> bool:
    for e, c in zip(exps, caps):
        if e > c:
            return False
    return True


class _Packer:
    """Packs exponent tuples into single integers for the hot multiply loop.

    Field widths are sized so that the sum of two in-cap exponent vectors
    never overflows a field, and so the guard-bit trick below decides
    "component-wise <= caps" with one subtraction and one mask: field v gets
    width w_v with 2^(w_v - 1) > 2 * cap_v, guard bit at the top of the
    field. For e with all fields <= 2*cap_v, (packed_caps + guards) - e
    keeps every guard bit set iff every field of e is <= its cap; no borrow
    ever crosses a field boundary because fields cannot go negative.
    """

    __slots__ = ("offsets", "widths", "caps_plus_guard", "guard_mask")

    def __init__(self, caps: Caps):
        offsets = []
        widths = []
        off = 0
        for cap in caps:
            w = max((2 * cap).bit_length() + 1, 2)
            offsets.append(off)
            widths.append(w)
            off += w
        self.offsets = tuple(offsets)
        self.widths = tuple(widths)
        guard = 0
        packed_caps = 0
        for cap, o, w in zip(caps, offsets, widths):
            guard |= 1 << (o + w - 1)
            packed_caps |= cap << o
        self.guard_mask = guard
        self.caps_plus_guard = packed_caps | guard

    def pack(self, exps: Exponents) -> int:
        out = 0
        for e, o in zip(exps, self.offsets):
            out |= e << o
        return out

    def unpack(self, packed: int) -> Exponents:
        out = []
        for o, w in zip(self.offsets, self.widths):
            out.append((packed >> o) & ((1 << w) - 1))
        return tuple(out)


@lru_cache(maxsize=256)
def _packer_for(caps: Caps) -> _Packer:
    return _Packer(caps)


def _mul_capped(at: Mapping[Exponents, int], bt: Mapping[Exponents, int], caps: Caps) -> dict:
    packer = _packer_for(caps)
    pack = packer.pack
    ap = {}
    for e, c in at.items():
        if _within(e, caps):
            ap[pack(e)] = c
    bp = {}
    for e, c in bt.items():
        if _within(e, caps):
            bp[pack(e)] = c
    if len(ap) < len(bp):
        ap, bp = bp, ap
    out: dict = {}
    get = out.get
    cg = packer.caps_plus_guard
    guard = packer.guard_mask
    for eb, cb in bp.items():
        lim = cg - eb
        for ea, ca in ap.items():
            e = ea + eb
            if (lim - ea) & guard == guard:
                v = get(e)
                out[e] = ca * cb if v is None else v + ca * cb
    unpack = packer.unpack
    return {unpack(e): c for e, c in out.items() if c}


def _mul_plain(at: Mapping[Exponents, int], bt: Mapping[Exponents, int]) -> dict:
    if len(at) < len(bt):
        at, bt = bt, at
    out: dict = {}
    get = out.get
    for eb, cb in bt.items():
        for ea, ca in at.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = get(e)
            out[e] = ca * cb if v is None else v + ca * cb
    return {e: c for e, c in out.items() if c}


class SparsePoly:
    """Immutable sparse polynomial: map from exponent tuple to integer coefficient.

    Invariants: no stored zero coefficients; every exponent tuple has length
    `arity` with non-negative entries; if `caps` is set, every stored
    exponent vector is component-wise <= caps.
    """

    __slots__ = ("arity", "terms", "caps")

    def __init__(
        self,
        arity: int,
        terms: Optional[Mapping[Sequence[int], int]] = None,
        caps: Optional[Sequence[int]] = None,
    ):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        norm_caps: Optional[Caps] = None
        if caps is not None:
            norm_caps = tuple(int(c) for c in caps)
            if len(norm_caps) != arity:
                raise ValueError(f"caps length {len(norm_caps)} != arity {arity}")
            if any(c < 0 for c in norm_caps):
                raise ValueError(f"caps must be non-negative, got {norm_caps}")
        norm_terms: dict = {}
        if terms:
            for exps, coef in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != arity:
                    raise ValueError(f"exponent tuple {key} has length != arity {arity}")
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                if not isinstance(coef, int):
                    raise TypeError(f"coefficient {coef!r} is not an integer")
                if coef == 0:
                    continue
                if norm_caps is not None and not _within(key, norm_caps):
                    continue
                norm_terms[key] = norm_terms.get(key, 0) + coef
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", {e: c for e, c in norm_terms.items() if c})
        object.__setattr__(self, "caps", norm_caps)

    # Fast internal constructor: trusts terms already normalized.
    @classmethod
    def _raw(cls, arity: int, terms: dict, caps: Optional[Caps]) -> "SparsePoly":
        obj = object.__new__(cls)
        object.__setattr__(obj, "arity", arity)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "caps", caps)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def zero(cls, arity: int, caps: Optional[Sequence[int]] = None) -> "SparsePoly":
        return cls(arity, {}, caps)

    @classmethod
    def constant(cls, arity: int, value: int, caps: Optional[Sequence[int]] = None) -> "SparsePoly":
        return cls(arity, {(0,) * arity: value}, caps)

    @classmethod
    def monomial(
        cls,
        arity: int,
        exponents: Sequence[int],
        coefficient: int = 1,
        caps: Optional[Sequence[int]] = None,
    ) -> "SparsePoly":
        return cls(arity, {tuple(exponents): coefficient}, caps)

    @classmethod
    def sum_of_variables(
        cls, arity: int, indices: Iterable[int], caps: Optional[Sequence[int]] = None
    ) -> "SparsePoly":
        terms = {}
        for i in indices:
            exps = [0] * arity
            exps[i] = 1
            terms[tuple(exps)] = 1
        return cls(arity, terms, caps)

    def with_caps(self, caps: Optional[Sequence[int]]) -> "SparsePoly":
        return SparsePoly(self.arity, self.terms, caps)

    def coefficient(self, exponents: Sequence[int]) -> int:
        key = tuple(exponents)
        if len(key) != self.arity:
            raise ValueError(f"exponent tuple {key} has length != arity {self.arity}")
        return self.terms.get(key, 0)

    def items(self) -> Iterator[Tuple[Exponents, int]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._raw(self.arity, {e: -c for e, c in self.terms.items()}, self.caps)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return poly_add(self, other)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return poly_add(self, -other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return poly_mul(self, other)

    def __pow__(self, k: int) -> "SparsePoly":
        return poly_pow(self, k)

    def __repr__(self) -> str:
        if len(self.terms) > 8:
            return f"SparsePoly(arity={self.arity}, terms={len(self.terms)}, caps={self.caps})"
        body = " + ".join(
            f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items())
        )
        return f"SparsePoly({body or '0'})"


def poly_add(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """Sum of two polynomials; caps become the component-wise min if either is capped."""
    if a.arity != b.arity:
        raise ValueError(f"arity mismatch: {a.arity} != {b.arity}")
    caps = _merged_caps(a.caps, b.caps)
    terms = dict(a.terms)
    for e, c in b.terms.items():
        v = terms.get(e, 0) + c
        if v:
            terms[e] = v
        else:
            terms.pop(e, None)
    if caps is not None:
        terms = {e: c for e, c in terms.items() if _within(e, caps)}
    return SparsePoly._raw(a.arity, terms, caps)


def poly_mul(a: SparsePoly, b: SparsePoly, caps: Optional[Sequence[int]] = None) -> SparsePoly:
    """Product, truncated to `caps` (or to the operands' merged caps)."""
    if a.arity != b.arity:
        raise ValueError(f"arity mismatch: {a.arity} != {b.arity}")
    eff: Optional[Caps]
    if caps is not None:
        eff = tuple(int(c) for c in caps)
        if len(eff) != a.arity:
            raise ValueError(f"caps length {len(eff)} != arity {a.arity}")
    else:
        eff = _merged_caps(a.caps, b.caps)
    if not a.terms or not b.terms:
        return SparsePoly._raw(a.arity, {}, eff)
    if eff is None:
        terms = _mul_plain(a.terms, b.terms)
    else:
        terms = _mul_capped(a.terms, b.terms, eff)
    return SparsePoly._raw(a.arity, terms, eff)


def poly_pow(p: SparsePoly, k: int, caps: Optional[Sequence[int]] = None) -> SparsePoly:
    """p**k by binary exponentiation (O(log k) multiplies), truncating throughout."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    eff: Optional[Caps]
    if caps is not None:
        eff = tuple(int(c) for c in caps)
    else:
        eff = p.caps
    result = SparsePoly.constant(p.arity, 1, eff)
    if k == 0:
        return result
    base = p.with_caps(eff) if eff is not None else p
    while True:
        if k & 1:
            result = poly_mul(result, base, eff)
        k >>= 1
        if not k:
            return result
        base = poly_mul(base, base, eff)


def poly_product_of_powers(
    factors: Iterable[Tuple[SparsePoly, int]], caps: Optional[Sequence[int]] = None
) -> SparsePoly:
    """Product of factor**power over all (factor, power) pairs, truncated to caps.

    Exactly the shape the degree-indexed generating functions take: one
    factor per distinct node degree, raised to the node count.
    """
    items = list(factors)
    if not items:
        raise ValueError("poly_product_of_powers: empty factor list")
    arity = items[0][0].arity
    result = SparsePoly.constant(arity, 1, caps)
    for p, k in items:
        if p.arity != arity:
            raise ValueError(f"arity mismatch: {p.arity} != {arity}")
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"power must be a non-negative integer, got {k!r}")
        result = poly_mul(result, poly_pow(p, k, caps), caps)
    return result
