"""Truncated power series and Laurent polynomials over Z/p^N.

A series stores its coefficients as a residue vector: ints mod p^prec,
one precision for the whole series.  Every product goes through
`polymul`, a Kronecker-substitution kernel.  Provides the operators the
congruence machinery needs: truncation below a degree, ring arithmetic
up to the truncation order, the Frobenius substitution t -> c t^p, the
logarithmic integral (plain and a-twisted) and t -> 1/t reversal on
finite Laurent objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .padic import (
    NotDivisible,
    Padic,
    PadicError,
    PrecisionExhausted,
    Rational,
    embed_rational,
    vp,
)


class NonzeroConstantTerm(PadicError):
    """The untwisted logarithmic integral needs a vanishing constant term."""


def polymul(a: Sequence[int], b: Sequence[int], modulus: int, n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of the product a*b mod modulus.

    a and b hold residues in [0, modulus), lowest degree first.  Kronecker
    substitution: each vector is packed into one integer at a byte-aligned
    slot wide enough for any coefficient of the exact product, the two
    integers are multiplied once, and the product is unpacked by slicing
    its bytes."""
    a, b = a[:n_out], b[:n_out]
    if not a or not b:
        return [0] * n_out
    width = ((modulus - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1

    def pack(v: Sequence[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in v), "little")

    slots = min(len(a) + len(b) - 1, n_out)
    raw = (pack(a) * pack(b)).to_bytes((len(a) + len(b) - 1) * width, "little")
    out = [int.from_bytes(raw[i:i + width], "little") % modulus
           for i in range(0, slots * width, width)]
    return out + [0] * (n_out - slots)


@dataclass(frozen=True)
class TruncSeries:
    """A power series truncated at t^order, coefficients in Z/p^prec."""

    p: int
    prec: int
    residues: tuple[int, ...]

    @classmethod
    def from_rationals(cls, values: Sequence[Rational], p: int, prec: int) -> "TruncSeries":
        return cls(p, prec, tuple(embed_rational(v, p, prec).residue for v in values))

    @property
    def order(self) -> int:
        return len(self.residues)

    @property
    def coeffs(self) -> tuple[Padic, ...]:
        return tuple(Padic(self.p, self.prec, r) for r in self.residues)

    def reduce(self, prec: int) -> "TruncSeries":
        if prec > self.prec:
            raise PrecisionExhausted(f"only {self.prec} digits known, {prec} requested")
        m = self.p ** prec
        return TruncSeries(self.p, prec, tuple(r % m for r in self.residues))

    def truncate_below(self, m: int) -> "TruncSeries":
        """[f]_{<m}: drop coefficients of t^m and above."""
        if m < 0:
            m = 0
        if m > self.order:
            raise ValueError(f"only {self.order} coefficients known, {m} requested")
        return TruncSeries(self.p, self.prec, self.residues[:m])

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        prec = min(self.prec, other.prec)
        m = self.p ** prec
        return TruncSeries(self.p, prec, tuple((x + y) % m for x, y in zip(self.residues, other.residues)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        prec = min(self.prec, other.prec)
        m = self.p ** prec
        return TruncSeries(self.p, prec, tuple((x - y) % m for x, y in zip(self.residues, other.residues)))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        return self._product(other, min(self.order, other.order))

    def mul_poly(self, other: "TruncSeries") -> "TruncSeries":
        """Full polynomial product, no truncation to the minimum order."""
        both = self.order and other.order
        return self._product(other, self.order + other.order - 1 if both else 0)

    def _product(self, other: "TruncSeries", n: int) -> "TruncSeries":
        prec = min(self.prec, other.prec)
        a, b = self.reduce(prec).residues, other.reduce(prec).residues
        return TruncSeries(self.p, prec, tuple(polymul(a, b, self.p ** prec, n)))


def frobenius_substitute(f: TruncSeries, c: Padic, out_order: int) -> TruncSeries:
    """Apply sigma: coefficient a_i moves to index i*p scaled by c^i.
    Coefficients act through the identity Frobenius, matching
    Z_p-restricted scalars."""
    p = f.p
    prec = min(f.prec, c.prec) if f.order else c.prec
    m = p ** prec
    out = [0] * out_order
    power = 1
    for i, r in enumerate(f.residues):
        if i * p >= out_order:
            break
        out[i * p] = r * power % m
        power = power * c.residue % m
    return TruncSeries(p, prec, tuple(out))


def log_integral(f: TruncSeries, twist: Optional[Rational] = None) -> TruncSeries:
    """The operator int_0^t (.) dt/t on coefficients.

    Untwisted: c_k -> c_k / k for k >= 1 (the constant term must vanish and
    maps to 0).  Twisted by a: c_k -> c_k / (k + a), realizing
    t^{-a} int t^a (.) dt/t coefficientwise.  The result carries the
    input precision less the largest valuation of a divisor."""
    p = f.p
    if twist is None:
        if f.order and f.residues[0] != 0:
            raise NonzeroConstantTerm("constant term must vanish")
        start, a = 1, Fraction(0)
    else:
        a = Fraction(twist)
        if (a.denominator == 1 and a <= 0) or a.denominator % p == 0:
            raise ValueError("twist must lie in Z_p and avoid nonpositive integers")
        start = 0
    divisors = [k + a for k in range(start, f.order)]
    loss = max((vp(d, p) for d in divisors), default=0)
    prec = f.prec - loss
    if divisors and prec <= 0:
        raise PrecisionExhausted("division leaves no digits")
    m = p ** prec
    out = [0] * start
    for r, d in zip(f.residues[start:], divisors):
        v = vp(d, p)
        quotient, rest = divmod(r, p ** v)
        if rest:
            raise NotDivisible(f"residue not divisible by {p}^{v}")
        unit = d / p ** v
        out.append(quotient * unit.denominator * pow(unit.numerator, -1, m) % m)
    return TruncSeries(p, prec, tuple(out))


@dataclass(frozen=True)
class LaurentPoly:
    """A finite Laurent polynomial, residues mod p^prec from t^min_deg upward."""

    p: int
    prec: int
    min_deg: int
    residues: tuple[int, ...]

    @classmethod
    def from_series(cls, f: TruncSeries, min_deg: int = 0) -> "LaurentPoly":
        return cls(f.p, f.prec, min_deg, f.residues)

    @property
    def coeffs(self) -> tuple[Padic, ...]:
        return tuple(Padic(self.p, self.prec, r) for r in self.residues)

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.residues) - 1

    def reverse(self) -> "LaurentPoly":
        """Substitute t -> 1/t: the coefficient at degree d moves to -d."""
        return LaurentPoly(self.p, self.prec, -self.max_deg, self.residues[::-1])

    def shift(self, m: int) -> "LaurentPoly":
        """Multiply by t^m."""
        return LaurentPoly(self.p, self.prec, self.min_deg + m, self.residues)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        lo = min(self.min_deg, other.min_deg)
        n = max(self.max_deg, other.max_deg) - lo + 1
        prec = min(self.prec, other.prec)
        m = self.p ** prec
        out = [0] * n
        for poly in (self, other):
            for i, r in enumerate(poly.residues, poly.min_deg - lo):
                out[i] = (out[i] + r) % m
        return LaurentPoly(self.p, prec, lo, tuple(out))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        prec = min(self.prec, other.prec)
        if not self.residues or not other.residues:
            return LaurentPoly(self.p, prec, 0, ())
        m = self.p ** prec
        a, b = [r % m for r in self.residues], [r % m for r in other.residues]
        prod = polymul(a, b, m, len(a) + len(b) - 1)
        return LaurentPoly(self.p, prec, self.min_deg + other.min_deg, tuple(prod))

    def is_zero_mod(self, n: int) -> bool:
        if n > self.prec:
            raise PrecisionExhausted(f"need {n} digits to compare")
        return all(r % self.p ** n == 0 for r in self.residues)


def laurent_reverse(f: Union[TruncSeries, LaurentPoly]) -> LaurentPoly:
    """t -> 1/t on a finite series or Laurent polynomial."""
    if isinstance(f, TruncSeries):
        f = LaurentPoly.from_series(f)
    return f.reverse()
