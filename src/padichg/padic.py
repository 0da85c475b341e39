"""Exact arithmetic in Z/p^N with valuation and precision tracking.

Values of Z_p are represented by a residue known modulo p^prec.  All
number-theoretic primitives used elsewhere in the package live here:
the residue of a rational mod a power of p (`_residue`, which
`embed_rational` wraps), exact division, splitting the p-part off an
integer, the valuation of (a)_k/k! and the Iwasawa logarithm.

Rational parameters (a, c, lambda) are plain ``fractions.Fraction``
objects, made once where they enter and read as integer numerators and
denominators after that; one is embeddable at p iff p does not divide
its denominator.  `Padic.exact_divide` reads its divisor the same way,
splitting the p-part off its numerator and denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


class PadicError(ArithmeticError):
    """Base class for arithmetic failures in this package."""


class DenominatorDivisibleByP(PadicError):
    """A rational with p in its denominator cannot be embedded in Z_p."""


class NotDivisible(PadicError):
    """Exact division requested but the residue is not divisible."""


class PrecisionExhausted(PadicError):
    """An operation would leave no significant digits."""


class CNotOneModP(PadicError):
    """The twist constant c is not congruent to 1 at the required depth."""


class PreconditionViolated(PadicError, ValueError):
    """A function was invoked outside its stated hypotheses."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def parse_rational(text: str) -> Fraction:
    """Parse "n/d" or "n" into a Fraction; a zero denominator is a ValueError."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def split_p(x: int, p: int) -> tuple[int, int]:
    """(v, u) with x = p^v u and u prime to p, for a nonzero integer x."""
    if x == 0:
        raise ZeroDivisionError("zero has no unit part")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def _residue(r: Rational, p: int, modulus: int) -> int:
    """r mod modulus, a power of p, in [0, modulus).  A rational with p in
    its denominator is not in Z_p and raises DenominatorDivisibleByP.  Only
    a type other than int and Fraction is made a Fraction."""
    r = r if isinstance(r, (int, Fraction)) else Fraction(r)
    if r.denominator % p == 0:
        raise DenominatorDivisibleByP(f"{r} has denominator divisible by {p}")
    return r.numerator * pow(r.denominator, -1, modulus) % modulus


@dataclass(frozen=True)
class Padic:
    """An element of Z_p known modulo p^prec."""

    p: int
    prec: int
    residue: int

    def __post_init__(self):
        check_prime(self.p)
        if self.prec < 0:
            raise ValueError("precision must be nonnegative")
        if not 0 <= self.residue < self.p ** self.prec:
            raise ValueError("residue out of range for stated precision")

    @property
    def modulus(self) -> int:
        return self.p ** self.prec

    def _check_compatible(self, other: "Padic") -> int:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        return min(self.prec, other.prec)

    def __add__(self, other: "Padic") -> "Padic":
        n = self._check_compatible(other)
        return Padic(self.p, n, (self.residue + other.residue) % self.p ** n)

    def __sub__(self, other: "Padic") -> "Padic":
        n = self._check_compatible(other)
        return Padic(self.p, n, (self.residue - other.residue) % self.p ** n)

    def __mul__(self, other: "Padic") -> "Padic":
        n = self._check_compatible(other)
        return Padic(self.p, n, (self.residue * other.residue) % self.p ** n)

    def __neg__(self) -> "Padic":
        return Padic(self.p, self.prec, (-self.residue) % self.modulus)

    def exact_divide(self, d: Rational) -> "Padic":
        """Divide by the rational d, shifting out its p-part and reducing
        precision by v_p(d).  Raises NotDivisible when the quotient is not in
        Z_p at the known precision, PrecisionExhausted when no digits would
        remain."""
        p = self.p
        d = d if isinstance(d, (int, Fraction)) else Fraction(d)
        if d == 0:
            raise ZeroDivisionError("division by zero")
        (vn, un), (vd, ud) = split_p(d.numerator, p), split_p(d.denominator, p)
        new_prec = self.prec + vd - vn
        if new_prec <= 0:
            raise PrecisionExhausted("division leaves no digits")
        # residue · p^vd · ud/un is known mod p^(prec + vd), and its quotient by
        # p^vn, where exact, mod p^new_prec
        m = p ** (self.prec + vd)
        r = self.residue * p ** vd * ud * pow(un, -1, m) % m
        if r % p ** vn:
            raise NotDivisible(f"residue not divisible by {p}^{vn}")
        return Padic(p, new_prec, r // p ** vn)

    def reduce(self, prec: int) -> "Padic":
        if prec > self.prec:
            raise PrecisionExhausted(f"only {self.prec} digits known, {prec} requested")
        return Padic(self.p, prec, self.residue % self.p ** prec)

    def __str__(self) -> str:
        return f"{self.residue} mod {self.p}^{self.prec}"


def embed_rational(r: Rational, p: int, prec: int) -> Padic:
    """Embed a rational with p-free denominator into Z/p^prec."""
    check_prime(p)
    return Padic(p, prec, _residue(r, p, p ** max(prec, 0)))  # Padic rejects prec < 0


# ---------------------------------------------------------------------------
# the Iwasawa logarithm


def iwasawa_log(c: Padic) -> Padic:
    """p-adic logarithm of c on 1 + pZ_p (1 + 4Z_2 at p = 2), at the
    precision carried by c.  With x = c - 1, each term (-1)^{i+1} x^i/i is
    x^i / p^{v_p(i)}, exact as i·v_p(x) > v_p(i), times the inverse of the
    unit part of i mod p^n."""
    p, n = c.p, c.prec
    x = c.residue - 1
    if x == 0:
        return Padic(p, n, 0)
    v = split_p(x, p)[0]
    need = 2 if p == 2 else 1
    if v < need:
        raise CNotOneModP(f"{c} is not in 1 + {p ** need}Z_{p}")
    m = p ** n
    total, xi, i, e = 0, 1, 1, 0  # e = floor(log_p i)
    # terms have valuation i*v - v_p(i) >= i*v - e; stop once that reaches n
    while i * v - e < n:
        xi *= x
        vi, ui = split_p(i, p)
        total += (-1) ** (i + 1) * (xi // p ** vi) * pow(ui, -1, m)
        i += 1
        if i == p ** (e + 1):
            e += 1
    return Padic(p, n, total % m)


# ---------------------------------------------------------------------------
# valuations of (a)_k/k!


def ratio_valuations(a: Fraction, p: int, ks: Sequence[int]) -> list[int]:
    """v_p((a)_k / k!) at each k in ks, in closed form: for each power p^j,
    the factors a + i (0 <= i < k) it divides, less the multiples of p^j up
    to k.  Each p^j is handled once for all ks."""
    vals = [0] * len(ks)
    top, pj = max(ks, default=0), p
    while True:
        lj = -_residue(a, p, pj) % pj  # a + i ≡ 0 mod p^j iff i ≡ lj; lj grows with j
        if pj > top and lj >= top:
            return vals
        vals = [v + (k - lj + pj - 1) // pj - k // pj for v, k in zip(vals, ks)]
        pj *= p
