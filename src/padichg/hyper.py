"""Hypergeometric coefficient sequences and the polynomial h.

Computes A_k (and the Dwork-prime levels A_k^{(i)}), the logarithmic-type
coefficients B_k with their constant term and the hatted coefficients
Bhat_k.  Each sequence has one builder returning a residue vector: the
series F (`hg_series`), G (`b_coefficients`) and Ghat
(`bhat_coefficients`).  Exact rational arithmetic is used internally;
results are embedded at the caller's target precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    DworkChain,
    Padic,
    PadicError,
    Rational,
    c_power_frac,
    check_prime,
    dwork_chain,
    embed_rational,
    vp,
)
from .series import TruncSeries

SIGMA = "sigma"
SIGMA_HAT = "sigma_hat"


class NoPeriod(PadicError):
    """The Dwork-prime orbit of a does not return to a."""


@dataclass(frozen=True)
class HGParams:
    """Equal-parameter data (a, ..., a) with multiplicity s at the prime p."""

    a: Fraction
    s: int
    p: int
    chain: DworkChain

    @classmethod
    def create(cls, a: Rational, s: int, p: int) -> "HGParams":
        check_prime(p)
        a = Fraction(a)
        if a.denominator == 1 and a <= 0:
            raise ValueError("a must avoid the nonpositive integers")
        if a.denominator % p == 0:
            raise ValueError(f"denominator of a = {a} is divisible by {p}")
        if s < 1:
            raise ValueError("s must be positive")
        return cls(a=a, s=s, p=p, chain=dwork_chain(a, p))

    @property
    def l(self) -> int:
        return self.chain.l

    @property
    def q(self) -> int:
        return self.chain.q

    @property
    def e(self) -> int:
        return self.chain.e

    def sign_se(self) -> int:
        return -1 if (self.s * self.e) % 2 else 1


@dataclass(frozen=True)
class FrobeniusSpec:
    """The twist sigma(t) = c t^p, or sigma-hat(t) = c^{-1} t^p."""

    c: Fraction = Fraction(1)
    direction: str = SIGMA

    def __post_init__(self):
        if self.direction not in (SIGMA, SIGMA_HAT):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "c", Fraction(self.c))

    @property
    def c_eff(self) -> Fraction:
        """The constant actually entering the coefficient formulas."""
        return self.c if self.direction == SIGMA else 1 / self.c

    def validate(self, p: int, *, require_q: bool = False) -> None:
        for val in (self.c, self.c_eff):
            if val != 1:
                v = vp(val - 1, p)
                need = 2 if (require_q and p == 2) else 1
                if v is None or v < need:
                    depth = 4 if need == 2 else p
                    raise ValueError(f"c = {self.c} is not in 1 + {depth}W")


def twist_pair(c: Rational) -> tuple[FrobeniusSpec, FrobeniusSpec]:
    """(sigma, sigma-hat) with the same constant c."""
    return FrobeniusSpec(Fraction(c), SIGMA), FrobeniusSpec(Fraction(c), SIGMA_HAT)


# ---------------------------------------------------------------------------
# exact coefficients

_RATIO_CACHE: dict[Fraction, list[Fraction]] = {}


def _ratio_table(a: Fraction, count: int) -> list[Fraction]:
    """[(a)_k / k! for k < count], extended incrementally and cached."""
    table = _RATIO_CACHE.setdefault(a, [Fraction(1)])
    while len(table) < count:
        k = len(table)
        table.append(table[-1] * (a + k - 1) / k)
    return table


def coeff_exact(params: HGParams, k: int, level: int = 0) -> Fraction:
    """A_k at Dwork-prime level: ((a^{(level)})_k / k!)^s."""
    a = params.chain.a_at(level)
    return _ratio_table(a, k + 1)[k] ** params.s


def b_exact(params: HGParams, frob: FrobeniusSpec, k: int) -> Fraction:
    """B_k = (A_k - c^{k/p} A^{(1)}_{k/p}) / k for k >= 1, exactly."""
    if k < 1:
        raise ValueError("closed formula applies for k >= 1 only")
    p = params.p
    term = Fraction(0)
    if k % p == 0:
        term = frob.c_eff ** (k // p) * coeff_exact(params, k // p, 1)
    return (coeff_exact(params, k) - term) / k


def bhat_approx(params: HGParams, frob: FrobeniusSpec, k: int, prec: int) -> Fraction:
    """A rational congruent to Bhat_k mod p^prec.

    Bhat_k = (A_k - (-1)^{se} A^{(1)}_{(k-l)/p} c^{(k+a)/p}) / (k + a) with
    the A^{(1)} factor zero when k - l is negative or not divisible by p.
    The fractional c-power is the only approximated quantity."""
    p, a, l = params.p, params.a, params.l
    ka = k + a
    term = Fraction(0)
    if k >= l and (k - l) % p == 0:
        j = (k - l) // p
        loss = vp(ka, p)
        assert loss is not None and loss >= 0
        cp = c_power_frac(frob.c_eff, ka / p, p, prec + loss + 1)
        term = params.sign_se() * coeff_exact(params, j, 1) * cp
    return (coeff_exact(params, k) - term) / ka


# ---------------------------------------------------------------------------
# series builders: exact coefficients are embedded one at a time, so that
# no run of large rationals is held at once


def hg_series(params: HGParams, order: int, prec: int, level: int = 0) -> TruncSeries:
    """F at the given Dwork-prime level, truncated at t^order."""
    return TruncSeries.from_rationals(
        (coeff_exact(params, k, level) for k in range(order)), params.p, prec)


def b0_constant(params: HGParams, frob: FrobeniusSpec, prec: int) -> Padic:
    """B_0, computed by interpolation: B_0 ≡ B_{p^N}/A_{p^N} mod p^N."""
    if prec < 1:
        raise ValueError("precision must be positive")
    frob.validate(params.p)
    k = params.p ** prec
    value = b_exact(params, frob, k) / coeff_exact(params, k)
    return embed_rational(value, params.p, prec)


def b_coefficients(params: HGParams, frob: FrobeniusSpec, count: int, prec: int) -> TruncSeries:
    """G: B_k for k < count; index 0 is the interpolated constant term."""
    p = params.p
    b0 = b0_constant(params, frob, prec).residue
    rest = (embed_rational(b_exact(params, frob, k), p, prec).residue for k in range(1, count))
    return TruncSeries(p, prec, (b0, *rest)[:count])


def bhat_coefficients(params: HGParams, frob: FrobeniusSpec, count: int, prec: int) -> TruncSeries:
    """Ghat: Bhat_k for k < count via the closed coefficient formula."""
    return TruncSeries.from_rationals(
        (bhat_approx(params, frob, k, prec) for k in range(count)), params.p, prec)


def compute_h(params: HGParams, prec: int) -> TruncSeries:
    """h(t): the product of the degree-<p truncations of F over one period
    of the Dwork-prime orbit."""
    r = params.chain.period
    if r is None:
        raise NoPeriod(f"no period found for a = {params.a} at p = {params.p}")
    out = hg_series(params, params.p, prec, level=0)
    for i in range(1, r):
        out = out.mul_poly(hg_series(params, params.p, prec, level=i))
    return out
