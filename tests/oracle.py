"""Second routes to quantities that padichg builds one way, kept as test
oracles.

A_k is the Pochhammer ratio ((a)_k/k!)^s rebuilt for each k (the
production route extends a cached ratio table); G and Ghat come from
the logarithmic and twisted integrals of the defining series (the
closed formulas are `b_coefficients` and `bhat_coefficients`); braced
products are rebuilt for each n (the production route is the
incremental `braced_table`); products of residue vectors use the
schoolbook loop (the production route is `polymul`).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Optional

from padichg import (
    NotDivisible,
    PadicError,
    PrecisionExhausted,
    TruncSeries,
    b0_constant,
    c_power_frac,
    embed_rational,
    frobenius_substitute,
    hg_series,
    vp,
)
from padichg.hyper import coeff_exact


class NonzeroConstantTerm(PadicError):
    """The untwisted logarithmic integral needs a vanishing constant term."""


def schoolbook(a, b, modulus, n_out):
    """Reference product: the O(len(a) len(b)) convolution loop."""
    out = [0] * n_out
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n_out:
                out[i + j] = (out[i + j] + x * y) % modulus
    return out


def pochhammer(alpha, k):
    """Rising factorial alpha(alpha+1)...(alpha+k-1), with ()_0 = 1."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(alpha) + i
    return out


def braced_product(alpha, n, p):
    """{alpha}_n: product of alpha + i - 1 over 1 <= i <= n, omitting the
    factors of positive p-adic valuation.  {alpha}_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Fraction(1)
    a = Fraction(alpha)
    for i in range(1, n + 1):
        f = a + i - 1
        if f != 0 and vp(f, p) == 0:
            out *= f
    return out


def log_integral(f: TruncSeries, twist: Optional[Fraction] = None) -> TruncSeries:
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


def log_type_series(params, frob, order: int, prec: int) -> tuple[TruncSeries, TruncSeries]:
    """(G, F) with G built through the logarithmic integral route:
    G = B_0 + int_0^t (F - F^{(1)} composed with sigma) dt/t."""
    p = params.p
    guard = max(((vp(k, p) or 0) for k in range(1, order)), default=0)
    w = prec + guard
    f_full = hg_series(params, order, w)
    f1 = hg_series(params, ceil(order / p) if order else 1, w, level=1)
    c_emb = embed_rational(frob.c_eff, p, w)
    f1_sigma = frobenius_substitute(f1, c_emb, order)
    m = p ** w
    diff = TruncSeries(p, w, tuple((x - y) % m for x, y in zip(f_full.residues, f1_sigma.residues)))
    tail = log_integral(diff).reduce(prec)
    b0 = b0_constant(params, frob, prec)
    g = TruncSeries(p, prec, (b0.residue,) + tail.residues[1:])
    return g, f_full.reduce(prec)


def hat_series(params, frob, order: int, prec: int) -> tuple[TruncSeries, TruncSeries]:
    """(Ghat, F) with Ghat built through the twisted-integral route.

    The integrand coefficient at the symbol t^{k+a} collects A_k from
    t^a F and A^{(1)}_j c^{j+a'} placed at k = pj + l from the sigma-image
    of t^{a'} F^{(1)}; the twisted integral then divides by k + a."""
    p, a, l = params.p, params.a, params.l
    a1 = params.chain.a_at(1)
    guard = max(((vp(k + a, p) or 0) for k in range(order)), default=0)
    w = prec + guard + 1
    sign = params.sign_se()
    integrand = [coeff_exact(params, k) for k in range(order)]
    j = 0
    while p * j + l < order:
        cp = c_power_frac(frob.c_eff, j + a1, p, w)
        integrand[p * j + l] -= sign * coeff_exact(params, j, 1) * cp
        j += 1
    f_emb = TruncSeries.from_rationals(integrand, p, w)
    ghat = log_integral(f_emb, twist=a).reduce(prec)
    f = hg_series(params, order, prec)
    return ghat, f
