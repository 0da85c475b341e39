"""Interpolated functions beta and beta-hat on Z_p.

The coefficient ratios B_k/A_k and Bhat_k/A_k are p-adically continuous
in k, so evaluating at the smallest positive integer witness congruent to
lambda mod p^n gives the interpolated value mod p^n.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Optional

from .padic import Padic, Rational, braced_table, embed_rational
from .hyper import FrobeniusSpec, HGParams, coefficient_ratios, exact_a_table


def witness_for(lam: Rational, p: int, n: int) -> int:
    """Smallest positive integer congruent to lambda mod p^n."""
    r = embed_rational(lam, p, n).residue
    return r if r >= 1 else p ** n


def beta_at(lam: Rational, params: HGParams, frob: FrobeniusSpec, n: int,
            *, hat: bool = False) -> Padic:
    """beta_lambda (or beta-hat with hat=True) mod p^n."""
    if n < 1:
        raise ValueError("n must be positive")
    frob.validate(params.p)
    k = witness_for(lam, params.p, n)
    return Padic(params.p, n, coefficient_ratios(params, frob, [k], n, hat)[0])


def ratio_tables(params: HGParams, top: int) -> tuple[list, list, list, list]:
    """The exact tables the ratio identity reads for x <= top:
    {1}_x, {a}_x, A_x and A^{(1)}_x."""
    p = params.p
    return (braced_table(1, top, p), braced_table(params.a, top, p),
            exact_a_table(params, top + 1), exact_a_table(params, top // p + 2, level=1))


def ratio_identity_check(x: int, params: HGParams,
                         tables: Optional[tuple[list, list, list, list]] = None) -> bool:
    """Exact identity linking A^{(1)} to braced-product ratios.

    For p | x (and likewise x ≡ l mod p) this is the bare ratio
    A^{(1)}_{x/p}/A_x = ({1}_x/{a}_x)^s.  For the remaining residues the
    p-divisible factor counts m = floor(x/p) of (1)_x and
    m_a = #{0 <= j : l + jp <= x-1} of (a)_x differ by one, and the exact
    identity carries the correction (m_a!/m!) p^{m_a - m}:

        A^{(1)}_{m_a} ({a}_x)^s (m_a!/m! * p^{m_a-m})^s = A_x ({1}_x)^s

    tables, when given, are ratio_tables(params, top) with top >= x, shared
    across a sweep over x."""
    if x < 1:
        raise ValueError("x must be positive")
    p, s, a, l = params.p, params.s, params.a, params.l
    if tables is None:
        tables = ratio_tables(params, x)
    b1, ba, a0, a1 = tables
    m = x // p
    m_a = (x - 1 - l) // p + 1 if x - 1 >= l else 0
    corr = Fraction(factorial(m_a), factorial(m)) * Fraction(p) ** (m_a - m)
    lhs = a1[m_a] * ba[x] ** s * corr ** s
    rhs = a0[x] * b1[x] ** s
    return lhs == rhs
