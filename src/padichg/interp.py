"""Interpolated functions beta and beta-hat on Z_p, and the ratio identity.

The coefficient ratios B_k/A_k and Bhat_k/A_k are p-adically continuous
in k, so evaluating at the smallest positive integer witness congruent to
lambda mod p^n gives the interpolated value mod p^n.

The ratio identity linking A^{(1)} to braced products is an exact identity
of rationals; it is decided on integers, cross-multiplied, from running
products shared by the single-x check and the sweep.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .padic import Rational, _residue
from .hyper import FrobeniusSpec, HGParams, _quotients


def witness_for(lam: Rational, p: int, n: int) -> int:
    """Smallest positive integer congruent to lambda mod p^n."""
    r = _residue(lam, p, p ** n)
    return r if r >= 1 else p ** n


def beta_values(lams: Sequence[Rational], params: HGParams, frob: FrobeniusSpec, n: int,
                *, hat: bool = False) -> list[int]:
    """The residues of beta_lambda (or beta-hat with hat=True) mod p^n at
    each lambda in lams: B_k/A_k (Bhat_k/A_k) at the witnesses, from one
    `_quotients` request whose walk visits only the witnesses, jumping the
    gaps between them.  At p = 2 c must lie in 1 + 4W: for c in 1 + 2W
    only, B_k/A_k mod 2^n is not a function of k mod 2^n (k and k + 3·2^n
    differ at every k ≡ 2 mod 4), so no witness gives beta."""
    if n < 1:
        raise ValueError("precision must be positive")
    frob.validate(params.p, require_q=True)
    ks = [witness_for(lam, params.p, n) for lam in lams]
    return _quotients(params, [("Bhat/A" if hat else "B/A", frob, ks)], n)[0]


def ratio_identity_holds(params: HGParams, x_max: int) -> Iterator[bool]:
    """Whether the ratio identity holds at x, for x = 1, ..., x_max in turn.

    For p | x (and likewise x ≡ l mod p) the identity is the bare ratio
    A^{(1)}_{x/p}/A_x = ({1}_x/{a}_x)^s.  For the remaining residues the
    p-divisible factor counts m = floor(x/p) of (1)_x and
    m_a = #{0 <= j : l + jp <= x-1} of (a)_x differ by one, and the exact
    identity carries the correction (m_a!/m!) p^{m_a - m}:

        A^{(1)}_{m_a} ({a}_x)^s (m_a!/m! * p^{m_a-m})^s = A_x ({1}_x)^s

    Both sides are s-th powers, L^s = R^s.  With a = n/d and
    a^{(1)} = n'/d', and the m_a! of A^{(1)}_{m_a} cancelled against the
    correction,

        L = (a^{(1)})_{m_a} d'^{m_a} {a}_x d^{c_x} p^{m_a-m} / (d'^{m_a} d^{c_x} m!)
        R = (a)_x d^x {1}_x / (x! d^x)

    where {a}_x d^{c_x} is the product of the c_x factors n + jd (j < x)
    prime to p.  Every numerator and denominator is an integer, and
    L^s = R^s is decided in the cross-multiplied form
    (N_L D_R)^s = (N_R D_L)^s.  Both cross products, less the factor
    p^{m_a-m}, are running products that each step multiplies by small
    integers."""
    p, s, l = params.p, params.s, params.l
    n, d = params.a.numerator, params.a.denominator
    n1, d1 = params.a1.numerator, params.a1.denominator
    left = right = 1  # N_L D_R / p^{m_a-m} and N_R D_L
    m = m_a = 0
    for x in range(1, x_max + 1):
        f = n + (x - 1) * d  # d (a + x - 1)
        left *= x * d  # x! d^x
        right *= f  # (a)_x d^x
        if x % p:
            right *= x  # {1}_x
        if f % p:
            left *= f  # {a}_x d^{c_x}
            right *= d  # d^{c_x}
        if x % p == 0:
            m += 1
            right *= m  # m!
        if (x - 1) % p == l:  # x - 1 = l + m_a p
            left *= n1 + m_a * d1  # (a^{(1)})_{m_a} d'^{m_a}
            right *= d1  # d'^{m_a}
            m_a += 1
        cross = left * p ** (m_a - m)
        # X^s = Y^s: X = Y, or X = -Y when s is even
        yield cross == right or (s % 2 == 0 and cross == -right)


def ratio_identity_check(x: int, params: HGParams) -> bool:
    """The ratio identity of `ratio_identity_holds` at one x."""
    if x < 1:
        raise ValueError("x must be positive")
    *_, holds = ratio_identity_holds(params, x)
    return holds
