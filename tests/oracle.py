"""Second routes to quantities that padichg builds one way, kept as test
oracles.

A_k, B_k and Bhat_k are exact rationals (the production route keeps a
unit mod p^w and an exact valuation per coefficient); A_k is also the
Pochhammer ratio ((a)_k/k!)^s rebuilt for each k; G and Ghat come from
the logarithmic and twisted integrals of the defining series (the
closed formulas are `b_coefficients` and `bhat_coefficients`); braced
products are exact rationals, rebuilt for each n or built as one table,
and A tables are exact rationals built afresh per call (the production
routes are running units mod p^n and running integer products);
products of residue vectors use the schoolbook loop (the production
route is `polymul`); the main congruence and the section sums are
decided on one list per product, compared coefficient by coefficient
(the production checkers decide one packed sum, `first_nonzero`); the
braced lemma and the section sums are decided
on exact rationals with `vp` of a difference (the production checkers
compare residues), and the braced lemma also on the residues of every
pair x, y <= p^{2n} (the production sweep reads two periods, x < 2p^n); the Frobenius substitution t -> c t^p is a loop over
coefficients (the checkers spread residues by slicing, at c = 1 only);
the Dwork-prime orbit is walked on exact rationals to its first repeat
(the production route keeps a' and walks the numerators over the fixed
denominator when a later prime is asked for, and takes the period of an
a in (0, 1] to be the order of p mod that denominator); c^alpha is the
binomial series in c - 1 on exact rationals (the production route is one
modular power of the residue of c); the congruence relation and the
transformation formula are decided on two full products each
(the production checkers form only the coefficients above t^{p^n}, and
one product reversed, with t^p operands split per class mod p); the
Iwasawa logarithm is a sum of exact rationals x^i/i (the production
route divides x^i by the p-part of i and multiplies by the inverse of
its unit part mod p^n).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Optional

from padichg import (
    CNotOneModP,
    DenominatorDivisibleByP,
    NotDivisible,
    PadicError,
    PrecisionExhausted,
    PreconditionViolated,
    Padic,
    SIGMA,
    TruncSeries,
    b0_constant,
    embed_rational,
    hg_series,
    polymul,
    twist_pair,
)
from padichg import verify
from padichg.hyper import _quotients
from padichg.padic import Rational, _residue, split_p


def vp(x: Rational, p: int) -> Optional[int]:
    """p-adic valuation of a rational; None for x = 0 (infinite)."""
    x = Fraction(x)
    if x == 0:
        return None
    return split_p(x.numerator, p)[0] - split_p(x.denominator, p)[0]


# ---------------------------------------------------------------------------
# Dwork-prime orbit


def dwork_chain_exact(a: Fraction, p: int) -> tuple[int, int, int, list[Fraction], Optional[int]]:
    """(l, q, e, orbit, period) of a at p.  The orbit a -> (a + l)/p is
    walked as Fractions, with l = -term mod p recomputed at each step and
    terms compared by value, with no step cap up to its first repeat,
    which it ends with; the period is the step at which it returns to a,
    or None when that repeat is not a."""
    q = 4 if p == 2 else p
    l_q = _residue(-a, p, q)
    orbit, seen, cur = [a], {a}, a
    while True:
        cur = (cur + _residue(-cur, p, p)) / p
        orbit.append(cur)
        if cur in seen:
            period = len(orbit) - 1 if cur == a else None
            return _residue(-a, p, p), q, l_q - l_q // p, orbit, period
        seen.add(cur)


# ---------------------------------------------------------------------------
# powers of the twist constant


def c_power_frac(c: Rational, alpha: Rational, p: int, prec: int) -> Fraction:
    """A rational congruent to c^alpha mod p^prec, via the binomial series
    in c - 1.  Requires v_p(c-1) >= 1 (any alpha with p-free denominator)."""
    c = Fraction(c)
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        k = int(alpha)
        return c ** k
    if alpha.denominator % p == 0:
        raise DenominatorDivisibleByP(f"exponent {alpha} not in Z_{p}")
    x = c - 1
    if x == 0:
        return Fraction(1)
    v = vp(x, p)
    if v is None or v < 1:
        raise CNotOneModP(f"c = {c} is not in 1 + {p}Z_{p}")
    total = Fraction(1)
    term = Fraction(1)  # binom(alpha, i) x^i, built from its predecessor
    i = 1
    while i * v < prec:
        term *= (alpha - i + 1) * x / i
        total += term
        i += 1
    return total


# ---------------------------------------------------------------------------
# the Iwasawa logarithm


def iwasawa_log_exact(c: Padic) -> Padic:
    """log_p(c) at the precision of c, as the sum of (-1)^{i+1} x^i/i over
    exact rationals with x = c - 1, with the stopping rule of the integer
    route (terms of valuation i·v_p(x) - floor(log_p i) >= n are dropped)."""
    p, n = c.p, c.prec
    x = c.residue - 1
    if x == 0:
        return Padic(p, n, 0)
    v = vp(x, p)
    if v < (2 if p == 2 else 1):
        raise CNotOneModP(f"{c} is not in 1 + {4 if p == 2 else p}Z_{p}")
    total, xi, i = Fraction(0), 1, 1
    while i * v - _floor_log(i, p) < n:
        xi *= x
        total += Fraction((-1) ** (i + 1) * xi, i)
        i += 1
    return embed_rational(total, p, n)


def _floor_log(i: int, p: int) -> int:
    """floor(log_p i) for i >= 1."""
    e, q = 0, p
    while q <= i:
        e, q = e + 1, q * p
    return e


# ---------------------------------------------------------------------------
# exact coefficients

_RATIO_TABLES: dict[Fraction, list[Fraction]] = {}


def _ratio_table(a: Fraction, count: int) -> list[Fraction]:
    """[(a)_k / k! for k < count], extended incrementally and kept for the
    test session."""
    table = _RATIO_TABLES.setdefault(a, [Fraction(1)])
    while len(table) < count:
        k = len(table)
        table.append(table[-1] * (a + k - 1) / k)
    return table


def c_eff(frob) -> Fraction:
    """The constant the coefficient formulas read: c along sigma, 1/c
    along sigma-hat."""
    return frob.c if frob.direction == SIGMA else 1 / frob.c


def coeff_exact(params, k: int, level: int = 0) -> Fraction:
    """A_k at Dwork-prime level: ((a^{(level)})_k / k!)^s."""
    a = params.a_at(level)
    return _ratio_table(a, k + 1)[k] ** params.s


def b_exact(params, frob, k: int) -> Fraction:
    """B_k = (A_k - c^{k/p} A^{(1)}_{k/p}) / k for k >= 1, exactly."""
    if k < 1:
        raise ValueError("closed formula applies for k >= 1 only")
    p = params.p
    term = Fraction(0)
    if k % p == 0:
        term = c_eff(frob) ** (k // p) * coeff_exact(params, k // p, 1)
    return (coeff_exact(params, k) - term) / k


def bhat_approx(params, frob, k: int, prec: int) -> Fraction:
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
        cp = c_power_frac(c_eff(frob), ka / p, p, prec + loss + 1)
        term = params.sign_se() * coeff_exact(params, j, 1) * cp
    return (coeff_exact(params, k) - term) / ka


def ratio_at(k: int, params, frob, n: int, hat: bool) -> Fraction:
    """A rational congruent to B_k/A_k (Bhat_k/A_k with hat=True) mod p^n."""
    ak = coeff_exact(params, k)
    if hat:
        return bhat_approx(params, frob, k, n + vp(ak, params.p) + 1) / ak
    return b_exact(params, frob, k) / ak


def b0_exact(params, frob, prec: int) -> Fraction:
    """B_{p^M}/A_{p^M}, the rational whose residue mod p^N is B_0: M = N,
    or M = N + 1 at p = 2 with c in 1 + 2W but not 1 + 4W."""
    deeper = params.p == 2 and vp(frob.c - 1, 2) == 1
    return ratio_at(params.p ** (prec + deeper), params, frob, prec, hat=False)


def exact_a_table(params, count: int, level: int = 0) -> list[Fraction]:
    """[A_k^{(level)} for k < count] as exact rationals, built afresh on
    each call."""
    a, s = params.a_at(level), params.s
    n, d = a.numerator, a.denominator
    num = den = 1  # (a)_k = num / d^k and k! d^k = den
    out: list[Fraction] = []
    for k in range(count):
        if k:
            num *= n + (k - 1) * d
            den *= k * d
        out.append(Fraction(num, den) ** s)
    return out


def series_from_rationals(values, p: int, prec: int) -> TruncSeries:
    """The series whose coefficients are the given exact rationals mod p^prec."""
    return TruncSeries(p, prec, tuple(embed_rational(v, p, prec).residue for v in values))


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


def braced_table(alpha, n_max: int, p: int) -> list[Fraction]:
    """[{alpha}_0, ..., {alpha}_n_max] as exact rationals, built
    incrementally."""
    a = Fraction(alpha)
    out = [Fraction(1)]
    acc = Fraction(1)
    for i in range(1, n_max + 1):
        f = a + i - 1
        if f != 0 and vp(f, p) == 0:
            acc *= f
        out.append(acc)
    return out


def frobenius_substitute(f: TruncSeries, c: Padic, out_order: int) -> TruncSeries:
    """Apply sigma: coefficient a_i moves to index i*p scaled by c^i.
    Coefficients act through the identity Frobenius, matching
    Z_p-restricted scalars."""
    p = f.p
    prec = min(f.prec, c.prec) if f.residues else c.prec
    m = p ** prec
    out = [0] * out_order
    power = 1
    for i, r in enumerate(f.residues):
        if i * p >= out_order:
            break
        out[i * p] = r * power % m
        power = power * c.residue % m
    return TruncSeries(p, prec, tuple(out))


# ---------------------------------------------------------------------------
# the braced lemma and the section sums on exact rationals


def braced_ratio(params, x: int, b1, ba) -> Fraction:
    """(-1)^{f_x} {1}_x/{a}_x exactly, read from braced tables b1, ba."""
    lx = x % params.q
    return (-1) ** (lx - lx // params.p) * b1[x] / ba[x]


def braced_sweep_failure(params, n: int, b1, ba):
    """The first (x, y), in the order of `sweep_braced`, with x + y + a ≡ 0
    mod p^n and the braced ratios of x and y not congruent mod p^n; None
    when every pair agrees."""
    p, a = params.p, params.a
    top = p ** (2 * n)
    for x in range(top + 1):
        y0 = embed_rational(-x - a, p, n).residue
        for y in range(y0, top + 1, p ** n):
            diff = braced_ratio(params, x, b1, ba) - braced_ratio(params, y, b1, ba)
            if diff != 0 and vp(diff, p) < n:
                return x, y
    return None


def braced_sweep_all_pairs(params, n: int):
    """`sweep_braced` on every x <= p^{2n}, with the residues read through
    `padichg.verify` (a test that patches `braced_residues` there feeds both
    routes): x passes all its pairs at once when its partner class
    l_n - x mod p^n is constant and equal to its residue, and the other x
    scan their partners in order."""
    verify._require_modulus(n)
    p = params.p
    pn, top = p ** n, p ** (2 * n)
    l_n = -_residue(params.a, p, pn) % pn
    residues = verify.braced_residues(params, top, n)
    constant = [residues[c] if len(set(residues[c::pn])) == 1 else None for c in range(pn)]
    fail = next(({"x": x, "y": y, "left": residues[x], "right": residues[y]}
                 for x in range(top + 1) if constant[(l_n - x) % pn] != residues[x]
                 for y in range((l_n - x) % pn, top + 1, pn) if residues[x] != residues[y]),
                None)
    return verify.CheckReport(check="braced", params=verify._params_dict(params, n=n, range=top),
                              passed=fail is None, modulus=n, first_failure=fail)


def section_sums_exact(params, table, n: int, d: int, k: int, m: int) -> tuple[Fraction, Fraction]:
    """(s1, s2): the sums of A_i A_{p^n-j-1} over i + j = m restricted to
    i ≡ k and to p^n-j-1 ≡ -k-a mod p^{n-d}, from the exact A table."""
    p, a = params.p, params.a
    mod = n - d
    pn = p ** n
    s1 = Fraction(0)
    s2 = Fraction(0)
    for i in range(m + 1):
        j = m - i
        prod = table[i] * table[pn - j - 1]
        if (i - k) % p ** mod == 0:
            s1 += prod
        # class membership of p^n - j - 1 in -k-a mod p^{n-d}
        val = vp(pn - j - 1 + k + a, p)
        if mod == 0 or val is None or val >= mod:
            s2 += prod
    return s1, s2


def section_sweep_failure(params, n: int, table):
    """The first (d, k, m, s1, s2), in the order of `sweep_section`, whose
    exact sums are not congruent mod p^{d+1}; None when all agree."""
    p = params.p
    for d in range(n + 1):
        for k in range(p ** (n - d)):
            for m in range(p ** n):
                s1, s2 = section_sums_exact(params, table, n, d, k, m)
                if s1 != s2 and vp(s1 - s2, p) < d + 1:
                    return d, k, m, s1, s2
    return None


def log_integral(f: TruncSeries, twist: Optional[Fraction] = None) -> TruncSeries:
    """The operator int_0^t (.) dt/t on coefficients.

    Untwisted: c_k -> c_k / k for k >= 1 (the constant term must vanish and
    maps to 0).  Twisted by a: c_k -> c_k / (k + a), realizing
    t^{-a} int t^a (.) dt/t coefficientwise.  The result carries the
    input precision less the largest valuation of a divisor."""
    p = f.p
    if twist is None:
        if f.residues and f.residues[0] != 0:
            raise NonzeroConstantTerm("constant term must vanish")
        start, a = 1, Fraction(0)
    else:
        a = Fraction(twist)
        if (a.denominator == 1 and a <= 0) or a.denominator % p == 0:
            raise ValueError("twist must lie in Z_p and avoid nonpositive integers")
        start = 0
    divisors = [k + a for k in range(start, len(f.residues))]
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


def log_type_series(params, frob, order: int, prec: int) -> tuple[list[int], list[int]]:
    """(G, F) mod p^prec with G built through the logarithmic integral route:
    G = B_0 + int_0^t (F - F^{(1)} composed with sigma) dt/t."""
    p = params.p
    guard = max(((vp(k, p) or 0) for k in range(1, order)), default=0)
    w = prec + guard
    f_full = hg_series(params, order, w)
    f1 = _quotients(params, [("A", 1, range(ceil(order / p) if order else 1))], w)[0]
    c_emb = embed_rational(c_eff(frob), p, w)
    f1_sigma = frobenius_substitute(TruncSeries(p, w, tuple(f1)), c_emb, order)
    m = p ** w
    diff = TruncSeries(p, w, tuple((x - y) % m for x, y in zip(f_full, f1_sigma.residues)))
    tail = log_integral(diff).residues
    m = p ** prec
    g = [b0_constant(params, frob, prec).residue, *(r % m for r in tail[1:])]
    return g, [r % m for r in f_full]


def hat_series(params, frob, order: int, prec: int) -> tuple[list[int], list[int]]:
    """(Ghat, F) mod p^prec with Ghat built through the twisted-integral route.

    The integrand coefficient at the symbol t^{k+a} collects A_k from
    t^a F and A^{(1)}_j c^{j+a'} placed at k = pj + l from the sigma-image
    of t^{a'} F^{(1)}; the twisted integral then divides by k + a."""
    p, a, l = params.p, params.a, params.l
    a1 = params.a1
    guard = max(((vp(k + a, p) or 0) for k in range(order)), default=0)
    w = prec + guard + 1
    sign = params.sign_se()
    integrand = [coeff_exact(params, k) for k in range(order)]
    j = 0
    while p * j + l < order:
        cp = c_power_frac(c_eff(frob), j + a1, p, w)
        integrand[p * j + l] -= sign * coeff_exact(params, j, 1) * cp
        j += 1
    ghat = log_integral(series_from_rationals(integrand, p, w), twist=a).residues
    return [r % p ** prec for r in ghat], hg_series(params, order, prec)


# ---------------------------------------------------------------------------
# the list route: every congruence decided on the coefficient lists of its
# products (the production checkers decide each sum or difference of
# products on one packed sum, `first_nonzero`, and read the transform's
# two sides off its one product)


def first_mismatch(lhs, rhs, q: int) -> Optional[dict]:
    """First index where lhs != rhs mod q, or None; lists of equal length.
    Both sides are reduced, so lists equal mod q but not as ints match."""
    for k, (x, y) in enumerate(zip(lhs, rhs)):
        if (x - y) % q:
            return {"index": k, "left": x % q, "right": y % q}
    return None


def main_congruence_lists(params, c, n: int):
    """`check_main_congruence` with the two products B rev(A) and
    rev(Bhat) A formed as lists and added coefficient by coefficient."""
    frob, frob_hat = twist_pair(c)
    frob.validate(params.p, require_q=True)
    q = params.p ** n
    a, b, bhat = verify._quotients(params, [("A", 0, range(q)), ("G", frob, range(q)),
                                            ("Bhat", frob_hat, range(q))], n)
    info = verify._params_dict(params, n=n, c=frob.c)
    left = polymul(b, a[::-1], q, 2 * q - 1)
    right = polymul(bhat[::-1], a, q, 2 * q - 1)
    for m, (x, y) in enumerate(zip(left, right)):
        if (x + y) % q:
            return verify.CheckReport(check="main-congruence", params=info, passed=False,
                                      modulus=n, first_failure={"m": m, "sum": (x + y) % q})
    return verify.CheckReport(check="main-congruence", params=info, passed=True, modulus=n)


def section_sums(params, a_res, n: int, d: int, k: int,
                 n_out: Optional[int] = None) -> tuple[list[int], list[int]]:
    """(s1, s2) mod p^{d+1} for every m < n_out (default p^n): the sums of
    A_i A_{p^n-1-j} over i + j = m with i ≡ k (s1) or p^n-1-j ≡ -k-a (s2)
    mod p^{n-d}, as the products (masked A) rev(A) and A rev(masked A),
    which run to m = 2p^n - 2.  a_res holds A_0, ..., A_{p^n-1} mod
    p^{d+1}."""
    p = params.p
    pn, cls, mod = p ** n, p ** (n - d), p ** (d + 1)
    n_out = pn if n_out is None else n_out
    first, second = [0] * pn, [0] * pn  # A masked to class k, to class -k-a
    first[k::cls] = a_res[k::cls]
    r = (-_residue(params.a, p, cls) - k) % cls
    second[r::cls] = a_res[r::cls]
    return polymul(first, a_res[::-1], mod, n_out), polymul(a_res, second[::-1], mod, n_out)


def section_sweep_lists(params, n: int):
    """`sweep_section` with s1 and s2 formed as lists per class and
    compared coefficient by coefficient."""
    p = params.p
    a_res = verify._quotients(params, [("A", 0, range(p ** n))], n + 1)[0]
    for d in range(n + 1):
        level = [r % p ** (d + 1) for r in a_res]
        for k in range(p ** (n - d)):
            s1, s2 = section_sums(params, level, n, d, k)
            for m, (x, y) in enumerate(zip(s1, s2)):
                if x != y:
                    info = verify._params_dict(params, n=n, d=d, k=k, m=m)
                    return verify.CheckReport(check="section-sums", params=info, passed=False,
                                              modulus=d + 1, first_failure={"s1": x, "s2": y})
    return verify.CheckReport(check="section-sums", params=verify._params_dict(params, n=n),
                              passed=True, modulus=n + 1)


# ---------------------------------------------------------------------------
# the congruence relation and the transformation formula as two full
# products (the production checkers form one reversed product, and only
# the coefficients above t^{p^n})
#
# Both oracles make the checkers' `_quotients` requests through
# `padichg.verify`, so a test that patches it there feeds the same tables
# to both routes.


def congruence_relation_full(kind: str, params, frob, n: int, M: Optional[int] = None):
    """`check_congruence_relation` with lhs = N [D]_{<p^n} and
    rhs = D [N]_{<p^n} both formed in full on coefficients 0..M-1, and
    D = F^{(1)}(t^p) spread into a dense list for kind "dwork"."""
    p = params.p
    pn = p ** n
    if M is None:
        M = 2 * pn
    info = verify._params_dict(params, n=n, M=M, kind=kind)
    if kind != "dwork":
        info["c"] = frob.c
        info["direction"] = frob.direction
        frob.validate(p, require_q=kind == "hat")
    n_eff = n - 1 if kind == "log" and p == 2 and vp(frob.c - 1, p) == 1 else n
    if n_eff < 1:
        raise PreconditionViolated(f"congruence-{kind} at p = {p}, n = {n} has modulus p^{n_eff}")
    if kind == "dwork":
        den = [0] * M
        num, den[::p] = verify._quotients(params, [("A", 0, range(M)),
                                                   ("A", 1, range(ceil(M / p)))], n)
    else:
        den, num = verify._quotients(params, [("A", 0, range(M)),
                                              ("G" if kind == "log" else "Bhat", frob, range(M))], n)
    lhs = polymul(num, den[:pn], pn, M)
    rhs = polymul(den, num[:pn], pn, M)
    fail = first_mismatch(lhs, rhs, p ** n_eff)
    return verify.CheckReport(check=f"congruence-{kind}", params=info,
                              passed=fail is None, modulus=n_eff, first_failure=fail)


def dwork_transform_full(params, n: int):
    """`check_dwork_transformation` with both sides formed as products:
    t^{p-1-l} P revQ and revP Q(t^p), with Q(t^p) spread into a dense list."""
    p, l = params.p, params.l
    q = pn = p ** n
    spread = [0] * (pn - p + 1)
    a_res, spread[::p] = verify._quotients(
        params, [("A", 0, range(pn)), ("A", 1, range(pn // p))], n)
    deg, shift = 2 * pn - 2, p - 1 - l
    lhs = [0] * shift + polymul(a_res, spread[::-1], q, deg + 1 - shift)
    rhs = polymul(a_res[::-1], spread, q, deg + 1)
    info = verify._params_dict(params, n=n, l=l)
    sign = None
    for d in range(deg + 1):
        if lhs[d] % p or rhs[d] % p:
            if (lhs[d] - rhs[d]) % q == 0:
                sign = 1
            elif (lhs[d] + rhs[d]) % q == 0:
                sign = -1
            else:
                return verify.CheckReport(check="dwork-transform", params=info, passed=False,
                                          modulus=n, first_failure={"index": d, "left": lhs[d],
                                                                    "right": rhs[d]})
            break
    if sign is None:
        raise verify.NoUnitCoefficient("all compared coefficients vanish mod p")
    for d in range(deg + 1):
        if (lhs[d] - sign * rhs[d]) % q:
            return verify.CheckReport(check="dwork-transform", params=info, passed=False,
                                      modulus=n, sign=sign,
                                      first_failure={"index": d, "left": lhs[d],
                                                     "right": (sign * rhs[d]) % q})
    reported = sign if p != 2 else sign * (-1) ** ((params.s * l) % 2)
    return verify.CheckReport(check="dwork-transform", params=info, passed=True,
                              modulus=n, sign=reported)
