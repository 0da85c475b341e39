"""Finite, machine-checkable congruence checks.

Each checker evaluates one theorem, lemma or conjecture instance at fixed
parameters and modulus and returns a CheckReport.  Cross-multiplied forms
are used throughout so that no series division is needed: a congruence
of quotients N1/D1 = N2/D2 with unit denominators becomes
N1*D2 = N2*D1 on coefficients.
Each checker validates its hypotheses on entry, before it builds any
table, and raises PreconditionViolated outside them: n >= 1, a in
HGParams, c in 1 + pW, and c in 1 + qW (q = 4 at p = 2) for every check
that reads the hatted side.  The suite runner skips the cells whose
checker raises it.
Congruences are decided on residues and every product goes through
`polymul`.  Each check the suite names has one entry point here, which
takes all its coefficient tables from one `_quotients` call, one walk
per distinct Dwork prime.  The braced sweep decides
its pairs class by class mod p^n; the exact ratio identity is decided on
integers (`interp.ratio_identity_holds`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, mod, ne
from typing import Optional, Sequence

from .padic import NotDivisible, PadicError, PreconditionViolated, Rational, _residue
from .series import polymul, polymul_spread
from .hyper import FrobeniusSpec, HGParams, _quotients, twist_pair
from .interp import ratio_identity_holds, witness_for


class NoUnitCoefficient(PadicError):
    """No coefficient pair allows fitting the transformation sign."""


@dataclass
class CheckReport:
    """Outcome of one finite congruence check."""

    check: str
    params: dict
    passed: bool
    modulus: int  # exponent: the congruence was checked mod p^modulus
    first_failure: Optional[dict] = None
    sign: Optional[int] = None

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "passed": self.passed,
            "modulus": self.modulus,
            "first_failure": self.first_failure,
            "sign": self.sign,
        }
        return json.dumps(payload, sort_keys=True)


def _params_dict(params: HGParams, **extra) -> dict:
    d = {"a": params.a, "s": params.s, "p": params.p}
    d.update(extra)
    return d


def _require_modulus(n: int) -> None:
    """Mod p^0 every residue is 0, so a check at n < 1 would pass vacuously."""
    if n < 1:
        raise PreconditionViolated(f"n = {n} compares mod p^{n}")


def _first_mismatch(lhs: Sequence[int], rhs: Sequence[int], q: int) -> Optional[dict]:
    """First index where lhs != rhs mod q, or None; lists of equal length.
    Lists equal as ints are equal mod q.  Otherwise both sides are reduced
    and compared term by term in C, holding no reduced copy, up to the
    first mismatch."""
    if lhs == rhs:
        return None
    k = next(compress(count(), map(ne, map(mod, lhs, repeat(q)), map(mod, rhs, repeat(q)))), None)
    return None if k is None else {"index": k, "left": lhs[k] % q, "right": rhs[k] % q}


# ---------------------------------------------------------------------------
# congruence relations (Dwork / logarithmic / hat)


def check_congruence_relation(kind: str, params: HGParams, frob: Optional[FrobeniusSpec],
                              n: int, M: Optional[int] = None) -> CheckReport:
    """The congruence N/D ≡ [N]_{<p^n}/[D]_{<p^n} mod p^n, in the
    cross-multiplied form N [D]_{<p^n} ≡ D [N]_{<p^n} on coefficients
    0..M-1.

    kind: "dwork" (N = F, D = F^{(1)}(t^p), no frob needed), "log" (G over
    F, c in 1 + pW) or "hat" (Ghat over F, c in 1 + qW).  Both sides equal
    [N][D] below t^{p^n}, so only coefficients p^n..M-1 are decided: with
    N = [N] + t^{p^n} N_hi and D likewise, these are N_hi [D] against
    D_hi [N], truncated at M - p^n, and M <= p^n compares nothing.  A
    failure reports both full sides, adding the one coefficient of [N][D]
    at that index.  The modulus is n, except for kind="log" at p = 2 with
    c in 1+2W but not 1+4W, where the theorem only asserts mod p^{n-1};
    an exponent below 1 would decide nothing and is rejected."""
    _require_modulus(n)
    p = params.p
    pn = p ** n
    if M is None:
        M = 2 * pn
    if M <= pn:
        raise PreconditionViolated(f"M = {M} leaves no coefficient above p^n = {pn} to compare")
    if kind not in ("dwork", "log", "hat"):
        raise ValueError(f"unknown kind {kind!r}")
    info = _params_dict(params, n=n, M=M, kind=kind)
    if kind != "dwork":
        if frob is None:
            raise ValueError(f"kind={kind} needs a Frobenius twist")
        info["c"] = frob.c
        info["direction"] = frob.direction
        frob.validate(p, require_q=kind == "hat")
    n_eff = n - 1 if kind == "log" and p == 2 and frob.vp_c_minus_1(p) == 1 else n
    if n_eff < 1:
        raise PreconditionViolated(f"congruence-{kind} at p = {p}, n = {n} has modulus p^{n_eff}")

    # D(t) = g(t^step): g = F^{(1)} at step p for "dwork", g = F at step 1
    step = p if kind == "dwork" else 1
    if kind == "dwork":
        num, g = _quotients(params, [("A", 0, range(M)), ("A", 1, range(-(-M // p)))], n)
    else:
        g, num = _quotients(params, [("A", 0, range(M)),
                                     ("G" if kind == "log" else "Bhat", frob, range(M))], n)

    cut = pn // step  # [D] = g[:cut](t^step)
    lhs = polymul_spread(num[pn:], g[:cut], step, pn, M - pn)
    rhs = polymul_spread(num[:pn], g[cut:], step, pn, M - pn)
    q = p ** n_eff
    fail = _first_mismatch(lhs, rhs, q)
    if fail is not None:
        k = pn + fail["index"]
        low = sum(num[k - step * j] * g[j] for j in range((k - pn) // step + 1, cut))
        fail = {"index": k, "left": (fail["left"] + low) % q, "right": (fail["right"] + low) % q}
    return CheckReport(check=f"congruence-{kind}", params=info,
                       passed=fail is None, modulus=n_eff, first_failure=fail)


# ---------------------------------------------------------------------------
# Dwork transformation formula


def check_dwork_transformation(params: HGParams, n: int) -> CheckReport:
    """Cross-multiplied truncated form of F-Dw(t) = eps ((-1)^s t)^l F-Dw(1/t):

        t^{p-1-l} P(t) revQ(t) ≡ eps revP(t) Q(t^p)  mod p^n

    with P = [F]_{<p^n}, Q = [F^{(1)}]_{<p^{n-1}}, revP = t^{p^n-1} P(1/t),
    revQ = t^{p^n-p} Q(1/t^p).  revP(t) Q(t^p) = t^{2p^n-p-1} C(1/t) for
    C = P revQ, so one product C, computed as P(t) times (Q reversed)(t^p),
    gives both sides: the left is C shifted, the right is C reversed.
    eps is fitted at the first unit coefficient and then verified
    globally; the expected value is (-1)^{sl} for odd p."""
    _require_modulus(n)
    p, l = params.p, params.l
    pn = p ** n
    q = p ** n  # comparison modulus
    a_res, q_res = _quotients(params, [("A", 0, range(pn)), ("A", 1, range(pn // p))], n)
    c = polymul_spread(a_res, q_res[::-1], p, q, 2 * pn - p)

    deg = 2 * pn - 2  # covers both sides
    shift = p - 1 - l
    lhs = [0] * shift + c + [0] * l  # both deg + 1 long
    rhs = c[::-1] + [0] * (p - 1)
    info = _params_dict(params, n=n, l=l)

    d = next((d for d in range(deg + 1) if lhs[d] % p or rhs[d] % p), None)
    if d is None:
        raise NoUnitCoefficient("all compared coefficients vanish mod p")
    sign = next((e for e in (1, -1) if (lhs[d] - e * rhs[d]) % q == 0), None)
    if sign is None:
        failure = {"index": d, "left": lhs[d], "right": rhs[d]}
    else:
        failure = _first_mismatch(lhs, rhs if sign == 1 else [-r % q for r in rhs], q)
    if failure:
        return CheckReport(check="dwork-transform", params=info, passed=False,
                           modulus=n, sign=sign, first_failure=failure)
    # At p = 2 the reported sign is the +- prefactor of the transformation
    # formula itself: the fitted cross-multiplied sign differs from it by
    # (-1)^{sl}, which is what the fit absorbs for odd p.
    reported = sign if p != 2 else sign * (-1) ** ((params.s * l) % 2)
    return CheckReport(check="dwork-transform", params=info, passed=True,
                       modulus=n, sign=reported)


# ---------------------------------------------------------------------------
# braced-product lemma


def braced_residues(params: HGParams, top: int, n: int) -> list[int]:
    """(-1)^{f_x} {1}_x/{a}_x mod p^n for x <= top.  Both braced products
    are p-adic units, so the ratio is a running unit product: by x when
    p does not divide x, and by d/(n + (x-1)d) = 1/(a + x - 1), with
    a = n/d, when p does not divide n + (x-1)d.  A top at or past
    sys.maxsize, which no list can hold, raises PreconditionViolated."""
    if top >= sys.maxsize:
        raise PreconditionViolated(f"a table longer than {sys.maxsize} terms")
    p, q = params.p, params.q
    m = p ** n
    num, d = params.a.numerator, params.a.denominator
    out, r = [], 1 % m  # {1}_0/{a}_0 = 1, which is 0 mod p^0
    for x in range(top + 1):
        f = num + (x - 1) * d  # d (a + x - 1)
        if x % p:
            r = r * x % m
        if x and f % p:
            r = r * d * pow(f, -1, m) % m
        f_x = x % q - x % q // p
        out.append(-r % m if f_x % 2 else r)
    return out


def sweep_braced(params: HGParams, n: int) -> CheckReport:
    """All pairs 0 <= x, y <= p^{2n} with v_p(x+y+a) >= n.

    The partners y of x form the class l_n - x mod p^n, so x passes all
    its pairs at once when that class is constant and equal to the residue
    of x; only the other x scan their partners, in order, so the first
    failing pair is the first in (x, y) order."""
    _require_modulus(n)
    p = params.p
    pn, top = p ** n, p ** (2 * n)
    l_n = -_residue(params.a, p, pn) % pn  # y ≡ l_n - x mod p^n
    residues = braced_residues(params, top, n)
    # the residue of each class mod p^n when it is constant on the class
    constant = [residues[c] if len(set(residues[c::pn])) == 1 else None
                for c in range(pn)]
    fail = next(({"x": x, "y": y, "left": residues[x], "right": residues[y]}
                 for x in range(top + 1) if constant[(l_n - x) % pn] != residues[x]
                 for y in range((l_n - x) % pn, top + 1, pn) if residues[x] != residues[y]),
                None)
    return CheckReport(check="braced", params=_params_dict(params, n=n, range=top),
                       passed=fail is None, modulus=n, first_failure=fail)


# ---------------------------------------------------------------------------
# beta pairing


def sweep_beta_pairing(params: HGParams, c: Rational, n: int) -> CheckReport:
    """beta_lambda + beta-hat_{-lambda-a} ≡ 0 mod p^n at lambda = 0, 1, 2,
    1/2 (not at p = 2) and -1-a, with beta along sigma and beta-hat along
    sigma-hat; the first failing lambda is reported.  beta_lambda and
    beta-hat_{-lambda-a} are B_k/A_k and Bhat_k/A_k at their witnesses
    (`witness_for`), from one `_quotients` call.  Both need c in 1 + qW."""
    _require_modulus(n)
    frob, frob_hat = twist_pair(c)
    p = params.p
    frob.validate(p, require_q=True)
    pn = p ** n
    lambdas = [0, 1, 2, Fraction(1, 2), -1 - params.a]
    if p == 2:
        del lambdas[3]  # 1/2
    ks = [witness_for(lam, p, n) for lam in lambdas]  # each r_lambda, or p^n at r_lambda = 0
    r_a = _residue(params.a, p, pn)
    ks_hat = [(-k - r_a) % pn or pn for k in ks]  # the witness of -lambda - a
    betas, beta_hats = _quotients(params, [("B/A", frob, ks), ("Bhat/A", frob_hat, ks_hat)], n)
    for lam, b, bh in zip(lambdas, betas, beta_hats):
        if (b + bh) % pn:
            info = _params_dict(params, n=n, c=frob.c, lam=lam)
            return CheckReport(check="beta-pairing", params=info, passed=False, modulus=n,
                               first_failure={"beta": f"{b} mod {p}^{n}",
                                              "beta_hat": f"{bh} mod {p}^{n}"})
    return CheckReport(check="beta-pairing", params=_params_dict(params, n=n, c=frob.c),
                       passed=True, modulus=n)


# ---------------------------------------------------------------------------
# coefficient-sum lemma (section congruence)


def section_sums(params: HGParams, a_res: Sequence[int], n: int, d: int,
                 k: int) -> tuple[list[int], list[int]]:
    """(s1, s2) mod p^{d+1} for every m < p^n: the sums of A_i A_{p^n-1-j}
    over i + j = m with i ≡ k (s1) or p^n-1-j ≡ -k-a (s2) mod p^{n-d},
    as the products (masked A) rev(A) and A rev(masked A).  a_res holds
    A_0, ..., A_{p^n-1} mod p^{d+1}."""
    p = params.p
    pn, cls, mod = p ** n, p ** (n - d), p ** (d + 1)
    first, second = [0] * pn, [0] * pn  # A masked to class k, to class -k-a
    first[k::cls] = a_res[k::cls]
    r = (-_residue(params.a, p, cls) - k) % cls
    second[r::cls] = a_res[r::cls]
    return polymul(first, a_res[::-1], mod, pn), polymul(a_res, second[::-1], mod, pn)


def sweep_section(params: HGParams, n: int) -> CheckReport:
    _require_modulus(n)
    p = params.p
    a_res = _quotients(params, [("A", 0, range(p ** n))], n + 1)[0]
    for d in range(n + 1):
        level = [r % p ** (d + 1) for r in a_res]  # reduced once for every class k
        for k in range(p ** (n - d)):
            s1, s2 = section_sums(params, level, n, d, k)
            for m, (x, y) in enumerate(zip(s1, s2)):
                if x != y:
                    return CheckReport(check="section-sums",
                                       params=_params_dict(params, n=n, d=d, k=k, m=m),
                                       passed=False, modulus=d + 1,
                                       first_failure={"s1": x, "s2": y})
    return CheckReport(check="section-sums", params=_params_dict(params, n=n),
                       passed=True, modulus=n + 1)


# ---------------------------------------------------------------------------
# main theorem congruence


def check_main_congruence(params: HGParams, c: Rational, n: int) -> CheckReport:
    """sum_{i+j=m} B_i A_{p^n-j-1} + Bhat_{p^n-j-1} A_i ≡ 0 mod p^n for
    every m in [0, 2(p^n-1)]; B along sigma, Bhat along sigma-hat, with c
    in 1 + qW."""
    _require_modulus(n)
    frob, frob_hat = twist_pair(c)
    frob.validate(params.p, require_q=True)
    q = params.p ** n
    a, b, bhat = _quotients(params, [("A", 0, range(q)), ("G", frob, range(q)),
                                     ("Bhat", frob_hat, range(q))], n)
    info = _params_dict(params, n=n, c=frob.c)
    # the sums over i + j = m are the coefficients of B rev(A) + rev(Bhat) A
    left = polymul(b, a[::-1], q, 2 * q - 1)
    del b  # each table is released after its last product
    right = polymul(bhat[::-1], a, q, 2 * q - 1)
    del a, bhat
    m = next(compress(count(), map(mod, map(add, left, right), repeat(q))), None)
    if m is not None:
        return CheckReport(check="main-congruence", params=info, passed=False, modulus=n,
                           first_failure={"m": m, "sum": (left[m] + right[m]) % q})
    return CheckReport(check="main-congruence", params=info, passed=True, modulus=n)


# ---------------------------------------------------------------------------
# ratio identity and interpolation sweeps


def sweep_ratio(params: HGParams) -> CheckReport:
    """The exact ratio identity at x = 1, ..., 200; the first failing x is
    reported."""
    x_max = 200
    info = _params_dict(params, x_max=x_max)
    for x, holds in enumerate(ratio_identity_holds(params, x_max), 1):
        if not holds:
            return CheckReport(check="ratio-identity", params=info, passed=False,
                               modulus=0, first_failure={"x": x})
    return CheckReport(check="ratio-identity", params=info, passed=True, modulus=0)


def check_ratio_interpolation(params: HGParams, c: Rational, n: int) -> CheckReport:
    """B_k/A_k and Bhat_k/A_k agree mod p^n at k and k + p^n for every
    k = 1, ..., p^n, with c in 1 + qW; both are read at k = 1, ..., 2p^n
    from one `_quotients` call."""
    _require_modulus(n)
    frob, frob_hat = twist_pair(c)
    frob.validate(params.p, require_q=True)
    p = params.p
    pn = p ** n
    info = _params_dict(params, n=n, c=frob.c, k_max=2 * pn)
    ks = range(1, 2 * pn + 1)
    sides = list(zip((False, True), _quotients(params, [("B/A", frob, ks),
                                                         ("Bhat/A", frob_hat, ks)], n)))
    for k in range(1, pn + 1):
        for hat, ratios in sides:
            left, right = ratios[k - 1], ratios[k - 1 + pn]
            if left != right:
                return CheckReport(check="interpolation", params=info, passed=False,
                                   modulus=n,
                                   first_failure={"k": k, "hat": hat,
                                                  "left": f"{left} mod {p}^{n}",
                                                  "right": f"{right} mod {p}^{n}"})
    return CheckReport(check="interpolation", params=info, passed=True, modulus=n)


def check_integrality(params: HGParams, c: Rational, n: int) -> CheckReport:
    """Every B_k and Bhat_k for k <= 2 p^n is p-integral, with c in 1 + qW;
    a non-integral value surfaces as a failed exact division (NotDivisible)."""
    _require_modulus(n)
    frob, frob_hat = twist_pair(c)
    # a bad c is outside the hypotheses, not an integrality failure
    frob.validate(params.p, require_q=True)
    count = 2 * params.p ** n + 1
    info = _params_dict(params, n=n, c=frob.c)
    try:
        _quotients(params, [("G", frob, range(count)), ("Bhat", frob_hat, range(count))], n)
    except NotDivisible as exc:
        return CheckReport(check="integrality", params=info, passed=False, modulus=n,
                           first_failure={"error": str(exc)})
    return CheckReport(check="integrality", params=info, passed=True, modulus=n)
