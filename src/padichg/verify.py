"""Finite, machine-checkable congruence checks.

Each checker evaluates one theorem, lemma or conjecture instance at fixed
parameters and modulus and returns a CheckReport.  Cross-multiplied forms
are used throughout so that no series division is needed: a congruence
of quotients N1/D1 = N2/D2 with unit denominators becomes
N1*D2 = N2*D1 on coefficients.
Each checker validates its hypotheses on entry, before it builds any
table, and raises PreconditionViolated outside them: n >= 1, a in
HGParams, c in 1 + pW, and c in 1 + qW (q = 4 at p = 2) for every check
that reads the hatted side (`_hatted_twists`).  The suite runner skips the
cells whose checker raises it.
Each check the suite names has one entry point here; one that reads
tables is a step (`_stepped`) that yields its one `_quotients` call, so a
runner can start steps (`_start`), build their calls together and finish
each (`_finish`, the one place a step's own call is made, when no union
served it).  A congruence sum f_i g_i ≡ 0 on coefficients (main,
relations, section sums) is decided on one packed sum with no list of a
product, and a failure is recomputed at its index as dot products; a
statement and its mirror image are read once.  The braced sweep decides
its pairs on the residues of two periods, x < 2p^n.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import add, mod, ne, neg
from typing import Callable, Generator, Optional

from .padic import NotDivisible, PadicError, PreconditionViolated, Rational, _residue
from .series import _slots, first_nonzero, polymul
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
        params = {k: str(v) for k, v in self.params.items()}
        return json.dumps({**vars(self), "params": params}, sort_keys=True)


def _params_dict(params: HGParams, **extra) -> dict:
    return {"a": params.a, "s": params.s, "p": params.p, **extra}


def _stepped(steps: Callable[..., Generator]) -> Callable[..., CheckReport]:
    """The checker whose step is steps(*args): a generator that yields the
    arguments (params, requests, prec) of one `_quotients` call and returns
    its report from the tables sent back (`_finish`)."""
    @functools.wraps(steps)
    def checker(*args, **kwargs) -> CheckReport:
        step = steps(*args, **kwargs)
        return _finish(step, next(step))
    checker.steps = steps
    return checker


def _start(checker: Callable, *args):
    """(the checker's step, started, and the call it yields), or the report
    of a checker with no steps."""
    if not hasattr(checker, "steps"):
        return checker(*args)
    step = checker.steps(*args)
    return step, next(step)


def _finish(step: Generator, call: tuple, tables: Optional[list] = None) -> CheckReport:
    """The report of a started step, sent tables (each dropped from their list
    as the step takes it) or, with tables None, those of its own call made with
    the module's `_quotients` as it is then; what that raises is thrown in."""
    try:
        try:
            if tables is None:
                tables = _quotients(*call)
        except Exception as exc:  # noqa: BLE001 - the step decides what it raises
            step.throw(exc)
        else:
            step.send(map(tables.pop, [0] * len(tables)))
    except StopIteration as done:  # a step yields once
        return done.value


def _require_modulus(n: int) -> None:
    """Mod p^0 every residue is 0, so a check at n < 1 would pass vacuously."""
    if n < 1:
        raise PreconditionViolated(f"n = {n} compares mod p^{n}")


def _hatted_twists(p: int, c: Rational, n: int) -> tuple[FrobeniusSpec, FrobeniusSpec]:
    """twist_pair(c) once n >= 1, then c in 1 + qW along sigma, hold: a bad
    c is outside the hypotheses, not a failed congruence."""
    _require_modulus(n)
    frob, frob_hat = twist_pair(c)
    frob.validate(p, require_q=True)
    return frob, frob_hat


# ---------------------------------------------------------------------------
# congruence relations (Dwork / logarithmic / hat)


@_stepped
def check_congruence_relation(kind: str, params: HGParams, frob: Optional[FrobeniusSpec],
                              n: int, M: Optional[int] = None) -> CheckReport:
    """The congruence N/D ≡ [N]_{<p^n}/[D]_{<p^n} mod p^n, in the
    cross-multiplied form N [D]_{<p^n} ≡ D [N]_{<p^n} on coefficients
    0..M-1.

    kind: "dwork" (N = F, D = F^{(1)}(t^p), no frob needed), "log" (G over
    F, c in 1 + pW) or "hat" (Ghat over F, c in 1 + qW).  Both sides equal
    [N][D] below t^{p^n}, so only coefficients p^n..M-1 are decided: with
    N = [N] + t^{p^n} N_hi and D likewise, these are N_hi [D] - D_hi [N],
    truncated at M - p^n (per class mod p for kind "dwork"), and M <= p^n
    compares nothing.  A failure reports both full sides at its index.
    The modulus is n, except for kind="log" at p = 2 with c in 1+2W but
    not 1+4W, where the theorem only asserts mod p^{n-1} (and the tables
    are built mod p^{n-1}); an exponent below 1 would decide nothing and
    is rejected."""
    _require_modulus(n)
    p = params.p
    pn = p ** n
    M = 2 * pn if M is None else M
    if M <= pn:
        raise PreconditionViolated(f"M = {M} leaves no coefficient above p^n = {pn} to compare")
    if kind not in ("dwork", "log", "hat"):
        raise ValueError(f"unknown kind {kind!r}")
    info = _params_dict(params, n=n, M=M, kind=kind)
    if kind != "dwork":
        if frob is None:
            raise ValueError(f"kind={kind} needs a Frobenius twist")
        info.update(c=frob.c, direction=frob.direction)
        frob.validate(p, require_q=kind == "hat")
    n_eff = n - 1 if kind == "log" and p == 2 and frob.vp_c_minus_1(p) == 1 else n
    if n_eff < 1:
        raise PreconditionViolated(f"congruence-{kind} at p = {p}, n = {n} has modulus p^{n_eff}")

    # D(t) = g(t^step), g = F^{(1)} at step p ("dwork") or F; tables as 8-byte words
    step = p if kind == "dwork" else 1
    other = (("A", 1, range(-(-M // p))) if kind == "dwork" else
             ("G" if kind == "log" else "Bhat", frob, range(M)))
    tables = [array("Q", t) for t in (yield params, [("A", 0, range(M)), other], n_eff)]
    num, g = tables if kind == "dwork" else tables[::-1]

    q = p ** n_eff
    cut = pn // step  # [D] = g[:cut](t^step), D_hi = g[cut:](t^step)
    # class r mod step of N_hi [D] - D_hi [N] at its i-th index, p^n + r + step i,
    # with -[N] packed as -x mod q
    hits = ((r, first_nonzero(
        [(num[pn + r::step], g[:cut]),
         (array("Q", map(mod, map(neg, num[r:pn:step]), repeat(q))), g[cut:])],
        q, len(range(r, M - pn, step)))) for r in range(min(step, M - pn)))
    k = min((pn + r + step * i for r, i in hits if i is not None), default=None)
    # [D] N and D [N] at k: N_{k - step j} g_j for j < cut, and for k - step j < p^n
    fail = None if k is None else {
        "index": k, "left": sum(num[k - step * j] * g[j] for j in range(cut)) % q,
        "right": sum(num[k - step * j] * g[j]
                     for j in range((k - pn) // step + 1, k // step + 1)) % q}
    return CheckReport(check=f"congruence-{kind}", params=info,
                       passed=fail is None, modulus=n_eff, first_failure=fail)


# ---------------------------------------------------------------------------
# Dwork transformation formula


@_stepped
def check_dwork_transformation(params: HGParams, n: int) -> CheckReport:
    """Cross-multiplied truncated form of F-Dw(t) = eps ((-1)^s t)^l F-Dw(1/t):

        t^{p-1-l} P(t) revQ(t) ≡ eps revP(t) Q(t^p)  mod p^n

    with P = [F]_{<p^n}, Q = [F^{(1)}]_{<p^{n-1}}, revP = t^{p^n-1} P(1/t),
    revQ = t^{p^n-p} Q(1/t^p).  revP(t) Q(t^p) = t^{2p^n-p-1} C(1/t) for
    C = P revQ, so one product C, computed as P(t) times (Q reversed)(t^p),
    gives both sides: C' = t^{p-1-l} C is an eps-palindrome of degree N =
    2p^n-2-l, decided on the pairs (C'_k, C'_{N-k}), k <= N/2.  C is held as
    its p classes mod p, one product each, and read by interleaving them
    forward and backward.  eps is fitted at the first unit pair, then
    verified globally; the expected value is (-1)^{sl} for odd p."""
    _require_modulus(n)
    p, l = params.p, params.l
    pn = q = p ** n  # q: the comparison modulus
    a_res, q_res = yield params, [("A", 0, range(pn)), ("A", 1, range(pn // p))], n
    # class r mod p of C is class r of P times Q reversed, 2p^{n-1} - 1 terms each
    rev_q = q_res[::-1]
    classes = [polymul(a_res[r::p], rev_q, q, 2 * len(rev_q) - 1) for r in range(p)]

    def sides():  # C'_k and C'_{N-k} for k <= N/2: C shifted by p-1-l, C reversed
        forward = chain.from_iterable(zip(*classes))
        backward = chain.from_iterable(zip(*map(reversed, reversed(classes))))
        return islice(chain(repeat(0, p - 1 - l), forward), (2 * pn - l) // 2), backward

    info = _params_dict(params, n=n, l=l)
    d, left, right = next(((d, x, y) for d, (x, y) in enumerate(zip(*sides())) if x % p or y % p),
                          (None, 0, 0))
    if d is None:
        raise NoUnitCoefficient("all compared coefficients vanish mod p")
    sign = next((e for e in (1, -1) if (left - e * right) % q == 0), None)
    # the first k with left - sign right not 0 mod q; both sides are residues mod q
    k = d if sign is None else next(compress(count(), map(ne, *sides()) if sign == 1 else map(
        mod, map(add, *sides()), repeat(q))), None)
    if k is not None:
        left, right = next(islice(zip(*sides()), k, None))
        return CheckReport(check="dwork-transform", params=info, passed=False, modulus=n,
                           sign=sign, first_failure={"index": k, "left": left,
                                                     "right": (sign or 1) * right % q})
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
    a = n/d, when p does not divide n + (x-1)d."""
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
    """All pairs 0 <= x, y <= p^{2n} with v_p(x+y+a) >= n, decided on x < p^n.
    Each factor of r_x depends on x mod p^n, its sign on x mod q | p^n (at
    p^n = 2 every unit is 1), so r_{x+p^n} = r_x U with U = r_{p^n}: at U = 1
    every partner class l_n - x mod p^n is constant, and at U != 1 none is
    and x = 0 fails: the first failing pair has x < p^n and y one of x's
    first two partners."""
    _require_modulus(n)
    p = params.p
    pn, top = p ** n, p ** (2 * n)
    if top >= sys.maxsize:  # the size rule of the range the lemma states
        raise PreconditionViolated(f"a table longer than {sys.maxsize} terms")
    l_n = -_residue(params.a, p, pn) % pn  # y ≡ l_n - x mod p^n
    r = braced_residues(params, 2 * pn - 1, n)
    fail = next(({"x": x, "y": y, "left": r[x], "right": r[y]} for x in range(pn)
                 for y in ((l_n - x) % pn, (l_n - x) % pn + pn) if r[x] != r[y]), None)
    return CheckReport(check="braced", params=_params_dict(params, n=n, range=top),
                       passed=fail is None, modulus=n, first_failure=fail)


# ---------------------------------------------------------------------------
# beta pairing


@_stepped
def sweep_beta_pairing(params: HGParams, c: Rational, n: int) -> CheckReport:
    """beta_lambda + beta-hat_{-lambda-a} ≡ 0 mod p^n at lambda = p·i for
    i < p^{min(n,4)-1} and at -1-a if it is in pZ_p (at a unit lambda both
    are 1/k and 1/(k + a) whatever A holds), with beta along sigma and
    beta-hat along sigma-hat; the first failing lambda is reported.  They
    are B_k/A_k and Bhat_k/A_k at their witnesses (`witness_for`), read in one
    step.  Both need c in 1 + qW."""
    p = params.p
    frob, frob_hat = _hatted_twists(p, c, n)
    pn = p ** n
    lambdas = [p * i for i in range(p ** (min(n, 4) - 1))]
    if params.l == 1:  # -a ≡ 1 mod p
        lambdas.append(-1 - params.a)
    ks = [witness_for(lam, p, n) for lam in lambdas]
    r_a = _residue(params.a, p, pn)
    ks_hat = [witness_for(-k - r_a, p, n) for k in ks]  # the witness of -lambda - a
    betas, beta_hats = yield params, [("B/A", frob, ks), ("Bhat/A", frob_hat, ks_hat)], n
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


@_stepped
def sweep_section(params: HGParams, n: int) -> CheckReport:
    """s1 ≡ s2 mod p^{d+1} for d <= n, k < p^{n-d} and m < p^n: the sums of
    A_i A_{p^n-1-j} over i + j = m with i ≡ k (s1) or p^n-1-j ≡ r = -k-a (s2)
    mod p^{n-d}, so s1 - s2 = (masked A) rev(A) - A rev(masked A).  Over
    2p^n - 1 coefficients the difference of class r is that of class k
    negated and reversed: one sum decides k on its first p^n, r on its last."""
    _require_modulus(n)
    p = params.p
    pn = p ** n
    a_res, = yield params, [("A", 0, range(pn))], n + 1
    for d in range(n + 1):
        cls, q = p ** (n - d), p ** (d + 1)
        level = [x % q for x in a_res]  # reduced once for every class k
        rev = level[::-1]
        fails = []  # (class, first failing m, partner class)
        for k in range(cls):
            r = (-_residue(params.a, p, cls) - k) % cls  # the class of p^n-1-j in s2
            if r < k:  # decided with class r
                continue
            first, second = [0] * pn, [0] * pn  # A masked to class k; -rev(A masked to r)
            first[k::cls] = level[k::cls]
            second[(pn - 1 - r) % cls::cls] = [-x % q for x in level[r::cls][::-1]]
            pairs = [(first, rev), (second, level)]
            if any(_slots(pairs, q, 2 * pn - 1)):  # no list unless a class fails
                diff = list(_slots(pairs, q, 2 * pn - 1))
                fails += [(c, m, o) for c, o, half in ((k, r, diff), (r, k, reversed(diff)))
                          for m in islice(compress(count(), islice(half, pn)), 1)]
        if fails:
            k, m, r = min(fails)
            lo = pn - 1 - m  # s1 pairs i with p^n-1-m+i, s2 pairs u with u-lo
            s1 = sum(level[i] * level[lo + i] for i in range(k, m + 1, cls)) % q
            s2 = sum(level[u - lo] * level[u] for u in range(lo + (r - lo) % cls, pn, cls)) % q
            return CheckReport(check="section-sums",
                               params=_params_dict(params, n=n, d=d, k=k, m=m),
                               passed=False, modulus=d + 1, first_failure={"s1": s1, "s2": s2})
    return CheckReport(check="section-sums", params=_params_dict(params, n=n),
                       passed=True, modulus=n + 1)


# ---------------------------------------------------------------------------
# main theorem congruence


@_stepped
def check_main_congruence(params: HGParams, c: Rational, n: int) -> CheckReport:
    """sum_{i+j=m} B_i A_{p^n-j-1} + Bhat_{p^n-j-1} A_i ≡ 0 mod p^n for
    every m in [0, 2(p^n-1)]; B along sigma, Bhat along sigma-hat, with c
    in 1 + qW."""
    frob, frob_hat = _hatted_twists(params.p, c, n)
    q = params.p ** n
    # as 8-byte words, a fifth of their size as ints, under the products' peak
    a, b, bhat = (array("Q", t) for t in (yield params, [
        ("A", 0, range(q)), ("G", frob, range(q)), ("Bhat", frob_hat, range(q))], n))
    # the sums over i + j = m are the coefficients of B rev(A) + rev(Bhat) A
    m = first_nonzero([(b, a[::-1]), (bhat[::-1], a)], q, 2 * q - 1)
    fail = None if m is None else {"m": m, "sum": sum(  # B_i A_{q-1-j} + Bhat_{q-1-j} A_i
        b[i] * a[i + q - 1 - m] + bhat[i + q - 1 - m] * a[i]
        for i in range(max(0, m - q + 1), min(m, q - 1) + 1)) % q}
    return CheckReport(check="main-congruence", params=_params_dict(params, n=n, c=frob.c),
                       passed=fail is None, modulus=n, first_failure=fail)


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


@_stepped
def check_ratio_interpolation(params: HGParams, c: Rational, n: int) -> CheckReport:
    """B_k/A_k and Bhat_k/A_k agree mod p^n at k and k + p^n for every
    k = 1, ..., p^n, with c in 1 + qW; both are read at k = 1, ..., 2p^n
    in one step."""
    p = params.p
    frob, frob_hat = _hatted_twists(p, c, n)
    pn = p ** n
    info = _params_dict(params, n=n, c=frob.c, k_max=2 * pn)
    ks = range(1, 2 * pn + 1)
    sides = list(zip((False, True), (yield params, [("B/A", frob, ks),
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


@_stepped
def check_integrality(params: HGParams, c: Rational, n: int) -> CheckReport:
    """Every B_k and Bhat_k for k <= 2 p^n is p-integral, with c in 1 + qW;
    a non-integral value surfaces as a failed exact division (NotDivisible)."""
    frob, frob_hat = _hatted_twists(params.p, c, n)
    count = 2 * params.p ** n + 1
    info = _params_dict(params, n=n, c=frob.c)
    try:
        yield params, [("G", frob, range(count)), ("Bhat", frob_hat, range(count))], n
    except NotDivisible as exc:
        return CheckReport(check="integrality", params=info, passed=False, modulus=n,
                           first_failure={"error": str(exc)})
    return CheckReport(check="integrality", params=info, passed=True, modulus=n)
