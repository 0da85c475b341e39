"""Hypergeometric coefficient sequences and the polynomial h.

Computes A_k (and the Dwork-prime levels A_k^{(i)}), the logarithmic-type
coefficients B_k with their constant term and the hatted coefficients
Bhat_k.  Each sequence has one builder returning its residues mod p^prec
as a list of ints, lowest degree first: the series F (`hg_series`), G
(`b_coefficients`) and Ghat (`bhat_coefficients`).  They all read one
parameter object, `HGParams`: a, s and p with the Dwork data of a at p,
from which every Dwork prime a^{(i)} and the period are read.

The coefficients are p-integral, so each is one residue mod p^w.  Every
table comes from `_quotients`, which serves all the tables of a check in
one call (A_k^{(i)} at any level; B_k, Bhat_k and their ratios to A_k as
exact quotients): it reads one guard precision w off the valuations of
all its requests, walks (b)_k/k! into one list of A_k mod p^w once per
distinct Dwork prime b, splitting the p-parts off exactly and carrying
p^v as an exact power, and reads each request off its walk, in its own
order, to form and divide exactly its numerators mod p^w in one loop
over its hits, with one inversion per walk and per request.  A ratio to
A_k is 1/D_k off its hits, so it reads A only there.  A walk covers
ascending runs of indices, merged from the index sets read at b: a dense
table is one run that it steps through, while the ratios B_k/A_k and
Bhat_k/A_k at a few witnesses (beta, B_0) are short runs far apart, and
the walk multiplies each long gap between runs in at once as a product
of an arithmetic progression, so their memory grows with the number of
witnesses, not with their size.
Each long class mod p of such a product is a baby-step/giant-step
product: one polynomial over a block of p^e terms, truncated at the degree
past which the giant steps vanish mod p^w, evaluated at every block.  A
gap of J indices then costs about sqrt(J) Python steps times a small
degree.  The twist c^{a'} of Bhat is one modular power.  Tables are built
per call, or per union of calls under an entry bound (`_quotient_calls`),
and nothing is cached, the Dwork data included.  No coefficient is formed
as an exact rational: the exact routes to A_k, B_k and Bhat_k are test
oracles.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import prod
from operator import add
from typing import Optional, Sequence

from .padic import (
    NotDivisible,
    Padic,
    PadicError,
    PreconditionViolated,
    Rational,
    _residue,
    check_prime,
    ratio_valuations,
    split_p,
)
from .series import TruncSeries, polymul

SIGMA = "sigma"
SIGMA_HAT = "sigma_hat"


class NoPeriod(PadicError):
    """The Dwork-prime orbit of a does not return to a."""


@dataclass(frozen=True)
class HGParams:
    """Equal-parameter data (a, ..., a) with multiplicity s at the prime
    p, and the Dwork data of a at p: l = -a mod p in [0, p), q = p (4 at
    p = 2), e = l' - floor(l'/p) with l' = -a mod q in [0, q), and the
    Dwork prime a1 = a' = (a + l)/p.  With a = n/d, a' = ((n + l d)/p)/d
    in lowest terms, as p ∤ d."""

    a: Fraction
    s: int
    p: int
    l: int
    q: int
    e: int
    a1: Fraction

    @classmethod
    def create(cls, a: Rational, s: int, p: int) -> "HGParams":
        """A p that is not prime raises ValueError; an a that is a
        nonpositive integer or has p in its denominator is outside the
        hypotheses and raises PreconditionViolated (also a ValueError)."""
        check_prime(p)
        a = a if isinstance(a, Fraction) else Fraction(a)
        if a.denominator == 1 and a <= 0:
            raise PreconditionViolated("a must avoid the nonpositive integers")
        if a.denominator % p == 0:
            raise PreconditionViolated(f"denominator of a = {a} is divisible by {p}")
        if s < 1:
            raise ValueError("s must be positive")
        q = 4 if p == 2 else p
        l = -_residue(a, p, p) % p
        l_q = -_residue(a, p, q) % q
        n, d = a.numerator, a.denominator
        return cls(a, s, p, l, q, l_q - l_q // p, Fraction((n + l * d) // p, d))

    def a_at(self, i: int) -> Fraction:
        """The i-th Dwork prime a^{(i)}: a, a', then b -> (b + l_b)/p with
        l_b = -b mod p.  Every term keeps the denominator d of a, so the
        walk runs on the numerators: m -> (m + l d)/p with l = -m/d mod p."""
        if i < 2:
            return self.a1 if i else self.a
        p, m, d = self.p, self.a1.numerator, self.a1.denominator
        minus_inv_d = -pow(d, -1, p)
        for _ in range(i - 1):
            m = (m + m * minus_inv_d % p * d) // p
        return Fraction(m, d)

    @property
    def period(self) -> Optional[int]:
        """The least r >= 1 with a^{(r)} = a, or None when there is none.

        On the numerators in (0, d] one step is m -> m/p mod d, a
        permutation, so every a in (0, 1] returns after the order of p
        mod d steps.  A numerator above d falls and one below 1 rises at
        every step, into (0, d], which no step leaves: an a outside
        (0, 1] never returns."""
        n, d = self.a.numerator, self.a.denominator
        if not 0 < n <= d:
            return None
        r, x = 1, self.p % d
        while x > 1:  # x = p^r mod d, 0 at d = 1
            x = x * self.p % d
            r += 1
        return r

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
        if not isinstance(self.c, Fraction):
            object.__setattr__(self, "c", Fraction(self.c))

    def residue(self, p: int, m: int) -> int:
        """The constant the coefficient formulas read mod m, a power of p:
        c along sigma, and along sigma-hat the inverse of c's residue."""
        r = _residue(self.c, p, m)
        return r if self.direction == SIGMA else pow(r, -1, m)

    def vp_c_minus_1(self, p: int) -> Optional[int]:
        """v_p(c - 1), None at c = 1, read off the integers n - d and d of c = n/d."""
        n, d = self.c.numerator, self.c.denominator
        return None if n == d else split_p(n - d, p)[0] - split_p(d, p)[0]

    def validate(self, p: int, *, require_q: bool = False) -> None:
        """c in 1 + pW, or 1 + 4W at p = 2 when require_q.  Then c is a unit
        and v_p(1/c - 1) = v_p(c - 1), so 1/c is in the same set."""
        need = 2 if (require_q and p == 2) else 1
        if self.c != 1 and self.vp_c_minus_1(p) < need:
            raise PreconditionViolated(f"c = {self.c} is not in 1 + {4 if need == 2 else p}W")


def twist_pair(c: Rational) -> tuple[FrobeniusSpec, FrobeniusSpec]:
    """(sigma, sigma-hat) with the same constant c."""
    return FrobeniusSpec(c, SIGMA), FrobeniusSpec(c, SIGMA_HAT)


# ---------------------------------------------------------------------------
# the residue engine: ((a)_k/k!)^s mod p^w, walked with an exact power of p


# The ratio walk multiplies a gap of more than _JUMP indices in at once
# (`_progression`) and steps through shorter ones; `_progression` reduces
# mod p^w after every _CHUNK terms, and takes a class of _BSGS terms or
# more by baby and giant steps.  Measured with Python 3.11 on a 2-vCPU
# Xeon VM: at p <= 5 a jump over 32 indices costs about what 32 steps do
# and one over 64 about 0.6 of it (at p = 7 the two meet near 64); chunks
# of 32 to 64 terms multiply fastest; a class of 2,048 terms takes 0.3 to
# 0.9 of the time of its chunked product at p <= 7 and w <= 30, and up to
# 1.3 times it at w = 40, where the two meet near 4,096 terms.
_JUMP = 32
_CHUNK = 64
_BSGS = 2048


def _progression(start: int, step: int, count: int, p: int, w: int) -> tuple[int, int]:
    """(u, v) with the product of start + i·step over i < count equal to
    p^v times a unit congruent to u mod p^w.  Needs p ∤ step and no zero
    term.

    The terms prime to p form p - 1 classes of i mod p, each a range
    c + j·S, j < J, with S = p·step.  A class of J >= _BSGS terms is a
    baby-step/giant-step product: Q(u) = prod_{t<B} (c + t·S + u) with
    B = p^e is built mod u^D and evaluated by Horner at the giant steps
    u = b·B·S.  Every such u has v_p(u) >= e + v_p(S) = e + 1, so the
    terms of degree D = ceil(w/(e + 1)) and up vanish mod p^w; B is the
    power of p with the fewest steps (B + J/B)·D.  The rest of a class,
    and a shorter class, is multiplied by `math.prod` chunk by chunk.  The
    terms p divides are p times (start + i0·step)/p + j·step, again a
    progression with step `step`: for the numerators n + (k-1)d of (a)_k
    this is the Dwork-prime step a -> a', so the p-parts come from
    recursing on it."""
    if count <= 0:
        return 1, 0
    m = p ** w
    i0 = -start * pow(step, -1, p) % p  # p | start + i·step iff i ≡ i0 mod p
    unit = 1
    for r in range(p):
        if r == i0:
            continue
        terms = range(start + r * step, start + count * step, p * step)
        size = len(terms)
        if size >= _BSGS:
            e = min(range(size.bit_length() + 1),
                    key=lambda e: (p ** e + size // p ** e) * -(-w // (e + 1)))
            big, deg = p ** e, -(-w // (e + 1))
            q = [1] + [0] * (deg - 1)  # Q mod u^D, lowest degree first
            upper = range(deg - 1, 0, -1)
            for x in terms[:big]:
                for i in upper:
                    q[i] = (q[i] * x + q[i - 1]) % m
                q[0] = q[0] * x % m
            q.reverse()
            done = size - size % big
            for u in range(0, done * terms.step, big * terms.step):
                y = 0
                for coeff in q:
                    y = y * u + coeff
                unit = unit * y % m
            terms = terms[done:]
        for lo in range(0, len(terms), _CHUNK):
            unit = unit * prod(terms[lo:lo + _CHUNK]) % m
    inner = (count - i0 + p - 1) // p  # the i = i0 + jp below count
    u, v = _progression((start + i0 * step) // p, step, inner, p, w)
    return unit * u % m, v + inner


def _runs(sets: Sequence[Sequence[int]]) -> list[list[int]]:
    """The ascending runs [start, last] a walk covers to reach every index
    in sets.  An ascending range (of any step) is one span and each entry
    of another sequence a point; a span joins the run before it unless it
    starts more than _JUMP past that run's last index.  The walk starts at
    k = 0, so a first span within _JUMP of 0 opens its run there."""
    runs = []
    for lo, hi in sorted(span for ks in sets if ks for span in
                         ([(ks[0], ks[-1])] if isinstance(ks, range) else zip(ks, ks))):
        if runs and lo - runs[-1][1] <= _JUMP:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo if lo > _JUMP else 0, hi])
    return runs


def _walk_back(xs: list[int], order: Sequence[int], factors: Sequence[int], inv: int,
               m: int) -> int:
    """Divide xs[order[j]] by the product of factors[:j + 1] mod m in place,
    given inv, the inverse of the product of all of them (times a constant
    every quotient takes), walking back; returns the inverse left over."""
    for i, factor in zip(reversed(order), reversed(factors)):
        xs[i] = xs[i] * inv % m
        inv = inv * factor % m
    return inv


def _walk(a: Fraction, p: int, runs: Sequence[Sequence[int]], s: int, w: int) -> list[int]:
    """((a)_k/k!)^s mod p^w, one entry per index k of each of the ascending
    runs [start, last] (`_runs`), in order.

    Walks the recurrence (a)_k/k! = (a)_{k-1}/(k-1)! * (a+k-1)/k, with
    a + k - 1 = (n + (k-1)d)/d, from k = 0: it jumps to the start of each
    run and steps on to its last index.  A step splits the p-part off its
    numerator and denominator exactly.  A jump multiplies a long gap in at
    once: its numerators form a progression with step d and its
    denominators k·d are d^gap times one with step 1 (`_progression`).  The
    unit parts of the numerators and of the denominators are kept as two
    running products, and p^v, v = v_p((a)_k/k!) >= 0, as an exact power;
    each entry is the numerator product times p^v.  The last denominator
    product is inverted once, and walking back over the denominator factor
    of each step or jump divides every entry by its own (`_walk_back`)."""
    m = p ** w
    n, d = a.numerator, a.denominator
    out, factors = [], []
    put, put_factor = out.append, factors.append
    num = den = pv = 1
    done = 0
    for start, last in runs:
        factor = 1
        if start > done:
            un, vn = _progression(n + done * d, d, start - done, p, w)
            ud, vd = _progression(done + 1, 1, start - done, p, w)
            num = num * un % m
            factor = ud * pow(d, start - done, m) % m
            den = den * factor % m
            pv = pv * p ** (vn - vd) if vn >= vd else pv // p ** (vd - vn)
        put(num * pv % m)
        put_factor(factor)
        f = n + start * d  # the numerator of the step to start + 1
        for k in range(start + 1, last + 1):
            if f % p:
                num = num * f % m
            else:  # split the p-part off f
                x = f // p
                pv *= p
                while not x % p:
                    x //= p
                    pv *= p
                num = num * x % m
            f += d
            if k % p:
                factor = k * d
            else:  # and off k
                x = k // p
                pv //= p
                while not x % p:
                    x //= p
                    pv //= p
                factor = x * d
            den = den * factor % m
            put(num * pv % m)
            put_factor(factor)
        done = last
    _walk_back(out, range(len(out)), factors, pow(den, -1, m), m)
    del factors, put_factor  # before the powers, which hold a second list
    if s == 1:
        return out
    return [x * x % m for x in out] if s == 2 else [pow(x, s, m) for x in out]


def _read(index: tuple[list[int], list[int]], table: list[int], ks: Sequence[int]) -> list[int]:
    """table at each k of ks, in ks order.  table holds one entry per index
    of each run of a walk, and index = (the run starts, the shift of each
    run): the entry of k is k plus the shift of the last run starting at or
    before k.  A range (of any positive step) lies in one run and is read
    as one slice, or is table itself when it reads all of it."""
    starts, shifts = index
    if not isinstance(ks, range):
        return [table[k + shifts[bisect_right(starts, k) - 1]] for k in ks]
    lo = ks.start + shifts[bisect_right(starts, ks.start) - 1] if ks else 0
    return table if len(ks) == len(table) else table[lo:lo + len(ks) * ks.step:ks.step]


# ---------------------------------------------------------------------------
# series builders: residues mod p^prec, formed at the guard precision the
# exact valuations call for


def _quotients(params: HGParams, requests: Sequence[tuple], prec: int) -> list[list[int]]:
    """The residues mod p^prec of each request, in order.  ("A", level, ks)
    gives A_k^{(level)}; (kind, frob, ks) with kind "B" or "Bhat" gives B_k
    or Bhat_k along frob, "B/A" and "Bhat/A" divide them by A_k, and "G"
    gives B_k for ks = range(count) with B_0 (`b0_constant`) at k = 0.  ks
    is any sequence, in any order and with repeats (a range of step 1 is
    read as a span, another range as its values); k >= 1 for B.  Each table
    is a new list, but an "A" request reading all of a walk at w = prec
    gets the walk's.

    With a = n/d, B_k = N_k/D_k with D_k = k, and Bhat_k = d·N_k/D_k with
    D_k = k·d + n.  N_k is A_k except at the hits, the k with p | D_k
    (k ≡ 0 mod p for B, k ≡ l for Bhat), where it subtracts the twisted
    A^{(1)}_{k//p} and is divided exactly by p^v, v = v_p(D_k), plus
    e = s·v_p(A_k) for a ratio (whose quotient is 1/D_k off the hits, so a
    ratio reads and values A_k, as x // p^e, at its hits only).  One guard w = prec +
    the largest v serves every request, as a residue mod p^w reduces
    exactly to any lower precision.  (b)_k/k! is walked once per distinct
    Dwork prime b, into one list of A_k = ((b)_k/k!)^s mod p^w (`_walk`),
    over the runs (`_runs`) of the index sets read at b: the ks of the "A"
    requests at a level with prime b, of B and Bhat if b = a, the hits of
    the ratios if b = a, and the j the B-types read A^{(1)} at if b = a'
    (a range for a range).  Each request is read off its walk (`_read`);
    one loop over its hits, in ks order, forms and divides N_k there, so
    the first k whose quotient is not p-integral raises NotDivisible.  The
    unit parts of D_k (read off k away from the hits) are inverted through
    one modular inversion of their product (`_walk_back`), and d enters
    with it.  Any k at or past sys.maxsize, which no walk's list can reach,
    raises PreconditionViolated before any walk."""
    if prec < 1:
        raise ValueError("precision must be positive")
    p, s, a, a1 = params.p, params.s, params.a, params.a1
    n, d = a.numerator, a.denominator
    parts = []  # as divided: G is B_0, B/A at its witness, then B (kind "G": joined)
    for kind, tag, ks in requests:
        if kind != "A":
            tag.validate(p)
        if kind == "G":
            top = prec + 1 if p == 2 and tag.vp_c_minus_1(p) == 1 else prec
            parts += [("B/A", tag, [p ** top] if ks else []), ("G", tag, ks[1:])]
        else:
            parts.append((kind, tag, ks))
    plans = []  # (kind, tag, Dwork prime, ks, the ks A is read at, hits, j, v_p(D_k), s·v_p(A_k))
    reads: dict[int, tuple] = {}  # by m (ints hash fast): Dwork prime m/d, the ks read there
    w = prec  # the guard
    for kind, tag, ks in parts:
        if ks and (max(ks[0], ks[-1]) if isinstance(ks, range) else max(ks)) >= sys.maxsize:
            raise PreconditionViolated(f"a table longer than {sys.maxsize} terms")
        if isinstance(ks, range) and ks.step != 1:
            ks = list(ks)
        dense = isinstance(ks, range)
        prime = params.a_at(tag) if kind == "A" else a  # the tag of "A" is its level
        at, hits, js, vds, vas = ks, (), (), (), ()
        if kind != "A":
            hat = kind.startswith("Bhat")
            if ks and (ks[0] if dense else min(ks)) < (0 if hat else 1):
                raise ValueError("Bhat needs k >= 0" if hat else "B needs k >= 1")
            # p | D_k = k·dk + nk exactly at k ≡ r mod p, r = 0 (B) or l = -a
            # (Bhat); for a range, the j = k // p there run from ceil((start - r)/p) on
            r, dk, nk = (params.l, d, n) if hat else (0, 1, 0)
            if dense:
                hits = range((r - ks.start) % p, len(ks), p)
                hit_ks = ks[hits.start::p]
                js = range(-((r - ks.start) // p), -((r - ks.stop) // p))
            else:
                hits = [i for i, k in enumerate(ks) if k % p == r]
                hit_ks = [ks[i] for i in hits]
                js = [k // p for k in hit_ks]
            reads.setdefault(a1.numerator, (a1, []))[1].append(js)
            vds = top = [split_p(k * dk + nk, p)[0] for k in hit_ks]
            if kind.endswith("/A"):  # the largest v_p(D_k) + s·v_p(A_k)
                at, vas = hit_ks, [s * e for e in ratio_valuations(a, p, hit_ks)]
                top = map(add, vds, vas)
            w = max(w, prec + max(top, default=0))
        reads.setdefault(prime.numerator, (prime, []))[1].append(at)
        plans.append((kind, tag, prime, ks, at, hits, js, vds, vas))
    walks = {}  # by m: ((the run starts, their shifts), A at m/d mod p^w, one entry per index)
    for b, (prime, sets) in reads.items():
        runs = _runs(sets)
        starts = [start for start, _ in runs]
        sizes = accumulate((last - start + 1 for start, last in runs), initial=0)
        shifts = [size - start for size, start in zip(sizes, starts)]  # entry of k: k + shift
        walks[b] = (starts, shifts), _walk(prime, p, runs, s, w)
    big, m = p ** w, p ** prec
    out = []
    for kind, frob, prime, ks, at, hits, js, vds, vas in plans:
        index, table = walks[prime.numerator]
        res = _read(index, table, at)  # A_k (at level 0 for B-types)
        if kind == "A":
            out.append(res if w == prec else [x % m for x in res])
            continue
        hat, ratio = kind.startswith("Bhat"), kind.endswith("/A")
        nums = [1] * len(ks) if ratio else list(res) if res is table else res
        r, dk, nk = (params.l, d, n) if hat else (0, 1, 0)
        hit_units = []  # the unit part of D_k at each hit (times A_k's for a ratio)
        # N_k = A_k - c^{k/p} A^{(1)}_{k/p} (B), A_k - (-1)^{se} c^{(k+a)/p}
        # A^{(1)}_j at k = l + jp (Bhat), and c^{(k+a)/p} = c^{a'} c^j.  The one
        # fractional power is exact as an integer one: c^{p^{w-1}} ≡ 1 mod p^w
        # for c ≡ 1 mod p (every odd c at p = 2), so c^{a'} ≡ c^e for any
        # e ≡ a' mod p^{w-1}.  c^j is carried from one j to the next (back to
        # an earlier j by a power of the inverse).
        c = frob.residue(p, big)
        twist = params.sign_se() * pow(c, _residue(a1, p, big // p), big) if hat else 1
        j_prev = 0
        for h, (i, j, a1_j, v) in enumerate(zip(hits, js, _read(*walks[a1.numerator], js), vds)):
            twist = twist * (c if j - j_prev == 1 else pow(c, j - j_prev, big)) % big
            j_prev = j
            # a ratio reads A_k at its hits only, in hit order
            x, u = res[h if ratio else i], (ks[i] * dk + nk) // p ** v
            if ratio:  # A_k is p^e times a unit mod p^(w - e), and w - e >= prec
                e = vas[h]
                v, u = v + e, u * (x // p ** e)
            nums[i], rem = divmod((x - twist * a1_j) % big, p ** v)
            if rem:
                raise NotDivisible(f"numerator not divisible by {p}^{v}")
            hit_units.append(u % m)
        # off the hits D_k is a unit: for a range, the k from each of its
        # first p entries on in steps of p, with D_k in steps of p·dk
        if isinstance(ks, range):
            rest = [(range(i, len(ks), p), range(k * dk + nk, ks.stop * dk + nk, p * dk))
                    for i, k in enumerate(ks[:p]) if k % p != r]
        else:
            order = [i for i, k in enumerate(ks) if k % p != r]
            rest = [(order, [ks[i] * dk + nk for i in order])]
        segments = [(hits, hit_units), *rest]  # the order both passes take
        acc = 1  # the product of the unit parts before each entry
        for order, factors in segments:
            for i, u in zip(order, factors):
                nums[i] = nums[i] * acc % m
                acc = acc * u % m
        inv = pow(acc, -1, m) * dk % m  # d enters with the inverse
        for order, factors in reversed(segments):
            inv = _walk_back(nums, order, factors, inv, m)
        if kind == "G":  # B_0 (none for count 0) goes in front of B, in place
            nums[:0] = out.pop()
        out.append(nums)
    return out


# The most entries (terms requested) of a union that `_quotient_calls`
# builds.  For every check at p = 5, a = 1/2, c in {1, 6} and n = 1..N
# (Python 3.11, 2-vCPU Xeon VM), the triple's union of 14,628 entries (N = 4)
# took 10-13 ms against 22-37 ms call by call, at the same peak RSS; 71,128
# (N = 5) 46-59 against 99-160 ms at an 11% higher peak, 351,628 (N = 6) a 25% higher.
_UNION_ENTRIES = 1 << 15


def _quotient_calls(calls: Sequence[tuple]) -> list[Optional[list[list[int]]]]:
    """Per `_quotients` call (params, requests, prec), all with one params,
    its tables from a union, or None when no union served it.  In ascending
    prec the calls fill one union after another while it holds at most
    _UNION_ENTRIES entries: per (kind, tag), the widest span of their ranges
    of step 1, off which each such range is read, and the other requests as
    they are.  A union of two or more calls is built at the highest prec
    among them and each call gets its tables mod p^prec.  A call with an
    index at or past sys.maxsize joins none; a union that raises serves none."""
    unions = [[[], {}, 0]]  # each: (a call, its requests' spans), spans by (kind, tag), entries
    for i in sorted(range(len(calls)), key=lambda i: calls[i][2]):
        for union in (unions[-1], [[], {}, 0]):  # the open union, else a new one
            joined, spans, size = union
            refs, undo = [], []  # each request's span (None for the rest), each span as it was
            for kind, tag, ks in calls[i][1]:
                span = None
                if isinstance(ks, range) and ks.step == 1 and ks:
                    span = spans.setdefault((kind, tag), [ks.start, ks.start])
                    undo.append((span, span[:]))
                    size += max(span[1], ks.stop) - min(span[0], ks.start) - span[1] + span[0]
                    span[:] = min(span[0], ks.start), max(span[1], ks.stop)
                elif ks and max((ks[0], ks[-1]) if isinstance(ks, range) else ks) >= sys.maxsize:
                    size += sys.maxsize  # as many entries as no union holds: the call joins none
                else:
                    size += len(ks)
                refs.append(span)
            if not joined or size <= _UNION_ENTRIES:
                break
            for span, old in reversed(undo):  # the call opens the next union
                span[:] = old
        if union is not unions[-1]:
            unions.append(union)
        joined.append((i, refs))
        union[2] = size
    out = [None] * len(calls)
    for joined, spans, _ in unions:
        if len(joined) < 2:
            continue
        params, _, top = calls[joined[-1][0]]
        wide = [(span, (*key, range(*span))) for key, span in spans.items() if span[0] < span[1]]
        own = [request for i, refs in joined for span, request in zip(refs, calls[i][1])
               if span is None]
        try:
            tables = _quotients(params, [request for _, request in wide] + own, top)
        except Exception:  # noqa: BLE001 - each call then raises, or not, on its own
            continue
        for (span, _), table in zip(wide, tables):
            span.append(table)
        left = iter(tables[len(wide):])
        for i, refs in joined:
            requests, prec = calls[i][1:]
            got = [next(left) if span is None else span[2][ks.start - span[0]:ks.stop - span[0]]
                   for span, (_, _, ks) in zip(refs, requests)]
            m = params.p ** prec
            out[i] = got if prec == top else [[x % m for x in table] for table in got]
    return out


def hg_series(params: HGParams, order: int, prec: int) -> list[int]:
    """F truncated at t^order; a later Dwork level is a `_quotients` "A" request."""
    return _quotients(params, [("A", 0, range(order))], prec)[0]


def b0_constant(params: HGParams, frob: FrobeniusSpec, prec: int) -> Padic:
    """B_0, computed by interpolation: B_0 ≡ B_{p^N}/A_{p^N} mod p^N, so its
    guard is w = 2N + v_p(A_{p^N}).  The walk reads A at the one witness
    p^N and A^{(1)} at p^{N-1}, jumping to each past the step threshold.

    At p = 2 with c in 1 + 2W but not 1 + 4W, B_k/A_k mod 2^N is not a
    function of k mod 2^N (k and k + 3·2^N differ at k ≡ 2 mod 4), and
    B_2/A_2 is not B_0 mod 2; the witness there is 2^{N+1}, past which
    every 2^M gives the same residue."""
    return Padic(params.p, prec, _quotients(params, [("G", frob, [0])], prec)[0][0])


def b_coefficients(params: HGParams, frob: FrobeniusSpec, count: int, prec: int) -> list[int]:
    """G: B_k for k < count; index 0 is the interpolated constant term.
    A numerator not divisible by p^{v_p(k)} raises NotDivisible."""
    return _quotients(params, [("G", frob, range(count))], prec)[0]


def bhat_coefficients(params: HGParams, frob: FrobeniusSpec, count: int, prec: int) -> list[int]:
    """Ghat: Bhat_k for k < count via the closed coefficient formula."""
    return _quotients(params, [("Bhat", frob, range(count))], prec)[0]


def compute_h(params: HGParams, prec: int) -> TruncSeries:
    """h(t): the product of the degree-<p truncations of F over one period
    of the Dwork-prime orbit."""
    r = params.period
    if r is None:
        raise NoPeriod(f"no period found for a = {params.a} at p = {params.p}")
    out, *rest = _quotients(params, [("A", i, range(params.p)) for i in range(r)], prec)
    for f in rest:
        out = polymul(out, f, params.p ** prec, len(out) + len(f) - 1)
    return TruncSeries(params.p, prec, tuple(out))
