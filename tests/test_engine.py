"""The residue engine (units mod p^w with exact valuations) against the
exact-rational oracle, its guard precisions, and its memory footprint."""

import re
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    NotDivisible,
    SIGMA,
    SIGMA_HAT,
    b0_constant,
    b_coefficients,
    beta_at,
    bhat_coefficients,
    check_integrality,
    embed_rational,
    hg_series,
    vp,
    witness_for,
)
from padichg import hyper
from padichg.padic import ratio_valuation, split_p

from oracle import b0_exact, b_exact, bhat_approx, coeff_exact, pochhammer, ratio_at

GRID_A = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
# the grid's a and 1 - a
A_VALUES = sorted(set(GRID_A) | {1 - a for a in GRID_A})
# largest N with a p^N-term B_0 oracle that stays quick
B0_PREC = {2: 8, 3: 6, 5: 4}


@st.composite
def cases(draw, max_prec=8):
    """(params, frob) over p in {2,3,5}, s in {1,2}, the grid's a and 1-a,
    c in {1, 1+q, 1-q} and both twist directions; and a precision."""
    p = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.sampled_from([a for a in A_VALUES if a.denominator % p]))
    P = HGParams.create(a, draw(st.sampled_from([1, 2])), p)
    c = draw(st.sampled_from([Fraction(1), Fraction(1 + P.q), Fraction(1 - P.q)]))
    frob = FrobeniusSpec(c, draw(st.sampled_from([SIGMA, SIGMA_HAT])))
    prec = draw(st.integers(1, min(max_prec, B0_PREC[p])))
    return P, frob, prec


def embedded(values, p, prec):
    return tuple(embed_rational(v, p, prec).residue for v in values)


SLOW = settings(max_examples=40, deadline=None)


class TestAgainstOracle:
    @SLOW
    @given(cases(), st.integers(1, 300), st.sampled_from([0, 1]))
    def test_a_and_a1(self, case, count, level):
        P, _, prec = case
        got = hg_series(P, count, prec, level=level).residues
        assert got == embedded((coeff_exact(P, k, level) for k in range(count)), P.p, prec)

    @SLOW
    @given(cases(), st.integers(1, 300))
    def test_b_with_b0(self, case, count):
        P, frob, prec = case
        expect = (b0_exact(P, frob, prec), *(b_exact(P, frob, k) for k in range(1, count)))
        assert b_coefficients(P, frob, count, prec).residues == embedded(expect, P.p, prec)

    @SLOW
    @given(cases(), st.integers(1, 300))
    def test_bhat(self, case, count):
        P, frob, prec = case
        expect = (bhat_approx(P, frob, k, prec) for k in range(count))
        assert bhat_coefficients(P, frob, count, prec).residues == embedded(expect, P.p, prec)

    @SLOW
    @given(cases(max_prec=4), st.sampled_from([Fraction(0), Fraction(1), Fraction(2),
                                                Fraction(1, 2), Fraction(-3, 4)]),
           st.booleans())
    def test_beta_and_beta_hat(self, case, lam, hat):
        P, frob, n = case
        if lam.denominator % P.p == 0:
            return
        k = witness_for(lam, P.p, n)
        got = beta_at(lam, P, frob, n, hat=hat)
        assert got == embed_rational(ratio_at(k, P, frob, n, hat), P.p, n)

    @given(cases())
    def test_b0_at_precision_one(self, case):
        P, frob, _ = case
        assert b0_constant(P, frob, 1) == embed_rational(b0_exact(P, frob, 1), P.p, 1)

    @given(cases())
    def test_count_one(self, case):
        P, frob, prec = case
        assert hg_series(P, 1, prec).residues == (1,)
        assert b_coefficients(P, frob, 1, prec).residues == (b0_constant(P, frob, prec).residue,)
        assert bhat_coefficients(P, frob, 1, prec).residues == \
            embedded([bhat_approx(P, frob, 0, prec)], P.p, prec)

    @pytest.mark.parametrize("a,s,p", [(Fraction(1, 3), 2, 5), (Fraction(1, 2), 1, 3),
                                       (Fraction(2, 3), 2, 2)])
    def test_valuation_at_or_past_precision_gives_zero(self, a, s, p):
        P = HGParams.create(a, s, p)
        prec = 2
        deep = [k for k in range(300) if vp(coeff_exact(P, k), p) >= prec]
        assert deep  # the case is not vacuous
        residues = hg_series(P, 300, prec).residues
        assert all(residues[k] == 0 for k in deep)


# Tables at p = 2 to precision 14 with s = 2, and at negative a.  Count 1
# has no k >= 1; the longer counts cross p, p^2, ..., where the divisor
# valuations, and so the guard precision, change.
DEEP_CASES = [(Fraction(1, 3), 2, 2, 14), (Fraction(-1, 3), 2, 2, 14),
              (Fraction(-1, 2), 1, 3, 6), (Fraction(-2, 3), 2, 5, 4)]
DEEP_TOP = {2: 9, 3: 5, 5: 3}


class TestDeepAgainstOracle:
    @pytest.mark.parametrize("a,s,p,prec", DEEP_CASES)
    @pytest.mark.parametrize("top", [None, 1, 0])
    def test_tables(self, a, s, p, prec, top):
        P = HGParams.create(a, s, p)
        count = 1 if top is None else p ** (DEEP_TOP[p] - top) + 1
        c = Fraction(1 - P.q)
        frob, frob_hat = FrobeniusSpec(c, SIGMA), FrobeniusSpec(c, SIGMA_HAT)
        assert hg_series(P, count, prec).residues == \
            embedded((coeff_exact(P, k) for k in range(count)), p, prec)
        b = b_coefficients(P, frob, count, prec).residues
        # the B_0 oracle walks p^prec exact terms: only where that is quick
        if prec <= B0_PREC[p]:
            assert b[0] == embed_rational(b0_exact(P, frob, prec), p, prec).residue
        assert b[1:] == embedded((b_exact(P, frob, k) for k in range(1, count)), p, prec)
        assert bhat_coefficients(P, frob_hat, count, prec).residues == \
            embedded((bhat_approx(P, frob_hat, k, prec) for k in range(count)), p, prec)


class TestNotDivisible:
    """A non-integral quotient is reported at its smallest k, whatever the
    divisor valuations of later k."""

    @pytest.mark.parametrize("bad", [(9, 12), (3, 9), (18, 15, 12)])
    def test_smallest_k_named(self, bad, monkeypatch):
        original = hyper._numerators
        count = 2 * 3 ** 2 + 1  # the B table of check_integrality at n = 2

        def corrupted(params, frob, a_res, w, hat):
            nums = original(params, frob, a_res, w, hat)
            if not hat and len(nums) == count:  # not the B_0 walk
                for k in bad:
                    nums[k] += 1  # the true numerator is divisible by p^{v_p(k)}
            return nums

        monkeypatch.setattr(hyper, "_numerators", corrupted)
        P = HGParams.create(Fraction(1, 2), 1, 3)
        message = f"numerator not divisible by 3^{vp(min(bad), 3)}"
        with pytest.raises(NotDivisible, match=re.escape(message)):
            b_coefficients(P, FrobeniusSpec(Fraction(4)), count, 2)
        rep = check_integrality(P, Fraction(4), 2)
        assert not rep.passed and rep.first_failure == {"error": message}


class TestValuations:
    @given(st.sampled_from([2, 3, 5]), st.sampled_from(A_VALUES + [Fraction(1), Fraction(7, 4),
                                                                  Fraction(-1, 2)]),
           st.integers(0, 400))
    def test_ratio_valuation_closed_form(self, p, a, k):
        if a.denominator % p == 0:
            return
        assert ratio_valuation(a, p, k) == vp(pochhammer(a, k) / factorial(k), p)

    @given(st.integers(1, 10 ** 6), st.sampled_from([2, 3, 5]))
    def test_split_p(self, x, p):
        v, u = split_p(x, p)
        assert x == p ** v * u and u % p

    def test_split_p_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            split_p(0, 3)


class TestGuards:
    """Raising the working precision by three digits and reducing gives the
    same residues: every guard is already enough."""

    @settings(max_examples=25, deadline=None)
    @given(cases(max_prec=5), st.integers(1, 200))
    def test_tables(self, case, count):
        P, frob, prec = case
        assert hg_series(P, count, prec + 3).reduce(prec) == hg_series(P, count, prec)
        assert hg_series(P, count, prec + 3, level=1).reduce(prec) == \
            hg_series(P, count, prec, level=1)
        assert b_coefficients(P, frob, count, prec + 3).reduce(prec) == \
            b_coefficients(P, frob, count, prec)
        assert bhat_coefficients(P, frob, count, prec + 3).reduce(prec) == \
            bhat_coefficients(P, frob, count, prec)

    @SLOW
    @given(cases(max_prec=3))
    def test_b0(self, case):
        P, frob, prec = case
        assert b0_constant(P, frob, prec + 3).reduce(prec) == b0_constant(P, frob, prec)


def _deep_size(obj, seen=None) -> int:
    """Number of entries in obj and in every container it holds."""
    seen = set() if seen is None else seen
    if id(obj) in seen or not isinstance(obj, (dict, list, set)):
        return 0
    seen.add(id(obj))
    items = list(obj.values()) if isinstance(obj, dict) else list(obj)
    return len(items) + sum(_deep_size(x, seen) for x in items)


def test_large_table_leaves_no_module_state():
    P = HGParams.create(Fraction(1, 3), 2, 2)
    hg_series(P, 1, 14)

    def sizes():
        return {(name, key): _deep_size(value)
                for name, mod in sys.modules.items() if name.startswith("padichg")
                for key, value in vars(mod).items() if not key.startswith("__")}

    before = sizes()
    for _ in range(2):
        hg_series(P, 2 ** 14, 14)
    grown = {key: (before.get(key, 0), size) for key, size in sizes().items()
             if size > before.get(key, 0)}
    assert not grown
