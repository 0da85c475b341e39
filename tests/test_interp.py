"""Tests for the interpolated functions beta and beta-hat."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    PreconditionViolated,
    beta_at,
    braced_table,
    embed_rational,
    ratio_identity_check,
    witness_for,
)
from padichg.hyper import SIGMA_HAT, coefficient_ratios
from padichg.interp import ratio_tables

from oracle import braced_product, coeff_exact


def params(a, s=1, p=3):
    return HGParams.create(Fraction(a), s, p)


class TestWitness:
    def test_integer_residue(self):
        assert witness_for(Fraction(2), 3, 2) == 2

    def test_zero_maps_to_power(self):
        assert witness_for(Fraction(0), 3, 2) == 9

    def test_rational_point(self):
        assert witness_for(Fraction(1, 2), 3, 2) == 5

    @given(st.fractions(max_denominator=20), st.integers(1, 4))
    def test_witness_congruent_to_lambda(self, lam, n):
        p = 3
        if lam.denominator % p == 0:
            return
        k = witness_for(lam, p, n)
        assert 1 <= k <= p ** n
        assert embed_rational(lam, p, n) == embed_rational(k, p, n)


class TestBeta:
    def test_unit_integer_point(self):
        # beta at an integer b prime to p is 1/b, for any admissible c
        for c in (Fraction(1), Fraction(4)):
            P = params(Fraction(1, 2))
            frob = FrobeniusSpec(c)
            for b in (1, 2, 5):
                if b % 3 == 0:
                    continue
                got = beta_at(Fraction(b), P, frob, 2)
                assert got == embed_rational(Fraction(1, b), 3, 2)

    def test_hat_at_minus_b_minus_a(self):
        P = params(Fraction(1, 2))
        frob = FrobeniusSpec(Fraction(1), SIGMA_HAT)
        for b in (1, 2):
            got = beta_at(-b - P.a, P, frob, 2, hat=True)
            assert got == embed_rational(Fraction(-1, b), 3, 2)

    def test_zero_at_a1(self):
        P = params(1)
        got = beta_at(Fraction(0), P, FrobeniusSpec(Fraction(1)), 2)
        assert got.residue == 0

    def test_witness_independence(self):
        # the witness shifted by p^n gives the same ratio mod p^n
        P = params(Fraction(1, 2), s=2)
        for hat, frob in ((False, FrobeniusSpec(Fraction(4))),
                          (True, FrobeniusSpec(Fraction(4), SIGMA_HAT))):
            for lam in (Fraction(0), Fraction(1, 2), Fraction(2)):
                k = witness_for(lam, 3, 2)
                first, shifted = coefficient_ratios(P, frob, [k, k + 9], 2, hat)
                assert first == shifted == beta_at(lam, P, frob, 2, hat=hat).residue

    def test_rejects_c_outside_one_plus_p(self):
        for hat in (False, True):
            with pytest.raises(PreconditionViolated, match=r"not in 1 \+ 3W"):
                beta_at(Fraction(1), params(Fraction(1, 2)), FrobeniusSpec(Fraction(2)), 2,
                        hat=hat)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            beta_at(Fraction(1), params(1), FrobeniusSpec(Fraction(1)), 0)


class TestRatioIdentity:
    def test_a1_trivial(self):
        P = params(1)
        assert all(ratio_identity_check(x, P) for x in range(1, 30))

    def test_hand_value(self):
        # at x = 3 both routes give 8/5
        P = params(Fraction(1, 2))
        assert ratio_identity_check(3, P)

    def test_squared_multiplicity(self):
        P = params(Fraction(1, 2), s=2)
        assert ratio_identity_check(3, P)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            ratio_identity_check(0, params(1))

    @given(st.integers(1, 120),
           st.sampled_from([(Fraction(1, 2), 3), (Fraction(2, 3), 5),
                            (Fraction(1), 2), (Fraction(1, 4), 3)]),
           st.integers(1, 2))
    def test_holds_across_grid(self, x, pair, s):
        a, p = pair
        assert ratio_identity_check(x, HGParams.create(a, s, p))


def ratio_identity_per_x(x, params):
    """The ratio identity with {1}_x and {a}_x rebuilt for this x alone."""
    p, s, a, l = params.p, params.s, params.a, params.l
    m = x // p
    m_a = (x - 1 - l) // p + 1 if x - 1 >= l else 0
    corr = Fraction(factorial(m_a), factorial(m)) * Fraction(p) ** (m_a - m)
    lhs = coeff_exact(params, m_a, 1) * braced_product(a, x, p) ** s * corr ** s
    rhs = coeff_exact(params, x) * braced_product(1, x, p) ** s
    return lhs == rhs


class TestRatioIdentityTables:
    @pytest.mark.parametrize("a,p", [(Fraction(1, 2), 3), (Fraction(2, 3), 5),
                                     (Fraction(1, 3), 2), (Fraction(1, 4), 3)])
    @pytest.mark.parametrize("s", [1, 2])
    def test_shared_table_matches_per_x_oracle(self, a, p, s):
        P = HGParams.create(a, s, p)
        tables = ratio_tables(P, 60)
        for x in range(1, 61):
            shared = ratio_identity_check(x, P, tables)
            assert shared == ratio_identity_check(x, P) == ratio_identity_per_x(x, P)
            assert shared

    def test_other_parameter_table_breaks_identity(self):
        # the table argument is read: {a}_x of another a makes it fail
        P = HGParams.create(Fraction(1, 2), 1, 3)
        wrong = (braced_table(1, 10, 3), braced_table(Fraction(1, 4), 10, 3),
                 *ratio_tables(P, 10)[2:])
        assert not all(ratio_identity_check(x, P, wrong) for x in range(1, 11))
