"""Tests for the interpolated functions beta and beta-hat."""

from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    PreconditionViolated,
    beta_values,
    embed_rational,
    ratio_identity_check,
    sweep_ratio,
    twist_pair,
    witness_for,
)
from padichg.hyper import SIGMA_HAT, _quotients
from padichg.padic import _residue

from oracle import braced_product, exact_a_table


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
                got = beta_values([Fraction(b)], P, frob, 2)[0]
                assert got == embed_rational(Fraction(1, b), 3, 2).residue

    def test_hat_at_minus_b_minus_a(self):
        P = params(Fraction(1, 2))
        frob = FrobeniusSpec(Fraction(1), SIGMA_HAT)
        for b in (1, 2):
            got = beta_values([-b - P.a], P, frob, 2, hat=True)[0]
            assert got == embed_rational(Fraction(-1, b), 3, 2).residue

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_unit_lambda_reads_no_table(self, p):
        # at p ∤ k the numerator of B_k is A_k, so B_k/A_k = 1/k, and likewise
        # Bhat_k/A_k = 1/(k + a) at p ∤ kd + n: at a unit lambda,
        # beta_lambda = 1/lambda and beta-hat_{-lambda-a} = -1/lambda mod p^n
        # whatever the A tables hold, so such a lambda decides no pairing
        n, q = 3, 4 if p == 2 else p
        m = p ** n
        lams = [lam for lam in (Fraction(1), Fraction(2), Fraction(-1), Fraction(7),
                                Fraction(1, 2), Fraction(-3, 5), Fraction(4, 3))
                if lam.numerator % p and lam.denominator % p]
        inverses = [pow(_residue(lam, p, m), -1, m) for lam in lams]
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5), Fraction(1)):
            if a.denominator % p == 0:
                continue
            for s in (1, 2, 3):
                P = HGParams.create(a, s, p)
                for c in (1, 1 + q, 1 - q):
                    frob, frob_hat = twist_pair(c)
                    betas = beta_values(lams, P, frob, n)
                    hats = beta_values([-lam - a for lam in lams], P, frob_hat, n, hat=True)
                    assert betas == inverses
                    assert hats == [-x % m for x in inverses]
                    ks = [k for k in range(1, 60) if k % p]
                    assert _quotients(P, [("B/A", frob, ks)], n)[0] == [pow(k, -1, m) for k in ks]
                    d, num = a.denominator, a.numerator
                    ks = [k for k in range(60) if (k * d + num) % p]
                    assert (_quotients(P, [("Bhat/A", frob_hat, ks)], n)[0]
                            == [d * pow(k * d + num, -1, m) % m for k in ks])

    def test_zero_at_a1(self):
        P = params(1)
        assert beta_values([Fraction(0)], P, FrobeniusSpec(Fraction(1)), 2) == [0]

    def test_witness_independence(self):
        # the witness shifted by p^n gives the same ratio mod p^n
        P = params(Fraction(1, 2), s=2)
        for hat, frob in ((False, FrobeniusSpec(Fraction(4))),
                          (True, FrobeniusSpec(Fraction(4), SIGMA_HAT))):
            for lam in (Fraction(0), Fraction(1, 2), Fraction(2)):
                k = witness_for(lam, 3, 2)
                kind = "Bhat/A" if hat else "B/A"
                first, shifted = _quotients(P, [(kind, frob, [k, k + 9])], 2)[0]
                assert first == shifted == beta_values([lam], P, frob, 2, hat=hat)[0]

    def test_rejects_c_outside_one_plus_p(self):
        for hat in (False, True):
            with pytest.raises(PreconditionViolated, match=r"not in 1 \+ 3W"):
                beta_values([Fraction(1)], params(Fraction(1, 2)), FrobeniusSpec(Fraction(2)), 2,
                            hat=hat)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            beta_values([Fraction(1)], params(1), FrobeniusSpec(Fraction(1)), 0)


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
    """The ratio identity on exact rationals, with {1}_x, {a}_x, A_x and
    A^{(1)}_{m_a} rebuilt for this x alone."""
    p, s, a, l = params.p, params.s, params.a, params.l
    m = x // p
    m_a = (x - 1 - l) // p + 1 if x - 1 >= l else 0
    corr = Fraction(factorial(m_a), factorial(m)) * Fraction(p) ** (m_a - m)
    a1 = exact_a_table(params, m_a + 1, level=1)[m_a]
    lhs = a1 * braced_product(a, x, p) ** s * corr ** s
    rhs = exact_a_table(params, x + 1)[x] * braced_product(1, x, p) ** s
    return lhs == rhs


GRID_A = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2), Fraction(2, 3),
          Fraction(-1, 2)]  # a < 0: negative factors n + jd on both sides


def chained(a, s, p, chain_a):
    """Parameters at (a, s, p) that carry the Dwork data l, q, e and a' of
    chain_a: for chain_a != a a wrong chain, hence a wrong A^{(1)}."""
    return replace(HGParams.create(chain_a, s, p), a=a)


class TestRatioIdentityTables:
    @pytest.mark.parametrize("a,p", [(Fraction(1, 2), 3), (Fraction(2, 3), 5),
                                     (Fraction(1, 3), 2), (Fraction(1, 4), 3)])
    @pytest.mark.parametrize("s", [1, 2])
    def test_shared_table_matches_per_x_oracle(self, a, p, s):
        # the sweep and the single-x check share one route of running products
        P = HGParams.create(a, s, p)
        assert sweep_ratio(P).passed
        for x in range(1, 61):
            assert ratio_identity_check(x, P) and ratio_identity_per_x(x, P)

    @settings(deadline=None)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
        st.just(p), st.sampled_from([a for a in GRID_A if a.denominator % p]),
        st.sampled_from([a for a in GRID_A if a.denominator % p]),
        st.integers(1, 3), st.integers(1, 300))))
    def test_integer_form_matches_exact_oracle(self, case):
        p, a, chain_a, s, x = case
        P = chained(a, s, p, chain_a)
        assert ratio_identity_check(x, P) == ratio_identity_per_x(x, P)

    def test_negated_dwork_prime_matches_exact_oracle(self):
        # with -a^{(1)} in place of a^{(1)} the two sides first differ by the
        # sign (-1)^s only (at m_a = 1), which an even power does not see
        P = HGParams.create(Fraction(1, 2), 1, 3)
        first = {}
        for s in (1, 2):
            Q = replace(P, s=s, a1=-P.a1)
            holds = [ratio_identity_check(x, Q) for x in range(1, 31)]
            assert holds == [ratio_identity_per_x(x, Q) for x in range(1, 31)]
            first[s] = holds.index(False) + 1
        assert first[1] < first[2]

    @pytest.mark.parametrize("a,p,chain_a", [
        (Fraction(1, 2), 3, Fraction(1, 4)), (Fraction(2, 3), 5, Fraction(1, 3)),
        (Fraction(1, 3), 2, Fraction(1, 5)), (Fraction(1, 2), 5, Fraction(2)),
    ])
    @pytest.mark.parametrize("s", [1, 2])
    def test_wrong_dwork_chain_fails_at_oracle_x(self, a, p, chain_a, s):
        P = chained(a, s, p, chain_a)
        first = next(x for x in range(1, 61) if not ratio_identity_per_x(x, P))
        rep = sweep_ratio(P)
        assert not rep.passed and rep.first_failure == {"x": first}
        assert all(ratio_identity_check(x, P) for x in range(1, first))
        assert not ratio_identity_check(first, P)
