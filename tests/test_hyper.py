"""Tests for coefficient sequences, their series builders and the integral
routes to G and Ghat that cross-check them."""

import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    NoPeriod,
    PreconditionViolated,
    SIGMA,
    SIGMA_HAT,
    b0_constant,
    b_coefficients,
    bhat_coefficients,
    compute_h,
    embed_rational,
    hg_series,
    iwasawa_log,
    twist_pair,
)
from padichg import hyper
from padichg.hyper import _quotients
from oracle import (
    b_exact,
    bhat_approx,
    coeff_exact,
    dwork_chain_exact,
    exact_a_table,
    hat_series,
    log_type_series,
    pochhammer,
    schoolbook,
)


def params(a, s=1, p=3):
    return HGParams.create(Fraction(a), s, p)


class TestParams:
    def test_rejects_nonpositive_integer_a(self):
        with pytest.raises(ValueError):
            params(0)
        with pytest.raises(ValueError):
            params(-2)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            HGParams.create(Fraction(1, 3), 1, 3)

    def test_frobenius_direction_validation(self):
        with pytest.raises(ValueError):
            FrobeniusSpec(Fraction(1), "sideways")

    def test_sigma_hat_inverts_c(self):
        frob, frob_hat = twist_pair(4)
        assert frob.residue(3, 27) == 4
        assert frob_hat.residue(3, 27) == 7  # 4 * 7 = 28

    def test_validate_depth_at_two(self):
        with pytest.raises(PreconditionViolated):
            FrobeniusSpec(Fraction(3)).validate(2, require_q=True)
        FrobeniusSpec(Fraction(5)).validate(2, require_q=True)


class TestTableLength:
    @pytest.mark.parametrize("kind", ["A", "B", "Bhat"])
    def test_longer_than_maxsize_rejected(self, kind, monkeypatch):
        # no list holds more than sys.maxsize terms: the length is an input
        # error, raised before any walk
        monkeypatch.setattr(hyper, "_walk", lambda *args: pytest.fail("a walk ran"))
        P, (frob, frob_hat) = params(Fraction(1, 2)), twist_pair(4)
        build = {"A": lambda count: hg_series(P, count, 2),
                 "B": lambda count: b_coefficients(P, frob, count, 2),
                 "Bhat": lambda count: bhat_coefficients(P, frob_hat, count, 2)}[kind]
        with pytest.raises(PreconditionViolated, match="a table longer than"):
            build(sys.maxsize + 1)

    @pytest.mark.parametrize("hat", [False, True])
    def test_witness_past_maxsize_rejected(self, hat, monkeypatch):
        # a list of witnesses, like a range, reads no index at or past
        # sys.maxsize: no walk reaches one
        monkeypatch.setattr(hyper, "_walk", lambda *args: pytest.fail("a walk ran"))
        P, frob = params(Fraction(1, 2)), FrobeniusSpec(4, SIGMA_HAT if hat else SIGMA)
        with pytest.raises(PreconditionViolated, match="a table longer than"):
            _quotients(P, [("Bhat/A" if hat else "B/A", frob, [1, sys.maxsize])], 2)

    @pytest.mark.parametrize("ks", [range(0, 3 ** 50, 2), range(3 ** 50, 0, -1)])
    def test_stepped_range_past_maxsize_rejected(self, ks, monkeypatch):
        # a stepped or descending range is bounded before it is made a list
        monkeypatch.setattr(hyper, "_walk", lambda *args: pytest.fail("a walk ran"))
        P, frob = params(Fraction(1, 2)), FrobeniusSpec(4)
        for request in (("A", 0, ks), ("B", frob, ks), ("Bhat/A", frob, ks)):
            with pytest.raises(PreconditionViolated, match="a table longer than"):
                _quotients(P, [request], 2)

    def test_b0_witness_past_maxsize_rejected(self, monkeypatch):
        # B_0 mod 3^40 is read at the witness 3^40, past sys.maxsize
        monkeypatch.setattr(hyper, "_walk", lambda *args: pytest.fail("a walk ran"))
        with pytest.raises(PreconditionViolated, match="a table longer than"):
            b0_constant(params(Fraction(1, 2)), FrobeniusSpec(4), 40)


class TestACoefficients:
    def test_a_equal_one_all_ones(self):
        P = params(1, s=3)
        assert all(coeff_exact(P, k) == 1 for k in range(10))

    def test_half_values(self):
        P = params(Fraction(1, 2))
        assert coeff_exact(P, 2) == Fraction(3, 8)
        assert coeff_exact(P, 3) == Fraction(5, 16)

    def test_square_multiplicity(self):
        P = params(Fraction(1, 2), s=2)
        assert coeff_exact(P, 1) == Fraction(1, 4)

    @given(st.integers(0, 25))
    def test_level_one_is_shifted_parameter(self, k):
        P = params(Fraction(1, 2), p=3)
        Q = HGParams.create(P.a1, P.s, P.p)
        assert coeff_exact(P, k, 1) == coeff_exact(Q, k)

    @given(st.integers(1, 30))
    def test_recurrence(self, k):
        P = params(Fraction(2, 3), s=2, p=5)
        step = ((P.a + k - 1) / k) ** P.s
        assert coeff_exact(P, k) == coeff_exact(P, k - 1) * step

    @given(st.integers(0, 60), st.integers(0, 2),
           st.sampled_from([(Fraction(2, 3), 5), (Fraction(1, 3), 2), (Fraction(1, 4), 3)]))
    def test_matches_pochhammer_oracle(self, k, level, pair):
        a, p = pair
        P = HGParams.create(a, 2, p)
        a_level = P.a_at(level)
        assert coeff_exact(P, k, level) == (pochhammer(a_level, k) / factorial(k)) ** 2


class TestLevels:
    @pytest.mark.parametrize("a,p,s", [(Fraction(1, 1000), 3, 1), (Fraction(1, 101), 2, 2),
                                       (Fraction(2, 3), 5, 2)])
    def test_level_of_one_period_is_level_zero(self, a, p, s):
        P = HGParams.create(a, s, p)
        assert _quotients(P, [("A", P.period, range(30))], 5)[0] == hg_series(P, 30, 5)

    @pytest.mark.parametrize("a,p", [(Fraction(1, 1000), 3), (Fraction(1, 101), 2)])
    def test_level_past_64_steps(self, a, p):
        P, prec = HGParams.create(a, 1, p), 5
        b = dwork_chain_exact(a, p)[3][70]
        expect = [embed_rational(x, p, prec).residue for x in exact_a_table(params(b, 1, p), 30)]
        assert _quotients(P, [("A", 70, range(30))], prec)[0] == expect


class TestTruncationPair:
    """([F]_{<p^n}, [F^{(1)}]_{<p^{n-1}}), the pair the Dwork checks build."""

    def test_p2_a1(self):
        P = HGParams.create(1, 1, 2)
        f, g = _quotients(P, [("A", 0, range(2)), ("A", 1, range(1))], 3)
        assert f == [1, 1]
        assert g == [1]

    def test_a1_odd_p(self):
        P = params(1, p=5)
        f, g = _quotients(P, [("A", 0, range(25)), ("A", 1, range(5))], 2)
        assert len(f) == 25 and len(g) == 5
        assert set(f) == {1}

    def test_half_n1(self):
        P = params(Fraction(1, 2))
        f = hg_series(P, 3, 4)
        expect = [Fraction(1), Fraction(1, 2), Fraction(3, 8)]
        assert f == [embed_rational(e, 3, 4).residue for e in expect]


class TestBCoefficients:
    def test_closed_form_a1(self):
        P = params(1)
        frob = FrobeniusSpec(Fraction(1))
        for k in range(1, 12):
            expect = Fraction(0) if k % 3 == 0 else Fraction(1, k)
            assert b_exact(P, frob, k) == expect

    def test_b1_is_a1(self):
        P = params(Fraction(1, 2), s=2, p=5)
        frob = FrobeniusSpec(Fraction(6))
        assert b_exact(P, frob, 1) == coeff_exact(P, 1)

    def test_hand_value_b3(self):
        P = params(Fraction(1, 2))
        frob = FrobeniusSpec(Fraction(1))
        assert b_exact(P, frob, 3) == Fraction(-1, 16)

    def test_table_prepends_constant(self):
        P = params(1)
        tab = b_coefficients(P, FrobeniusSpec(Fraction(1)), 4, 3)
        assert tab == [
            0, 1, embed_rational(Fraction(1, 2), 3, 3).residue, 0]


class TestB0:
    def test_a1_zero(self):
        P = params(1)
        assert b0_constant(P, FrobeniusSpec(Fraction(1)), 3).residue == 0

    def test_difference_is_minus_log_over_p(self):
        P = params(Fraction(1, 2))
        d = b0_constant(P, FrobeniusSpec(Fraction(4)), 2) \
            - b0_constant(P, FrobeniusSpec(Fraction(1)), 2)
        log_c = iwasawa_log(embed_rational(4, 3, 3))
        assert d == -log_c.exact_divide(3)

    def test_precision_consistency(self):
        P = params(Fraction(1, 2))
        frob = FrobeniusSpec(Fraction(4))
        assert b0_constant(P, frob, 3).reduce(2) == b0_constant(P, frob, 2)

    @pytest.mark.parametrize("c", [3, 7, -1])
    def test_precision_consistency_at_two_with_c_not_in_1_plus_4w(self, c):
        # B_2/A_2 mod 2 is not B_0 mod 2 here: B_0 mod 2 must be what the
        # deeper tables give
        P = HGParams.create(Fraction(1, 3), 1, 2)
        frob = FrobeniusSpec(Fraction(c))
        for prec in (1, 2, 3):
            assert b0_constant(P, frob, 5).reduce(prec) == b0_constant(P, frob, prec)


class TestBhatCoefficients:
    def test_a1_k2(self):
        P = params(1)
        assert bhat_approx(P, FrobeniusSpec(Fraction(1)), 2, 4) == 0

    def test_negative_shift_vanishes(self):
        P = params(Fraction(1, 2))
        assert bhat_approx(P, FrobeniusSpec(Fraction(1)), 0, 4) == 2

    def test_a1_k1(self):
        P = params(1)
        assert bhat_approx(P, FrobeniusSpec(Fraction(1)), 1, 4) == Fraction(1, 2)

    def test_table_matches_pointwise(self):
        P = params(Fraction(1, 2), s=2)
        frob = FrobeniusSpec(Fraction(4), SIGMA_HAT)
        tab = bhat_coefficients(P, frob, 6, 2)
        for k in range(6):
            direct = embed_rational(bhat_approx(P, frob, k, 5), 3, 5)
            assert tab[k] == direct.reduce(2).residue


def route_cases():
    """(params, c) over p in {2,3,5}, s in {1,2}, every admissible grid a
    and c in {1, 1+q}."""
    for p in (2, 3, 5):
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
            if a.denominator % p == 0:
                continue
            for s in (1, 2):
                P = HGParams.create(a, s, p)
                for c in (Fraction(1), Fraction(1 + P.q)):
                    yield P, c


class TestSeriesRoutes:
    """The integral routes of the oracle module against the closed-formula
    builders, on coefficients 0..2p^2-1."""

    def test_g_matches_b_table(self):
        for P, c in route_cases():
            frob = FrobeniusSpec(c)
            order = 2 * P.p ** 2
            g, f = log_type_series(P, frob, order, 3)
            assert g == b_coefficients(P, frob, order, 3), (P, c)
            assert f == hg_series(P, order, 3)

    def test_ghat_routes_agree(self):
        for P, c in route_cases():
            frob = FrobeniusSpec(c, SIGMA_HAT)
            order = 2 * P.p ** 2
            ghat, _ = hat_series(P, frob, order, 3)
            assert ghat == bhat_coefficients(P, frob, order, 3), (P, c)

    def test_g_closed_form_a1(self):
        P = params(1)
        g, f = log_type_series(P, FrobeniusSpec(Fraction(1)), 9, 2)
        for k in range(1, 9):
            expect = Fraction(0) if k % 3 == 0 else Fraction(1, k)
            assert g[k] == embed_rational(expect, 3, 2).residue
        assert set(f) == {1}

    def test_ghat_constant_term(self):
        P = params(Fraction(1, 2))
        ghat, _ = hat_series(P, FrobeniusSpec(Fraction(1), SIGMA_HAT), 4, 3)
        assert ghat[0] == embed_rational(2, 3, 3).residue

    def test_ghat_a1_k2_zero(self):
        P = params(1)
        ghat, _ = hat_series(P, FrobeniusSpec(Fraction(1), SIGMA_HAT), 4, 3)
        assert ghat[2] == 0


class TestComputeH:
    def test_a1(self):
        P = params(1)
        h = compute_h(P, 3)
        assert [c.residue for c in h.coeffs] == [1, 1, 1]

    def test_half(self):
        P = params(Fraction(1, 2))
        h = compute_h(P, 4)
        expect = [Fraction(1), Fraction(1, 2), Fraction(3, 8)]
        assert list(h.coeffs) == [embed_rational(e, 3, 4) for e in expect]

    def test_two_thirds_period_two(self):
        P = HGParams.create(Fraction(2, 3), 1, 5)
        h = compute_h(P, 2)
        assert len(h.residues) == 9  # degree (p-1)*r with r = 2

    # the orders of 3 mod 1000 and of 2 mod 101 are both 100
    @pytest.mark.parametrize("a,p,s", [(Fraction(1, 1000), 3, 1), (Fraction(1, 101), 2, 2)])
    def test_period_one_hundred(self, a, p, s):
        # h over the 100 levels of the orbit walked on Fractions, each level
        # an exact table of p terms, multiplied by the schoolbook loop
        P, prec = HGParams.create(a, s, p), 4
        m = p ** prec
        orbit, r = dwork_chain_exact(a, p)[3:]
        assert P.period == r == 100
        h = [1]
        for b in orbit[:r]:
            f = [embed_rational(x, p, prec).residue for x in exact_a_table(params(b, s, p), p)]
            h = schoolbook(h, f, m, len(h) + p - 1)
        assert compute_h(P, prec).residues == tuple(h)

    def test_no_period(self):
        with pytest.raises(NoPeriod):
            compute_h(params(Fraction(3, 2)), 2)


class TestCoefficientTables:
    def test_series_matches_table(self):
        P = params(Fraction(2, 3), s=2, p=5)
        for level in (0, 1):
            f = _quotients(P, [("A", level, range(6))], 3)[0]
            assert f == [embed_rational(coeff_exact(P, k, level), 5, 3).residue
                         for k in range(6)]
