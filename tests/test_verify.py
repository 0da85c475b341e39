"""Tests for the congruence checkers and sweeps."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    PreconditionViolated,
    b0_constant,
    b_coefficients,
    beta_at,
    bhat_coefficients,
    check_beta_pairing,
    check_braced_congruence,
    check_congruence_relation,
    check_dwork_transformation,
    check_integrality,
    check_main_congruence,
    check_ratio_interpolation,
    check_section_congruence,
    sweep_beta_pairing,
    sweep_braced,
    sweep_ratio,
    sweep_section,
    twist_pair,
)
from padichg.hyper import SIGMA_HAT

from oracle import hat_series, log_type_series, schoolbook


def params(a, s=1, p=3):
    return HGParams.create(Fraction(a), s, p)


class TestCongruenceRelations:
    def test_dwork_p2_a1(self):
        rep = check_congruence_relation("dwork", HGParams.create(1, 1, 2),
                                        None, 1, M=8)
        assert rep.passed and rep.modulus == 1

    def test_log_a1_c1(self):
        rep = check_congruence_relation("log", params(1),
                                        FrobeniusSpec(Fraction(1)), 1, M=9)
        assert rep.passed

    def test_hat_half_squared(self):
        rep = check_congruence_relation("hat", params(Fraction(1, 2), s=2),
                                        FrobeniusSpec(Fraction(1), SIGMA_HAT),
                                        2, M=18)
        assert rep.passed

    def test_log_weakened_at_two(self):
        # c in 1+2W but not 1+4W: modulus drops to n-1
        P = HGParams.create(Fraction(1, 5), 1, 2)
        rep = check_congruence_relation("log", P, FrobeniusSpec(Fraction(3)), 2)
        assert rep.passed and rep.modulus == 1

    def test_modulus_below_one_rejected(self):
        # log at p = 2 with c in 1+2W but not 1+4W and n = 1 would compare
        # mod 2^0, which decides nothing
        P = HGParams.create(Fraction(1, 3), 1, 2)
        for c in (Fraction(3), Fraction(7)):
            with pytest.raises(PreconditionViolated):
                check_congruence_relation("log", P, FrobeniusSpec(c), 1)
        with pytest.raises(PreconditionViolated):
            check_congruence_relation("dwork", params(1), None, 0)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            check_congruence_relation("nope", params(1), None, 1)
        with pytest.raises(ValueError):
            check_congruence_relation("log", params(1), None, 1)

    def test_report_serializes(self):
        rep = check_congruence_relation("dwork", params(1), None, 1)
        payload = json.loads(rep.to_json())
        assert payload["passed"] is True and payload["check"] == "congruence-dwork"


class TestDworkTransformation:
    def test_counterexample_sign(self):
        P = HGParams.create(1, 1, 2)
        for n in (1, 2, 3):
            rep = check_dwork_transformation(P, n)
            assert rep.passed and rep.sign == -1

    def test_half_at_three(self):
        rep = check_dwork_transformation(params(Fraction(1, 2)), 2)
        assert rep.passed and rep.sign == -1  # l = 1

    def test_a2_at_five(self):
        rep = check_dwork_transformation(params(2, p=5), 2)
        assert rep.passed and rep.sign == -1  # l = 3

    def test_quarter_at_five(self):
        P = params(Fraction(1, 4), p=5)
        rep = check_dwork_transformation(P, 2)
        assert rep.passed and rep.sign == (-1) ** P.l


class TestBraced:
    def test_hand_case(self):
        rep = check_braced_congruence(params(Fraction(1, 2)), 0, 1, 1)
        assert rep.passed

    def test_symmetric_pair(self):
        # x = y = 2 with 2x + 1/2 = 9/2, valuation 2: both sides coincide
        rep = check_braced_congruence(params(Fraction(1, 2)), 2, 2, 2)
        assert rep.passed

    def test_p2_hand_case(self):
        rep = check_braced_congruence(HGParams.create(1, 1, 2), 0, 1, 1)
        assert rep.passed

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_braced_congruence(params(Fraction(1, 2)), 1, 1, 1)

    @settings(deadline=None)
    @given(st.sampled_from([(Fraction(1, 2), 3), (Fraction(2), 5), (Fraction(1), 2)]),
           st.integers(1, 2))
    def test_sweep(self, pair, n):
        a, p = pair
        rep = sweep_braced(HGParams.create(a, 1, p), n)
        assert rep.passed


class TestBetaPairing:
    def test_unit_lambda(self):
        P = params(Fraction(1, 2))
        rep = check_beta_pairing(Fraction(1), P, twist_pair(Fraction(1)), 2)
        assert rep.passed

    def test_lambda_zero_a1(self):
        P = params(1)
        rep = check_beta_pairing(Fraction(0), P, twist_pair(Fraction(1)), 2)
        assert rep.passed

    def test_half_lambda_twisted(self):
        P = params(Fraction(1, 2), s=2)
        rep = check_beta_pairing(Fraction(1, 2), P, twist_pair(Fraction(4)), 2)
        assert rep.passed

    def test_direction_validation(self):
        pair = (FrobeniusSpec(Fraction(1)), FrobeniusSpec(Fraction(1)))
        with pytest.raises(PreconditionViolated):
            check_beta_pairing(Fraction(1), params(1), pair, 1)

    def test_sweep_default_lambdas(self):
        rep = sweep_beta_pairing(params(Fraction(1, 2)), Fraction(4), 2)
        assert rep.passed


class TestSectionSums:
    def test_hand_m0(self):
        rep = check_section_congruence(params(Fraction(1, 2)), 1, 0, 0, 0)
        assert rep.passed

    def test_hand_m1(self):
        rep = check_section_congruence(params(Fraction(1, 2)), 1, 0, 1, 1)
        assert rep.passed

    def test_d_equals_n(self):
        rep = check_section_congruence(params(Fraction(1, 2)), 1, 1, 0, 1)
        assert rep.passed

    def test_bad_indices(self):
        with pytest.raises(PreconditionViolated):
            check_section_congruence(params(Fraction(1, 2)), 1, 0, 9, 0)

    def test_sweeps(self):
        for a in (Fraction(1, 2), Fraction(2)):
            for n in (1, 2):
                assert sweep_section(params(a), n).passed


class TestMainCongruence:
    def test_a1_c1(self):
        rep = check_main_congruence(params(1), Fraction(1), 1)
        assert rep.passed

    def test_half_twisted_n2(self):
        rep = check_main_congruence(params(Fraction(1, 2)), Fraction(4), 2)
        assert rep.passed

    def test_s2_third_at_five(self):
        rep = check_main_congruence(params(Fraction(1, 3), s=2, p=5),
                                    Fraction(6), 1)
        assert rep.passed

    def test_failing_report_pinned(self):
        P = HGParams.create(Fraction(1, 3), 1, 2)
        rep = check_main_congruence(P, Fraction(3), 2)
        assert not rep.passed
        assert rep.first_failure == {"m": 0, "sum": 2}
        assert main_congruence_laurent(P, Fraction(3), 2) is False

    def test_laurent_wrapper_agrees(self):
        for p in (3, 5):
            for a in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
                if a.denominator % p == 0:
                    continue
                P = params(a, p=p)
                for c in (Fraction(1), Fraction(1 + p), Fraction(1 - p)):
                    for n in (1, 2):
                        direct = check_main_congruence(P, c, n)
                        assert main_congruence_laurent(P, c, n) == direct.passed


def main_congruence_laurent(params, c, n):
    """Laurent-polynomial form of check_main_congruence, kept as its oracle:
    [G]_{<p^n} t^{p^n-1} rev([F]_{<p^n}) + rev([Ghat]_{<p^n}) t^{p^n-1} [F]_{<p^n}
    vanishes mod p^n, with G and Ghat built by the integral routes.  For a
    polynomial of degree < p^n, t^{p^n-1} rev(.) reverses its coefficient
    list, so both products are plain schoolbook products."""
    pn = params.p ** n
    frob, frob_hat = twist_pair(c)
    g, f = log_type_series(params, frob, pn, n)
    ghat, _ = hat_series(params, frob_hat, pn, n)
    left = schoolbook(g.residues, f.residues[::-1], pn, 2 * pn - 1)
    right = schoolbook(ghat.residues[::-1], f.residues, pn, 2 * pn - 1)
    return all((x + y) % pn == 0 for x, y in zip(left, right))


class TestRatioAndInterp:
    def test_ratio_sweep(self):
        assert sweep_ratio(params(Fraction(1, 2), s=2), x_max=60).passed

    def test_interpolation(self):
        rep = check_ratio_interpolation(params(Fraction(1, 2)), Fraction(4), 2)
        assert rep.passed

    def test_integrality(self):
        rep = check_integrality(params(Fraction(1, 2), s=2), Fraction(4), 2)
        assert rep.passed

    def test_integrality_detects_non_integral(self, monkeypatch):
        # only a c outside 1 + pW makes coefficients non-integral; let one
        # through validation to see the failure reported
        monkeypatch.setattr(FrobeniusSpec, "validate", lambda self, p, require_q=False: None)
        rep = check_integrality(params(Fraction(1, 2)), Fraction(2), 1)
        assert not rep.passed and "not divisible" in rep.first_failure["error"]


class TestTwistValidation:
    """c = 2 is not in 1 + 3W: every entry point that reads c rejects it as
    a failed hypothesis, and check_integrality does not report it as a
    failed congruence."""

    @pytest.mark.parametrize("call", [
        lambda P, c: check_congruence_relation("log", P, FrobeniusSpec(c), 1),
        lambda P, c: check_congruence_relation("hat", P, FrobeniusSpec(c), 1),
        lambda P, c: check_integrality(P, c, 1),
        lambda P, c: check_ratio_interpolation(P, c, 1),
        lambda P, c: check_main_congruence(P, c, 1),
        lambda P, c: sweep_beta_pairing(P, c, 1),
        lambda P, c: b0_constant(P, FrobeniusSpec(c), 2),
        lambda P, c: b_coefficients(P, FrobeniusSpec(c), 4, 2),
        lambda P, c: bhat_coefficients(P, FrobeniusSpec(c, SIGMA_HAT), 4, 2),
        lambda P, c: beta_at(Fraction(1), P, FrobeniusSpec(c), 2, hat=True),
    ])
    def test_rejected_at_entry(self, call):
        with pytest.raises(PreconditionViolated, match=r"c = 2 is not in 1 \+ 3W"):
            call(params(Fraction(1, 2)), Fraction(2))
