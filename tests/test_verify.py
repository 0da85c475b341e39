"""Tests for the congruence checkers and sweeps."""

import inspect
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padichg import (
    DenominatorDivisibleByP,
    FrobeniusSpec,
    HGParams,
    PreconditionViolated,
    b0_constant,
    b_coefficients,
    beta_values,
    bhat_coefficients,
    check_congruence_relation,
    check_dwork_transformation,
    check_integrality,
    check_main_congruence,
    check_ratio_interpolation,
    embed_rational,
    hg_series,
    sweep_beta_pairing,
    sweep_braced,
    sweep_ratio,
    sweep_section,
    twist_pair,
    witness_for,
)
from padichg import cli, hyper, series, verify
from padichg.hyper import SIGMA, SIGMA_HAT, _quotients
from padichg.padic import _residue
from padichg.verify import braced_residues

from oracle import (
    braced_product,
    braced_ratio,
    braced_sweep_all_pairs,
    braced_sweep_failure,
    braced_table,
    coeff_exact,
    congruence_relation_full,
    dwork_transform_full,
    first_mismatch,
    hat_series,
    log_type_series,
    main_congruence_lists,
    schoolbook,
    section_sums,
    section_sums_exact,
    section_sweep_failure,
    section_sweep_lists,
    vp,
)


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

    def test_level_one_length_is_the_integer_ceiling(self, monkeypatch):
        # F^(1) is read below ceil(M / p); M / p as a float is off past 2^53
        requests = []

        def record(params_, reqs, n):
            requests.append(reqs)
            raise LookupError("recorded")

        monkeypatch.setattr(verify, "_quotients", record)
        M = 3 ** 40 + 1
        with pytest.raises(LookupError, match="recorded"):
            check_congruence_relation("dwork", params(Fraction(1, 2)), None, 1, M=M)
        [[(_, _, ks0), (kind, level, ks1)]] = requests
        # compared by their bounds: a failing == on ranges would be explained term by term
        assert (ks0.start, ks0.stop, kind, level) == (0, M, "A", 1)
        assert (ks1.start, ks1.stop, ks1.step) == (0, 3 ** 39 + 1, 1)

    def test_report_serializes(self):
        rep = check_congruence_relation("dwork", params(1), None, 1)
        payload = json.loads(rep.to_json())
        assert payload["passed"] is True and payload["check"] == "congruence-dwork"

    @pytest.mark.parametrize("kind,P,c", [
        ("dwork", HGParams.create(1, 1, 2), None),
        ("log", params(Fraction(1, 2)), Fraction(4)),
        ("hat", params(Fraction(1, 3), s=2, p=5), Fraction(6)),
    ])
    def test_comparison_needs_a_coefficient_above_pn(self, kind, P, c):
        # below t^{p^n} both sides are [N][D], so M = p^n compares nothing
        frob = c and FrobeniusSpec(c, SIGMA if kind == "log" else SIGMA_HAT)
        pn = P.p ** 2
        with pytest.raises(PreconditionViolated, match="no coefficient above"):
            check_congruence_relation(kind, P, frob, 2, M=pn)
        with pytest.raises(ValueError):  # PreconditionViolated is a ValueError
            check_congruence_relation(kind, P, frob, 2, M=pn - 1)
        rep = check_congruence_relation(kind, P, frob, 2, M=pn + 1)
        assert rep.passed
        assert rep.to_json() == congruence_relation_full(kind, P, frob, 2, M=pn + 1).to_json()


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


class TestFirstMismatch:
    """The list route's comparison reduces both sides mod q before it
    compares them: a side times the sign -1 may be passed unreduced."""

    def test_equal_mod_q_but_not_as_ints(self):
        q = 27
        lhs = [0, 5, 26, 100, -1]
        rhs = [27, -22, -1, 100 - 5 * q, 26 + q]
        assert lhs != rhs
        assert first_mismatch(lhs, rhs, q) is None
        assert first_mismatch(lhs, [-r for r in [-27, 22, 1, 5 * q - 100, -26]], q) is None

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_first_mismatch_reported_reduced(self, index):
        q = 9
        lhs = [10, -3, 0, 8, 4, -17]  # residues 1, 6, 0, 8, 4, 1
        rhs = [1 - q, 6 + 2 * q, -q, -1, 4 + q, 1]
        assert first_mismatch(lhs, rhs, q) is None
        bad = list(rhs)
        bad[index] -= 2  # the first (and only) mismatch
        expect = {"index": index, "left": lhs[index] % q, "right": bad[index] % q}
        assert first_mismatch(lhs, bad, q) == expect
        later = list(bad)
        later[-1] += 1  # a second mismatch after it is not reported
        if index < len(lhs) - 1:
            assert first_mismatch(lhs, later, q) == expect

    def test_negated_side(self):
        # the transform's sign -1: lhs ≡ -rhs mod q
        q = 2 ** 5
        rhs = [3, 0, 31, 64, 17]
        lhs = [-r + q * i for i, r in enumerate(rhs)]
        assert first_mismatch(lhs, [-r for r in rhs], q) is None
        mismatch = first_mismatch(lhs, rhs, q)
        assert mismatch == {"index": 0, "left": 29, "right": 3}

    def test_empty(self):
        assert first_mismatch([], [], 5) is None


def shifted_tables(original, kind, idx, delta, level=0):
    """`original`, a `_quotients`, with entry idx (taken mod the length) of
    the table of each request of the given kind shifted by delta; an "A"
    request only at the given level."""
    def build(params, requests, prec):
        tables = original(params, requests, prec)
        for (k, tag, _), res in zip(requests, tables):
            if k == kind and (k != "A" or tag == level) and res:
                i = idx % len(res)
                res[i] = (res[i] + delta) % params.p ** prec
        return tables
    return build


def report_or_error(run):
    try:
        return run().to_json()
    except PreconditionViolated as exc:
        return f"PreconditionViolated: {exc}"
    except verify.NoUnitCoefficient as exc:
        return f"NoUnitCoefficient: {exc}"


class TestProductsAgainstFullOracle:
    """The congruence relation, decided on the coefficients above t^{p^n},
    and the transformation formula, decided on one reversed product,
    against the two-full-product forms of the oracle, on tables with one
    entry shifted: every report byte, `first_failure` and `sign`
    included, must agree."""

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
        st.sampled_from([a for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3),
                                     Fraction(1, 5), Fraction(2, 3)) if a.denominator % p]),
        st.just(p), st.integers(1, 2), st.integers(1, 3),
        st.sampled_from(["dwork", "log", "hat", "transform"]),
        st.sampled_from([1, 1 + p, 1 + 2 * (4 if p == 2 else p)]),
        st.integers(0, 2 * p ** 3 + p),  # 0: the default M; else M in p^n+1 .. 2p^n+p
        st.sampled_from(["A:0", "A:1", "numerator"]),
        st.integers(0, 10 ** 6), st.integers(0, p ** 3 - 1))))
    def test_shifted_table_matches_oracle(self, case):
        a, p, s, n, kind, c, extra, table, idx, delta = case
        P = HGParams.create(a, s, p)
        pn = p ** n
        M = None if extra == 0 else pn + 1 + extra % (pn + p)
        frob = None if kind in ("dwork", "transform") else FrobeniusSpec(
            Fraction(c), SIGMA if kind == "log" else SIGMA_HAT)
        if table == "numerator" and kind in ("dwork", "transform"):
            table = "A:0"
        # every table comes from one `_quotients` call: F^(1) is the "A"
        # request at level 1, which log and hat do not make
        request, _, level = table.partition(":")
        if request == "numerator":
            request = "G" if kind == "log" else "Bhat"
        if kind == "transform":
            routes = (lambda: check_dwork_transformation(P, n),
                      lambda: dwork_transform_full(P, n))
        else:
            routes = (lambda: check_congruence_relation(kind, P, frob, n, M),
                      lambda: congruence_relation_full(kind, P, frob, n, M))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_quotients",
                       shifted_tables(verify._quotients, request, idx, delta, int(level or 0)))
            got, expect = (report_or_error(run) for run in routes)
        assert got == expect


# the tables each check requests, as (request, level) for `shifted_tables`
CHECK_TABLES = {
    "main": [("A", 0), ("G", 0), ("Bhat", 0)], "dwork": [("A", 0), ("A", 1)],
    "log": [("A", 0), ("G", 0)], "hat": [("A", 0), ("Bhat", 0)], "section": [("A", 0)],
    "transform": [("A", 0), ("A", 1)],
}


class TestPackedSumAgainstListRoute:
    """Each check decided on one packed sum (the transform: read off its
    class products mod p) against the oracle's list route, which forms
    every product as a list and compares coefficient by coefficient, on
    clean tables and on tables with one entry shifted by p^j, with the
    word path and the decimal path each forced: every report byte must
    agree.  The section sums run to p^n = 625, past which one example
    takes seconds."""

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
        st.sampled_from([a for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3),
                                     Fraction(1, 5), Fraction(2, 3)) if a.denominator % p]),
        st.just(p), st.integers(1, 2), st.integers(1, 4),
        st.sampled_from(sorted(CHECK_TABLES)),
        # c = 3 at p = 2 is in 1 + 2W only: log decides mod p^{n-1}, the hat side is rejected
        st.sampled_from([1 + p, 1 + (4 if p == 2 else p), 1 + 2 * (4 if p == 2 else p)]),
        st.integers(0, 2), st.integers(0, 10 ** 6), st.integers(-1, 3),
        st.sampled_from([0, 10 ** 9]))))
    def test_report_matches_list_route(self, case):
        a, p, s, n, check, c, table, idx, j, cut = case
        if check == "section" and p ** n > 625:
            n -= 1
        P = HGParams.create(a, s, p)
        frob = FrobeniusSpec(Fraction(c), SIGMA_HAT if check == "hat" else SIGMA)
        routes = {
            "main": (lambda: check_main_congruence(P, c, n),
                     lambda: main_congruence_lists(P, c, n)),
            "section": (lambda: sweep_section(P, n), lambda: section_sweep_lists(P, n)),
            "transform": (lambda: check_dwork_transformation(P, n),
                          lambda: dwork_transform_full(P, n)),
        }.get(check, (lambda: check_congruence_relation(check, P, frob, n),
                      lambda: congruence_relation_full(check, P, frob, n)))
        request, level = CHECK_TABLES[check][table % len(CHECK_TABLES[check])]
        delta = 0 if j < 0 else p ** min(j, n - 1)  # j = -1: the clean tables
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_DECIMAL_TERMS", cut)
            mp.setattr(verify, "_quotients",
                       shifted_tables(verify._quotients, request, idx, delta, level))
            got, expect = (report_or_error(run) for run in routes)
        assert got == expect


@pytest.mark.parametrize("check,bound", [("main-congruence", 800_000), ("hat", 880_000)])
def test_packed_sum_peak(check, bound):
    # the whole check at p = 5, n = 5, tables included.  Traced peak with
    # Python 3.11 (3.10): main-congruence 522 KB (540 KB) on one packed sum,
    # 1,113 KB (1,061 KB) with a list per product; hat 756 KB (684 KB),
    # 1,024 KB (960 KB) with a list per side and the tables as int lists
    P = HGParams.create(Fraction(1, 2), 1, 5)
    run = {"main-congruence": lambda: check_main_congruence(P, Fraction(6), 5),
           "hat": lambda: check_congruence_relation("hat", P, FrobeniusSpec(Fraction(6)), 5)}
    tracemalloc.start()
    try:
        assert run[check]().passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


class TestBraced:
    def test_hand_case(self):
        # x = 0, y = 1 at a = 1/2: x + y + a = 3/2, valuation 1
        residues = braced_residues(params(Fraction(1, 2)), 1, 1)
        assert residues[0] == residues[1]

    def test_p2_hand_case(self):
        # x = 0, y = 1 at a = 1, p = 2: x + y + a = 2
        residues = braced_residues(HGParams.create(1, 1, 2), 1, 1)
        assert residues[0] == residues[1]

    @pytest.mark.parametrize("n", [0, -1])
    def test_modulus_below_one_rejected(self, n):
        # mod p^0 every residue is 0, so any pair would pass
        with pytest.raises(PreconditionViolated, match=f"n = {n}"):
            sweep_braced(params(Fraction(1, 2)), n)

    def test_top_past_maxsize_rejected(self):
        # no list holds the residues up to sys.maxsize
        with pytest.raises(PreconditionViolated, match="a table longer than"):
            braced_residues(params(Fraction(1, 2)), sys.maxsize, 1)

    @settings(deadline=None)
    @given(st.sampled_from([(Fraction(1, 2), 3), (Fraction(2), 5), (Fraction(1), 2)]),
           st.integers(1, 2))
    def test_sweep(self, pair, n):
        a, p = pair
        rep = sweep_braced(HGParams.create(a, 1, p), n)
        assert rep.passed

    def test_peak(self):
        # at p = 3, n = 7 the lemma states pairs x, y <= 3^14 and the sweep
        # reads the 2·3^7 residues of two periods.  Traced peak with Python
        # 3.11: 0.16 MB; 173 MB with every residue to 3^14, a constancy
        # table and a partner scan
        tracemalloc.start()
        try:
            assert sweep_braced(params(Fraction(1, 2)), 7).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def admissible_params(p, s):
    """A strategy over HGParams at p with multiplicity s and a grid a."""
    grid = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2), Fraction(2, 3)]
    return st.sampled_from([a for a in grid if a.denominator % p]).map(
        lambda a: HGParams.create(a, s, p))


class TestBracedAgainstOracle:
    """The residues the braced checkers compare against the exact ratios
    {1}_x/{a}_x of the oracle, and the first failing pair of a corrupted
    table against the oracle's sweep."""

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
        admissible_params(p, 1), st.integers(1, 3), st.integers(0, 150))))
    def test_residues_match_exact_ratio(self, case):
        P, n, top = case
        b1 = [braced_product(1, x, P.p) for x in range(top + 1)]
        ba = [braced_product(P.a, x, P.p) for x in range(top + 1)]
        expect = [embed_rational(braced_ratio(P, x, b1, ba), P.p, n).residue
                  for x in range(top + 1)]
        assert braced_residues(P, top, n) == expect

    @pytest.mark.parametrize("a,n", [(a, n) for a in (Fraction(1, 2), Fraction(1, 5), Fraction(2))
                                     for n in (1, 2, 3)])
    def test_residues_match_exact_table_to_sweep_range(self, a, n):
        # every x of the range the lemma states at p = 3, past the two
        # periods the sweep reads, so the periodicity it relies on is
        # checked against the exact ratios too
        P, top = HGParams.create(a, 1, 3), 3 ** (2 * n)
        b1, ba = braced_table(1, top, 3), braced_table(a, top, 3)
        expect = [embed_rational(braced_ratio(P, x, b1, ba), 3, n).residue
                  for x in range(top + 1)]
        assert braced_residues(P, top, n) == expect

    @pytest.mark.parametrize("a,p,n,x0", [
        (Fraction(1, 2), 3, 1, 2), (Fraction(1, 3), 2, 2, 3), (Fraction(2), 5, 1, 4),
        (Fraction(1, 2), 3, 2, 10), (Fraction(1, 5), 2, 2, 6), (Fraction(1, 3), 2, 1, 3),
    ])
    def test_corrupted_entry_fails_at_oracle_pair(self, monkeypatch, a, p, n, x0):
        # the residue of x0 with its sign flipped, as if {1}_{x0} were
        # negated: a unit, so only the lemma breaks
        P = HGParams.create(a, 1, p)
        top = p ** (2 * n)
        b1, ba = braced_table(1, top, p), braced_table(a, top, p)
        b1[x0] = -b1[x0]
        expect = braced_sweep_failure(P, n, b1, ba)

        def corrupted(params, top, n):
            res = braced_residues(params, top, n)
            if top >= x0:
                res[x0] = -res[x0] % params.p ** n
            return res

        monkeypatch.setattr(verify, "braced_residues", corrupted)
        rep = sweep_braced(P, n)
        if expect is None:  # at p^1 = 2 every unit is 1
            assert rep.passed
            return
        x, y = expect
        payload = {"x": x, "y": y,
                   "left": embed_rational(braced_ratio(P, x, b1, ba), p, n).residue,
                   "right": embed_rational(braced_ratio(P, y, b1, ba), p, n).residue}
        assert not rep.passed and rep.first_failure == payload

    @pytest.mark.parametrize("a,p,n,t0", [
        (Fraction(1, 2), 3, 1, 2), (Fraction(1, 2), 3, 2, 9), (Fraction(2), 5, 1, 5),
        (Fraction(1, 5), 3, 2, 8),
    ])
    def test_corrupted_period_fails_at_deep_partner(self, monkeypatch, a, p, n, t0):
        # the factor of {1}_t negated at every t ≡ t0 mod p^n, t0 past the
        # first partner y0 of x = 0: U turns to -1, so x = 0 passes y0 and
        # fails at y0 + p^n
        P = HGParams.create(a, 1, p)
        pn, top = p ** n, p ** (2 * n)
        flips = [0 if x < t0 else (x - t0) // pn + 1 for x in range(top + 1)]  # t0 <= t <= x
        b1, ba = braced_table(1, top, p), braced_table(a, top, p)
        b1 = [(-1) ** f * b for f, b in zip(flips, b1)]
        expect = braced_sweep_failure(P, n, b1, ba)

        def corrupted(params, top, n):
            res = braced_residues(params, top, n)
            return [-r % pn if f % 2 else r for f, r in zip(flips, res)]

        monkeypatch.setattr(verify, "braced_residues", corrupted)
        rep = sweep_braced(P, n)
        x, y = expect
        assert (x, y) == (0, (-_residue(a, p, pn)) % pn + pn)
        payload = {"x": x, "y": y,
                   "left": embed_rational(braced_ratio(P, x, b1, ba), p, n).residue,
                   "right": embed_rational(braced_ratio(P, y, b1, ba), p, n).residue}
        assert not rep.passed and rep.first_failure == payload

    @settings(deadline=None, max_examples=100)
    @given(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)).flatmap(
        lambda pn: st.tuples(st.just(pn), st.integers(-40, 40), st.integers(1, 30),
                             *[st.integers(1, pn[0] ** pn[1])] * 2, st.booleans(),
                             *[st.integers(1, pn[0] ** pn[1]).filter(lambda g: g % pn[0])] * 2)))
    def test_sweep_matches_all_pairs(self, case):
        # the factor of {1}_t multiplied by the unit g at every t ≡ t0 and
        # by h at every t ≡ t1 mod p^n, 0 < t0, t1 <= p^n, which multiplies
        # U by gh: clean tables at g = h = 1, and with h = 1/g the periods
        # change but U does not, so an x past 0 can fail first
        (p, n), num, den, t0, t1, balance, g, h = case
        a = admissible_a(p, Fraction(num, den))
        assume(a is not None)
        P, pn = HGParams.create(a, 1, p), p ** n
        h = pow(g, -1, pn) if balance else h
        factors = [(t0, g), (t1, h)]

        def corrupted(params, top, n):
            res = braced_residues(params, top, n)
            return [math.prod((pow(u, 0 if x < t else (x - t) // pn + 1, pn) for t, u in factors),
                              start=r) % pn for x, r in enumerate(res)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "braced_residues", corrupted)
            assert sweep_braced(P, n) == braced_sweep_all_pairs(P, n)

    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(1), Fraction(2, 3), Fraction(-7, 5)])
    def test_p2_n1(self, a):
        # q = 4 does not divide p^n = 2, but mod 2 every unit is 1
        P = HGParams.create(a, 1, 2)
        assert braced_residues(P, 4, 1) == [1] * 5
        rep = sweep_braced(P, 1)
        assert rep.passed and rep == braced_sweep_all_pairs(P, 1)


class TestSectionAgainstOracle:
    """The class sums of the section checkers, formed as two products mod
    p^{d+1}, against the oracle's exact sums, and the first failing
    (d, k, m) of a corrupted coefficient against the oracle's sweep."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
        st.integers(1, 2).flatmap(lambda s: admissible_params(p, s)),
        st.integers(1, 3).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(0, n).flatmap(lambda d: st.tuples(
                st.just(d), st.integers(0, p ** (n - d) - 1))))))))
    def test_class_sums_match_exact(self, case):
        P, (n, (d, k)) = case
        p = P.p
        table = [coeff_exact(P, i) for i in range(p ** n)]
        s1, s2 = section_sums(P, hg_series(P, p ** n, d + 1), n, d, k)
        for m in range(p ** n):
            e1, e2 = section_sums_exact(P, table, n, d, k, m)
            assert (s1[m], s2[m]) == (embed_rational(e1, p, d + 1).residue,
                                      embed_rational(e2, p, d + 1).residue)

    @pytest.mark.parametrize("a,s,p,n,idx,delta", [
        (Fraction(1, 2), 1, 3, 2, 4, 1), (Fraction(1, 3), 2, 2, 2, 1, 1),
        (Fraction(1, 2), 1, 3, 2, 4, 3), (Fraction(1, 2), 2, 5, 2, 7, 5),
        (Fraction(1, 5), 1, 2, 3, 5, 4), (Fraction(1, 3), 1, 2, 3, 6, 4),
        (Fraction(1, 3), 2, 2, 2, 1, 2), (Fraction(1, 2), 1, 3, 2, 4, 9),
    ])
    def test_corrupted_coefficient_fails_at_oracle_class(self, monkeypatch, a, s, p, n,
                                                         idx, delta):
        P = HGParams.create(a, s, p)
        table = [coeff_exact(P, i) for i in range(p ** n)]
        table[idx] += delta
        expect = section_sweep_failure(P, n, table)

        # idx < p^n, the length of the one A table
        monkeypatch.setattr(verify, "_quotients",
                            shifted_tables(verify._quotients, "A", idx, delta))
        rep = sweep_section(P, n)
        if expect is None:  # delta vanishes in every compared sum
            assert rep.passed
            return
        d, k, m, e1, e2 = expect
        payload = {"s1": embed_rational(e1, p, d + 1).residue,
                   "s2": embed_rational(e2, p, d + 1).residue}
        assert not rep.passed and rep.modulus == d + 1
        assert (rep.params["d"], rep.params["k"], rep.params["m"]) == (d, k, m)
        assert rep.first_failure == payload


def altered_tables(original, mode, which, idx, delta, seed):
    """`original`, a `_quotients`, with its tables as they are ("clean"),
    with entry idx of table `which` (each taken mod the length) shifted by
    delta ("shift"), or with every entry drawn at random from seed
    ("random")."""
    def build(params, requests, prec):
        tables, m = original(params, requests, prec), params.p ** prec
        if mode == "shift":
            table = tables[which % len(tables)]
            table[idx % len(table)] = (table[idx % len(table)] + delta) % m
        elif mode == "random":
            rng = random.Random(seed)
            tables = [[rng.randrange(m) for _ in table] for table in tables]
        return tables
    return build


class TestPairedReadsAgainstOracle:
    """The section sweep, which decides classes k and r(k) = -a-k on one
    product pair, and the transform, which reads only the pairs
    (C'_k, C'_{N-k}) with k <= N/2, against the oracle's `section_sums`
    per class and `dwork_transform_full`, on clean, shifted and random
    tables, with the word path and the decimal path each forced: every
    report byte must agree.  The section sums run to p^n = 625."""

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
        st.sampled_from([a for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3),
                                     Fraction(1, 5), Fraction(2, 3), Fraction(7, 4))
                         if a.denominator % p]),
        st.just(p), st.integers(1, 3), st.integers(1, 4), st.booleans(),
        st.sampled_from(["clean", "shift", "shift", "random"]), st.integers(0, 1),
        st.integers(0, 10 ** 6), st.integers(1, p ** 5), st.integers(0, 10 ** 6),
        st.sampled_from([0, 10 ** 9]))))
    def test_report_matches_oracle(self, case):
        a, p, s, n, section, mode, which, idx, delta, seed, cut = case
        while section and p ** n > 625:
            n -= 1
        P = HGParams.create(a, s, p)
        routes = ((lambda: sweep_section(P, n), lambda: section_sweep_lists(P, n)) if section
                  else (lambda: check_dwork_transformation(P, n),
                        lambda: dwork_transform_full(P, n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_DECIMAL_TERMS", cut)
            mp.setattr(verify, "_quotients",
                       altered_tables(verify._quotients, mode, which, idx, delta, seed))
            got, expect = (report_or_error(run) for run in routes)
        assert got == expect

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(1, 3).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(0, n),
            st.lists(st.integers(0, p ** (n + 1) - 1), min_size=p ** n, max_size=p ** n))),
        st.sampled_from([a for a in (Fraction(1), Fraction(1, 2), Fraction(2, 3))
                         if a.denominator % p]))))
    def test_mirror_of_a_class(self, case):
        # over all 2p^n - 1 coefficients, class k's s2 is class r(k)'s s1
        # read backwards, for any table
        p, (n, d, table), a = case
        P, pn, cls = HGParams.create(a, 1, p), p ** n, p ** (n - d)
        level = [x % p ** (d + 1) for x in table]
        for k in range(cls):
            r = (-_residue(a, p, cls) - k) % cls
            _, s2 = section_sums(P, level, n, d, k, 2 * pn - 1)
            s1, _ = section_sums(P, level, n, d, r, 2 * pn - 1)
            assert s2 == s1[::-1]

    def test_partner_half_is_its_own_statement(self, monkeypatch):
        # p = 2, n = 3, a = 1/3, d = 1: r(k) = 1 - k mod 4, so class 1 is
        # decided with class 0.  On this table class 0 passes its first p^n
        # sums, and class 1 fails its own at m = 5: the last p^n sums of
        # class 0's pair, read from the top, find it.  Deciding class 0 on
        # its first half alone would report class 2 instead
        P, table = HGParams.create(Fraction(1, 3), 1, 2), [4, 5, 3, 15, 15, 4, 8, 8]
        monkeypatch.setattr(verify, "_quotients", lambda *args: [list(table)])
        rep = sweep_section(P, 3)
        assert (rep.params["d"], rep.params["k"], rep.params["m"]) == (1, 1, 5)
        assert rep.to_json() == section_sweep_lists(P, 3).to_json()
        level = [x % 4 for x in table]
        s1, s2 = section_sums(P, level, 3, 1, 0)
        assert s1 == s2
        s1, s2 = section_sums(P, level, 3, 1, 1)
        assert s1[:5] == s2[:5] and s1[5] != s2[5]


def pairing_sum(lam, P, c, n):
    """beta_lambda + beta-hat_{-lambda-a} mod p^n, beta along sigma and
    beta-hat along sigma-hat."""
    (frob, frob_hat), pn = twist_pair(c), P.p ** n
    beta = beta_values([lam], P, frob, n)[0]
    beta_hat = beta_values([-lam - P.a], P, frob_hat, n, hat=True)[0]
    return (beta + beta_hat) % pn


class TestBetaPairing:
    def test_unit_lambda(self):
        assert pairing_sum(Fraction(1), params(Fraction(1, 2)), Fraction(1), 2) == 0

    def test_lambda_zero_a1(self):
        assert pairing_sum(Fraction(0), params(1), Fraction(1), 2) == 0

    def test_half_lambda_twisted(self):
        assert pairing_sum(Fraction(1, 2), params(Fraction(1, 2), s=2), Fraction(4), 2) == 0

    def test_sweep_default_lambdas(self):
        rep = sweep_beta_pairing(params(Fraction(1, 2)), Fraction(4), 2)
        assert rep.passed

    @pytest.mark.parametrize("index", [0, 2, 4, 9])
    def test_corrupted_beta_hat_fails_at_its_lambda(self, index, monkeypatch):
        # one `_quotients` call for both directions; a wrong beta-hat at one
        # lambda fails the sweep there, with the payload of `beta_values`.
        # At p = 3, n = 3 the lambdas are 3i for i < 9, then -1-a = -3/2
        P, c = params(Fraction(1, 2)), Fraction(4)
        lam = [*range(0, 27, 3), -P.a - 1][index]
        calls = []
        shifted = shifted_tables(verify._quotients, "Bhat/A", index, 1)

        def corrupted(params_, requests, n):
            calls.append([kind for kind, _, _ in requests])
            return shifted(params_, requests, n)

        monkeypatch.setattr(verify, "_quotients", corrupted)
        rep = sweep_beta_pairing(P, c, 3)
        assert calls == [["B/A", "Bhat/A"]]
        frob, frob_hat = twist_pair(c)
        b = beta_values([lam], P, frob, 3)[0]
        bad = (beta_values([-lam - P.a], P, frob_hat, 3, hat=True)[0] + 1) % 27
        assert not rep.passed and rep.params["lam"] == lam
        assert rep.first_failure == {"beta": f"{b} mod 3^3", "beta_hat": f"{bad} mod 3^3"}
        monkeypatch.undo()
        assert sweep_beta_pairing(P, c, 3).passed

    @pytest.mark.parametrize("p,a,c,k", [(3, Fraction(1, 2), 4, 12), (5, Fraction(1, 3), 6, 10),
                                         (2, Fraction(1, 3), 5, 4)])
    def test_corrupted_a_at_a_hit_fails(self, p, a, c, k, monkeypatch):
        # A_k at the witness k of lambda = k, shifted by p^{v_p(k) +
        # s·v_p(A_k)}: every quotient stays exact, and B_k/A_k, so beta,
        # moves by a unit there.  A unit lambda would not see it, as its
        # ratio is 1/k whatever A holds.  No other table reads A_k: at
        # a = 1/2, p = 3, the walk of a serves A^(1) as well, at j <= 9.
        P, n = HGParams.create(a, 1, p), 3
        shift = p ** (vp(k, p) + vp(coeff_exact(P, k), p))
        walk = hyper._walk

        def corrupted(b, p_, runs, s, w):
            out = walk(b, p_, runs, s, w)
            start = 0  # the entry of k: k less the run's start, past the runs before
            for lo, hi in runs:
                if b == a and lo <= k <= hi:
                    out[start + k - lo] = (out[start + k - lo] + shift) % p ** w
                start += hi - lo + 1
            return out

        assert sweep_beta_pairing(P, Fraction(c), n).passed
        monkeypatch.setattr(hyper, "_walk", corrupted)
        rep = sweep_beta_pairing(P, Fraction(c), n)
        assert not rep.passed and rep.params["lam"] == k


def section_pair(P, n, d, k, m):
    """(s1, s2) of `section_sums` at one m."""
    s1, s2 = section_sums(P, hg_series(P, P.p ** n, d + 1), n, d, k)
    return s1[m], s2[m]


class TestSectionSums:
    def test_hand_m0(self):
        s1, s2 = section_pair(params(Fraction(1, 2)), 1, 0, 0, 0)
        assert s1 == s2

    def test_hand_m1(self):
        s1, s2 = section_pair(params(Fraction(1, 2)), 1, 0, 1, 1)
        assert s1 == s2

    def test_d_equals_n(self):
        s1, s2 = section_pair(params(Fraction(1, 2)), 1, 1, 0, 1)
        assert s1 == s2

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

    def test_failing_report_pinned(self, monkeypatch):
        # c = 3 is in 1 + 2W but not in 1 + 4W: outside the hypothesis,
        # where the congruence really fails
        P = HGParams.create(Fraction(1, 3), 1, 2)
        with pytest.raises(PreconditionViolated, match=r"c = 3 is not in 1 \+ 4W"):
            check_main_congruence(P, Fraction(3), 2)
        assert main_congruence_laurent(P, Fraction(3), 2) is False
        # a failure payload, pinned on c = 5 with B_1 shifted by 1
        monkeypatch.setattr(verify, "_quotients", shifted_b(1, 1))
        rep = check_main_congruence(P, Fraction(5), 2)
        assert not rep.passed and rep.modulus == 2
        assert rep.first_failure == {"m": 1, "sum": 2}  # A_3 = 2 mod 4
        assert main_congruence_failure(P, Fraction(5), 2, (1, 1)) == rep.first_failure

    @pytest.mark.parametrize("a, s, p, c, n, idx, delta", [
        (Fraction(1, 3), 1, 2, 5, 2, 0, 2), (Fraction(1, 3), 2, 2, -3, 2, 3, 1),
        (Fraction(1, 2), 1, 3, 4, 2, 4, 3), (Fraction(1, 2), 2, 3, -2, 2, 8, 1),
        (Fraction(1, 3), 2, 5, 6, 1, 2, 1), (Fraction(1, 2), 1, 5, -4, 1, 0, 1),
    ])
    def test_corrupted_b_fails_at_oracle_m(self, monkeypatch, a, s, p, c, n, idx, delta):
        P = HGParams.create(a, s, p)
        expect = main_congruence_failure(P, Fraction(c), n, (idx, delta))
        assert expect is not None
        monkeypatch.setattr(verify, "_quotients", shifted_b(idx, delta))
        rep = check_main_congruence(P, Fraction(c), n)
        assert not rep.passed and rep.first_failure == expect

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
    return main_congruence_failure(params, c, n) is None


def main_congruence_failure(params, c, n, shift=(0, 0)):
    """The first {"m", "sum"} whose sum in main_congruence_laurent is
    nonzero mod p^n, with B_idx shifted by delta for shift = (idx, delta);
    None when every sum vanishes."""
    pn = params.p ** n
    frob, frob_hat = twist_pair(c)
    g, f = log_type_series(params, frob, pn, n)
    ghat, _ = hat_series(params, frob_hat, pn, n)
    g[shift[0]] += shift[1]
    left = schoolbook(g, f[::-1], pn, 2 * pn - 1)
    right = schoolbook(ghat[::-1], f, pn, 2 * pn - 1)
    for m, (x, y) in enumerate(zip(left, right)):
        if (x + y) % pn:
            return {"m": m, "sum": (x + y) % pn}
    return None


def shifted_b(idx, delta):
    """`verify._quotients` with B_idx of its G table shifted by delta."""
    return shifted_tables(verify._quotients, "G", idx, delta)


class TestRatioAndInterp:
    def test_ratio_sweep(self):
        assert sweep_ratio(params(Fraction(1, 2), s=2)).passed

    def test_interpolation(self):
        rep = check_ratio_interpolation(params(Fraction(1, 2)), Fraction(4), 2)
        assert rep.passed

    @pytest.mark.parametrize("shifts,first", [
        ([("B/A", 3)], (4, False)), ([("Bhat/A", 12)], (4, True)),
        # at one k the B side is reported first
        ([("Bhat/A", 3), ("B/A", 3)], (4, False)), ([("Bhat/A", 2), ("B/A", 13)], (3, True)),
    ])
    def test_interpolation_fails_at_first_shifted_pair(self, shifts, first, monkeypatch):
        # p^n = 9: the ratios at k = 1, ..., 18, with entry idx (k = idx + 1)
        # shifted by 1, first differ from their partner k +- 9 at `first`
        P, c = params(Fraction(1, 2)), Fraction(4)
        ratios = {hat: _quotients(P, [("Bhat/A" if hat else "B/A", frob, range(1, 19))], 2)[0]
                  for hat, frob in zip((False, True), twist_pair(c))}
        quotients = verify._quotients
        for kind, idx in shifts:
            quotients = shifted_tables(quotients, kind, idx, 1)
            side = ratios[kind == "Bhat/A"]
            side[idx] = (side[idx] + 1) % 9
        monkeypatch.setattr(verify, "_quotients", quotients)
        rep = check_ratio_interpolation(P, c, 2)
        k, hat = first
        assert not rep.passed
        assert rep.first_failure == {"k": k, "hat": hat, "left": f"{ratios[hat][k - 1]} mod 3^2",
                                     "right": f"{ratios[hat][k + 8]} mod 3^2"}

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
        lambda P, c: beta_values([Fraction(1)], P, FrobeniusSpec(c), 2, hat=True),
    ])
    def test_rejected_at_entry(self, call):
        with pytest.raises(PreconditionViolated, match=r"c = 2 is not in 1 \+ 3W"):
            call(params(Fraction(1, 2)), Fraction(2))

    def test_zero_c_on_the_hat_side_rejected(self):
        # c = 0 is checked before 1/c is formed
        with pytest.raises(PreconditionViolated, match=r"c = 0 is not in 1 \+ 3W"):
            check_congruence_relation("hat", params(Fraction(1, 2)),
                                      FrobeniusSpec(0, SIGMA_HAT), 1)


class TestHatSideTwistAtTwo:
    """Bhat, beta-hat and the main congruence need c in 1 + 4W at p = 2.
    A c in 1 + 2W but not 1 + 4W is rejected before any table is built;
    c in 1 + 4W passes.  The checks run through the suite's runners."""

    CHECKS = ["beta-pairing", "integrality", "interpolation", "main-congruence"]

    @pytest.mark.parametrize("c", [3, 7, -1])
    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(1)])
    @pytest.mark.parametrize("check", CHECKS)
    def test_shallow_c_rejected_before_tables(self, check, a, c, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(verify, "_quotients", no_table)
        checker, *args = cli.CHECKS[check][0](params(a, p=2), Fraction(c), 2)
        with pytest.raises(PreconditionViolated, match=rf"c = {c} is not in 1 \+ 4W"):
            checker(*args)

    @pytest.mark.parametrize("c", [5, -3])
    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(1)])
    @pytest.mark.parametrize("check", CHECKS)
    def test_deep_c_passes(self, check, a, c):
        checker, *args = cli.CHECKS[check][0](params(a, p=2), Fraction(c), 2)
        assert checker(*args).passed

    @pytest.mark.parametrize("kind, c", [("log", 2), ("hat", 2), ("hat", 3)])
    def test_relation_rejects_c_before_tables(self, kind, c, monkeypatch):
        # log needs c in 1 + 2W at p = 2, hat c in 1 + 4W
        monkeypatch.setattr(verify, "_quotients", lambda *args: pytest.fail("a table was built"))
        with pytest.raises(PreconditionViolated, match=rf"c = {c} is not in 1 \+"):
            check_congruence_relation(kind, params(Fraction(1, 3), p=2), FrobeniusSpec(c), 2)


class TestTableLongerThanMaxsize:
    """At p = 3, n = 99999 these checks read an index past sys.maxsize: the
    tables of dwork and integrality, the ks up to 2·3^99999 of
    interpolation, the braced residues up to 3^199998 and the beta-pairing
    witness 3^99999.  Each is a failed hypothesis, raised before any walk
    or residue, that check_integrality does not report as a failed
    congruence."""

    @pytest.mark.parametrize("check", ["dwork", "integrality", "interpolation", "braced",
                                       "beta-pairing"])
    def test_rejected_before_tables(self, check, monkeypatch):
        monkeypatch.setattr(hyper, "_walk", lambda *args: pytest.fail("a walk ran"))
        # braced_residues inverts by the builtin pow from x = 1 on
        monkeypatch.setattr(verify, "pow", lambda *args: pytest.fail("a residue was formed"),
                            raising=False)
        checker, *args = cli.CHECKS[check][0](params(Fraction(1, 2)), Fraction(4), 99999)
        with pytest.raises(PreconditionViolated, match="a table longer than"):
            checker(*args)


class TestModulusBelowOne:
    """Every check that reads n rejects n < 1 on entry: mod p^0 every
    residue is 0, so the check would pass vacuously.  The sweeps are also
    called directly, as the public functions whose calls the suite runners
    return."""

    ENTRIES = {name: runner for name, (runner, _, reads_n) in cli.CHECKS.items() if reads_n}
    ENTRIES["beta-pairing-sweep"] = lambda P, c, n: (sweep_beta_pairing, P, c, n)
    ENTRIES["section-sums-sweep"] = lambda P, c, n: (sweep_section, P, n)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("check", list(ENTRIES))
    def test_rejected_at_entry(self, check, n):
        checker, *args = self.ENTRIES[check](params(Fraction(1, 2)), Fraction(4), n)
        with pytest.raises(PreconditionViolated, match=f"n = {n} compares mod p"):
            checker(*args)


class TestEntryPoints:
    """verify has one public checker per suite check, called with the
    arguments the suite passes."""

    def test_public_checkers_are_the_suite_runners(self):
        called = {name for runner, _, _ in cli.CHECKS.values()
                  for name in runner.__code__.co_names if name.startswith(("check_", "sweep_"))}
        public = {name: value for name, value in vars(verify).items()
                  if name.startswith(("check_", "sweep_")) and inspect.isfunction(value)}
        assert set(public) == called and len(called) == 9
        # no option that the suite leaves unset, but M, which the
        # acceptance tests set
        options = [(name, arg) for name, fn in sorted(public.items())
                   for arg, param in inspect.signature(fn).parameters.items()
                   if param.default is not param.empty]
        assert options == [("check_congruence_relation", "M")]


class TestFractionFreeCells:
    """a, c and lambda are made Fractions where they enter (HGParams,
    FrobeniusSpec, the beta pairing's lambda list); a cell past that point
    reads only their integer numerators and denominators."""

    @pytest.mark.parametrize("check", list(cli.CHECKS))
    def test_a_cell_builds_no_fraction(self, check, monkeypatch):
        a, c = Fraction(1, 2), Fraction(4)
        P = HGParams.create(a, 1, 3)
        # the beta pairing's default lambdas 1/2 and -1-a are its own inputs
        allowed = {Fraction(1, 2), -1 - a} if check == "beta-pairing" else set()
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(new(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(Fraction, "__new__", counting)
        checker, *args = cli.CHECKS[check][0](P, c, 2)
        rep = checker(*args)
        monkeypatch.undo()
        assert rep.passed
        assert len(built) <= len(allowed) and set(built) <= allowed


@st.composite
def prime_and_rational(draw, count=1):
    """(p, x_1, ..., x_count): each x an int or a Fraction, signed, whose
    numerator and denominator p may each divide."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    xs = []
    for _ in range(count):
        num = draw(st.integers(-10 ** 6, 10 ** 6)) * p ** draw(st.integers(0, 3))
        den = draw(st.integers(1, 10 ** 4)) * p ** draw(st.sampled_from([0, 0, 1, 2]))
        xs.append(draw(st.sampled_from([num, Fraction(num, den)])))
    return (p, *xs)


def admissible_a(p, x):
    """x as a parameter a at p, or None when HGParams rejects it."""
    a = Fraction(x)
    return None if a.denominator % p == 0 or a.denominator == 1 and a <= 0 else a


class TestIntegerRoutes:
    """Each integer route of a cell against the Fraction expression it
    replaced, with the same exceptions."""

    @settings(max_examples=200, deadline=None)
    @given(prime_and_rational(), st.integers(1, 6))
    def test_residue_of_minus_x(self, px, k):
        p, x = px
        m = p ** k
        if Fraction(x).denominator % p == 0:
            for y in (x, -x):
                with pytest.raises(DenominatorDivisibleByP):
                    _residue(y, p, m)
            return
        assert -_residue(x, p, m) % m == _residue(-Fraction(x), p, m)

    @settings(max_examples=60, deadline=None)
    @given(prime_and_rational(), st.integers(1, 2), st.integers(0, 60))
    def test_braced_pair_class(self, px, n, x):
        # y pairs with x iff x + y + a ≡ 0 mod p^n
        p, a = px[0], admissible_a(*px)
        if a is None:
            return
        pn = p ** n
        y = (-_residue(a, p, pn) - x) % pn  # the partner class of x in sweep_braced
        assert vp(x + y + a, p) >= n
        assert vp(x + y + 1 + a, p) < n

    @settings(max_examples=200, deadline=None)
    @given(prime_and_rational(), st.integers(1, 6))
    def test_c_eff_residue(self, pc, k):
        p, c = pc
        m = p ** k
        c = Fraction(c)
        if (c.numerator * c.denominator) % p == 0:  # not a unit of Z_p
            return
        assert FrobeniusSpec(c, SIGMA).residue(p, m) == _residue(c, p, m)
        assert FrobeniusSpec(c, SIGMA_HAT).residue(p, m) == _residue(1 / c, p, m)

    @settings(max_examples=200, deadline=None)
    @given(prime_and_rational(), st.integers(1, 4))
    def test_witness_of_minus_lambda_minus_a(self, pa, n):
        p, a = pa[0], admissible_a(*pa)
        if a is None:
            return
        requests = []

        def record(params_, reqs, n_):
            requests.append(reqs)
            raise LookupError("recorded")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_quotients", record)
            with pytest.raises(LookupError, match="recorded"):
                sweep_beta_pairing(HGParams.create(a, 1, p), 1, n)
        [[(_, _, ks), (_, _, ks_hat)]] = requests
        # p·i for i < p^{min(n,4)-1}, and -1-a when it lies in pZ_p
        lambdas = [p * i for i in range(p ** (min(n, 4) - 1))]
        lambdas += [-1 - a] if vp(-1 - a, p) >= 1 else []
        assert all(vp(lam, p) is None or vp(lam, p) >= 1 for lam in lambdas)  # no unit
        assert ks == [witness_for(lam, p, n) for lam in lambdas]
        assert ks_hat == [witness_for(-Fraction(lam) - a, p, n) for lam in lambdas]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_witness_of_minus_lambda_minus_a_is_the_shifted_witness(self, p):
        # witness_for(-lambda - a) is -k - a mod p^n, or p^n at 0, for the
        # witness k of lambda
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7), Fraction(5)):
            if a.denominator % p == 0:
                continue
            for n in range(1, 5):
                pn = p ** n
                for lam in [*range(201), pn]:
                    k = witness_for(lam, p, n)
                    assert witness_for(-lam - a, p, n) == ((-k - _residue(a, p, pn)) % pn or pn)

    @settings(max_examples=200, deadline=None)
    @given(prime_and_rational(), st.booleans())
    def test_vp_of_c_minus_1(self, pc, require_q):
        p, c = pc
        frob = FrobeniusSpec(c)
        v = vp(Fraction(c) - 1, p)
        assert frob.vp_c_minus_1(p) == v
        need = 2 if require_q and p == 2 else 1
        if v is not None and v < need:
            with pytest.raises(PreconditionViolated):
                frob.validate(p, require_q=require_q)
        else:
            frob.validate(p, require_q=require_q)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_zero_c_and_p_in_the_denominator_of_c_rejected(self, p, e):
        # e = 0: c = 0; otherwise c = (1 + p)/p^e
        c = Fraction(1 + p, p ** e) if e else Fraction(0)
        P = params(Fraction(1, 3) if p == 2 else Fraction(1, 2), p=p)
        for kind, direction in (("log", SIGMA), ("hat", SIGMA_HAT)):
            with pytest.raises(PreconditionViolated, match=f"c = {c} is not in"):
                check_congruence_relation(kind, P, FrobeniusSpec(c, direction), 1)
