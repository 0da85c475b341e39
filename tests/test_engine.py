"""The residue engine (units mod p^w with exact valuations) against the
exact-rational oracle, its guard precisions, and its memory footprint."""

import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    NotDivisible,
    PreconditionViolated,
    SIGMA,
    SIGMA_HAT,
    b0_constant,
    b_coefficients,
    beta_values,
    bhat_coefficients,
    check_integrality,
    embed_rational,
    hg_series,
    witness_for,
)
from padichg import cli, hyper
from padichg.padic import ratio_valuations, split_p

from oracle import b0_exact, b_exact, bhat_approx, coeff_exact, pochhammer, ratio_at, vp

GRID_A = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
# the grid's a and 1 - a
A_VALUES = sorted(set(GRID_A) | {1 - a for a in GRID_A})
# largest N with a p^N-term B_0 oracle that stays quick
B0_PREC = {2: 8, 3: 6, 5: 4}


@st.composite
def cases(draw, max_prec=8):
    """(params, frob) over p in {2,3,5}, s in {1,2}, the grid's a and 1-a,
    c in {1, 1+q, 1-q, 1+p, 1+p^2} and both twist directions; and a
    precision.  1 + p is c = 3 at p = 2, in 1 + 2W but not 1 + 4W; 1 + p^2
    has v_p(c - 1) = 2."""
    p = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.sampled_from([a for a in A_VALUES if a.denominator % p]))
    P = HGParams.create(a, draw(st.sampled_from([1, 2])), p)
    c = Fraction(draw(st.sampled_from([1, 1 + P.q, 1 - P.q, 1 + p, 1 + p * p])))
    frob = FrobeniusSpec(c, draw(st.sampled_from([SIGMA, SIGMA_HAT])))
    prec = draw(st.integers(1, min(max_prec, B0_PREC[p])))
    return P, frob, prec


@st.composite
def index_sets(draw, low):
    """The ks of one request, all >= low: a dense range, or unsorted ks with
    a repeat, some near low and some sparse up to 1,500."""
    if draw(st.booleans()):
        start = draw(st.integers(low, 40))
        return range(start, draw(st.integers(start, start + 80)))
    ks = draw(st.lists(st.one_of(st.integers(low, 60), st.integers(61, 1500)),
                       min_size=1, max_size=5))
    return ks + ks[:1]


def embedded(values, p, prec):
    return [embed_rational(v, p, prec).residue for v in values]


SLOW = settings(max_examples=40, deadline=None)


class TestAgainstOracle:
    @SLOW
    @given(cases(), st.integers(1, 300), st.sampled_from([0, 1]))
    def test_a_and_a1(self, case, count, level):
        P, _, prec = case
        got = hyper._quotients(P, [("A", level, range(count))], prec)[0]
        assert got == embedded((coeff_exact(P, k, level) for k in range(count)), P.p, prec)

    @SLOW
    @given(cases(), st.integers(1, 300))
    def test_b_with_b0(self, case, count):
        P, frob, prec = case
        expect = (b0_exact(P, frob, prec), *(b_exact(P, frob, k) for k in range(1, count)))
        assert b_coefficients(P, frob, count, prec) == embedded(expect, P.p, prec)

    @SLOW
    @given(cases(), st.integers(1, 300))
    # c = 3 at p = 2 is in 1 + 2W but not 1 + 4W: the twist c^{a'} is a
    # modular power there too
    @example((HGParams.create(Fraction(1, 3), 1, 2), FrobeniusSpec(3, SIGMA_HAT), 8), 300)
    @example((HGParams.create(Fraction(2, 3), 2, 2), FrobeniusSpec(3, SIGMA), 8), 300)
    def test_bhat(self, case, count):
        P, frob, prec = case
        expect = (bhat_approx(P, frob, k, prec) for k in range(count))
        assert bhat_coefficients(P, frob, count, prec) == embedded(expect, P.p, prec)

    @SLOW
    @given(cases(max_prec=4), st.sampled_from([Fraction(0), Fraction(1), Fraction(2),
                                                Fraction(1, 2), Fraction(-3, 4)]),
           st.booleans())
    @example((HGParams.create(Fraction(1, 3), 1, 2), FrobeniusSpec(3), 3), Fraction(2), False)
    def test_beta_and_beta_hat(self, case, lam, hat):
        P, frob, n = case
        if lam.denominator % P.p == 0:
            return
        if P.p == 2 and frob.c == 3:  # c = 1 + p is in 1 + 2W but not 1 + 4W
            with pytest.raises(PreconditionViolated, match="not in 1 \\+ 4W"):
                beta_values([lam], P, frob, n, hat=hat)
            return
        k = witness_for(lam, P.p, n)
        got = beta_values([lam], P, frob, n, hat=hat)[0]
        assert got == embed_rational(ratio_at(k, P, frob, n, hat), P.p, n).residue

    @SLOW
    @given(cases(max_prec=5), st.lists(st.integers(1, 300), min_size=1, max_size=6),
           st.integers(1, 120))
    def test_requests_in_one_call(self, case, ks, count):
        # every kind of request in one call, against the one-request builders
        # and the oracle; ks unsorted, with a repeat
        P, frob, prec = case
        frob_hat = FrobeniusSpec(frob.c, SIGMA_HAT)
        ks = ks + ks[:1]
        top = max(ks) + 1
        b_ratios, a_res, g, bhat, bhat_ratios, b = hyper._quotients(
            P, [("B/A", frob, ks), ("A", 0, ks), ("G", frob, range(count)),
                ("Bhat", frob_hat, ks), ("Bhat/A", frob_hat, ks), ("B", frob, ks)], prec)
        assert b_ratios == hyper._quotients(P, [("B/A", frob, ks)], prec)[0] == \
            embedded((ratio_at(k, P, frob, prec, False) for k in ks), P.p, prec)
        assert bhat_ratios == hyper._quotients(P, [("Bhat/A", frob_hat, ks)], prec)[0] == \
            embedded((ratio_at(k, P, frob_hat, prec, True) for k in ks), P.p, prec)
        assert a_res == [hg_series(P, top, prec)[k] for k in ks] == \
            embedded((coeff_exact(P, k) for k in ks), P.p, prec)
        assert g == b_coefficients(P, frob, count, prec)
        assert g[0] == embed_rational(b0_exact(P, frob, prec), P.p, prec).residue
        assert g[1:] == embedded((b_exact(P, frob, k) for k in range(1, count)), P.p, prec)
        assert b == [b_coefficients(P, frob, top, prec)[k] for k in ks] == \
            embedded((b_exact(P, frob, k) for k in ks), P.p, prec)
        assert bhat == [bhat_coefficients(P, frob_hat, top, prec)[k] for k in ks] == \
            embedded((bhat_approx(P, frob_hat, k, prec) for k in ks), P.p, prec)

    @given(cases())
    def test_b0_at_precision_one(self, case):
        P, frob, _ = case
        assert b0_constant(P, frob, 1) == embed_rational(b0_exact(P, frob, 1), P.p, 1)

    @given(cases())
    def test_count_one(self, case):
        P, frob, prec = case
        assert hg_series(P, 1, prec) == [1]
        assert b_coefficients(P, frob, 1, prec) == [b0_constant(P, frob, prec).residue]
        assert bhat_coefficients(P, frob, 1, prec) == \
            embedded([bhat_approx(P, frob, 0, prec)], P.p, prec)

    @pytest.mark.parametrize("a,s,p", [(Fraction(1, 3), 2, 5), (Fraction(1, 2), 1, 3),
                                       (Fraction(2, 3), 2, 2)])
    def test_valuation_at_or_past_precision_gives_zero(self, a, s, p):
        P = HGParams.create(a, s, p)
        prec = 2
        deep = [k for k in range(300) if vp(coeff_exact(P, k), p) >= prec]
        assert deep  # the case is not vacuous
        residues = hg_series(P, 300, prec)
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
        assert hg_series(P, count, prec) == \
            embedded((coeff_exact(P, k) for k in range(count)), p, prec)
        b = b_coefficients(P, frob, count, prec)
        # the B_0 oracle walks p^prec exact terms: only where that is quick
        if prec <= B0_PREC[p]:
            assert b[0] == embed_rational(b0_exact(P, frob, prec), p, prec).residue
        assert b[1:] == embedded((b_exact(P, frob, k) for k in range(1, count)), p, prec)
        assert bhat_coefficients(P, frob_hat, count, prec) == \
            embedded((bhat_approx(P, frob_hat, k, prec) for k in range(count)), p, prec)


# a at every sign, a = 1, and denominators 3 and 4
WALK_A = [Fraction(-1, 2), Fraction(1), Fraction(-5, 3), Fraction(-1, 3), Fraction(1, 3),
          Fraction(2, 3), Fraction(7, 4)]
WALK_TOP = {2: 10, 3: 6, 5: 4, 7: 3}  # the largest n with p^n among the ks


@st.composite
def walk_params(draw):
    """HGParams over p in {2,3,5,7}, the a of WALK_A admissible at p and s <= 3."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    a = draw(st.sampled_from([a for a in WALK_A if a.denominator % p]))
    return HGParams.create(a, draw(st.integers(1, 3)), p)


@st.composite
def walks(draw):
    """(params, ks): ascending ks whose gaps lie on both sides of the jump
    threshold, with k = 0 and k = p^n among them when drawn."""
    P = draw(walk_params())
    jump = hyper._JUMP
    gaps = draw(st.lists(st.one_of(st.integers(1, 4), st.sampled_from([jump - 1, jump, jump + 1]),
                                   st.integers(jump + 2, 700)), min_size=1, max_size=5))
    ks = set(accumulate(gaps, initial=draw(st.integers(0, 3))))
    if draw(st.booleans()):
        ks.add(0)
    if draw(st.booleans()):
        ks.add(P.p ** draw(st.integers(1, WALK_TOP[P.p])))
    return P, sorted(ks)


def walk_exact(a, p, ks, s, w):
    """((a)_k/k!)^s mod p^w at each k, from the oracle's exact ratios."""
    return embedded((coeff_exact(HGParams.create(a, s, p), k) for k in ks), p, w)


NO_JUMPS = 10 ** 9
NO_GIANT_STEPS = 10 ** 9  # a _BSGS cut-off no class reaches


@st.composite
def progressions(draw):
    """(start, step, count, p): steps prime to p of both signs, a start of
    the sign of the step (so no term is zero), and counts whose classes mod
    p are short, or straddle or pass the baby-step/giant-step cut-off."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    step = draw(st.integers(-60, 60).filter(lambda x: x % p))
    cut = p * hyper._BSGS
    count = draw(st.one_of(st.integers(0, 300), st.integers(cut - 2 * p, cut + 2 * p),
                           st.integers(cut, 3 * cut)))
    start = draw(st.integers(1, 10 ** 6)) * (1 if step > 0 else -1)
    return start, step, count, p


class TestProgression:
    """The product of an arithmetic progression: each class mod p of a
    long jump by baby and giant steps, against the chunked `math.prod`."""

    @SLOW
    @given(progressions(), st.integers(1, 40))
    def test_baby_and_giant_steps_match_chunks(self, case, w):
        with patch.object(hyper, "_BSGS", NO_GIANT_STEPS):
            expect = hyper._progression(*case, w)
        for cut in (0, hyper._BSGS):
            with patch.object(hyper, "_BSGS", cut):
                assert hyper._progression(*case, w) == expect
        start, step, count, p = case
        if count <= 300:
            v, u = split_p(prod(range(start, start + count * step, step)), p)
            assert expect == (u % p ** w, v)

    @SLOW
    @given(progressions(), st.integers(1, 37), st.sampled_from([0, hyper._BSGS]))
    def test_raising_the_guard(self, case, w, cut):
        with patch.object(hyper, "_BSGS", cut):
            unit, v = hyper._progression(*case, w)
            deeper, deeper_v = hyper._progression(*case, w + 3)
        assert (deeper % case[3] ** w, deeper_v) == (unit, v)


class TestWalk:
    """The ratio walk over the runs of sparse ascending ks, with every gap
    jumped (the threshold at 0), with the threshold at _JUMP and with none
    jumped, and every class of a jump taken by baby and giant steps (the
    cut-off at 0) and none."""

    @patch.object(hyper, "_JUMP", 32)
    def test_runs(self):
        # steps to 3, a jump to 40 and a step to 41, a jump to 200; in any
        # order and with repeats
        assert hyper._runs([[0, 3, 40, 41, 200]]) == [[0, 3], [40, 41], [200, 200]]
        assert hyper._runs([[200, 41, 0, 200, 3, 40]]) == [[0, 3], [40, 41], [200, 200]]
        assert hyper._runs([[5, 40]]) == [[0, 5], [40, 40]]
        assert hyper._runs([range(100)]) == [[0, 99]]
        # overlapping ranges, and a range inside another, join
        assert hyper._runs([range(40, 90), range(60, 140), range(100, 110)]) == [[40, 139]]
        # points within 32 of a range's end join its run, 33 past it opens one
        assert hyper._runs([[125, 91], range(40, 60)]) == [[40, 91], [125, 125]]
        assert hyper._runs([range(40, 60), [92]]) == [[40, 59], [92, 92]]
        # a first span past 32 is jumped to, one within 32 of k = 0 stepped to
        assert hyper._runs([range(33, 36)]) == [[33, 35]]
        assert hyper._runs([range(32, 36)]) == [[0, 35]]
        # empty sets read nothing
        assert hyper._runs([]) == []
        assert hyper._runs([[], range(0), range(50, 50)]) == []
        assert hyper._runs([[], range(40, 41)]) == [[40, 40]]
        # with no steps, only overlapping spans share a run
        with patch.object(hyper, "_JUMP", 0):
            assert hyper._runs([[4, 3, 3], range(0, 2), range(1, 3)]) == [[0, 2], [3, 3], [4, 4]]
            assert hyper._runs([range(5, 8), range(8, 9)]) == [[5, 7], [8, 8]]

    @SLOW
    @given(walks(), st.integers(1, 12))
    def test_jumped_and_stepped_match_oracle(self, case, w):
        # one entry A_k = ((a)_k/k!)^s per index of each run, and A at ks
        # read off them
        P, ks = case
        powers = embedded((coeff_exact(P, k) for k in ks), P.p, w)
        for jump in (0, hyper._JUMP, NO_JUMPS):
            with patch.object(hyper, "_JUMP", jump):
                runs = hyper._runs([ks])
            expect = walk_exact(P.a, P.p, [k for start, last in runs
                                           for k in range(start, last + 1)], P.s, w)
            for cut in (0, NO_GIANT_STEPS):
                with patch.object(hyper, "_JUMP", jump), patch.object(hyper, "_BSGS", cut):
                    assert hyper._walk(P.a, P.p, runs, P.s, w) == expect
                    assert hyper._quotients(P, [("A", 0, ks)], w) == [powers]

    @SLOW
    @given(cases(max_prec=4), index_sets(0), index_sets(0), index_sets(0), index_sets(1),
           index_sets(0), st.integers(1, 60), st.sampled_from([0, hyper._JUMP, NO_JUMPS]),
           st.sampled_from([0, NO_GIANT_STEPS]))
    # the jump to 90 opens the run [90, 119] at a = 1/3, and B's range starts
    # inside it at 100, Bhat's at 95
    @example((HGParams.create(Fraction(1, 3), 2, 5), FrobeniusSpec(6), 3), range(90, 110), [7],
             [3, 1], range(100, 120), range(95, 100), 10, 0, NO_GIANT_STEPS)
    # ks in descending order with repeats, at a = 1/2, its own Dwork prime
    @example((HGParams.create(Fraction(1, 2), 1, 3), FrobeniusSpec(4), 4), [1400, 90, 90, 5, 0],
             [200, 200, 6], [9, 0], [1200, 64, 27, 27, 3], [700, 40, 2, 2, 0], 12, hyper._JUMP,
             0)
    def test_levels_and_kinds_in_one_call(self, case, ks0, ks1, ks2, ks_b, ks_hat, count,
                                          jump, cut):
        # "A" at three Dwork levels among B, Bhat, both ratios and G, against
        # the oracle: each distinct Dwork prime is walked once over the
        # runs of the k read there
        P, frob, prec = case
        frob_hat = FrobeniusSpec(frob.c, SIGMA_HAT)
        requests = [("A", 0, ks0), ("B", frob, ks_b), ("A", 2, ks2), ("Bhat/A", frob_hat, ks_hat),
                    ("G", frob, range(count)), ("A", 1, ks1), ("B/A", frob, ks_b),
                    ("Bhat", frob_hat, ks_hat)]
        with patch.object(hyper, "_JUMP", jump), patch.object(hyper, "_BSGS", cut):
            got = hyper._quotients(P, requests, prec)
        expect = [[coeff_exact(P, k) for k in ks0],
                  [b_exact(P, frob, k) for k in ks_b],
                  [coeff_exact(P, k, 2) for k in ks2],
                  [ratio_at(k, P, frob_hat, prec, True) for k in ks_hat],
                  [b0_exact(P, frob, prec), *(b_exact(P, frob, k) for k in range(1, count))],
                  [coeff_exact(P, k, 1) for k in ks1],
                  [ratio_at(k, P, frob, prec, False) for k in ks_b],
                  [bhat_approx(P, frob_hat, k, prec) for k in ks_hat]]
        assert got == [embedded(values, P.p, prec) for values in expect]

    @SLOW
    @given(walks(), st.integers(1, 9), st.sampled_from([0, hyper._JUMP, NO_JUMPS]),
           st.sampled_from([0, NO_GIANT_STEPS]))
    def test_raising_the_guard(self, case, w, jump, cut):
        P, ks = case
        with patch.object(hyper, "_JUMP", jump), patch.object(hyper, "_BSGS", cut):
            runs = hyper._runs([ks])
            walked = hyper._walk(P.a, P.p, runs, P.s, w)
            deeper = hyper._walk(P.a, P.p, runs, P.s, w + 3)
            # past the largest valuation each residue keeps its own, jumps included
            vals = ratio_valuations(P.a, P.p, [k for start, last in runs
                                               for k in range(start, last + 1)])
            above = hyper._walk(P.a, P.p, runs, P.s, P.s * max(vals) + 1)
        assert [x % P.p ** w for x in deeper] == walked
        assert [split_p(x, P.p)[0] for x in above] == [P.s * v for v in vals]

    @SLOW
    @given(walk_params(), st.integers(0, 2), st.integers(1, 3), st.booleans(),
           st.lists(st.integers(0, 300), min_size=1, max_size=3),
           st.lists(st.integers(1, 1500), max_size=3))
    def test_coefficient_ratios_at_sparse_ks(self, P, ci, n, hat, js, others):
        # k = l + jp are where Bhat reads A^(1); p^n is the B_0 witness;
        # unsorted, and a repeated k
        c = (Fraction(1), Fraction(1 + P.q), Fraction(1 - P.q))[ci]
        frob = FrobeniusSpec(c, SIGMA_HAT if hat else SIGMA)
        start = P.l if hat else 0
        ks = [k for k in (start + j * P.p for j in js) if k >= 1] + others + [P.p ** n]
        ks += ks[:1]
        got = hyper._quotients(P, [("Bhat/A" if hat else "B/A", frob, ks)], n)[0]
        assert got == [embed_rational(ratio_at(k, P, frob, n, hat), P.p, n).residue for k in ks]


class TestDenseWalk:
    """The step loop of the walk splits p off inline and keeps p^v as an
    exact power, and each entry is raised to s."""

    @SLOW
    @given(st.sampled_from([a for a in WALK_A if a.denominator % 2]), st.integers(1, 1100),
           st.integers(1, 20), st.integers(1, 3))
    def test_raising_the_guard_at_two(self, a, count, w, s):
        # at p = 2 one of the numerator n + (k-1)d and k is even at every
        # other step, so every other step splits, and k = 512 and 1024
        # split ten times
        runs = [[0, count - 1]]
        walked = hyper._walk(a, 2, runs, s, w)
        deeper = hyper._walk(a, 2, runs, s, w + 3)
        assert [x % 2 ** w for x in deeper] == walked
        # past the largest valuation no residue vanishes, and each has s·v
        vals = ratio_valuations(a, 2, range(count))
        above = hyper._walk(a, 2, runs, s, s * max(vals) + 1)
        assert [split_p(x, 2)[0] for x in above] == [s * v for v in vals]
        head = range(min(count, 70))
        assert walked[:len(head)] == walk_exact(a, 2, head, s, w)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("w", [6, 7])
    def test_powers_at_and_past_w(self, p, s, w):
        # A_1 = a: at a = p^v u the step to k = 1 splits v factors p off the
        # numerator, with s·v below w, at w (w = 6), just past it and far
        # past it; the jump to k = 100 divides p-parts off again
        m = p ** w
        vals = [0, 0, w // s - 1, w // s, -(-w // s), w // s + 1, w, 3 * w]
        units = [1, m - 1, p + 1, m - 1, 2 * p + 1, m - p - 1, 1, m - 1]
        for u, v in zip(units, vals):
            a = Fraction(p ** v * u)
            assert hyper._walk(a, p, [[0, 1]], s, w) == [1, pow(p ** v * u, s, m)]
            assert hyper._walk(a, p, [[0, 1], [100, 101]], s, w) == \
                walk_exact(a, p, [0, 1, 100, 101], s, w)
        assert hyper._walk(Fraction(1), p, [], s, w) == []

    @pytest.mark.parametrize("a,p,count,s,w", [(Fraction(1, 2), 5, 5 ** 6, 1, 7),
                                               (Fraction(1, 3), 2, 2 ** 14, 2, 15)],
                             ids=["p5-s1", "p2-s2"])
    def test_peak_per_index(self, a, p, count, s, w):
        # the walk holds its entries and the denominator factor of each step,
        # and releases the factors before the entries are squared.  Traced
        # peak with Python 3.11: 81 and 80 B per index; a unit list, a
        # valuation list and their powers took 90 and 88 B
        tracemalloc.start()
        try:
            hyper._walk(a, p, [[0, count - 1]], s, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 85 * count


@pytest.mark.parametrize("hat,ks,message", [(False, [0, 1], "B needs k >= 1"),
                                             (False, [2, -3], "B needs k >= 1"),
                                             (True, [1, -1], "Bhat needs k >= 0")])
def test_ratio_index_below_the_sequence_rejected(hat, ks, message):
    # B is a quotient by D_k = k from k = 1 on (D_0 = 0), Bhat from k = 0 on
    P = HGParams.create(Fraction(1, 2), 1, 3)
    frob = FrobeniusSpec(Fraction(4), SIGMA_HAT if hat else SIGMA)
    with pytest.raises(ValueError, match=re.escape(message)):
        hyper._quotients(P, [("Bhat/A" if hat else "B/A", frob, ks)], 3)


def shift_a1(monkeypatch, js, bad_js):
    """Shift A^(1)_j by 1 at each j in bad_js wherever `_read` reads the j
    in js, the j one B-type request reads A^(1) at: its numerator at k with
    k // p = j is then a unit off the true one, not divisible by p."""
    original = hyper._read

    def shifted(index, table, ks):
        got = original(index, table, ks)
        if list(ks) == js:
            got = [x + (j in bad_js) for j, x in zip(ks, got)]
        return got

    monkeypatch.setattr(hyper, "_read", shifted)


class TestNotDivisible:
    """A non-integral quotient is reported at the first failing k in ks
    order, whatever the divisor valuations of later k."""

    @pytest.mark.parametrize("bad", [(9, 12), (3, 9), (18, 15, 12)])
    def test_smallest_k_named(self, bad, monkeypatch):
        count = 2 * 3 ** 2 + 1  # the B table of check_integrality at n = 2
        # B reads A^(1) at j = 1..6 for k = 3..18; the B_0 witness 9 reads
        # it at [3], and Bhat at j = 0..5
        shift_a1(monkeypatch, list(range(1, 7)), {k // 3 for k in bad})
        P = HGParams.create(Fraction(1, 2), 1, 3)
        message = f"numerator not divisible by 3^{vp(min(bad), 3)}"
        with pytest.raises(NotDivisible, match=re.escape(message)):
            b_coefficients(P, FrobeniusSpec(Fraction(4)), count, 2)
        rep = check_integrality(P, Fraction(4), 2)
        assert not rep.passed and rep.first_failure == {"error": message}

    # a = 1/2, p = 3: B divides at k ≡ 0 mod 3 by k, Bhat at k ≡ 1 by 2k + 1;
    # v_3(A_k) is 1 at k = 6 and 7, 2 at k = 15 and 16, and 0 at k = 4, 40
    # and the powers of 3.  The first bad k in ks order has another exponent
    # than the smallest bad k and than the largest exponent
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("kind,ks,bad", [
        ("B", [10, 9, 5, 6, 27, 9], {9, 6, 27}),
        ("B/A", [11, 6, 81, 9, 3], {6, 81, 3}),
        ("B/A", [4, 15, 729, 3], {15, 729, 3}),
        ("Bhat", [2, 4, 40, 1], {4, 40, 1}),
        ("Bhat/A", [7, 3, 40, 1], {7, 40, 1}),
        ("Bhat/A", [4, 16, 1], {4, 16, 1}),
    ])
    def test_first_failing_k_in_ks_order(self, s, kind, ks, bad, monkeypatch):
        P = HGParams.create(Fraction(1, 2), s, 3)
        hat, ratio = kind.startswith("Bhat"), kind.endswith("/A")
        r = P.l if hat else 0
        shift_a1(monkeypatch, [k // 3 for k in ks if k % 3 == r], {k // 3 for k in bad})
        first = next(k for k in ks if k in bad)
        v = vp(2 * first + 1 if hat else first, 3)
        if ratio:
            v += s * vp(pochhammer(P.a, first) / factorial(first), 3)
        frob = FrobeniusSpec(Fraction(4), SIGMA_HAT if hat else SIGMA)
        with pytest.raises(NotDivisible, match=re.escape(f"not divisible by 3^{v}") + "$"):
            hyper._quotients(P, [(kind, frob, ks)], 3)


@pytest.mark.parametrize("a,s,p,c", [(Fraction(1, 2), 1, 3, 4), (Fraction(1, 3), 2, 5, 6)])
@pytest.mark.parametrize("ks", [range(1, 20, 2), range(9, 0, -1), range(30, 2, -4),
                                range(3, 200, 41), range(50, 0, -7)])
def test_stepped_and_descending_ranges_read_as_lists(a, s, p, c, ks):
    # a range of step other than 1 gives each kind what the list of its
    # values gives, alone and with the other kinds in one call
    P = HGParams.create(a, s, p)
    frob, frob_hat = FrobeniusSpec(Fraction(c)), FrobeniusSpec(Fraction(c), SIGMA_HAT)
    requests = [("A", 0, ks), ("A", 1, ks), ("B", frob, ks), ("Bhat", frob_hat, ks),
                ("B/A", frob, ks), ("Bhat/A", frob_hat, ks), ("G", frob, range(0, ks[0], 3))]
    as_lists = [(kind, tag, list(ks)) for kind, tag, ks in requests]
    for request, listed in zip(requests, as_lists):
        assert hyper._quotients(P, [request], 4) == hyper._quotients(P, [listed], 4)
    assert hyper._quotients(P, requests, 4) == hyper._quotients(P, as_lists, 4)


class TestValuations:
    @given(st.sampled_from([2, 3, 5]), st.sampled_from(A_VALUES + [Fraction(1), Fraction(7, 4),
                                                                  Fraction(-1, 2)]),
           st.lists(st.integers(0, 400), max_size=5))
    def test_ratio_valuation_closed_form(self, p, a, ks):
        # ks in any order, repeats included: each k is read on its own
        if a.denominator % p == 0:
            return
        assert ratio_valuations(a, p, ks) == [vp(pochhammer(a, k) / factorial(k), p)
                                              for k in ks]

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
        m = P.p ** prec

        def reduced(residues):
            return [r % m for r in residues]

        assert reduced(hg_series(P, count, prec + 3)) == hg_series(P, count, prec)
        f1 = [("A", 1, range(count))]
        assert reduced(hyper._quotients(P, f1, prec + 3)[0]) == hyper._quotients(P, f1, prec)[0]
        assert reduced(b_coefficients(P, frob, count, prec + 3)) == \
            b_coefficients(P, frob, count, prec)
        assert reduced(bhat_coefficients(P, frob, count, prec + 3)) == \
            bhat_coefficients(P, frob, count, prec)

    @settings(max_examples=25, deadline=None)
    @given(cases(max_prec=5), st.lists(st.integers(1, 400), min_size=1, max_size=6),
           st.booleans(), st.booleans())
    def test_coefficient_ratios(self, case, ks, ascending, hat):
        P, frob, prec = case
        ks = sorted(ks + ks[:1]) if ascending else ks + ks[:1]  # with a repeat
        deeper = hyper._quotients(P, [("Bhat/A" if hat else "B/A", frob, ks)], prec + 3)[0]
        assert [r % P.p ** prec for r in deeper] == \
            hyper._quotients(P, [("Bhat/A" if hat else "B/A", frob, ks)], prec)[0]

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


def walked_primes(run) -> list:
    """The Dwork prime of each `_walk` call that run() makes, sorted."""
    walked = []
    original = hyper._walk

    def counted(a, *args):
        walked.append(a)
        return original(a, *args)

    with patch.object(hyper, "_walk", counted):
        run()
    return sorted(walked)


# a = 1/2 is its own Dwork prime at p = 3; a = 1/3 at p = 5 has a' = 2/3
OWN_PRIME = HGParams.create(Fraction(1, 2), 2, 3)
TWO_PRIMES = HGParams.create(Fraction(1, 3), 2, 5)


def primes_at(P, levels) -> list:
    return sorted({P.a_at(i) for i in levels})


@pytest.mark.parametrize("check", list(cli.CHECKS))
def test_one_walk_per_dwork_level(check):
    # one walk per distinct Dwork prime the check reads: none for the braced
    # and ratio-identity checks, a for the section sums, a and a' otherwise
    levels = {"braced": (), "ratio-identity": (), "section-sums": (0,)}.get(check, (0, 1))
    for P in (OWN_PRIME, TWO_PRIMES):
        checker, *args = cli.CHECKS[check][0](P, Fraction(1 + P.p), 2)
        reports = []
        walked = walked_primes(lambda: reports.append(checker(*args)))
        assert reports[0].passed and walked == primes_at(P, levels)


@pytest.mark.parametrize("build,levels", [
    (lambda P, frob: hg_series(P, 40, 3), (0,)),
    (lambda P, frob: hyper._quotients(P, [("A", 1, range(40))], 3)[0], (1,)),
    (lambda P, frob: b_coefficients(P, frob, 40, 3), (0, 1)),
    (lambda P, frob: bhat_coefficients(P, frob, 40, 3), (0, 1)),
    (lambda P, frob: b0_constant(P, frob, 3), (0, 1)),
    (lambda P, frob: hyper._quotients(P, [("B/A", frob, [1, P.p, 40, P.p ** 3])], 3)[0], (0, 1)),
    (lambda P, frob: beta_values([0, 1, Fraction(1, 2)], P, frob, 3), (0, 1)),
    (lambda P, frob: hyper.compute_h(P, 3), None),  # every level of one period
], ids=["F", "F1", "G", "Ghat", "B0", "ratios", "beta", "h"])
def test_one_walk_per_dwork_prime_in_builders(build, levels):
    for P in (OWN_PRIME, TWO_PRIMES):
        frob = FrobeniusSpec(Fraction(1 + P.p))
        walked = walked_primes(lambda: build(P, frob))
        assert walked == primes_at(P, range(P.period) if levels is None else levels)


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (7, 1)])
def test_own_dwork_prime_read_off_one_walk(p, s):
    # a = 1/2 is its own Dwork prime at every odd p, so A^(1) = A: A, B and
    # Bhat come from one walk over the runs of the k and the j they read
    P = HGParams.create(Fraction(1, 2), s, p)
    assert P.a1 == P.a
    frob, frob_hat = FrobeniusSpec(Fraction(1 + p)), FrobeniusSpec(Fraction(1 + p), SIGMA_HAT)
    count, prec = 3 * p + 2, 3
    tables = []
    walked = walked_primes(lambda: tables.extend(hyper._quotients(
        P, [("A", 0, range(count)), ("B", frob, range(1, count)),
            ("Bhat", frob_hat, range(count))], prec)))
    assert walked == [P.a]
    a_res, b, bhat = tables
    assert a_res == embedded((coeff_exact(P, k) for k in range(count)), p, prec)
    assert b == embedded((b_exact(P, frob, k) for k in range(1, count)), p, prec)
    assert bhat == embedded((bhat_approx(P, frob_hat, k, prec) for k in range(count)), p, prec)


def test_request_reading_a_whole_walk_leaves_it_intact():
    # at a = 1/3, p = 5 the Dwork prime 2/3 is walked apart, so Bhat over
    # range(count) reads all of the walk at a; the B and A read after it
    # must see the walk's values, not Bhat's quotients
    P = HGParams.create(Fraction(1, 3), 1, 5)
    assert P.a1 != P.a
    frob, frob_hat = FrobeniusSpec(Fraction(6)), FrobeniusSpec(Fraction(6), SIGMA_HAT)
    count, prec = 40, 3
    requests = [("Bhat", frob_hat, range(count)), ("B", frob, range(1, count)),
                ("A", 0, range(count))]
    assert hyper._quotients(P, requests, prec) == [
        hyper._quotients(P, [request], prec)[0] for request in requests]


def test_witness_walks_hold_no_table():
    # B_0 at 3^8 and beta-hat at witnesses up to 3^8: a list of 3^8 ints
    # alone would take over 50 KB; a walk over every index takes 0.8 MB
    P = HGParams.create(Fraction(1, 2), 1, 3)
    frob = FrobeniusSpec(Fraction(4))
    tracemalloc.start()
    try:
        b0_constant(P, frob, 8)
        beta_values([0, 1, 2, Fraction(1, 2)], P, FrobeniusSpec(Fraction(4), SIGMA_HAT), 8,
                    hat=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_b_type_tables_peak_per_term():
    # the A, G and Bhat tables of check_main_congruence at p = 5, n = 6 from
    # one call: a B-type request holds its numerators and the unit parts of
    # its divisors at the hits only, on top of the walk's table.  The traced
    # peak is 61 B per table term with Python 3.11 (51 B with 3.10); a list
    # of divisors per k alone takes it past 70 B, and with a list of
    # valuations and a copy of the A read per k as well it reads 89 B (82 B)
    P = HGParams.create(Fraction(1, 2), 1, 5)
    frob, frob_hat = FrobeniusSpec(Fraction(6)), FrobeniusSpec(Fraction(6), SIGMA_HAT)
    q = 5 ** 6
    tracemalloc.start()
    try:
        hyper._quotients(P, [("A", 0, range(q)), ("G", frob, range(q)),
                             ("Bhat", frob_hat, range(q))], 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 70 * 3 * q
