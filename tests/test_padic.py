"""Unit and property tests for the base p-adic arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichg import (
    CNotOneModP,
    DenominatorDivisibleByP,
    HGParams,
    NotDivisible,
    Padic,
    PrecisionExhausted,
    embed_rational,
    iwasawa_log,
    parse_rational,
)

from padichg.padic import _residue

from oracle import (braced_product, braced_table, c_power_frac, dwork_chain_exact,
                    iwasawa_log_exact, pochhammer, vp)

PRIMES = st.sampled_from([2, 3, 5, 7])


def frac(num=st.integers(-50, 50), den=st.integers(1, 30)):
    return st.builds(Fraction, num, den)


class TestEmbedding:
    def test_zero(self):
        x = embed_rational(0, 3, 2)
        assert x.residue == 0 and x.prec == 2

    def test_half_mod_nine(self):
        assert embed_rational(Fraction(1, 2), 3, 2).residue == 5

    def test_minus_third_mod_25(self):
        assert embed_rational(Fraction(-1, 3), 5, 2).residue == 8

    def test_bad_denominator(self):
        with pytest.raises(DenominatorDivisibleByP):
            embed_rational(Fraction(1, 3), 3, 2)

    @given(frac(), frac(), PRIMES)
    def test_ring_homomorphism(self, x, y, p):
        if x.denominator % p == 0 or y.denominator % p == 0:
            return
        if (x + y).denominator % p == 0 or (x * y).denominator % p == 0:
            return
        ex, ey = embed_rational(x, p, 4), embed_rational(y, p, 4)
        assert ex + ey == embed_rational(x + y, p, 4)
        assert ex * ey == embed_rational(x * y, p, 4)
        assert -ex == embed_rational(-x, p, 4)


class TestValuation:
    def test_vp_of_zero_is_none(self):
        assert vp(0, 3) is None

    def test_vp_rational(self):
        assert vp(Fraction(9, 2), 3) == 2
        assert vp(Fraction(2, 9), 3) == -2

    @given(frac(st.integers(-200, 200), st.integers(1, 50)), PRIMES)
    def test_vp_multiplicative(self, x, p):
        if x == 0:
            return
        assert vp(x * x, p) == 2 * vp(x, p)


class TestExactDivide:
    def test_integer_shift(self):
        x = Padic(3, 3, 6)
        out = x.exact_divide(3)
        assert (out.residue, out.prec) == (2, 2)

    def test_zero_residue(self):
        out = Padic(3, 3, 0).exact_divide(9)
        assert (out.residue, out.prec) == (0, 1)

    def test_rational_divisor(self):
        x = embed_rational(Fraction(3, 8), 3, 3)
        out = x.exact_divide(3)
        assert out == embed_rational(Fraction(1, 8), 3, 2)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            Padic(3, 2, 1).exact_divide(3)

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            Padic(3, 1, 0).exact_divide(3)

    def test_negative_valuation_divisor_gains_precision(self):
        x = embed_rational(1, 3, 2)
        out = x.exact_divide(Fraction(1, 3))
        assert out.prec == 3 and out.residue == 3

    @pytest.mark.parametrize("d", [6, -7, 5, Fraction(3, 2), Fraction(-2, 9), Fraction(4, 5)])
    def test_builds_no_fraction(self, d, monkeypatch):
        # the divisor is split into p-part and unit as integers: 3 in the
        # numerator, in the denominator, or in neither
        x = embed_rational(Fraction(9, 7), 3, 5)
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(new(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(Fraction, "__new__", counting)
        out = x.exact_divide(d)
        monkeypatch.undo()
        assert built == []
        assert out == embed_rational(Fraction(9, 7) / d, 3, 5 - vp(d, 3))

    @given(frac(), st.integers(1, 40), PRIMES)
    def test_round_trip(self, x, d, p):
        if x.denominator % p == 0 or Fraction(d).numerator % p == 0:
            return
        emb = embed_rational(x, p, 4)
        assert emb.exact_divide(d) == embed_rational(x / d, p, 4)


def binomial(alpha, i):
    """Generalized binomial coefficient alpha(alpha-1)...(alpha-i+1)/i!."""
    out = Fraction(1)
    for j in range(i):
        out *= (Fraction(alpha) - j) / (j + 1)
    return out


def binomial_sum_power(c, alpha, p, prec):
    """Oracle for c_power_frac at non-integral alpha: the binomial series in
    c - 1, each binom(alpha, i) rebuilt from scratch."""
    x = Fraction(c) - 1
    if x == 0:
        return Fraction(1)
    v = vp(x, p)
    total, i = Fraction(1), 1
    while i * v < prec:
        total += binomial(alpha, i) * x ** i
        i += 1
    return total


class TestPochhammerBinomial:
    """The Pochhammer and binomial oracles."""

    def test_pochhammer_half_two(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_pochhammer_empty(self):
        assert pochhammer(Fraction(7, 3), 0) == 1

    def test_binomial_half_two(self):
        assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)

    @given(frac(), st.integers(0, 8))
    def test_pascal_recurrence(self, a, i):
        assert binomial(a + 1, i + 1) == binomial(a, i) + binomial(a, i + 1)


class TestCPower:
    def test_exponent_zero_and_one(self):
        assert c_power_frac(4, 0, 3, 3) == 1
        assert c_power_frac(4, 1, 3, 3) == 4

    def test_square_root_of_four(self):
        x = embed_rational(c_power_frac(4, Fraction(1, 2), 3, 2), 3, 2)
        assert x.residue == 7
        assert (x * x).residue == 4 % 9 and x.residue % 3 == 1

    def test_requires_one_mod_p(self):
        with pytest.raises(CNotOneModP):
            c_power_frac(Fraction(2), Fraction(1, 2), 3, 2)

    @given(st.integers(1, 5), st.integers(1, 5), PRIMES)
    def test_additive_in_exponent(self, u, w, p):
        c = Fraction(1 + p)
        a1, a2 = Fraction(u, p + 1), Fraction(w, p + 1)
        prec = 4
        lhs = c_power_frac(c, a1, p, prec) * c_power_frac(c, a2, p, prec)
        rhs = c_power_frac(c, a1 + a2, p, prec)
        assert vp(lhs - rhs, p) is None or vp(lhs - rhs, p) >= prec

    @settings(max_examples=150)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
               st.just(p),
               st.builds(Fraction, st.integers(-40, 40),
                         st.sampled_from([d for d in (1, 2, 3, 4, 5, 7, 9) if d % p])),
               st.integers(-30, 30).filter(lambda m: m != 0).map(
                   lambda m: Fraction(1 + (4 if p == 2 else p) * m, 1)),
               st.integers(0, 12))))
    def test_matches_binomial_sum(self, case):
        # the incremental series is the same exact rational as the
        # term-by-term binomial sum
        p, alpha, c, prec = case
        if alpha.denominator == 1:
            assert c_power_frac(c, alpha, p, prec) == c ** int(alpha)
        else:
            assert c_power_frac(c, alpha, p, prec) == binomial_sum_power(c, alpha, p, prec)


    @settings(max_examples=300)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
               st.just(p),
               # c = 1 + p^v u/d in 1 + pZ_(p), or its inverse
               st.builds(lambda v, u, d, inverse: (1 + Fraction(p ** v * u, d)) ** (-1 if inverse else 1),
                         st.integers(1, 3), st.integers(-30, 30).filter(bool),
                         st.sampled_from([d for d in (1, 2, 3, 5, 7, 11) if d % p]),
                         st.booleans()),
               st.builds(Fraction, st.integers(-60, 60),
                         st.sampled_from([d for d in (1, 1, 2, 3, 4, 5, 7, 9) if d % p])),
               st.integers(1, 24))))
    def test_one_modular_power(self, case):
        # Bhat's twist c^alpha mod p^w is pow(c, e, p^w) with e ≡ alpha mod
        # p^(w-1): exact, as c^(p^(w-1)) ≡ 1 mod p^w for these c
        p, c, alpha, w = case
        m = p ** w
        got = pow(_residue(c, p, m), _residue(alpha, p, m // p), m)
        assert got == _residue(c_power_frac(c, alpha, p, w), p, m)


class TestIwasawaLog:
    def test_log_one(self):
        assert iwasawa_log(embed_rational(1, 3, 3)).residue == 0

    def test_log_four_at_three(self):
        out = iwasawa_log(embed_rational(4, 3, 2))
        assert out.residue == 3

    def test_homomorphism(self):
        p, prec = 5, 3
        c = embed_rational(1 + p, p, prec)
        two = embed_rational(2, p, prec)
        assert iwasawa_log(c * c) == iwasawa_log(c) * two

    def test_shallow_unit_rejected_at_two(self):
        with pytest.raises(CNotOneModP):
            iwasawa_log(embed_rational(3, 2, 3))

    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(2 if p == 2 else 1, 14), st.integers(-10 ** 6, 10 ** 6),
        st.integers(1, 12))))
    def test_matches_fraction_sum(self, case):
        # c = 1 + p^v u in 1 + qW, v up to past n, against the sum of exact
        # rationals x^i/i
        p, v, u, n = case
        c = embed_rational(1 + p ** v * u, p, n)
        assert iwasawa_log(c) == iwasawa_log_exact(c)

    @given(st.integers(1, 6), st.integers(1, 6), PRIMES)
    def test_additive(self, i, j, p):
        prec = 4
        c = embed_rational((1 + p * p) ** i * (1 + p ** 3) ** j % p ** prec, p, prec)
        d = embed_rational(1 + p * p, p, prec)
        assert iwasawa_log(c * d) == iwasawa_log(c) + iwasawa_log(d)


class TestBracedProduct:
    def test_empty(self):
        assert braced_table(Fraction(5, 7), 0, 3) == [1]

    def test_one_five_at_five(self):
        assert braced_table(1, 5, 5)[5] == 24

    def test_half_three_at_three(self):
        assert braced_table(Fraction(1, 2), 3, 3)[3] == Fraction(5, 4)

    @given(frac(st.integers(-20, 20), st.integers(1, 10)), st.integers(0, 25), PRIMES)
    def test_table_matches_direct(self, a, n, p):
        table = braced_table(a, n, p)
        assert len(table) == n + 1
        assert table[n] == braced_product(a, n, p)


class TestDworkChain:
    """The Dwork data of a at p that HGParams carries: l, q, e, a' and
    the later primes of the orbit, with its period."""

    def test_a_one_p_two(self):
        P = HGParams.create(1, 1, 2)
        assert (P.l, P.a_at(1), P.period) == (1, 1, 1)
        assert (P.q, P.e) == (4, 2)  # l' = -1 mod 4 = 3

    def test_half_at_three(self):
        P = HGParams.create(Fraction(1, 2), 1, 3)
        assert (P.l, P.a1, P.period) == (1, Fraction(1, 2), 1)
        assert (P.q, P.e) == (3, 1)

    def test_two_thirds_at_five(self):
        P = HGParams.create(Fraction(2, 3), 1, 5)
        assert P.l == 1
        assert P.a_at(1) == P.a1 == Fraction(1, 3)
        assert P.a_at(2) == Fraction(2, 3)
        assert P.period == 2

    def test_e_equals_l_for_odd_p(self):
        for a in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 4)):
            P = HGParams.create(a, 1, 5)
            assert P.e == P.l

    @given(frac(st.integers(1, 40), st.integers(1, 12)), PRIMES)
    def test_step_equation(self, a, p):
        if a.denominator % p == 0:
            return
        P = HGParams.create(a, 1, p)
        # a' is defined by p a' = a + l with l in [0, p)
        assert p * P.a_at(1) == a + P.l
        assert 0 <= P.l < p

    @given(frac(st.integers(1, 40), st.integers(1, 12)), PRIMES)
    def test_eventual_cycle_consistent(self, a, p):
        if a.denominator % p == 0:
            return
        P = HGParams.create(a, 1, p)
        # every step, past the first return too, is a -> (a + l)/p
        for k in range(2 * a.denominator + 3):
            cur = P.a_at(k)
            assert p * P.a_at(k + 1) == cur + _residue(-cur, p, p)

    @given(frac(st.integers(-60, 60), st.integers(1, 40)), PRIMES)
    def test_matches_fraction_walk(self, a, p):
        # the numerator walk over the fixed denominator and the period as
        # the order of p mod d, against the walk on Fractions: same orbit,
        # period, l, e and q
        if a.denominator % p == 0 or a.denominator == 1 and a <= 0:
            return
        self.assert_matches_fraction_walk(a, p)

    @pytest.mark.parametrize("a,p", [(Fraction(1, 1000), 3), (Fraction(1, 101), 2),
                                     (Fraction(-1, 101), 2), (Fraction(203, 101), 2)])
    def test_past_64_steps(self, a, p):
        # the orders of 3 mod 1000 and of 2 mod 101 are both 100; -1/101 and
        # 203/101 enter (0, 1] and then cycle through the 100 primes of 1/101
        self.assert_matches_fraction_walk(a, p)
        assert HGParams.create(a, 1, p).a_at(70) == dwork_chain_exact(a, p)[3][70]

    @staticmethod
    def assert_matches_fraction_walk(a, p):
        P = HGParams.create(a, 1, p)
        l, q, e, orbit, period = dwork_chain_exact(a, p)
        assert (P.l, P.q, P.e, P.period) == (l, q, e, period)
        assert [P.a_at(i) for i in range(len(orbit))] == orbit


class TestMisc:
    def test_parse_rational(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" -2 ") == Fraction(-2)
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_rational("1/0")

    def test_str_and_digits(self):
        x = Padic(3, 3, 14)
        assert str(x) == "14 mod 3^3"
