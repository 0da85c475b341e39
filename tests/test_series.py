"""Tests for truncated series arithmetic and the logarithmic-integral oracle."""

from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichg import (
    HGParams,
    embed_rational,
    hg_series,
    polymul,
)
from padichg import series
from padichg.series import first_nonzero

from oracle import (
    NonzeroConstantTerm,
    frobenius_substitute,
    log_integral,
    schoolbook,
    series_from_rationals,
)

PRIMES = st.sampled_from([2, 3, 5])


def series_from_ints(values, p, prec=4):
    return series_from_rationals(values, p, prec)


def rational_series(p, order, prec=4):
    return st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 7])
                  if p not in (2, 7) else st.just(1)),
        min_size=order, max_size=order,
    ).map(lambda vals: series_from_rationals(vals, p, prec))


@st.composite
def wide_slots(draw):
    """(width, modulus, a, b, n_out) at lengths up to 300, with modulus the
    largest power of p whose product slots are width bytes: 7 and 8 are
    word slots, 9 is a decimal product.  Every entry may be the
    largest residue m - 1, and n_out lies below, inside or past the
    product."""
    width, p = draw(st.sampled_from([7, 8, 9])), draw(PRIMES)
    la, lb = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    n_out = draw(st.integers(1, la + lb + 3))
    terms = min(la, lb, n_out)  # polymul cuts a and b at n_out
    e = max(e for e in range(1, 80) if ((p ** e - 1) ** 2 * terms).bit_length() <= 8 * width)
    m = p ** e
    entry = st.one_of(st.just(m - 1), st.integers(0, m - 1))
    a = draw(st.lists(entry, min_size=la, max_size=la))
    b = draw(st.lists(entry, min_size=lb, max_size=lb))
    return width, m, a, b, n_out


class TestPolymul:
    @settings(max_examples=40, deadline=None)
    @given(wide_slots())
    def test_word_and_wide_slots_match_schoolbook(self, case):
        width, modulus, a, b, n_out = case
        terms = min(len(a), len(b), n_out)
        assert -(-((modulus - 1) ** 2 * terms).bit_length() // 8) == width
        assert polymul(a, b, modulus, n_out) == schoolbook(a, b, modulus, n_out)
        top = [modulus - 1] * len(a)  # every slot of the exact product at its largest
        assert polymul(top, top, modulus, n_out) == schoolbook(top, top, modulus, n_out)

    @settings(max_examples=40, deadline=None)
    @given(PRIMES, st.integers(1, 16), st.integers(1, 300), st.integers(1, 300),
           st.integers(1, 300), st.data())
    def test_both_paths_match_schoolbook(self, p, e, la, lb, cut, data):
        # the decimal cut-off moved to lengths up to 300, so that a and b
        # fall below and past it; moduli up to p^16 give slots of 1 to 10
        # bytes, wider ones always decimal
        m = p ** e
        entry = st.one_of(st.just(m - 1), st.integers(0, m - 1))
        a = data.draw(st.lists(entry, min_size=la, max_size=la))
        b = data.draw(st.lists(entry, min_size=lb, max_size=lb))
        n_out = data.draw(st.one_of(st.integers(1, la + lb - 1),  # inside the product
                                    st.integers(la + lb - 1, la + lb + 3)))  # at its end or past
        top = [m - 1] * la  # every slot of the exact product at its largest
        with patch.object(series, "_DECIMAL_TERMS", cut):
            assert polymul(a, b, m, n_out) == schoolbook(a, b, m, n_out)
            assert polymul(top, top, m, n_out) == schoolbook(top, top, m, n_out)

    @pytest.mark.parametrize("p,e", [(2, 20), (3, 7), (3, 12), (5, 8)])
    def test_each_path_at_the_cut_off(self, p, e):
        # lengths on both sides of the real cut-off, word slots; the word
        # path forced by a cut-off no product reaches, the decimal one by 0
        m, cut = p ** e, series._DECIMAL_TERMS
        assert ((m - 1) ** 2 * (cut + 3)).bit_length() <= 64  # every slot fits a word
        rng = Random(e)
        a = [rng.choice([m - 1, rng.randrange(m)]) for _ in range(cut + 3)]
        b = [m - 1] * (cut - 1) + [rng.randrange(m)]
        for x, y in ((a, b), (a, a[:cut - 1]), (b[:cut - 1], a[:40])):
            size = len(x) + len(y) - 1
            for n_out in (1, len(y) - 1, size // 2, size, size + 2):
                with patch.object(series, "_DECIMAL_TERMS", 10 ** 9):
                    words = polymul(x, y, m, n_out)
                with patch.object(series, "_DECIMAL_TERMS", 0):
                    assert polymul(x, y, m, n_out) == words
                assert polymul(x, y, m, n_out) == words
        top = [m - 1] * cut  # all-(m - 1) factors: a closed-form product
        full = polymul(top, top, m, 2 * cut - 1)
        assert full == [(m - 1) ** 2 * min(k + 1, 2 * cut - 1 - k) % m for k in range(2 * cut - 1)]

    @settings(max_examples=200)
    @given(PRIMES.flatmap(lambda p: st.integers(0, 14).map(lambda e: p ** e)).flatmap(
        lambda m: st.tuples(st.just(m),
                            st.lists(st.integers(0, m - 1), max_size=12),
                            st.lists(st.integers(0, m - 1), max_size=12),
                            st.integers(0, 30))))
    def test_matches_schoolbook(self, case):
        modulus, a, b, n_out = case
        assert polymul(a, b, modulus, n_out) == schoolbook(a, b, modulus, n_out)

    @pytest.mark.parametrize("a,b,n_out,expect", [
        ([], [1, 2], 3, [0, 0, 0]),
        ([3], [], 2, [0, 0]),
        ([4], [5], 1, [20]),
        ([4], [5], 4, [20, 0, 0, 0]),
        ([26, 26], [26, 26], 5, [1, 2, 1, 0, 0]),
    ])
    def test_edge_lengths(self, a, b, n_out, expect):
        assert polymul(a, b, 27, n_out) == expect

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_largest_residues(self, p):
        # every slot of the exact product at its largest value
        for e in range(15):
            m = p ** e
            for length in (1, 2, 12, 40):
                a = [m - 1] * length
                assert polymul(a, a, m, 2 * length) == schoolbook(a, a, m, 2 * length)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_largest_coefficient_fills_whole_bytes(self, bits, p):
        # the exact product's largest coefficient is bits long, a whole
        # number of bytes: its slot is bits // 8 bytes with no spare byte,
        # and a 64-bit slot still packs into words, not decimals
        e = max(e for e in range(1, 64) if (p ** e - 1) ** 2 < 2 ** (bits - 1))
        m = p ** e
        terms = -(-2 ** (bits - 1) // (m - 1) ** 2)
        assert ((m - 1) ** 2 * terms).bit_length() == bits
        top = [m - 1] * terms
        rng = Random(bits)
        a = [rng.randrange(m) for _ in range(terms + 2)]
        with patch.object(series, "Decimal", side_effect=AssertionError("decimal path")):
            for x, y in ((top, top), (a, top), (top, a)):
                n_out = len(x) + len(y)
                assert polymul(x, y, m, n_out) == schoolbook(x, y, m, n_out)

    def test_modulus_one(self):
        assert polymul([0, 0], [0], 1, 3) == [0, 0, 0]


class TestFirstNonzero:
    """The first index at which a packed sum of products is not 0 mod m,
    against the sum of the schoolbook products, with each path forced.
    The sums are f g - f g, plus at most one product e h: f g + f (m - g)
    is 0 in every slot, so the first nonzero index is set by e h, and
    every slot of the sum holds multiples of m up to its bound."""

    @settings(max_examples=200)
    @given(PRIMES.flatmap(lambda p: st.integers(1, 14).map(lambda e: p ** e)).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.one_of(st.just(m - 1), st.integers(0, m - 1)), max_size=40),
            st.lists(st.one_of(st.just(m - 1), st.integers(0, m - 1)), max_size=40),
            st.lists(st.sampled_from([0, 0, 0, 1, m - 1]), max_size=12),
            st.lists(st.integers(0, m - 1), max_size=5),
            st.integers(0, 90), st.sampled_from([0, 10 ** 9]))))
    def test_matches_schoolbook_sum(self, case):
        m, f, g, e, h, n_out, cut = case
        pairs = [(f, g), (f, [-x % m for x in g]), (e, h)]
        sums = [sum(column) % m for column in zip(*(schoolbook(x, y, m, n_out) for x, y in pairs))]
        expect = next((k for k, x in enumerate(sums) if x), None)
        with patch.object(series, "_DECIMAL_TERMS", cut):
            assert first_nonzero(pairs, m, n_out) == expect
            assert first_nonzero(pairs[:2], m, n_out) is None

    @pytest.mark.parametrize("terms,cut", [(50, 10 ** 9), (200, 0)])
    def test_slot_holds_the_sum_of_every_pair(self, terms, cut):
        # 2*2 - 2*2, the second product packed as (-2 mod 3)*2: 6 per term
        # mod 3, so each slot of the sum reaches 6t, past the 4t of one
        # product (t = 50: 200 fits a byte and 300 does not; t = 200: 800
        # has 3 digits and 1,200 has 4)
        top = [2] * terms
        with patch.object(series, "_DECIMAL_TERMS", cut):
            assert first_nonzero([(top, top), ([1] * terms, top)], 3, 2 * terms - 1) is None

    @pytest.mark.parametrize("pairs,n_out,expect", [
        ([], 3, None), ([([], [1]), ([2], [])], 4, None), ([([1], [1])], 0, None),
        ([([0, 0, 5], [1])], 3, 2), ([([0, 0, 5], [1])], 2, None),
        ([([1, 1], [1]), ([26], [1, 1, 1])], 3, 2),  # (1 + t) - (1 + t + t^2) mod 27
    ])
    def test_edge_cases(self, pairs, n_out, expect):
        assert first_nonzero(pairs, 27, n_out) == expect


class TestRingOps:
    def test_product_one_minus_t_squared(self):
        f = series_from_ints([1, 1], 5).residues
        g = series_from_ints([1, -1], 5).residues
        m = 5 ** 4
        assert polymul(f, g, m, 3) == [1, 0, m - 1]

    def test_polymul_full_degree(self):
        f = series_from_ints([1, 1], 3).residues
        assert polymul(f, f, 3 ** 4, 3) == [1, 2, 1]

    @given(st.integers(0, 1).flatmap(lambda _: PRIMES).flatmap(
        lambda p: st.tuples(rational_series(p, 5), rational_series(p, 5))))
    def test_mul_commutes(self, pair):
        f, g = pair
        m = f.p ** f.prec
        assert polymul(f.residues, g.residues, m, 9) == polymul(g.residues, f.residues, m, 9)


class TestTruncation:
    def test_truncated_hypergeometric(self):
        params = HGParams.create(Fraction(1, 2), 1, 3)
        f = hg_series(params, 3, 4)
        expect = [Fraction(1), Fraction(1, 2), Fraction(3, 8)]
        assert f == [embed_rational(e, 3, 4).residue for e in expect]


class TestFrobeniusSubstitute:
    def test_single_term(self):
        p = 3
        c = embed_rational(1 + p, p, 4)
        f = series_from_ints([0, 1], p)
        out = frobenius_substitute(f, c, p + 1)
        assert out.coeffs[p] == c
        assert all(out.coeffs[i].residue == 0 for i in range(p))

    def test_constant_fixed(self):
        out = frobenius_substitute(series_from_ints([1], 3),
                                   embed_rational(4, 3, 4), 2)
        assert [c.residue for c in out.coeffs] == [1, 0]

    def test_powers_of_c(self):
        p = 3
        c = embed_rational(4, p, 4)
        f = series_from_ints([1, 1, 1], p)
        out = frobenius_substitute(f, c, 7)
        assert out.coeffs[0].residue == 1
        assert out.coeffs[3] == c
        assert out.coeffs[6] == c * c


class TestLogIntegral:
    def test_untwisted_t_squared(self):
        f = series_from_ints([0, 0, 1], 5)
        out = log_integral(f)
        assert out.coeffs[2] == embed_rational(Fraction(1, 2), 5, 4)

    def test_twisted_constant(self):
        f = series_from_ints([1], 3)
        out = log_integral(f, twist=Fraction(1, 2))
        assert out.coeffs[0] == embed_rational(2, 3, 4)

    def test_untwisted_tp_loses_precision(self):
        f = series_from_ints([0, 0, 0, 3], 3, prec=4)
        out = log_integral(f)
        assert out.coeffs[3].prec == 3
        assert out.coeffs[3].residue == 1

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            log_integral(series_from_ints([1, 1], 3))


class TestLaurent:
    """t -> 1/t on a polynomial of degree d, times t^d, reverses its
    coefficients; the checkers multiply reversed vectors."""

    @given(PRIMES.flatmap(lambda p: st.integers(1, 14).map(lambda e: p ** e)).flatmap(
        lambda m: st.tuples(st.just(m),
                            st.lists(st.integers(0, m - 1), min_size=1, max_size=12),
                            st.lists(st.integers(0, m - 1), min_size=1, max_size=12))))
    def test_reverse_multiplicative(self, case):
        modulus, a, b = case
        n = len(a) + len(b) - 1
        assert polymul(a[::-1], b[::-1], modulus, n) == polymul(a, b, modulus, n)[::-1]
