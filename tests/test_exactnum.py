"""Oracles and properties for the combinatorial primitives.

The oracles here are deliberately dumb: ordered-subset enumeration for
star multinomials, factorial formulas for integer Beta values, one-step
peeling recurrences for Beta ratios, and raw product() filtering for
compositions.  None of them share code with the implementation.
"""

import copy
import math
import pickle
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hoeffding.exactnum import (
    Composition,
    _composition_tuples,
    beta_ratio,
    binom_star,
    class_size,
    compositions,
    format_rational,
    multinomial,
    multinomial_star,
    parse_rational,
    rising_factorial,
)


def ordered_selection_count(m, parts):
    # number of ways to pick disjoint labeled subsets of the given sizes
    # out of m distinct items, by literal enumeration
    def rec(pool, idx):
        if idx == len(parts):
            return 1
        want = parts[idx]
        if want < 0 or want > len(pool):
            return 0
        total = 0
        for chosen in combinations(pool, want):
            rest = tuple(x for x in pool if x not in chosen)
            total += rec(rest, idx + 1)
        return total

    return rec(tuple(range(m)), 0)


def guarded_factorial_multinomial(m, parts):
    if m < 0 or any(b < 0 for b in parts) or sum(parts) > m:
        return 0
    out = math.factorial(m)
    for b in (*parts, m - sum(parts)):
        out //= math.factorial(b)
    return out


def beta_integer(a, b):
    # B(a, b) for integer a, b >= 1 via factorials
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                    math.factorial(a + b - 1))


def beta_ratio_by_peeling(p, q, dp, dq):
    # B(p+1, q) = B(p, q) * p / (p + q), one unit at a time
    p, q = Fraction(p), Fraction(q)
    value = Fraction(1)
    for _ in range(dp):
        value *= p / (p + q)
        p += 1
    for _ in range(dq):
        value *= q / (p + q)
        q += 1
    return value


class TestBinomStar:
    def test_plain_values(self):
        assert binom_star(3, 2) == 3
        assert binom_star(3, 5) == 0
        assert binom_star(3, -1) == 0
        assert binom_star(0, 0) == 1
        assert binom_star(-2, 0) == 0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=-10, max_value=70))
    def test_pascal_recurrence_everywhere(self, a, b):
        assert binom_star(a, b) == binom_star(a - 1, b) + binom_star(a - 1, b - 1)

    def test_matches_comb_on_support(self):
        for a in range(0, 12):
            for b in range(0, a + 1):
                assert binom_star(a, b) == math.comb(a, b)


class TestMultinomialStar:
    def test_plain_values(self):
        assert multinomial_star(3, (1, 1)) == 6
        assert multinomial_star(2, (3,)) == 0
        assert multinomial_star(4, (2, 2)) == 6
        assert multinomial_star(4, (2, -1)) == 0

    def test_against_subset_enumeration(self):
        # exhaustive sweep; the oracle literally picks the subsets
        for m in range(0, 9):
            for r in (1, 2, 3):
                for parts in product(range(0, 9), repeat=r):
                    expect = ordered_selection_count(m, parts)
                    assert multinomial_star(m, parts) == expect, (m, parts)

    @given(
        st.integers(min_value=-2, max_value=12),
        st.lists(st.integers(min_value=-3, max_value=10), min_size=1, max_size=4),
    )
    def test_against_guarded_factorials(self, m, parts):
        assert multinomial_star(m, tuple(parts)) == guarded_factorial_multinomial(m, parts)

    def test_strict_multinomial_raises_out_of_range(self):
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(0, ()) == 1
        with pytest.raises(ValueError):
            multinomial(2, (3,))
        with pytest.raises(ValueError):
            multinomial(4, (2, -1))
        with pytest.raises(ValueError):
            multinomial(-1, ())


class TestRisingFactorial:
    def test_values(self):
        assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
        assert rising_factorial(Fraction(7, 3), 0) == 1
        assert rising_factorial(2, 3) == 24

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            rising_factorial(1, -1)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=8))
    def test_integer_case_is_factorial_ratio(self, x, k):
        assert rising_factorial(x, k) == math.factorial(x + k - 1) // math.factorial(x - 1)


rationals_pos = st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=12)


class TestBetaRatio:
    def test_values(self):
        assert beta_ratio(1, 2, 1, 1) == Fraction(1, 6)
        assert beta_ratio(Fraction(3, 2), Fraction(5, 2), 0, 0) == 1
        # B(3,2)/B(1,2) = (1/12)/(1/2); the peeling oracle agrees
        assert beta_ratio(1, 2, 2, 0) == Fraction(1, 6)
        assert beta_ratio(1, 2, 2, 0) == beta_ratio_by_peeling(1, 2, 2, 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_ratio(0, 1, 1, 0)
        with pytest.raises(ValueError):
            beta_ratio(1, -2, 0, 0)
        with pytest.raises(ValueError):
            beta_ratio(1, 1, -1, 0)

    def test_integer_case_against_factorial_betas(self):
        for p in range(1, 6):
            for q in range(1, 6):
                for dp in range(0, 5):
                    for dq in range(0, 5):
                        expect = beta_integer(p + dp, q + dq) / beta_integer(p, q)
                        assert beta_ratio(p, q, dp, dq) == expect

    @given(rationals_pos, rationals_pos,
           st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    def test_rational_case_against_peeling(self, p, q, dp, dq):
        assert beta_ratio(p, q, dp, dq) == beta_ratio_by_peeling(p, q, dp, dq)

    @given(rationals_pos, rationals_pos,
           st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_telescoping(self, p, q, dp1, dq1, dp2, dq2):
        whole = beta_ratio(p, q, dp1 + dp2, dq1 + dq2)
        split = beta_ratio(p, q, dp1, dq1) * beta_ratio(p + dp1, q + dq1, dp2, dq2)
        assert whole == split


class TestCompositions:
    def test_small_enumeration(self):
        got = [tuple(c) for c in compositions(2, 3)]
        assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        assert [tuple(c) for c in compositions(0, 4)] == [(0, 0, 0, 0)]
        assert len(list(compositions(5, 3))) == 21

    def test_against_product_filter(self):
        for n in range(0, 6):
            for k in range(1, 5):
                got = [tuple(c) for c in compositions(n, k)]
                expect = [t for t in product(range(n + 1), repeat=k) if sum(t) == n]
                assert sorted(got) == sorted(expect)
                assert got == sorted(got, reverse=True)  # descending lex
                assert len(got) == math.comb(n + k - 1, k - 1)

    def test_restricted_count_identity(self):
        # fixing i_1 >= 1 leaves as many compositions as one order lower
        for k in range(1, 6):
            for n in range(1, 9):
                restricted = sum(1 for i in compositions(n, k) if i[0] >= 1)
                assert restricted == math.comb(n + k - 2, k - 1)

    def test_more_colors_than_the_recursion_limit(self):
        # the enumeration is a loop, so its depth does not grow with the colors
        colors = sys.getrecursionlimit() + 500
        assert compositions(0, colors) == ((0,) * colors,)
        seen = 0
        for j, t in enumerate(_composition_tuples(1, colors)):
            assert t.index(1) == j and sum(t) == 1
            seen += 1
        assert seen == colors

    def test_degenerate_and_errors(self):
        assert list(compositions(3, 0)) == []
        assert list(compositions(0, 0)) == [()]
        with pytest.raises(ValueError):
            list(compositions(-1, 3))

    def test_class_size_counts_sequences(self):
        for n in range(0, 5):
            for i in compositions(n, 3):
                by_hand = sum(
                    1 for seq in product(range(3), repeat=n)
                    if tuple(seq.count(j) for j in range(3)) == tuple(i)
                )
                assert class_size(i) == by_hand


class TestComposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition((1, -1))
        with pytest.raises(ValueError):
            Composition((1, True))
        with pytest.raises(ValueError):
            Composition((1, Fraction(1, 2)))

    def test_helpers(self):
        c = Composition((2, 0, 1))
        assert c.order == 3 and c.colors == 3
        assert tuple(c.increment(1)) == (2, 1, 1)
        with pytest.raises(ValueError):
            c.increment(3)

    def test_plus_is_tuple_concatenation(self):
        # inherited tuple behavior, not the componentwise sum
        c = Composition((1, 0))
        assert c + c == (1, 0, 1, 0)

    def test_tuple_interop_and_pickle(self):
        c = Composition((1, 2, 0))
        assert c == (1, 2, 0)
        assert hash(c) == hash((1, 2, 0))
        assert {c: "x"}[(1, 2, 0)] == "x"
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(c, protocol))
            assert back == c and type(back) is Composition, protocol
        copied = copy.deepcopy(c)
        assert copied == c and type(copied) is Composition


class TestRationalStrings:
    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" -2 ") == -2
        assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
        assert parse_rational(5) == 5

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("one half")

    @pytest.mark.parametrize("text", ["1e3", "5E-1", " 1e-100000000 ", "2.5e0", "1/2e1"])
    def test_exponent_forms_are_refused(self, text):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)

    @pytest.mark.parametrize("text", [
        "0.5", ".5", "1.", "+1/2", "1/+2", "1/-2", "--1", "1_000", "1 /2", "1/2/3",
        "/2", "1/", "", "\u0661", "1/\u0662", "nan", "inf",
    ])
    def test_only_integers_and_num_den_are_accepted(self, text):
        with pytest.raises(ValueError, match="not accepted"):
            parse_rational(text)

    @pytest.mark.parametrize("text,value", [
        (" -3/4 ", Fraction(-3, 4)), ("007", 7), ("-0", 0), ("10/4", Fraction(5, 2)),
    ])
    def test_grammar_forms_parse_exactly(self, text, value):
        assert parse_rational(text) == value

    def test_format_always_shows_denominator(self):
        assert format_rational(Fraction(1, 3)) == "1/3"
        assert format_rational(2) == "2/1"
        assert format_rational(0) == "0/1"
        assert format_rational(Fraction(-3, 6)) == "-1/2"

    @given(st.fractions(max_denominator=1000))
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x
