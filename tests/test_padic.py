import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsperner.padic import (
    INFINITY,
    DigitVector,
    PrimePower,
    Valuation,
    _lucas_nondivisible,
    is_prime,
    lucas_nondivisible,
    to_digits,
    vp,
    vp_binomial,
    vp_factorial,
)

PRIMES = (2, 3, 5, 7)


def vp_by_division(p: int, n: int) -> int:
    """Independent oracle: repeated exact division."""
    assert n != 0
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class TestValuation:
    def test_int_equality(self):
        assert Valuation(2) == 2
        assert Valuation(2) != 3
        assert Valuation(0) == 0

    def test_infinity_ordering(self):
        assert INFINITY > 10**9
        assert INFINITY > Valuation(10**9)
        assert not (INFINITY < INFINITY)
        assert INFINITY <= INFINITY
        assert Valuation(5) < INFINITY

    def test_addition(self):
        assert Valuation(2) + Valuation(3) == 5
        assert Valuation(2) + 3 == 5
        assert Valuation(2) + INFINITY == INFINITY
        assert INFINITY + INFINITY == INFINITY

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Valuation(-1)

    def test_infinite_value_access(self):
        with pytest.raises(ValueError):
            _ = INFINITY.value


class TestVp:
    def test_examples(self):
        assert vp(2, 12) == 2  # 12 = 4 * 3
        assert vp(3, 0) == INFINITY
        assert vp(5, 250) == vp_by_division(5, 250) == 3

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            vp(4, 12)

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_multiplicative(self, p, a, b):
        assert vp(p, a * b) == vp(p, a) + vp(p, b)

    @given(st.sampled_from(PRIMES), st.lists(st.integers(-500, 500), min_size=1, max_size=8))
    def test_ultrametric(self, p, ys):
        total = sum(ys)
        if total == 0:
            return
        vals = [vp(p, y) for y in ys]
        low = min(vals)
        assert vp(p, total) >= low
        if not low.is_infinite and sum(1 for v in vals if v == low) == 1:
            assert vp(p, total) == low


class TestVpFactorial:
    def test_examples(self):
        assert vp_factorial(2, 4) == 3  # 4! = 24
        assert vp_factorial(5, 4) == 0  # 4 < 5
        # direct factorization of 9!
        assert vp_factorial(3, 9) == vp_by_division(3, math.factorial(9)) == 4

    @given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=400))
    def test_matches_factorial_factorization(self, p, s):
        assert vp_factorial(p, s) == vp_by_division(p, math.factorial(s))


class TestVpBinomial:
    def test_examples(self):
        assert vp_binomial(2, 2, 2) == vp_by_division(2, math.comb(4, 2)) == 1
        assert vp_binomial(3, 2, 3) == 0  # C(5,2) = 10
        assert vp_binomial(2, 3, 3) == vp_by_division(2, math.comb(6, 3)) == 2

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=120),
    )
    def test_carry_count_matches_legendre(self, p, a, b):
        expected = vp_factorial(p, a + b).value - vp_factorial(p, a).value - vp_factorial(p, b).value
        assert vp_binomial(p, a, b) == expected


class TestLucas:
    def test_examples(self):
        assert lucas_nondivisible(3, 5, 2)  # C(5,2) = 10
        assert not lucas_nondivisible(2, 6, 3)  # C(6,3) = 20
        for p in PRIMES:
            for x in range(0, 30):
                assert lucas_nondivisible(p, x, 0)

    def test_zero_when_y_exceeds_x(self):
        # C(x, y) = 0 for y > x, so p | C(x, y)
        assert not lucas_nondivisible(2, 3, 5)
        assert not lucas_nondivisible(7, 0, 1)

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_against_big_integer_arithmetic(self, p, x, y):
        assert lucas_nondivisible(p, x, y) == (math.comb(x, y) % p != 0)

    def test_equivalence_with_carry_criterion(self):
        for p in (2, 3):
            for x in range(0, 60):
                for y in range(0, x + 1):
                    assert lucas_nondivisible(p, x, y) == (
                        vp_binomial(p, y, x - y) == 0
                    )

    def test_rejects_composite_and_negative(self):
        # the internal test skips these checks; the public one keeps them
        for p in (1, 4, 9, 15):
            with pytest.raises(ValueError):
                lucas_nondivisible(p, 5, 2)
        with pytest.raises(ValueError):
            lucas_nondivisible(3, -1, 2)

    def test_internal_path_agrees(self):
        for p in (2, 3, 5, 7, 11):
            for x in range(0, 40):
                for y in range(0, 45):
                    assert _lucas_nondivisible(p, x, y) == lucas_nondivisible(p, x, y)


class TestConsecutiveProductValuations:
    """v_p(s!) <= v_p(k(k-1)...(k-s+1)) for 1 <= s < q, strict when some
    factor is a multiple of q."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
    def test_falling_factorial_dominates(self, q):
        pp = PrimePower.from_q(q)
        p = pp.p
        for s in range(1, q):
            base = vp_factorial(p, s).value
            for k in range(0, 201, 7):
                product = 1
                for i in range(s):
                    product *= k - i
                if product == 0:
                    continue
                got = vp_by_division(p, product)
                assert base <= got, (q, s, k)
                if any((k - i) % q == 0 for i in range(s)):
                    assert base < got, (q, s, k)


class TestPrimePower:
    def test_from_q(self):
        assert PrimePower.from_q(8) == PrimePower(2, 3)
        assert PrimePower.from_q(9) == PrimePower(3, 2)
        assert PrimePower.from_q(7).q == 7

    @pytest.mark.parametrize("bad", [1, 6, 12, 100, 0, -4])
    def test_rejects_non_prime_powers(self, bad):
        with pytest.raises(ValueError):
            PrimePower.from_q(bad)

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            PrimePower(4, 2)

    def test_is_prime_spot_checks(self):
        assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**31)


class TestDigits:
    def test_examples(self):
        assert to_digits(PrimePower.from_q(8), 3).digits == (0, 1, 1)
        assert to_digits(PrimePower.from_q(9), 2).digits == (0, 2)
        assert to_digits(PrimePower.from_q(27), 0).digits == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            to_digits(PrimePower.from_q(8), 8)
        with pytest.raises(ValueError):
            to_digits(PrimePower.from_q(8), -1)

    @given(st.sampled_from([4, 8, 9, 16, 25, 27]), st.data())
    def test_round_trip(self, q, data):
        pp = PrimePower.from_q(q)
        s = data.draw(st.integers(min_value=0, max_value=q - 1))
        dv = to_digits(pp, s)
        assert dv.value(pp.p) == s
        assert dv.width == pp.k
        assert all(0 <= d < pp.p for d in dv.digits)

    def test_trailing_zeros_match_valuation(self):
        pp = PrimePower.from_q(27)
        for s in range(1, 27):
            dv = to_digits(pp, s)
            trailing = 0
            for d in reversed(dv.digits):
                if d:
                    break
                trailing += 1
            assert vp(3, s) == trailing

    def test_least_significant_first_helper(self):
        dv = DigitVector((0, 1, 1), 3)
        assert dv.least_significant_first() == (1, 1, 0)
