import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsperner.padic import (
    INFINITY,
    PrimePower,
    _exact_root,
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
        """Finite valuations are plain ints."""
        assert type(vp(2, 4)) is type(vp_factorial(2, 4)) is type(vp_binomial(2, 1, 1)) is int
        assert vp(2, 4) == 2
        assert vp(2, 4) != 3
        assert vp(2, 1) == 0

    def test_infinity_ordering(self):
        assert INFINITY > 10**9
        assert INFINITY > 10**400
        assert not (INFINITY < INFINITY)
        assert INFINITY <= INFINITY
        assert 5 < INFINITY

    def test_addition(self):
        assert vp(2, 4) + vp(2, 8) == 5
        assert vp(2, 4) + 3 == 5
        assert vp(2, 4) + INFINITY == INFINITY
        assert INFINITY + INFINITY == INFINITY


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
        if low != INFINITY and sum(1 for v in vals if v == low) == 1:
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

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError, match="^s must be non-negative$"):
            vp_factorial(2, -1)


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
        expected = vp_factorial(p, a + b) - vp_factorial(p, a) - vp_factorial(p, b)
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
            base = vp_factorial(p, s)
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


# 399165290221 * 798330580441, the least strong pseudoprime to the twelve
# Miller-Rabin witnesses 2..37
PSI_12 = 318665857834031151167461


class TestPrimePower:
    def test_from_q(self):
        assert PrimePower.from_q(8) == PrimePower(2, 3)
        assert PrimePower.from_q(9) == PrimePower(3, 2)
        assert PrimePower.from_q(7).q == 7

    @pytest.mark.parametrize("bad", [1, 6, 12, 100, 0, -4, -7, -8, 2**64 - 1])
    def test_rejects_non_prime_powers(self, bad):
        with pytest.raises(ValueError, match=f"^q = {bad} is not a prime power$"):
            PrimePower.from_q(bad)

    @pytest.mark.parametrize("q", [PSI_12, PSI_12**2, 2**89 - 1, (2**89 - 1) ** 3])
    def test_refuses_roots_past_exact_primality(self, q):
        with pytest.raises(ValueError, match=f"proves primality only below {PSI_12}$"):
            PrimePower.from_q(q)

    def test_large_moduli(self):
        # the square of the largest prime below 2^32, and a prime near 2^64
        assert PrimePower.from_q(4294967291**2) == PrimePower(4294967291, 2)
        assert PrimePower.from_q(2**64 - 59) == PrimePower(2**64 - 59, 1)
        assert PrimePower.from_q(3**200) == PrimePower(3, 200)

    def test_exact_root(self):
        def by_floor_root(q, k):
            # Newton from 2**ceil(bits / k), which is at least the root
            x = 1 << -(-q.bit_length() // k)
            while (y := ((k - 1) * x + q // x ** (k - 1)) // k) < x:
                x = y
            assert x**k <= q < (x + 1) ** k
            return x if x**k == q else None

        rng = random.Random(11)
        for _ in range(200):
            q = rng.getrandbits(rng.choice((8, 64, 200, 3000, 14000))) + 1
            for k in (1, 2, 3, rng.randint(1, q.bit_length())):
                assert _exact_root(q, k) == by_floor_root(q, k), (q, k)
            # roots on both sides of the float route's 2**40
            r0, k = rng.getrandbits(rng.choice((2, 39, 40, 41, 61, 300))) + 2, rng.randint(1, 40)
            assert _exact_root(r0**k, k) == r0
            assert _exact_root(r0**k + 1, k) == by_floor_root(r0**k + 1, k)

    def test_from_q_matches_trial_division(self):
        def by_trial_division(q):
            f = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
            k = 0
            while q % f == 0:
                q //= f
                k += 1
            return (f, k) if q == 1 else None

        for q in range(2, 10**4):
            try:
                pp = PrimePower.from_q(q)
                got = (pp.p, pp.k)
            except ValueError:
                got = None
            assert got == by_trial_division(q), q

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            PrimePower(4, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_exponent_below_one(self, k):
        with pytest.raises(ValueError, match="^exponent k must be positive$"):
            PrimePower(2, k)

    def test_str(self):
        assert str(PrimePower(2, 3)) == "8 = 2^3"
        assert str(PrimePower(5, 1)) == "5"

    def test_is_prime_spot_checks(self):
        assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**31)

    def test_is_prime_refuses_what_it_cannot_prove(self):
        # a witness proves compositeness at any size; passing all twelve
        # proves primality only below PSI_12, itself a strong pseudoprime
        assert not is_prime(PSI_12 + 2) and not is_prime(2**89 + 1)
        assert not is_prime(PSI_12 - 1)
        for n in (PSI_12, 2**89 - 1):
            with pytest.raises(ValueError, match=f"^n = {n} passes every witness, which proves primality only below {PSI_12}$"):
                is_prime(n)


class TestDigits:
    def test_examples(self):
        assert to_digits(PrimePower.from_q(8), 3) == (0, 1, 1)
        assert to_digits(PrimePower.from_q(9), 2) == (0, 2)
        assert to_digits(PrimePower.from_q(27), 0) == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            to_digits(PrimePower.from_q(8), 8)
        with pytest.raises(ValueError):
            to_digits(PrimePower.from_q(8), -1)

    @given(st.sampled_from([4, 8, 9, 16, 25, 27]), st.data())
    def test_round_trip(self, q, data):
        pp = PrimePower.from_q(q)
        s = data.draw(st.integers(min_value=0, max_value=q - 1))
        digits = to_digits(pp, s)
        value = 0
        for d in digits:
            value = value * pp.p + d
        assert value == s
        assert len(digits) == pp.k
        assert all(0 <= d < pp.p for d in digits)

    def test_trailing_zeros_match_valuation(self):
        pp = PrimePower.from_q(27)
        for s in range(1, 27):
            trailing = 0
            for d in reversed(to_digits(pp, s)):
                if d:
                    break
                trailing += 1
            assert vp(3, s) == trailing
