import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsperner import closure
from qsperner.closure import (
    IntervalL,
    closure_length_bound,
    count_closed_pairs,
    is_q_closed,
    q_closure,
)
from qsperner.cli import _long_ints
from qsperner.padic import PrimePower, _lucas_nondivisible, to_digits

QS = [4, 8, 9, 16, 25, 27]
SCAN_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243]


def closed_by_arithmetic(q: int, lo: int, hi: int) -> bool:
    """Oracle: direct big-integer binomial divisibility."""
    p = PrimePower.from_q(q).p
    return math.comb(hi, hi - lo + 1) % p != 0


class TestRefusalTexts:
    @pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "lowered-limit"])
    def test_ints_past_the_int_text_limit(self, limit):
        """Modulo 2^14300, an interval past q - 1, an s out of range, a
        reversed interval, a digit request past q - 1 and an interval from
        -2^14301 are refused in texts that write the 4,306-digit 2^14301
        in full and q - 1 as 2^14300 - 1, the same under any limit."""
        pp, big = PrimePower(2, 14300), 2**14301
        calls = (
            lambda: is_q_closed(pp, IntervalL(1, big)),
            lambda: q_closure(pp, IntervalL(1, big)),
            lambda: closure_length_bound(pp, big),
            lambda: IntervalL(big, 1),
            lambda: to_digits(pp, big),
            lambda: IntervalL(-big, 1),
        )
        messages = []
        for text_limit in (limit, 0):
            saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(text_limit)
            try:
                for call in calls:
                    with pytest.raises(ValueError) as info:
                        call()
                    messages.append(str(info.value))
            finally:
                sys.set_int_max_str_digits(saved)
        with _long_ints():
            written = str(big)
        expected = [
            f"interval {{1..{written}}} not contained in [1, 2^14300 - 1]",
            f"interval {{1..{written}}} not contained in [1, 2^14300 - 1]",
            f"s = {written} out of range [1, 2^14300 - 1]",
            f"need 1 <= lo <= hi, got [{written}, 1]",
            f"s = {written} out of range [0, 2^14300 - 1]",
            f"need 1 <= lo <= hi, got [-{written}, 1]",
        ]
        assert messages == expected + expected


class TestIsClosed:
    def test_examples(self):
        pp9 = PrimePower.from_q(9)
        assert not is_q_closed(pp9, IntervalL(2, 3))  # C(3,2) = 3
        assert is_q_closed(pp9, IntervalL(1, 3))  # C(3,3) = 1

    def test_prime_modulus_always_closed(self):
        for q in (2, 3, 5, 7, 11):
            pp = PrimePower.from_q(q)
            for lo in range(1, q):
                for hi in range(lo, q):
                    assert is_q_closed(pp, IntervalL(lo, hi))

    @pytest.mark.parametrize("q", QS)
    def test_against_arithmetic_oracle(self, q):
        pp = PrimePower.from_q(q)
        for lo in range(1, q):
            for hi in range(lo, q):
                assert is_q_closed(pp, IntervalL(lo, hi)) == closed_by_arithmetic(
                    q, lo, hi
                )

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            is_q_closed(PrimePower.from_q(4), IntervalL(2, 4))


class TestLengthBound:
    def test_examples(self):
        assert closure_length_bound(PrimePower.from_q(9), 1) == 3
        assert closure_length_bound(PrimePower.from_q(8), 3) == 6  # (0,1,1): 3+4-1
        assert closure_length_bound(PrimePower.from_q(4), 3) == 3  # s = q-1

    def test_empty_digit_range_collapses_to_s(self):
        # leading digits already maxed: the construction cannot widen
        assert closure_length_bound(PrimePower.from_q(8), 4) == 4
        assert closure_length_bound(PrimePower.from_q(8), 6) == 6
        assert closure_length_bound(PrimePower.from_q(9), 6) == 6

    def test_below_q_minus_1_unless_full(self):
        for q in QS:
            pp = PrimePower.from_q(q)
            for s in range(1, q - 1):
                assert closure_length_bound(pp, s) < q - 1
            assert closure_length_bound(pp, q - 1) == q - 1

    def test_range_enforced(self):
        pp = PrimePower.from_q(8)
        with pytest.raises(ValueError):
            closure_length_bound(pp, 0)
        with pytest.raises(ValueError):
            closure_length_bound(pp, 8)


class TestClosure:
    def test_examples(self):
        pp9 = PrimePower.from_q(9)
        assert q_closure(pp9, IntervalL(3, 3)) == IntervalL(1, 3)
        assert q_closure(PrimePower.from_q(4), IntervalL(2, 2)) == IntervalL(1, 2)
        assert q_closure(pp9, IntervalL(1, 3)) == IntervalL(1, 3)
        straddle = IntervalL(2**39 - 1, 2**39)
        assert q_closure(PrimePower(2, 40), straddle) == IntervalL(1, 2**39)

    @pytest.mark.parametrize("q", QS)
    def test_contains_closed_minimal(self, q):
        pp = PrimePower.from_q(q)
        for lo in range(1, q):
            for hi in range(lo, q):
                out = q_closure(pp, IntervalL(lo, hi))
                assert out.lo <= lo and hi <= out.hi
                assert is_q_closed(pp, out)
                # exhaustive minimality check by the arithmetic oracle
                for length in range(hi - lo + 1, out.size):
                    for lo2 in range(max(1, hi - length + 1), lo + 1):
                        hi2 = lo2 + length - 1
                        if hi2 <= q - 1:
                            assert not closed_by_arithmetic(q, lo2, hi2)

    @pytest.mark.parametrize("q", QS)
    def test_length_within_bound(self, q):
        pp = PrimePower.from_q(q)
        for lo in range(1, q):
            for hi in range(lo, q):
                out = q_closure(pp, IntervalL(lo, hi))
                assert out.size <= closure_length_bound(pp, hi - lo + 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_tightness_at_prime_squares(self, p):
        pp = PrimePower(p, 2)
        out = q_closure(pp, IntervalL(p, p))
        assert out.size == p == closure_length_bound(pp, 1)


def closure_by_scan(pp, interval, closed):
    """Oracle: the start scan, lengths upward and starts from the left,
    reading each Lucas test from `closed` (see `closed_table`)."""
    q = pp.q
    for length in range(interval.size, q):
        lo_min = max(1, interval.hi - length + 1)
        lo_max = min(interval.lo, q - length)
        for lo in range(lo_min, lo_max + 1):
            if closed[length][lo + length - 1]:
                return IntervalL(lo, lo + length - 1)
    raise AssertionError("[1, q-1] is q-closed")


def closed_table(pp):
    """closed[s][b]: whether p does not divide C(b, s), one Lucas test per
    pair."""
    return [[_lucas_nondivisible(pp.p, b, s) for b in range(pp.q)] for s in range(pp.q)]


class TestDigitClosure:
    @pytest.mark.parametrize("q", SCAN_QS)
    def test_matches_start_scan(self, q):
        pp = PrimePower.from_q(q)
        closed = closed_table(pp)
        for lo in range(1, q):
            for hi in range(lo, q):
                out = q_closure(pp, IntervalL(lo, hi))
                assert out == closure_by_scan(pp, IntervalL(lo, hi), closed)


# Primes with the largest exponent k that keeps p**k <= 2**64.
HYP_PRIMES = [(p, max(k for k in range(1, 65) if p**k <= 2**64))
              for p in (2, 3, 5, 7, 11, 13, 251, 65521, 4294967291)]


@st.composite
def prime_power_intervals(draw):
    """(p^k <= 2^64, lo, hi) with 1 <= lo <= hi <= q-1; the interval's size
    is drawn below 1, p or q, so short and long intervals both occur."""
    p, k_max = draw(st.sampled_from(HYP_PRIMES))
    k = draw(st.integers(1, k_max))
    hi = draw(st.integers(1, p**k - 1))
    width = draw(st.sampled_from([1, p, p**k]))
    lo = draw(st.integers(max(1, hi - width + 1), hi))
    return PrimePower(p, k), lo, hi


@given(prime_power_intervals())
def test_closure_property_up_to_2_64(case):
    pp, lo, hi = case
    out = q_closure(pp, IntervalL(lo, hi))
    assert out.lo <= lo and out.hi == hi
    assert is_q_closed(pp, out)
    assert out.size <= closure_length_bound(pp, hi - lo + 1)


class TestCensus:
    def test_examples(self):
        # q=4: (1,1), (2,2), (3,1), (3,2), (3,3)
        assert count_closed_pairs(PrimePower.from_q(4)).count == 5
        # q=3: (1,1), (2,1), (2,2) all avoid the prime 3
        assert count_closed_pairs(PrimePower.from_q(3)).count == 3
        for p in (2, 3, 5, 7):
            assert count_closed_pairs(PrimePower.from_q(p)).count == p * (p - 1) // 2

    @pytest.mark.parametrize("q", [3, 4, 8, 9, 16, 25, 27])
    def test_closed_form_agreement(self, q):
        pp = PrimePower.from_q(q)
        census = count_closed_pairs(pp)
        assert census.count == (pp.p * (pp.p + 1) // 2) ** pp.k - q

    def test_alt_form_differs_and_is_not_asserted(self):
        census = count_closed_pairs(PrimePower.from_q(4))
        assert census.alt_form == -3
        assert census.alt_form != census.count

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_matches_direct_enumeration(self, q):
        pp = PrimePower.from_q(q)
        direct = sum(
            1
            for b in range(1, q)
            for s in range(1, b + 1)
            if math.comb(b, s) % pp.p != 0
        )
        assert count_closed_pairs(pp).count == direct

    def test_size_limit_refused_before_enumeration(self, monkeypatch):
        with pytest.raises(ValueError, match="would test 33550336 pairs"):
            count_closed_pairs(PrimePower.from_q(8192))
        # the limit is inclusive: q = 4 has exactly 6 pairs
        monkeypatch.setattr(closure, "_MAX_CENSUS_PAIRS", 6)
        assert count_closed_pairs(PrimePower.from_q(4)).count == 5
        with pytest.raises(ValueError, match="more than the limit 6"):
            count_closed_pairs(PrimePower.from_q(5))
