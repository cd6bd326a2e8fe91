"""Closed-interval calculus over residues modulo a prime power q = p**k.

An interval {b-s+1, ..., b} inside [q-1] is *q-closed* when p does not
divide C(b, s); a *q-closure* of an interval is a shortest q-closed
superinterval inside [q-1].  One always exists because [1, q-1] itself is
q-closed (C(q-1, q-1) = 1), and `q_closure` finds it from the base-p
digits of lo-1 and hi alone, keeping hi as its right end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import PrimePower, _lucas_nondivisible, _text, _vp_int, _written_q, to_digits

__all__ = [
    "IntervalL",
    "ClosedPairCensus",
    "is_q_closed",
    "closure_length_bound",
    "q_closure",
    "count_closed_pairs",
]


@dataclass(frozen=True)
class IntervalL:
    """The interval of residues {lo, lo+1, ..., hi} with 1 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{_text(self.lo)}, {_text(self.hi)}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self):
        return f"{{{_text(self.lo)}..{_text(self.hi)}}}"


def _check_range(pp: PrimePower, interval: IntervalL) -> None:
    if interval.hi > pp.q - 1:
        raise ValueError(f"interval {interval} not contained in [1, {_written_q(pp, 1)}]")


def is_q_closed(pp: PrimePower, interval: IntervalL) -> bool:
    """Whether the interval is q-closed: p does not divide C(hi, size)."""
    _check_range(pp, interval)
    return _lucas_nondivisible(pp.p, interval.hi, interval.size)


def closure_length_bound(pp: PrimePower, s: int) -> int:
    """Guaranteed upper bound on the size of q_closure for any size-s interval.

    Computed from the base-p digits of s (most significant first): with j
    the position of the first digit below p-1 and v the count of trailing
    zero digits, the bound is s + max(0, q // p**j - p**v).  For s = q-1
    the only size-s interval is [1, q-1], already closed, so the bound is s.
    """
    if not 1 <= s <= pp.q - 1:
        raise ValueError(f"s = {_text(s)} out of range [1, {_written_q(pp, 1)}]")
    if s == pp.q - 1:
        return s
    digits = to_digits(pp, s)
    j = next(i for i, d in enumerate(digits, start=1) if d != pp.p - 1)
    v = _vp_int(pp.p, s)
    # The digit-raising construction widens only positions strictly between
    # j and the trailing-zero block; when that range is empty no widening
    # is needed and the bound collapses to s.
    return s + max(0, pp.q // pp.p ** j - pp.p ** v)


def q_closure(pp: PrimePower, interval: IntervalL) -> IntervalL:
    """The shortest q-closed superinterval of `interval` inside [1, q-1],
    the one with the smallest lo among equally short ones.

    [y+1, b] is q-closed when p does not divide C(b, b-y), that is (Lucas,
    Kummer) when adding y and b-y in base p carries nothing: every base-p
    digit of y is at most b's.  Let x = lo-1, h = hi, j the highest digit
    position where h's digit is below x's, and m = p**(j+1) (m = 1 when
    there is none).  The closure is [z+1, h] with z = x - x%m + h%m: z keeps
    x's digits above j and takes h's from j down, so it is the largest
    number up to x whose digits are each at most h's, and h - z =
    (h//m - x//m)*m.  No closed [y+1, b] with y <= x and b >= h is shorter:
    its digits give y%m <= b%m, so b - y >= (b//m - y//m)*m >= h - z.  One
    as short has lo = b - (h - z) + 1 >= z + 1, so the right end stays at
    hi.  One pass over the digits of x finds m.
    """
    _check_range(pp, interval)
    p, x, h = pp.p, interval.lo - 1, interval.hi
    place, m = 1, 1
    while x >= place:
        if h // place % p < x // place % p:
            m = place * p
        place *= p
    return IntervalL(x - x % m + h % m + 1, h)


@dataclass(frozen=True)
class ClosedPairCensus:
    """Exact count of pairs (b, s) with 1 <= s <= b < q and p not dividing C(b, s).

    `closed_form` is (p(p+1)/2)**k - q and is asserted to equal the
    enumeration.  `alt_form` is p**k (p-1)**k / 2**k - q, an alternative
    closed form that does NOT match the enumeration; it is recorded for
    comparison only and never asserted.
    """

    count: int
    closed_form: int
    alt_form: int


_MAX_CENSUS_PAIRS = 10**7


def count_closed_pairs(pp: PrimePower) -> ClosedPairCensus:
    """Census of q-closed intervals, one per qualifying (b, s) pair.

    Runs one Lucas test per pair, so a q with more than 10**7 of the
    (q-1)q/2 pairs is refused with a ValueError before any test runs.
    """
    p, k, q = pp.p, pp.k, pp.q
    pairs = (q - 1) * q // 2
    if pairs > _MAX_CENSUS_PAIRS:
        raise ValueError(
            f"census at q = {_written_q(pp)} would test {_text(pairs)} pairs, "
            f"more than the limit {_MAX_CENSUS_PAIRS}"
        )
    count = sum(
        1
        for b in range(1, q)
        for s in range(1, b + 1)
        if _lucas_nondivisible(p, b, s)
    )
    closed_form = (p * (p + 1) // 2) ** k - q
    alt_form = p ** k * (p - 1) ** k // 2 ** k - q
    if count != closed_form:
        raise AssertionError(
            f"census mismatch at q={q}: enumerated {count}, closed form {closed_form}"
        )
    return ClosedPairCensus(count, closed_form, alt_form)
