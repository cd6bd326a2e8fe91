"""Closed-interval calculus over residues modulo a prime power q = p**k.

An interval {b-s+1, ..., b} inside [q-1] is *q-closed* when p does not
divide C(b, s); a *q-closure* of an interval is a shortest q-closed
superinterval inside [q-1].  One always exists because [1, q-1] itself is
q-closed (C(q-1, q-1) = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import PrimePower, _lucas_nondivisible, _vp_int, to_digits

__all__ = [
    "IntervalL",
    "ClosureResult",
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
            raise ValueError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def residues(self) -> range:
        return range(self.lo, self.hi + 1)

    def __str__(self):
        return f"{{{self.lo}..{self.hi}}}"


@dataclass(frozen=True)
class ClosureResult:
    interval: IntervalL
    length: int


def _check_range(pp: PrimePower, interval: IntervalL) -> None:
    if interval.hi > pp.q - 1:
        raise ValueError(f"interval {interval} not contained in [1, {pp.q - 1}]")


def is_q_closed(pp: PrimePower, interval: IntervalL) -> bool:
    """Whether the interval is q-closed: p does not divide C(hi, size)."""
    _check_range(pp, interval)
    return _lucas_nondivisible(pp.p, interval.hi, interval.size)


def closure_length_bound(pp: PrimePower, s: int) -> int:
    """Guaranteed upper bound on q_closure length for any size-s interval.

    Computed from the base-p digits of s (most significant first): with j
    the position of the first digit below p-1 and v the count of trailing
    zero digits, the bound is s + max(0, q // p**j - p**v).  For s = q-1
    the only size-s interval is [1, q-1], already closed, so the bound is s.
    """
    if not 1 <= s <= pp.q - 1:
        raise ValueError(f"s = {s} out of range [1, {pp.q - 1}]")
    if s == pp.q - 1:
        return s
    digits = to_digits(pp, s).digits
    j = next(i for i, d in enumerate(digits, start=1) if d != pp.p - 1)
    v = _vp_int(pp.p, s)
    # The digit-raising construction widens only positions strictly between
    # j and the trailing-zero block; when that range is empty no widening
    # is needed and the bound collapses to s.
    return s + max(0, pp.q // pp.p ** j - pp.p ** v)


def q_closure(pp: PrimePower, interval: IntervalL) -> ClosureResult:
    """A shortest q-closed superinterval of `interval` inside [1, q-1].

    Exhaustive scan over candidates ordered by length; among equally short
    candidates the one with the smallest lo wins, so output is deterministic
    even though shortest closures need not be unique.
    """
    _check_range(pp, interval)
    q = pp.q
    for length in range(interval.size, q):
        lo_min = max(1, interval.hi - length + 1)
        lo_max = min(interval.lo, q - length)
        for lo in range(lo_min, lo_max + 1):
            cand = IntervalL(lo, lo + length - 1)
            if is_q_closed(pp, cand):
                return ClosureResult(cand, length)
    raise AssertionError("unreachable: [1, q-1] is q-closed")


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


def count_closed_pairs(pp: PrimePower) -> ClosedPairCensus:
    """Census of q-closed intervals, one per qualifying (b, s) pair."""
    p, k, q = pp.p, pp.k, pp.q
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
