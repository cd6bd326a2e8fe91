"""Exact p-adic arithmetic: valuations, base-p digits, Legendre's
formula, Kummer's carry criterion, and the Lucas divisibility test.

Answers are plain values: a valuation is an int, or INFINITY (`math.inf`)
for v_p(0), and digits are a tuple of ints.  Everything here works on
arbitrary-precision integers; nothing overflows or rounds.  `is_prime` is
exact below psi_12 (about 3.2e23) and refuses to call a larger number
prime.  All functions are pure and safe to call from any thread.  The
private `_text` is the one writer of an int into a text (a
certificate's, an interval's, a refusal's): the same text under any
digit limit, and from 10^4300 on in closed form where one is given.
`_written_q` writes q - less through it, closed as p^k - less.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "INFINITY",
    "PrimePower",
    "is_prime",
    "vp",
    "vp_factorial",
    "vp_binomial",
    "lucas_nondivisible",
    "to_digits",
]

# The first twelve primes as Miller-Rabin witnesses decide primality below
# psi_12, a composite that passes all twelve (Sorenson & Webster 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set).
    A witness proves n composite at any size; an n >= psi_12 that passes
    every witness is refused with a ValueError, not called prime."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"n = {_text(n)} passes every witness, which proves primality only below {_MR_EXACT_BELOW}"
        )
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {_text(p)} is not prime")


# v_p(0): above every int and absorbing under addition, so sums and
# comparisons of valuations stay total
INFINITY = math.inf


def _vp_int(p: int, n: int) -> int:
    """v_p(n) for n != 0 without vp's prime check; internal fast path."""
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def vp(p: int, n: int) -> int | float:
    """The largest e with p**e dividing n; INFINITY for n = 0.

    >>> vp(2, 12)
    2
    >>> vp(3, 0)
    inf
    """
    _require_prime(p)
    if n == 0:
        return INFINITY
    return _vp_int(p, n)


def vp_factorial(p: int, s: int) -> int:
    """v_p(s!) by Legendre's formula: the sum of floor(s / p**j) over j >= 1."""
    _require_prime(p)
    if s < 0:
        raise ValueError("s must be non-negative")
    total = 0
    power = p
    while power <= s:
        total += s // power
        power *= p
    return total


def vp_binomial(p: int, a: int, b: int) -> int:
    """v_p of the binomial coefficient C(a+b, a).

    Kummer: equal to the number of carries when a is added to b in base p.
    """
    _require_prime(p)
    if a < 0 or b < 0:
        raise ValueError("a and b must be non-negative")
    carries = 0
    carry = 0
    while a or b or carry:
        carry = 1 if a % p + b % p + carry >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def _lucas_nondivisible(p: int, x: int, y: int) -> bool:
    """lucas_nondivisible without its argument checks, for callers that
    hold an already validated prime (a `PrimePower`'s p) and x, y >= 0."""
    while y:
        if y % p > x % p:
            return False
        x //= p
        y //= p
    return True


def lucas_nondivisible(p: int, x: int, y: int) -> bool:
    """True iff p does not divide C(x, y).

    Lucas: holds iff every base-p digit of y is at most the matching digit
    of x.  When y > x the coefficient is 0, so the answer is False.
    """
    _require_prime(p)
    if x < 0 or y < 0:
        raise ValueError("x and y must be non-negative")
    return _lucas_nondivisible(p, x, y)


def _exact_root(q: int, k: int) -> int | None:
    """The integer r with r**k == q >= 1, or None if there is none, by
    Newton's method on integers from above the root.  It starts from the
    float 2**e, e = log2(q)/k, within a relative (e + 1) * 2**-51 of the
    root, raised by eight times that error: a few steps for any k."""
    e = math.log2(q) / k
    a = max(int(e) - 40, 0)
    r = int(2 ** (e - a) * (1 + (e + 1) * 2**-48)) + 1 << a
    while (y := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
        r = y
    return r if r**k == q else None


@dataclass(frozen=True)
class PrimePower:
    """q = p**k with p prime and k >= 1."""

    p: int
    k: int
    q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("exponent k must be positive")
        _require_prime(self.p)
        object.__setattr__(self, "q", self.p ** self.k)

    @classmethod
    @lru_cache(maxsize=1 << 8)
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p**k, rejecting integers that are not prime powers.
        q = c**(a*b) is also (c**a)**b, so only prime exponents e need a
        root, tried in rising order.  An exact root replaces q and is
        tried at the same e again: an exact root of it at a smaller prime
        would have been one of q's.  The last root, which has none, must
        be prime.  Memoized: callers build many specs over a few moduli."""
        if q < 2:
            raise ValueError(f"q = {_text(q)} is not a prime power")
        root, k, e = q, 1, 2
        while e < root.bit_length():  # an e-th root of 2 or more needs 2**e <= root
            r = _exact_root(root, e) if is_prime(e) else None
            if r is None:
                e += 1
            else:
                root, k = r, k * e
        if is_prime(root):
            return cls(root, k)
        raise ValueError(f"q = {_text(q)} is not a prime power")


def to_digits(pp: PrimePower, s: int) -> tuple[int, ...]:
    """The k base-p digits of s in [0, q-1], most significant first.

    With digits (d_1, ..., d_k), s is the sum of d_i * p**(k-i), and the
    count of trailing zero digits is v_p(s) for s > 0.
    """
    if not 0 <= s < pp.q:
        raise ValueError(f"s = {_text(s)} out of range [0, {_written_q(pp, 1)}]")
    digits = []
    for _ in range(pp.k):
        digits.append(s % pp.p)
        s //= pp.p
    return tuple(reversed(digits))


# --- ints in texts under any digit limit -------------------------------------

# Python writes an int of more digits than its limit only with the limit
# lifted, and a process may lower it to 640 digits
# (`sys.int_info.str_digits_check_threshold`) from the default 4,300.  So
# a text (a certificate's, an interval's, a refusal's) writes an int as
# `_text` gives it, and q - less by `_written_q`: the same text under any
# limit, and at the sizes of every day one call and one range test more
# than the int itself.
_SHORT = 10**sys.int_info.str_digits_check_threshold
_MAX_WRITTEN = 10**4300


def _text(value: int, closed: Callable[[], str] | None = None) -> int | str:
    """value as a text writes it, in full under any limit: itself below
    `_SHORT`, else in decimal by `Decimal`, which no limit binds, and from
    `_MAX_WRITTEN` on as closed(), where a closed form is given."""
    if -_SHORT < value < _SHORT:
        return value
    if value >= _MAX_WRITTEN and closed is not None:
        return closed()
    from decimal import Decimal  # 1.3 ms to import, so only for an int this long

    return str(Decimal(value))


def _written_q(pp: PrimePower, less: int = 0) -> int | str:
    """q - less as a text writes it, closed as p^k or p^k - less."""
    return _text(pp.q - less, lambda: f"{pp.p}^{pp.k}" + (f" - {less}" if less else ""))
