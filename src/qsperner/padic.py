"""Exact p-adic arithmetic: valuations, base-p digit vectors, Legendre's
formula, Kummer's carry criterion, and the Lucas divisibility test.

Everything here works on arbitrary-precision integers; nothing overflows
or rounds.  All functions are pure and safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Valuation",
    "INFINITY",
    "PrimePower",
    "DigitVector",
    "is_prime",
    "vp",
    "vp_factorial",
    "vp_binomial",
    "lucas_nondivisible",
    "to_digits",
]

# Witnesses that make Miller-Rabin deterministic for n < 3.3e24, far past
# the 2**31 ceiling this toolkit promises to handle.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
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
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


class Valuation:
    """A p-adic valuation: a non-negative integer, or INFINITY for v_p(0).

    INFINITY compares strictly greater than every finite valuation and
    absorbs addition, so sums and comparisons are total.  Instances
    compare equal to plain ints: ``vp(2, 12) == 2``.
    """

    __slots__ = ("_v",)

    def __init__(self, value: int | None):
        if value is not None:
            if value < 0:
                raise ValueError("a valuation is never negative")
            value = int(value)
        self._v = value

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> int:
        if self._v is None:
            raise ValueError("INFINITY has no finite value")
        return self._v

    @staticmethod
    def _coerce(other):
        if isinstance(other, Valuation):
            return other._v
        if isinstance(other, int):
            return other
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._v == o

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._v is None:
            return False
        if o is None:
            return True
        return self._v < o

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._v is None:
            return o is None
        return o is None or self._v <= o

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return not self.__le__(other)

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return not self.__lt__(other)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._v is None or o is None:
            return INFINITY
        return Valuation(self._v + o)

    __radd__ = __add__

    def __hash__(self):
        return hash(("Valuation", self._v))

    def __repr__(self):
        return "INFINITY" if self._v is None else f"Valuation({self._v})"


INFINITY = Valuation(None)


def _vp_int(p: int, n: int) -> int:
    """v_p(n) as a plain int for n != 0; internal fast path."""
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def vp(p: int, n: int) -> Valuation:
    """The largest e with p**e dividing n; INFINITY for n = 0.

    >>> vp(2, 12)
    Valuation(2)
    >>> vp(3, 0)
    INFINITY
    """
    _require_prime(p)
    if n == 0:
        return INFINITY
    return Valuation(_vp_int(p, n))


def vp_factorial(p: int, s: int) -> Valuation:
    """v_p(s!) by Legendre's formula: the sum of floor(s / p**j) over j >= 1."""
    _require_prime(p)
    if s < 0:
        raise ValueError("s must be non-negative")
    total = 0
    power = p
    while power <= s:
        total += s // power
        power *= p
    return Valuation(total)


def vp_binomial(p: int, a: int, b: int) -> Valuation:
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
    return Valuation(carries)


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
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p**k, rejecting integers that are not prime powers."""
        if q < 2:
            raise ValueError(f"q = {q} is not a prime power")
        p = q
        f = 2
        while f * f <= q:
            if q % f == 0:
                p = f
                break
            f += 1
        m, k = q, 0
        while m % p == 0:
            m //= p
            k += 1
        if m != 1:
            raise ValueError(f"q = {q} is not a prime power")
        return cls(p, k)

    def __str__(self):
        return f"{self.q} = {self.p}^{self.k}" if self.k > 1 else str(self.q)


@dataclass(frozen=True)
class DigitVector:
    """Fixed-width base-p digit vector, most significant digit first.

    With digits (d_1, ..., d_k) the value is sum of d_i * p**(k-i); the
    count of trailing zero digits equals the p-adic valuation of the value.
    """

    digits: tuple[int, ...]
    width: int

    def __post_init__(self):
        if len(self.digits) != self.width:
            raise ValueError("digit count must equal the declared width")

    def value(self, p: int) -> int:
        v = 0
        for d in self.digits:
            v = v * p + d
        return v


def to_digits(pp: PrimePower, s: int) -> DigitVector:
    """Width-k, most-significant-first base-p digits of s in [0, q-1]."""
    if not 0 <= s < pp.q:
        raise ValueError(f"s = {s} out of range [0, {pp.q - 1}]")
    digits = []
    for _ in range(pp.k):
        digits.append(s % pp.p)
        s //= pp.p
    return DigitVector(tuple(reversed(digits)), pp.k)
