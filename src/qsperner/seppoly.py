"""Separating polynomials with exact minimum p-adic valuations over
residue classes.

A polynomial g separates alpha from L + qZ when v_p(g(alpha)) is strictly
below v_p(g(u)) for every integer u congruent mod q to an element of L.
Polynomials are kept in factored form (integer lead times integer roots),
which is the shape of every construction this toolkit produces and lets
class minima be computed exactly by a digit recursion instead of a scan.
The recursion on base-p digits is one loop over an explicit stack
(`_joint_min`): no function here calls itself and none keeps a cache past
its own call, so roots of any digit length are judged in one pass and the
module holds no process-wide state.

`check_separation` returns the full report: every class minimum and the two
shifted side conditions, reading each residue class once although the
classes of L and of its neighbours r - 1 and r + 1 overlap.  `separates`
answers only the yes/no question: it stops at the first residue class
whose minimum is not above v_p(g(alpha)) and never evaluates the side
conditions, so callers that only ask whether a polynomial separates
(`search_min_degree`, and R22's checker on the given polynomial of each
residue outside an intersecting L) pay for one class at a time.
v_p(g(alpha)) is read root by root, v_p(lead) plus each v_p(alpha - r),
never from the product g(alpha).

The bound engine's portfolio reads the class minima of its plain
candidates from one list instead (`bounds._class_minima`).  R22's
checker, `bounds.bound_from_seppoly`, calls `check_separation` only on a
given polynomial: the g of a difference or Hamming spec, and the given
polynomial of the residue whose `separates` fails, for the failure's
report.  Its own choice, for every kind, reads the minimum of one
polynomial, g_L with roots L, over each residue class it needs by
`min_valuation_over_class`.  The CLI's `seppoly check` prints
`check_separation`'s report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations_with_replacement

from .padic import INFINITY, PrimePower, _vp_int

__all__ = [
    "FactoredIntPoly",
    "SeparationReport",
    "SearchBudgetExhausted",
    "min_valuation_over_class",
    "check_separation",
    "separates",
    "search_min_degree",
    "degree_upper_bound",
]


@dataclass(frozen=True)
class FactoredIntPoly:
    """g(y) = lead * product of (y - r) over the root multiset."""

    lead: int
    roots: tuple[int, ...]

    def __post_init__(self):
        if self.lead == 0:
            raise ValueError("lead coefficient must be nonzero")
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __call__(self, y: int) -> int:
        value = self.lead
        for r in self.roots:
            value *= y - r
        return value

    def shift_reflect(self, alpha: int) -> "FactoredIntPoly":
        """The polynomial y -> g(alpha - y), again in factored form."""
        lead = self.lead if self.degree % 2 == 0 else -self.lead
        return FactoredIntPoly(lead, tuple(alpha - r for r in self.roots))

    def __str__(self):
        head = "" if self.lead == 1 else f"{self.lead}*"
        factors = "".join(
            f"(y-{r})" if r >= 0 else f"(y+{-r})" for r in self.roots
        )
        return head + (factors or "1")


def _joint_min(p: int, offsets: tuple[int, ...] | list[int]) -> int:
    """min over integers t of the sum of v_p(t - d) for d in offsets.

    Fix the last base-p digit c of t: offsets outside c's class contribute
    nothing and each inside contributes 1 plus the same question one digit
    up, on d // p.  When fewer than p classes hold an offset, t takes a free
    digit and the rest contribute nothing.  One loop over an explicit stack
    of (offsets, valuation spent) walks these digit choices, dropping an
    entry that cannot beat the best found; every group pushed is smaller
    than its parent, so the loop ends, and no digit length of the offsets
    can exhaust a recursion limit.
    """
    best, stack = INFINITY, [(offsets, 0)]
    while stack:
        offsets, spent = stack.pop()
        if spent >= best:
            continue
        groups: dict[int, list[int]] = {}
        for d in offsets:
            groups.setdefault(d % p, []).append(d // p)
        if len(groups) < p:
            best = spent
        else:
            stack.extend((group, spent + len(group)) for group in groups.values())
    return best


def min_valuation_over_class(
    pp: PrimePower, g: FactoredIntPoly, residue: int
) -> int:
    """Exact minimum of v_p(g(u)) over all integers u == residue (mod q).

    Roots outside the residue class contribute the fixed amount
    v_p(residue - r); each in-class root contributes k plus a digit term,
    and the joint minimum of the digit terms is computed by `_joint_min`.
    """
    p, q = pp.p, pp.q
    if not 0 <= residue < q:
        raise ValueError(f"residue {residue} out of range [0, {q - 1}]")
    total = _vp_int(p, g.lead)
    offsets = []
    for r in g.roots:
        d = r - residue
        if d % q == 0:
            offsets.append(d // q)
        else:
            # v_p(d) < k, counted in place: a call per root would be most of
            # the cost of judging a long polynomial
            while d % p == 0:
                d //= p
                total += 1
    if offsets:
        total += pp.k * len(offsets) + _joint_min(p, offsets)
    return total


@dataclass
class SeparationReport:
    """Outcome of testing whether g separates alpha from L + qZ.

    `v0` is v_p(g(alpha)), an int, or INFINITY when g vanishes at alpha.
    `class_minima` maps each element of L to the exact minimum valuation
    of g over that element's residue class, always an int.  The shifted
    flags test the two side conditions v_p(g(alpha)) <= v_p(g(u -+ 1))
    over the same classes, which unlock the stronger (n-1)-column bounds
    downstream.
    """

    alpha: int
    v0: int | float
    class_minima: dict[int, int]
    separates: bool
    shifted_minus_ok: bool
    shifted_plus_ok: bool


def _separation_inputs(pp: PrimePower, alpha: int, L) -> list[int]:
    """The sorted residues of L mod q, after rejecting an empty L and an
    alpha inside L + qZ."""
    q = pp.q
    residues = sorted({ell % q for ell in L})
    if not residues:
        raise ValueError("L must be nonempty")
    if alpha % q in residues:
        raise ValueError(f"alpha = {alpha} lies in L modulo {q}")
    return residues


def _value_valuation(pp: PrimePower, g: FactoredIntPoly, alpha: int) -> int | float:
    """v_p(g(alpha)), or INFINITY when alpha is a root: v_p(lead) plus
    v_p(alpha - r) over the roots r, each counted in place, so the product
    g(alpha) is never formed."""
    p = pp.p
    total = _vp_int(p, g.lead)
    for r in g.roots:
        d = alpha - r
        if not d:
            return INFINITY
        while d % p == 0:
            d //= p
            total += 1
    return total


def check_separation(
    pp: PrimePower, g: FactoredIntPoly, alpha: int, L
) -> SeparationReport:
    """Full separation report for g, alpha and the residue set L."""
    q = pp.q
    residues = _separation_inputs(pp, alpha, L)
    v0 = _value_valuation(pp, g, alpha)
    minimum = cache(partial(min_valuation_over_class, pp, g))  # the classes of L and r ± 1 overlap
    minima = {ell: minimum(ell % q) for ell in sorted(set(L))}
    separated = all(v0 < m for m in minima.values())
    minus_ok = all(v0 <= minimum((r - 1) % q) for r in residues)
    plus_ok = all(v0 <= minimum((r + 1) % q) for r in residues)
    return SeparationReport(alpha, v0, minima, separated, minus_ok, plus_ok)


def separates(pp: PrimePower, g: FactoredIntPoly, alpha: int, L) -> bool:
    """Whether g separates alpha from L + qZ; equals
    `check_separation(pp, g, alpha, L).separates` and raises the same
    errors, but stops at the first class whose minimum is not above
    v_p(g(alpha)) and skips the shifted side conditions."""
    residues = _separation_inputs(pp, alpha, L)
    v0 = _value_valuation(pp, g, alpha)
    return all(v0 < min_valuation_over_class(pp, g, r) for r in residues)


class SearchBudgetExhausted(Exception):
    """`search_min_degree` tried its `node_budget` of root multisets
    without finding a separating polynomial; `degree` is the degree it was
    searching when it stopped."""

    def __init__(self, tried: int, degree: int):
        super().__init__(f"node budget exhausted after {tried} root multisets at degree {degree}")
        self.tried = tried
        self.degree = degree


_MAX_ROOT_WINDOW = 10**6
# without a node budget, the most root factors a search may evaluate: its
# root multisets, each counted once per root
_MAX_ROOT_FACTORS = 10**6


def _root_factors(width: int, max_degree: int) -> int:
    """Sum over d = 1..max_degree of d * C(width + d - 1, d), the roots of
    every multiset of at most max_degree roots from `width` values, or the
    first partial sum above `_MAX_ROOT_FACTORS`.  Each degree adds at least
    d, so the loop stops by degree 1,414 whatever max_degree is."""
    total, multisets = 0, 1
    for d in range(1, max_degree + 1):
        multisets = multisets * (width + d - 1) // d  # C(width + d - 1, d)
        total += d * multisets
        if not multisets or total > _MAX_ROOT_FACTORS:
            break
    return total


def search_min_degree(
    pp: PrimePower,
    alpha: int,
    L,
    max_degree: int,
    root_window: range | None = None,
    node_budget: int | None = None,
) -> tuple[FactoredIntPoly, int] | None:
    """Lowest-degree monic integer-rooted polynomial separating alpha from L.

    Iterative deepening over the degree; root multisets are drawn from
    `root_window` (default [0, q**2)) in sorted-multiset lexicographic
    order, so the result is reproducible byte for byte, and a window of
    more than 10**6 values is refused with a ValueError.  The degree found
    is an upper bound on the true minimum over the factored candidate
    class only; returns None when nothing passes within the limits, the
    empty window included.  An empty L, or an alpha in L modulo q, is
    refused with `check_separation`'s ValueError before the window.  With
    a `node_budget`, at most that many root multisets are tried before
    `SearchBudgetExhausted` is raised.  Without one, the search is counted
    before it starts: a multiset of degree d costs d root factors, and a
    search of more than 10**6 root factors is refused with a ValueError.
    """
    _separation_inputs(pp, alpha, L)  # an empty window answers only valid inputs
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    window = root_window if root_window is not None else range(0, pp.q ** 2)
    if window[_MAX_ROOT_WINDOW:]:  # not len(), which overflows past sys.maxsize
        raise ValueError(
            f"the root window holds more than {_MAX_ROOT_WINDOW} values; pass a smaller --window"
        )
    if node_budget is None and _root_factors(len(window), max_degree) > _MAX_ROOT_FACTORS:
        raise ValueError(
            f"the search would evaluate more than {_MAX_ROOT_FACTORS} root factors; "
            "pass a --budget, a smaller --window or a lower --max-degree"
        )
    if not window:
        return None
    tried = 0
    for d in range(1, max_degree + 1):
        for roots in combinations_with_replacement(window, d):
            if tried == node_budget:
                raise SearchBudgetExhausted(tried, d)
            tried += 1
            g = FactoredIntPoly(1, roots)
            if separates(pp, g, alpha, L):
                return g, d
    return None


def degree_upper_bound(s: int, k: int) -> int:
    """Worst-case separating degree over all size-s residue sets mod p**k.

    floor of min(2**(s-1), (1 + (s-1)/k)**k), in integers: the floor of
    min(a, b/c) for integers a, b and c > 0 is min(a, b // c).
    """
    if s < 1 or k < 1:
        raise ValueError("s and k must be positive")
    return min(2 ** (s - 1), (k + s - 1) ** k // k**k)
