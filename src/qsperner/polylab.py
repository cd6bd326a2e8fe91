"""Executable polynomial-method verifier.

Builds the proof polynomials attached to a family and certifies their
linear independence by exact rank over the rationals via sparse integer
elimination, in one of two bases with the same rank: the coefficients,
or the values at the points of [n] of size >= n - d, d the largest
degree.  Under x -> 1 - x those are the points of size <= d, from which
Moebius interpolation recovers every multilinear polynomial of degree
<= d, so evaluation there is one-to-one.  When fewer than half the
coefficient rows have distinct leading monomials, as the close layers at
or above n - s, whose P rows all hold the constant, the values are tried
and the basis with more distinct leads is ranked.

One builder writes the difference system (blocks P and F): the sym
mid-band system is its minus variant plus a window block H; the close
system has its own order.  Every block
polynomial is kept in the closed form x^F * t(sum of x_i over a set
disjoint from F), t integer-valued: its coefficients are forward
differences of t (Moebius inversion) and its value at a 0/1 point one
lookup in a table of t, so nothing is multiplied or evaluated term by
term.  The pattern checks read those values without forming the
evaluation matrix: per row, the points where t(|B & free|) passes the
check, found by `families._meeting`.  The counts 0 and |free| are read
straight from the holders of free's elements, the first as the points
holding none and the second as those holding all, and a bit-sliced count
is built only for a count in between.  So the difference P rows, whose
only low-valuation value is g(0) at |free|, build none, and neither do
the sym and close P rows of members of at most s + 1 elements, nonzero
at 0 and |free| alone as g vanishes on 1..s; the H rows build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from time import perf_counter
from typing import NamedTuple

from .families import SetFamily, _elements, _holders, _meeting, _require_element
from .padic import PrimePower, _text, _vp_int
from .seppoly import FactoredIntPoly

__all__ = [
    "ProofSystem",
    "RankReport",
    "build_diff_sperner_system",
    "build_midband_system",
    "verify_independence",
]

# the most polynomials a builder enumerates: a larger system is refused
# before any mask is listed
_MAX_POLYS = 10**6
# the most coefficients a system's polynomials expand to, over a ground set
# of at most 4,096 elements (see `verify_independence`): a larger system is
# refused before any polynomial is expanded
_MAX_COEFFS = 10**6


class _ClosedForm(NamedTuple):
    """The polynomial x^fixed * t(sum of x_i over free), fixed and free
    disjoint, with t given by its values t(0..|free|): at a 0/1 point B it
    is t(|B & free|) when fixed lies inside B, else 0.

    Every block row takes this form: P row i is g(|A_i| - v_i . x) (free
    A_i, t(j) = g(|A_i| - j)), F row b is (x_n - 1) x^b or x_n x^b (free
    {n}), H row c is W(sum over head) x^c (free head - c, t(j) = W(|c| + j)).
    """

    fixed: int
    free: int
    t: tuple[int, ...]

    def at(self, points) -> list[int]:
        """The values at the 0/1 points given as masks, one by one: the
        entry-wise reference for `where`."""
        fixed, free, t = self
        if fixed:
            return [t[(pt & free).bit_count()] if fixed & ~pt == 0 else 0 for pt in points]
        return [t[(pt & free).bit_count()] for pt in points]

    def levels(self, holders: dict[int, int], among: int, keep=bool, low: int = 0) -> dict[int, int]:
        """For each count c >= low with keep(t(c)), the points B of `among`
        (bits indexing the points of `holders`, see `families._holders`)
        that hold `fixed` and have |B & free| = c: the value there is t(c),
        and 0 at the points missing part of `fixed`.  The counts 0 and
        |free| are read straight from the holders, and one bit-sliced count
        serves the counts in between (see `families._meeting`)."""
        fixed, free, t = self
        for e in _elements(fixed):
            among &= holders.get(e, 0)
        return _meeting(free, holders, {c: among for c in range(low, len(t)) if keep(t[c])})

    def where(self, holders: dict[int, int], among: int, keep=bool) -> int:
        """The points of `among` whose value v has keep(v), read by
        `levels`: the points missing part of `fixed`, where v = 0, are
        left out, so keep(0) should be false.  The points where v is t(0)
        are those holding no element of `free`, and where it is t(|free|)
        those holding all, each an AND over the holders; only the counts
        in between take a bit-sliced count.  So a difference P row, whose
        one value of low valuation is g(0) at |free|, and a sym or close P
        row of a member of at most s + 1 elements, nonzero at 0 and |free|
        alone, build no planes."""
        return sum(self.levels(holders, among, keep).values())  # disjoint: one count a point

    def differences(self) -> list[int]:
        """The forward differences of t at 0, of order 0 up to the last
        that is not 0; those of higher order are 0.  By Moebius inversion
        on the Boolean lattice, the coefficient on x^(fixed + S), S inside
        free, is the one of order |S|, so there are C(|free|, j)
        coefficients of order j where it is not 0.  The differences stop
        once a whole row of them is 0, so a t of degree d over a large
        free set costs about d |free| steps, not |free|^2."""
        out, diffs = [], list(self.t)
        while any(diffs):
            out.append(diffs[0])
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        return out

    def coeffs(self, diffs: list[int]) -> dict[int, int]:
        """The nonzero coefficients, monomial mask -> int, given the form's
        `differences()`."""
        fixed, free = self.fixed, self.free
        return {fixed | s: d for size, d in enumerate(diffs) if d for s in _subsets(free, size)}


@dataclass
class ProofSystem:
    """A family together with its proof-polynomial blocks.

    `order` is the proof ordering of the member masks (not necessarily the
    family's canonical order); `forms` maps block names to closed-form
    polynomial lists; `probes` maps probe-group names to mask tuples, the
    0/1 points the pattern checks evaluate at; `meta` names the system and
    its parameters (the prime `p` of a difference system among them).
    """

    family: SetFamily
    order: tuple[int, ...]
    degree_cap: int
    probes: dict[str, tuple[int, ...]]
    forms: dict[str, list[_ClosedForm]]
    meta: dict = field(default_factory=dict)


def _subsets(within: int, size: int):
    """The masks inside `within` of popcount `size`, in no fixed order.
    The empty mask and `within` itself are returned without listing its
    bits: a difference P row expands to the one monomial A_i, and an F row
    to x^b and x^b x_n."""
    if size in (0, within.bit_count()):
        return (within if size else 0,)
    return map(sum, combinations([1 << i for i in _elements(within)], size))


def _masks_by_size(max_size: int, within: int) -> list[int]:
    """All masks inside `within` of popcount <= max_size, ordered by
    (size, numeric value)."""
    return [m for size in range(max_size + 1) for m in sorted(_subsets(within, size))]


def _capped_count(total: int, blocks, limit: int) -> int:
    """total plus the number of masks of each (max_size, bits) block: those
    inside [bits] of popcount <= max_size.  The count stops once it passes
    `limit`, so however wide the blocks, it costs a few binomials."""
    for max_size, bits in blocks:
        for size in range(min(max_size, bits) + 1):
            if total > limit:
                return total
            total += comb(bits, size)
    return total


def _index_masks(fam: SetFamily, *blocks: tuple[int, int]) -> list[list[int]]:
    """The masks of each (max_size, bits) block of a system on `fam`: those
    inside [bits] of popcount <= max_size, ordered by (size, numeric
    value).  First the system is refused if its ground set holds an
    element n that no mask may hold (see `families._require_element`), or
    if it has more than `_MAX_POLYS` polynomials, counted before any mask
    is listed: one per member plus one per block mask.  The count stops
    once it passes the limit, so a refusal costs a few binomials however
    wide the blocks are."""
    _require_element(fam.n)
    if _capped_count(len(fam), blocks, _MAX_POLYS) > _MAX_POLYS:
        raise ValueError(f"the proof system has more than {_MAX_POLYS} polynomials")
    return [_masks_by_size(max_size, (1 << bits) - 1) for max_size, bits in blocks]


def _difference_forms(order, g: FactoredIntPoly) -> list[_ClosedForm]:
    """p_i = g(|A_i| - v_i . x) for each member A_i; g is evaluated only up
    to the largest member size."""
    values = [g(k) for k in range(max((m.bit_count() for m in order), default=-1) + 1)]
    return [_ClosedForm(0, mask, tuple(values[mask.bit_count()::-1])) for mask in order]


def _window_forms(lo: int, hi: int, head: int, c_masks) -> list[_ClosedForm]:
    """W(sum of x_i over head) * x^c for each c inside head, where W(t) is
    the product of (t - c) over lo <= c <= hi."""
    window = FactoredIntPoly(1, tuple(range(lo, hi + 1)))
    values = [window(t) for t in range(head.bit_count() + 1)]
    return [_ClosedForm(c, head & ~c, tuple(values[c.bit_count():])) for c in c_masks]


def _difference_system(fam: SetFamily, g: FactoredIntPoly, b_masks: list[int], minus: bool) -> ProofSystem:
    """The difference system on `fam` for g, the one both public builders
    extend, given its F block's index masks (see `_index_masks`).

    The r members without the last element n come first, then those with
    it.  The P block holds g(|A_i| - v_i . x); the F block holds
    (x_n - 1) x^B if `minus`, else x_n x^B, over every B inside [n-1] with
    |B| <= deg(g) - 1, by size.  The probes are the members (`family`),
    the B (`index_masks`) and the points the F block's argument evaluates
    at (`family_shifted`): the members without n with n added if `minus`,
    else the members with n with it removed.  `meta` holds r and g(0).
    """
    top = 1 << (fam.n - 1)
    without = [m for m in fam.members if not m & top]
    withn = [m for m in fam.members if m & top]
    order = tuple(without + withn)
    factor = (-1, 0) if minus else (0, 1)
    forms = {"P": _difference_forms(order, g), "F": [_ClosedForm(b, top, factor) for b in b_masks]}
    shifted = [m | top for m in without] if minus else [m & ~top for m in withn]
    probes = {"family": order, "index_masks": tuple(b_masks), "family_shifted": tuple(shifted)}
    meta = {"r": len(without), "g_at_zero": g(0)}
    return ProofSystem(fam, order, g.degree, probes, forms, meta)


def build_diff_sperner_system(
    fam: SetFamily, g: FactoredIntPoly, pp: PrimePower, variant: str = "minus"
) -> ProofSystem:
    """Proof system for a q-modular difference-Sperner family: the
    difference system for g (see `_difference_system`) with the
    (x_n - 1) x^B F block ("minus" variant) or the x_n x^B one ("plus"),
    and g and the modulus in `meta`.
    """
    if variant not in ("minus", "plus"):
        raise ValueError(f"unknown variant {variant!r}")
    if fam.n < 1:
        raise ValueError("need at least one ground element")
    (b_masks,) = _index_masks(fam, (g.degree - 1, fam.n - 1))
    sys_ = _difference_system(fam, g, b_masks, variant == "minus")
    sys_.meta.update(system="diff", variant=variant, g_lead=g.lead, g_roots=g.roots, q=pp.q, p=pp.p)
    return sys_


def build_midband_system(fam: SetFamily, s: int, variant: str) -> ProofSystem:
    """Proof system for families whose member sizes lie in [s, n-s].

    variant "sym": difference-Sperner argument for L = [s] under
    (n+2)/3 <= s <= n/2, the minus difference system for
    g = (y-1)...(y-s) plus the window block H built from the size-window
    product over x_1..x_{n-1}.  variant "close": close-Sperner argument
    under (n+1)/3 <= s <= n/2, members ordered by non-increasing size,
    with blocks P and H over the full variable range.  Members outside the
    band are rejected; push the family to the middle first.
    """
    n = fam.n
    if variant not in ("sym", "close"):
        raise ValueError(f"unknown variant {variant!r}")
    for m in fam.members:
        if not s <= m.bit_count() <= n - s:
            raise ValueError(
                f"member {bin(m)} has size {m.bit_count()} outside the band "
                f"[{_text(s)}, {_text(n - s)}]; run push_to_middle first"
            )
    # g has s roots, so it is built only once s is at most n/2 and the system is
    # within its limits
    if variant == "sym":
        if not (n + 2 <= 3 * s and 2 * s <= n):
            raise ValueError(f"need (n+2)/3 <= s <= n/2, got n = {_text(n)}, s = {_text(s)}")
        b_masks, c_masks = _index_masks(fam, (s - 1, n - 1), (3 * s - n - 2, n - 1))
        g = FactoredIntPoly(1, tuple(range(1, s + 1)))
        sys_ = _difference_system(fam, g, b_masks, minus=True)
        sys_.forms["H"] = _window_forms(s - 1, n - s, (1 << (n - 1)) - 1, c_masks)
        sys_.probes["window_masks"] = tuple(c_masks)
        sys_.meta.update(system="sym", s=s)
        return sys_
    if not (n + 1 <= 3 * s and 2 * s <= n):
        raise ValueError(f"need (n+1)/3 <= s <= n/2, got n = {_text(n)}, s = {_text(s)}")
    (b_masks,) = _index_masks(fam, (3 * s - n - 1, n))
    g = FactoredIntPoly(1, tuple(range(1, s + 1)))
    order = tuple(sorted(fam.members, key=lambda m: (-m.bit_count(), m)))
    forms = {"P": _difference_forms(order, g), "H": _window_forms(s, n - s, (1 << n) - 1, b_masks)}
    probes = {"family": order, "window_masks": tuple(b_masks)}
    meta = {"system": "close", "s": s, "g_at_zero": g(0)}
    return ProofSystem(fam, order, s, probes, forms, meta)


# ---------------------------------------------------------------------------
# exact rank


def _sparse_rank(rows) -> int:
    """Exact rank over Q of sparse integer rows (dicts column -> int, every
    entry nonzero).

    Each row is reduced at its least column against the pivot kept there
    by row <- (a/g) row - (b/g) pivot (a, b the two leading entries, g
    their gcd).  A pivot is made primitive at its first use, divided by
    its content with the sign that makes its lead positive (a pivot never
    used, as in a triangular system, is never divided), so a/g is 1
    whenever the pivot's lead divides the row's: then the row is updated
    in place, and only otherwise is it scaled and divided by its content.
    The steps are invertible and the pivots' leading columns distinct, so
    the rank is the number of pivots.  The rows passed in are not
    modified: a row is copied at its first in-place step.
    """
    pivots: dict[int, dict[int, int]] = {}
    primitive: set[int] = set()  # the leading columns whose pivot is primitive
    for given in rows:
        row = given
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            if lead not in primitive:
                primitive.add(lead)
                content = gcd(*pivot.values()) * (1 if pivot[lead] > 0 else -1)
                if content != 1:
                    pivot = pivots[lead] = {m: c // content for m, c in pivot.items()}
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {m: a * c for m, c in row.items()}
            elif row is given:
                row = dict(row)
            for m, c in pivot.items():
                c = row.get(m, 0) - b * c
                if c:
                    row[m] = c
                else:
                    del row[m]
            if a != 1:
                content = gcd(*row.values())
                if content > 1:
                    row = {m: c // content for m, c in row.items()}
    return len(pivots)


def _rank_rows(forms, rows: list[dict[int, int]], n: int, degree: int, coefficients: int) -> list[dict]:
    """The rows `_sparse_rank` gets for `forms`: their coefficient `rows`,
    or their values at the points of [n] of size >= n - degree, whichever
    have more distinct leading columns, so fewer rows collide at a lead.

    Both have the same rank.  Every form has degree <= `degree`, and
    evaluation at those points is a bijection from the multilinear
    polynomials of degree <= `degree`: under x -> 1 - x they are the
    points of size <= `degree`, where Moebius interpolation reads each
    coefficient off the values below it.  A value row is keyed by the
    point's index in ascending mask order, so its lead is its least point.

    The values are tried only when fewer than half the coefficient rows
    have distinct leads, and when the points' element table, n bits a
    point, has no more bits than the system has `coefficients`: then
    listing the points and counting their elements costs no more than
    the coefficients did.  Each form's values are read by `levels`, a
    bit-sliced count only for a nonzero level strictly between 0 and
    |free| (a close P row has none: it is nonzero on the top points at
    |free| alone), and they are ranked only if they have more distinct
    leads and, like the coefficients, no more than `_MAX_COEFFS` nonzero
    entries."""
    leads = len({min(row) for row in rows if row})
    most = coefficients // max(n, 1)  # the points whose element table fits
    if 2 * leads >= len(rows) or _capped_count(0, [(degree, n)], most) > most:
        return rows
    full = (1 << n) - 1
    points = sorted(full ^ m for size in range(degree + 1) for m in _subsets(full, size))
    holders, everywhere = _holders(points), (1 << len(points)) - 1
    levels, value_leads, entries = [], set(), 0
    for form in forms:
        low = max(form.free.bit_count() - degree, 0)  # no point misses more of free
        parts = [(form.t[j], bits) for j, bits in form.levels(holders, everywhere, low=low).items()]
        held = sum(bits for _, bits in parts)
        if held:
            value_leads.add(held & -held)
            entries += held.bit_count()
        levels.append(parts)
    if len(value_leads) <= leads or entries > _MAX_COEFFS:
        return rows
    return [{i: val for val, bits in parts for i in _elements(bits)} for parts in levels]


@dataclass
class RankReport:
    rank: int
    total_polys: int
    full_rank: bool
    dimension: int
    block_sizes: dict[str, int]
    pattern: str
    pattern_ok: bool
    pattern_failures: list[str]
    stats: dict = field(default_factory=dict)


def _padic_pattern(sys: ProofSystem) -> tuple[list[str], int]:
    """Valuation pattern that drives the difference-system argument: on the
    family probes, the P block has v_p(M[i][i]) = v_p(g(0)) and strictly
    larger valuations off the diagonal, p the system's prime.
    M[i][j] = g(|A_i - A_j|), so the diagonal is g(0) itself and v_p is
    needed on g(0..n) only.  Returns the failures and the number of
    entries read."""
    p, g0 = sys.meta["p"], sys.meta["g_at_zero"]
    v0 = _vp_int(p, g0) if g0 else None
    forms = sys.forms["P"]
    # the values an off-diagonal entry may not take, with their valuations
    low = {val: _vp_int(p, val) for val in set().union(*(form.t for form in forms)) - {0}}
    low = {val: v for val, v in low.items() if v0 is None or v <= v0}
    fam = sys.probes["family"]
    holders, everywhere = _holders(fam), (1 << len(fam)) - 1
    failures = []
    for i, form in enumerate(forms):
        for j in _elements(form.where(holders, everywhere ^ 1 << i, low.__contains__)):
            v = low[form.t[(fam[j] & form.free).bit_count()]]
            failures.append(f"off-diagonal entry ({i}, {j}) has valuation {v}, not above {v0}")
    return failures, len(forms) * len(fam)


def _triangular(forms, holders, below: str, diagonal: str) -> tuple[list[str], int]:
    """Failures of the law "row i is zero at the points before points[i]
    and nonzero at points[i]", the points given by their `_holders` table,
    worded by the two templates, and the number of entries read."""
    failures = []
    for i, form in enumerate(forms):
        nonzero = form.where(holders, (2 << i) - 1)
        failures += [below.format(i=i, j=j) for j in _elements(nonzero & ((1 << i) - 1))]
        if not nonzero >> i & 1:
            failures.append(diagonal.format(i=i))
    return failures, len(forms) * (len(forms) + 1) // 2


def _triangular_pattern(sys: ProofSystem) -> tuple[list[str], int]:
    """Triangular laws for the mid-band systems: on the family probes the
    P block is triangular with nonzero diagonal, window-block polynomials
    vanish on every family probe, and on their own index probes they are
    triangular with nonzero diagonal.  Returns the failures and the number
    of entries read."""
    fam = sys.probes["family"]
    shifted = sys.probes.get("family_shifted", ())
    windows = sys.forms["H"]
    probes = [
        (what, _holders(pts), (1 << len(pts)) - 1)
        for what, pts in (("member", fam), ("shifted member", shifted))
    ]
    failures, cells = _triangular(
        sys.forms["P"], probes[0][1],
        "P entry ({i}, {j}) below the diagonal is nonzero", "P diagonal ({i}, {i}) vanishes",
    )
    for i, form in enumerate(windows):
        for what, holders, everywhere in probes:
            failures += [
                f"window polynomial {i} does not vanish on {what} {j}"
                for j in _elements(form.where(holders, everywhere))
            ]
    window_failures, window_cells = _triangular(
        windows, _holders(sys.probes["window_masks"]),
        "window entry ({i}, {j}) below the diagonal is nonzero", "window diagonal ({i}, {i}) vanishes",
    )
    cells += len(windows) * (len(fam) + len(shifted)) + window_cells
    return failures + window_failures, cells


def verify_independence(sys: ProofSystem) -> RankReport:
    """Exact rank of the block polynomials over the rationals plus the
    valuation or triangular pattern the underlying argument relies on.

    Rank is computed on the coefficient vectors or on the values at the
    points of [n] of size >= n - d, d the largest degree, whichever have
    more distinct leads (see `_rank_rows`; the proofs' own probe sets are
    not square in general); the pattern is read off the closed-form
    entries of the evaluation matrix, never forming the matrix itself.
    `stats` gives the distinct monomials (`columns`), the coefficients
    (`nonzeros`), the time in seconds of the choice of basis and the
    elimination (`rank_s`), the matrix entries the pattern
    read (`pattern_cells`) and its time in seconds (`pattern_s`).  The
    coefficients are counted from each form's differences before any form
    is expanded, and a system of more than `_MAX_COEFFS`, divided by the
    number of started 4,096-element blocks of the ground set, is refused.
    """
    forms = [form for block in sys.forms.values() for form in block]
    # t -> its differences and the number of coefficients they give: t holds
    # |free| + 1 values, so both depend on t alone, and the forms share a few t
    expansions = {}
    for form in forms:
        if form.t not in expansions:
            diffs = form.differences()
            expansions[form.t] = diffs, sum(comb(len(form.t) - 1, j) for j, d in enumerate(diffs) if d)
    # a monomial is keyed by a mask as wide as the ground set, so each
    # coefficient counts once per started 4,096 elements (512 bytes of key)
    # and the keys of an accepted system stay under about 512 MB
    limit = _MAX_COEFFS // (-(-sys.family.n // 4096) or 1)
    nonzeros = sum(expansions[form.t][1] for form in forms)
    if nonzeros > limit:
        raise ValueError(f"the proof system has more than {limit} coefficients")
    rows = [form.coeffs(expansions[form.t][0]) for form in forms]
    n = sys.family.n
    # a form's degree is |fixed| plus the order of its last nonzero difference
    degree = max((form.fixed.bit_count() + len(expansions[form.t][0]) - 1 for form in forms), default=0)
    start = perf_counter()
    rank = _sparse_rank(_rank_rows(forms, rows, n, degree, nonzeros))
    rank_s = perf_counter() - start
    dimension = sum(comb(n, i) for i in range(min(sys.degree_cap, n) + 1))
    start = perf_counter()
    if sys.meta["system"] == "diff":
        pattern = "padic-diagonal"
        failures, cells = _padic_pattern(sys)
    else:
        pattern = "triangular"
        failures, cells = _triangular_pattern(sys)
    pattern_s = perf_counter() - start
    return RankReport(
        rank=rank,
        total_polys=len(rows),
        full_rank=rank == len(rows),
        dimension=dimension,
        block_sizes={name: len(forms) for name, forms in sys.forms.items()},
        pattern=pattern,
        pattern_ok=not failures,
        pattern_failures=failures,
        stats={
            "columns": len(set().union(*rows)),
            "nonzeros": nonzeros,
            "rank_s": rank_s,
            "pattern_cells": cells,
            "pattern_s": pattern_s,
        },
    )
