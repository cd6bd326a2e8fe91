"""Executable polynomial-method verifier.

Builds the exact multilinear proof polynomials attached to a family
(difference systems and the two mid-band systems) and certifies linear
independence by exact rank over the rationals via sparse integer
elimination on the coefficients.  Every block polynomial has the closed
form x^F * t(sum of x_i over a set disjoint from F): its coefficients are
forward differences of t (Moebius inversion) and its value at a 0/1 point
one lookup in a table of t, so nothing is multiplied or evaluated term by
term.  The pattern checks read those values; the evaluation matrix is
formed only when `ProofSystem.matrix` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from time import perf_counter
from typing import NamedTuple

from .families import SetFamily
from .padic import PrimePower, _vp_int
from .seppoly import FactoredIntPoly

__all__ = [
    "MultilinearPoly",
    "ProofSystem",
    "RankReport",
    "multilinear_reduce",
    "build_diff_sperner_system",
    "build_midband_system",
    "verify_independence",
]


def _exact(c) -> int | Fraction:
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MultilinearPoly:
    """A multilinear polynomial in x_1..x_n: subset-mask -> exact rational.

    Arithmetic happens in the quotient algebra where x_i**2 = x_i, so any
    product of affine forms lands directly in reduced form; evaluation at
    0/1 vectors agrees with the unreduced polynomial.  Integral
    coefficients are ints, the rest Fractions.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, int | Fraction] | None = None):
        self.n = n
        self.coeffs = {
            m: _exact(c) for m, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def constant(cls, n: int, c) -> "MultilinearPoly":
        return cls(n, {0: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "MultilinearPoly":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside [1, {n}]")
        return cls(n, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, n: int, mask: int, c=1) -> "MultilinearPoly":
        return cls(n, {mask: c})

    @classmethod
    def affine(cls, n: int, const, weights: dict[int, int]) -> "MultilinearPoly":
        """const + sum of weight_i * x_i."""
        coeffs = {0: const}
        for i, w in weights.items():
            coeffs[1 << (i - 1)] = w
        return cls(n, coeffs)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.coeffs), default=0)

    def evaluate(self, point_mask: int) -> int | Fraction:
        total = 0
        for m, c in self.coeffs.items():
            if m & ~point_mask == 0:
                total += c
        return total

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return MultilinearPoly(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return MultilinearPoly(self.n, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultilinearPoly(
                self.n, {m: c * other for m, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        out: dict[int, int | Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = m1 | m2
                out[key] = out.get(key, 0) + c1 * c2
        return MultilinearPoly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined")
        result = MultilinearPoly.constant(self.n, 1)
        for _ in range(e):
            result = result * self
        return result

    def _coerce(self, other) -> "MultilinearPoly":
        if isinstance(other, MultilinearPoly):
            if other.n != self.n:
                raise ValueError("mixed variable counts")
            return other
        return MultilinearPoly.constant(self.n, other)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "MultilinearPoly(0)"
        parts = []
        for m in sorted(self.coeffs, key=lambda m: (m.bit_count(), m)):
            vars_ = "*".join(f"x{i + 1}" for i in range(self.n) if m >> i & 1)
            c = self.coeffs[m]
            parts.append(f"{c}" if not vars_ else f"{c}*{vars_}")
        return "MultilinearPoly(" + " + ".join(parts) + ")"


def multilinear_reduce(n: int, expr) -> MultilinearPoly:
    """Multilinear reduction of an expression tree.

    Nodes: numbers, MultilinearPoly, ("x", i), ("+", *args), ("*", *args),
    ("^", base, exponent).  Reduction is the image in the algebra with
    x_i**2 = x_i, so anything that agrees on all 0/1 points agrees here.
    """
    if isinstance(expr, MultilinearPoly):
        if expr.n != n:
            raise ValueError("mixed variable counts")
        return expr
    if isinstance(expr, (int, Fraction)):
        return MultilinearPoly.constant(n, expr)
    if isinstance(expr, tuple) and expr:
        op = expr[0]
        if op == "x":
            return MultilinearPoly.variable(n, expr[1])
        if op == "+":
            out = MultilinearPoly.constant(n, 0)
            for sub in expr[1:]:
                out = out + multilinear_reduce(n, sub)
            return out
        if op == "*":
            out = MultilinearPoly.constant(n, 1)
            for sub in expr[1:]:
                out = out * multilinear_reduce(n, sub)
            return out
        if op == "^":
            return multilinear_reduce(n, expr[1]) ** expr[2]
    raise ValueError(f"cannot interpret expression node {expr!r}")


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
        """The values at the 0/1 points given as masks."""
        fixed, free, t = self
        if fixed:
            return [t[(pt & free).bit_count()] if fixed & ~pt == 0 else 0 for pt in points]
        return [t[(pt & free).bit_count()] for pt in points]

    def poly(self, n: int) -> MultilinearPoly:
        """Moebius inversion on the Boolean lattice: the coefficient on
        x^(fixed + S), S inside free, is the |S|-th forward difference of
        t at 0."""
        coeffs = {}
        diffs = list(self.t)
        for size in range(len(self.t)):
            if diffs[0]:
                for s in _subsets(self.free, size):
                    coeffs[self.fixed | s] = diffs[0]
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        return MultilinearPoly(n, coeffs)


@dataclass
class ProofSystem:
    """A family together with its proof-polynomial blocks.

    `order` is the proof ordering of the member masks (not necessarily the
    family's canonical order); `forms` maps block names to closed-form
    polynomial lists and `blocks`, expanded from them at construction, to
    the same polynomials as `MultilinearPoly`s; `probes` maps probe-group
    names to mask tuples.  `matrix`, built on first access, holds the exact
    evaluations, rows following the concatenated blocks and columns the
    concatenated probe groups.
    """

    family: SetFamily
    order: tuple[int, ...]
    degree_cap: int
    probes: dict[str, tuple[int, ...]]
    forms: dict[str, list[_ClosedForm]]
    meta: dict = field(default_factory=dict)
    blocks: dict[str, list[MultilinearPoly]] = field(init=False)

    def __post_init__(self):
        n = self.family.n
        self.blocks = {name: [f.poly(n) for f in block] for name, block in self.forms.items()}

    def all_polys(self) -> list[MultilinearPoly]:
        return [poly for block in self.blocks.values() for poly in block]

    @cached_property
    def matrix(self) -> list[list[int]]:
        points = [pt for group in self.probes.values() for pt in group]
        return [form.at(points) for forms in self.forms.values() for form in forms]


def _subsets(within: int, size: int):
    """The masks inside `within` of popcount `size`, in no fixed order."""
    bits = [1 << i for i in range(within.bit_length()) if within >> i & 1]
    return map(sum, combinations(bits, size))


def _masks_by_size(max_size: int, within: int) -> list[int]:
    """All masks inside `within` of popcount <= max_size, ordered by
    (size, numeric value)."""
    return [m for size in range(max_size + 1) for m in sorted(_subsets(within, size))]


def _difference_forms(n: int, order, g: FactoredIntPoly) -> list[_ClosedForm]:
    """p_i = g(|A_i| - v_i . x) for each member A_i."""
    values = [g(k) for k in range(n + 1)]
    return [_ClosedForm(0, mask, tuple(values[mask.bit_count()::-1])) for mask in order]


def _window_forms(lo: int, hi: int, head: int, c_masks) -> list[_ClosedForm]:
    """W(sum of x_i over head) * x^c for each c inside head, where W(t) is
    the product of (t - c) over lo <= c <= hi."""
    window = FactoredIntPoly(1, tuple(range(lo, hi + 1)))
    values = [window(t) for t in range(head.bit_count() + 1)]
    return [_ClosedForm(c, head & ~c, tuple(values[c.bit_count():])) for c in c_masks]


def build_diff_sperner_system(
    fam: SetFamily, g: FactoredIntPoly, pp: PrimePower, variant: str = "minus"
) -> ProofSystem:
    """Proof system for a q-modular difference-Sperner family.

    Members are reordered so the last element n appears exactly in the tail
    (index > r).  The P block holds the reductions of g(|A_i| - v_i . x);
    the F block holds (x_n - 1) * I_B ("minus" variant) or x_n * I_B
    ("plus") over all B inside [n-1] with |B| <= deg(g) - 1, ordered by
    size; "none" omits the F block.  Probe columns are the characteristic
    vectors, then the element-n-toggled vectors the argument evaluates at.
    """
    if variant not in ("minus", "plus", "none"):
        raise ValueError(f"unknown variant {variant!r}")
    n = fam.n
    if n < 1:
        raise ValueError("need at least one ground element")
    top = 1 << (n - 1)
    without = [m for m in fam.members if not m & top]
    withn = [m for m in fam.members if m & top]
    order = tuple(without + withn)
    forms = {"P": _difference_forms(n, order, g)}
    probes: dict[str, tuple[int, ...]] = {"family": order}
    if variant != "none":
        b_masks = _masks_by_size(g.degree - 1, within=top - 1)
        factor = (-1, 0) if variant == "minus" else (0, 1)
        forms["F"] = [_ClosedForm(b, top, factor) for b in b_masks]
        probes["index_masks"] = tuple(b_masks)
    if variant == "plus":
        probes["family_shifted"] = tuple(m & ~top for m in withn)
    else:
        probes["family_shifted"] = tuple(m | top for m in without)
    meta = {
        "system": "diff",
        "variant": variant,
        "r": len(without),
        "g_lead": g.lead,
        "g_roots": g.roots,
        "g_at_zero": g(0),
        "q": pp.q,
    }
    return ProofSystem(fam, order, g.degree, probes, forms, meta)


def build_midband_system(fam: SetFamily, s: int, variant: str) -> ProofSystem:
    """Proof system for families whose member sizes lie in [s, n-s].

    variant "sym": difference-Sperner argument for L = [s] under
    (n+2)/3 <= s <= n/2, with blocks P, F and the window block H built from
    the size-window product over x_1..x_{n-1}.  variant "close": close-
    Sperner argument under (n+1)/3 <= s <= n/2, members ordered by
    non-increasing size, with blocks P and H over the full variable range.
    Members outside the band are rejected; push the family to the middle
    first.
    """
    n = fam.n
    if variant not in ("sym", "close"):
        raise ValueError(f"unknown variant {variant!r}")
    for m in fam.members:
        if not s <= m.bit_count() <= n - s:
            raise ValueError(
                f"member {bin(m)} has size {m.bit_count()} outside the band "
                f"[{s}, {n - s}]; run push_to_middle first"
            )
    g = FactoredIntPoly(1, tuple(range(1, s + 1)))
    if variant == "sym":
        if not (n + 2 <= 3 * s and 2 * s <= n):
            raise ValueError(f"need (n+2)/3 <= s <= n/2, got n = {n}, s = {s}")
        top = 1 << (n - 1)
        without = [m for m in fam.members if not m & top]
        withn = [m for m in fam.members if m & top]
        order = tuple(without + withn)
        b_masks = _masks_by_size(s - 1, within=top - 1)
        c_masks = _masks_by_size(3 * s - n - 2, within=top - 1)
        forms = {
            "P": _difference_forms(n, order, g),
            "F": [_ClosedForm(b, top, (-1, 0)) for b in b_masks],
            "H": _window_forms(s - 1, n - s, top - 1, c_masks),
        }
        probes = {
            "family": order,
            "family_shifted": tuple(m | top for m in without),
            "index_masks": tuple(b_masks),
            "window_masks": tuple(c_masks),
        }
        meta = {
            "system": "sym",
            "r": len(without),
            "s": s,
            "g_at_zero": g(0),
        }
    else:
        if not (n + 1 <= 3 * s and 2 * s <= n):
            raise ValueError(f"need (n+1)/3 <= s <= n/2, got n = {n}, s = {s}")
        order = tuple(
            sorted(fam.members, key=lambda m: (-m.bit_count(), m))
        )
        full = (1 << n) - 1
        b_masks = _masks_by_size(3 * s - n - 1, within=full)
        forms = {
            "P": _difference_forms(n, order, g),
            "H": _window_forms(s, n - s, full, b_masks),
        }
        probes = {"family": order, "window_masks": tuple(b_masks)}
        meta = {"system": "close", "s": s, "g_at_zero": g(0)}
    return ProofSystem(fam, order, s, probes, forms, meta)


# ---------------------------------------------------------------------------
# exact rank


def _sparse_rank(rows) -> int:
    """Exact rank over Q of sparse rows (dicts column -> int or Fraction).

    Each row, scaled to integers, is reduced at its least column against
    the pivot kept there by row <- (a/g) row - (b/g) pivot (a, b the two
    leading entries, g their gcd), then divided by its content.  The steps
    are invertible and the pivots' leading columns distinct, so the rank
    is the number of pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        scale = lcm(*(c.denominator for c in row.values()))
        row = {m: int(c * scale) for m, c in row.items() if c}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = {m: a * c for m, c in row.items()}
            for m, c in pivot.items():
                c = row.get(m, 0) - b * c
                if c:
                    row[m] = c
                else:
                    del row[m]
            content = gcd(*row.values())
            if content > 1:
                row = {m: c // content for m, c in row.items()}
    return len(pivots)


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


def _padic_pattern(sys: ProofSystem, p: int) -> tuple[list[str], int]:
    """Valuation pattern that drives the difference-system argument: on the
    family probes, the P block has v_p(M[i][i]) = v_p(g(0)) and strictly
    larger valuations off the diagonal.  M[i][j] = g(|A_i - A_j|), so the
    diagonal is g(0) itself and v_p is needed on g(0..n) only.  Returns
    the failures and the number of entries read."""
    g0 = sys.meta["g_at_zero"]
    v0 = _vp_int(p, g0) if g0 else None
    forms = sys.forms["P"]
    # the values an off-diagonal entry may not take, with their valuations
    low = {val: _vp_int(p, val) for val in set().union(*(form.t for form in forms)) - {0}}
    low = {val: v for val, v in low.items() if v0 is None or v <= v0}
    fam = sys.probes["family"]
    failures = []
    for i, form in enumerate(forms):
        row = form.at(fam)
        row[i] = 0
        if not low.keys().isdisjoint(row):
            failures += [
                f"off-diagonal entry ({i}, {j}) has valuation {low[val]}, not above {v0}"
                for j, val in enumerate(row)
                if val in low
            ]
    return failures, len(forms) * len(fam)


def _triangular(forms, points, below: str, diagonal: str) -> tuple[list[str], int]:
    """Failures of the law "row i is zero at the points before points[i]
    and nonzero at points[i]", worded by the two templates, and the number
    of entries read."""
    failures = []
    for i, form in enumerate(forms):
        row = form.at(points[: i + 1])
        diag = row.pop()
        failures += [below.format(i=i, j=j) for j, val in enumerate(row) if val != 0]
        if diag == 0:
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
    failures, cells = _triangular(
        sys.forms["P"], fam,
        "P entry ({i}, {j}) below the diagonal is nonzero", "P diagonal ({i}, {i}) vanishes",
    )
    for i, form in enumerate(windows):
        for what, points in (("member", fam), ("shifted member", shifted)):
            failures += [
                f"window polynomial {i} does not vanish on {what} {j}"
                for j, val in enumerate(form.at(points)) if val != 0
            ]
    window_failures, window_cells = _triangular(
        windows, sys.probes["window_masks"],
        "window entry ({i}, {j}) below the diagonal is nonzero", "window diagonal ({i}, {i}) vanishes",
    )
    cells += len(windows) * (len(fam) + len(shifted)) + window_cells
    return failures + window_failures, cells


def verify_independence(sys: ProofSystem, p: int) -> RankReport:
    """Exact rank of the block polynomials over the rationals plus the
    valuation or triangular pattern the underlying argument relies on.

    Rank is computed on coefficient vectors (the proofs' probe sets are not
    square in general); the pattern is read off the closed-form entries of
    the evaluation matrix, never forming the matrix itself.  `stats` gives
    the distinct monomials (`columns`), the coefficients (`nonzeros`), the
    elimination time in seconds (`rank_s`), the matrix entries the pattern
    read (`pattern_cells`) and its time in seconds (`pattern_s`).
    """
    polys = sys.all_polys()
    start = perf_counter()
    rank = _sparse_rank(poly.coeffs for poly in polys)
    rank_s = perf_counter() - start
    n = sys.family.n
    dimension = sum(comb(n, i) for i in range(min(sys.degree_cap, n) + 1))
    start = perf_counter()
    if sys.meta["system"] == "diff":
        pattern = "padic-diagonal"
        failures, cells = _padic_pattern(sys, p)
    else:
        pattern = "triangular"
        failures, cells = _triangular_pattern(sys)
    pattern_s = perf_counter() - start
    return RankReport(
        rank=rank,
        total_polys=len(polys),
        full_rank=rank == len(polys),
        dimension=dimension,
        block_sizes={name: len(block) for name, block in sys.blocks.items()},
        pattern=pattern,
        pattern_ok=not failures,
        pattern_failures=failures,
        stats={
            "columns": len({m for poly in polys for m in poly.coeffs}),
            "nonzeros": sum(len(poly.coeffs) for poly in polys),
            "rank_s": rank_s,
            "pattern_cells": cells,
            "pattern_s": pattern_s,
        },
    )
