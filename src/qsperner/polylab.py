"""Executable polynomial-method verifier.

Builds the exact multilinear proof polynomials attached to a family
(difference systems and the two mid-band systems), evaluates them on
characteristic vectors, and certifies linear independence by exact rank
over the rationals via sparse integer elimination on the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from time import perf_counter

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


@dataclass
class ProofSystem:
    """A family together with its proof-polynomial blocks.

    `order` is the proof ordering of the member masks (not necessarily the
    family's canonical order); blocks maps block names to polynomial lists;
    `probes` maps probe-group names to mask tuples; `matrix` holds the
    exact evaluations, rows following the concatenated blocks and columns
    the concatenated probe groups.
    """

    family: SetFamily
    order: tuple[int, ...]
    blocks: dict[str, list[MultilinearPoly]]
    degree_cap: int
    probes: dict[str, tuple[int, ...]]
    matrix: list[list[int | Fraction]]
    meta: dict = field(default_factory=dict)

    def all_polys(self) -> list[MultilinearPoly]:
        return [poly for block in self.blocks.values() for poly in block]

    def all_probes(self) -> list[int]:
        return [pt for group in self.probes.values() for pt in group]


def _evaluation_matrix(blocks, probes) -> list[list[int | Fraction]]:
    points = [pt for group in probes.values() for pt in group]
    return [[poly.evaluate(pt) for pt in points] for block in blocks.values() for poly in block]


def _masks_by_size(n_vars: int, max_size: int, within: int) -> list[int]:
    """All masks inside `within` of popcount <= max_size, ordered by
    (size, numeric value)."""
    out = [m for m in range(1 << n_vars) if m & ~within == 0 and m.bit_count() <= max_size]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def _difference_polys(n: int, order, g: FactoredIntPoly) -> list[MultilinearPoly]:
    """p_i: the reduction of g(|A_i| - v_i . x) for each member."""
    polys = []
    for mask in order:
        size = mask.bit_count()
        weights = {i + 1: -1 for i in range(n) if mask >> i & 1}
        prod = MultilinearPoly.constant(n, g.lead)
        for r in g.roots:
            prod = prod * MultilinearPoly.affine(n, size - r, weights)
        polys.append(prod)
    return polys


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
    d = g.degree
    p_block = _difference_polys(n, order, g)
    blocks: dict[str, list[MultilinearPoly]] = {"P": p_block}
    probes: dict[str, tuple[int, ...]] = {"family": order}
    if variant != "none":
        xn = MultilinearPoly.variable(n, n)
        factor = xn - 1 if variant == "minus" else xn
        f_block = []
        b_masks = _masks_by_size(n, d - 1, within=top - 1)
        for b in b_masks:
            f_block.append(factor * MultilinearPoly.monomial(n, b))
        blocks["F"] = f_block
        probes["index_masks"] = tuple(b_masks)
    if variant == "plus":
        probes["family_shifted"] = tuple(m & ~top for m in withn)
    else:
        probes["family_shifted"] = tuple(m | top for m in without)
    matrix = _evaluation_matrix(blocks, probes)
    meta = {
        "system": "diff",
        "variant": variant,
        "r": len(without),
        "g_lead": g.lead,
        "g_roots": g.roots,
        "g_at_zero": g(0),
        "q": pp.q,
    }
    return ProofSystem(fam, order, blocks, d, probes, matrix, meta)


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
        p_block = _difference_polys(n, order, g)
        xn = MultilinearPoly.variable(n, n)
        b_masks = _masks_by_size(n, s - 1, within=top - 1)
        f_block = [(xn - 1) * MultilinearPoly.monomial(n, b) for b in b_masks]
        window = MultilinearPoly.constant(n, 1)
        head_sum = MultilinearPoly(n, {1 << i: 1 for i in range(n - 1)})
        for c in range(s - 1, n - s + 1):
            window = window * (head_sum - c)
        c_masks = _masks_by_size(n, 3 * s - n - 2, within=top - 1)
        h_block = [window * MultilinearPoly.monomial(n, cm) for cm in c_masks]
        blocks = {"P": p_block, "F": f_block, "H": h_block}
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
        p_block = _difference_polys(n, order, g)
        full = (1 << n) - 1
        window = MultilinearPoly.constant(n, 1)
        full_sum = MultilinearPoly(n, {1 << i: 1 for i in range(n)})
        for c in range(s, n - s + 1):
            window = window * (full_sum - c)
        b_masks = _masks_by_size(n, 3 * s - n - 1, within=full)
        h_block = [window * MultilinearPoly.monomial(n, b) for b in b_masks]
        blocks = {"P": p_block, "H": h_block}
        probes = {"family": order, "window_masks": tuple(b_masks)}
        meta = {"system": "close", "s": s, "g_at_zero": g(0)}
    if any(poly.degree > s for block in blocks.values() for poly in block):
        raise AssertionError("block polynomial exceeds the degree cap")
    matrix = _evaluation_matrix(blocks, probes)
    return ProofSystem(fam, order, blocks, s, probes, matrix, meta)


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


def _padic_pattern(sys: ProofSystem, p: int) -> tuple[bool, list[str]]:
    """Valuation pattern that drives the difference-system argument: on the
    family probes, the P block has v_p(M[i][i]) = v_p(g(0)) and strictly
    larger valuations off the diagonal."""
    g0 = sys.meta["g_at_zero"]
    v0 = _vp_int(p, g0) if g0 else None
    m = len(sys.blocks["P"])
    failures = []
    for i in range(m):
        for j in range(m):
            entry = sys.matrix[i][j]
            if entry.denominator != 1:  # pragma: no cover
                raise AssertionError("family evaluations must be integral")
            val = entry.numerator
            if i == j:
                same = (val == 0) == (g0 == 0) and (
                    val == 0 or _vp_int(p, val) == v0
                )
                if not same:
                    failures.append(
                        f"diagonal entry ({i}, {i}) has valuation "
                        f"{'inf' if val == 0 else _vp_int(p, val)}, expected "
                        f"{'inf' if v0 is None else v0}"
                    )
            elif val != 0 and (v0 is None or _vp_int(p, val) <= v0):
                failures.append(
                    f"off-diagonal entry ({i}, {j}) has valuation "
                    f"{_vp_int(p, val)}, not above {v0}"
                )
    return not failures, failures


def _triangular_pattern(sys: ProofSystem) -> tuple[bool, list[str]]:
    """Triangular laws for the mid-band systems: window-block polynomials
    vanish on every family probe; on their own index probes each block is
    triangular with nonzero diagonal; for the close system the P block is
    triangular on the family probes as well."""
    failures = []
    fam_probes = list(sys.probes["family"])
    offset = 0
    col_offsets = {}
    for name, group in sys.probes.items():
        col_offsets[name] = offset
        offset += len(group)
    row = 0
    row_ranges = {}
    for name, block in sys.blocks.items():
        row_ranges[name] = (row, row + len(block))
        row += len(block)
    if sys.meta["system"] == "close":
        p0, _ = row_ranges["P"]
        for i in range(len(fam_probes)):
            for j in range(len(fam_probes)):
                val = sys.matrix[p0 + i][col_offsets["family"] + j]
                if i == j and val == 0:
                    failures.append(f"P diagonal ({i}, {i}) vanishes")
                if j < i and val != 0:
                    failures.append(f"P entry ({i}, {j}) below the diagonal is nonzero")
    window_name = "H"
    h0, h1 = row_ranges[window_name]
    for i in range(h1 - h0):
        for j, _ in enumerate(fam_probes):
            if sys.matrix[h0 + i][col_offsets["family"] + j] != 0:
                failures.append(f"window polynomial {i} does not vanish on member {j}")
        if "family_shifted" in sys.probes:
            for j in range(len(sys.probes["family_shifted"])):
                if sys.matrix[h0 + i][col_offsets["family_shifted"] + j] != 0:
                    failures.append(
                        f"window polynomial {i} does not vanish on shifted member {j}"
                    )
    w0 = col_offsets["window_masks"]
    for i in range(h1 - h0):
        if sys.matrix[h0 + i][w0 + i] == 0:
            failures.append(f"window diagonal ({i}, {i}) vanishes")
        for j in range(i):
            if sys.matrix[h0 + i][w0 + j] != 0:
                failures.append(f"window entry ({i}, {j}) below the diagonal is nonzero")
    return not failures, failures


def verify_independence(sys: ProofSystem, p: int) -> RankReport:
    """Exact rank of the block polynomials over the rationals plus the
    valuation or triangular pattern the underlying argument relies on.

    Rank is computed on coefficient vectors (the proofs' probe sets are not
    square in general); the pattern is read off the evaluation matrix.
    `stats` gives the distinct monomials (`columns`), the coefficients
    (`nonzeros`) and the elimination time in seconds (`rank_s`).
    """
    polys = sys.all_polys()
    start = perf_counter()
    rank = _sparse_rank(poly.coeffs for poly in polys)
    rank_s = perf_counter() - start
    n = sys.family.n
    dimension = sum(comb(n, i) for i in range(min(sys.degree_cap, n) + 1))
    if sys.meta["system"] == "diff":
        pattern = "padic-diagonal"
        ok, failures = _padic_pattern(sys, p)
    else:
        pattern = "triangular"
        ok, failures = _triangular_pattern(sys)
    return RankReport(
        rank=rank,
        total_polys=len(polys),
        full_rank=rank == len(polys),
        dimension=dimension,
        block_sizes={name: len(block) for name, block in sys.blocks.items()},
        pattern=pattern,
        pattern_ok=ok,
        pattern_failures=failures,
        stats={
            "columns": len({m for poly in polys for m in poly.coeffs}),
            "nonzeros": sum(len(poly.coeffs) for poly in polys),
            "rank_s": rank_s,
        },
    )
