import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsperner.bounds import first_zero_separator
from qsperner.families import ConstraintSpec, Kind, SetFamily, max_family
from qsperner.padic import PrimePower, vp
from qsperner.polylab import (
    MultilinearPoly,
    _masks_by_size,
    _padic_pattern,
    _sparse_rank,
    _triangular_pattern,
    build_diff_sperner_system,
    build_midband_system,
    multilinear_reduce,
    verify_independence,
)
from qsperner.seppoly import FactoredIntPoly


def fraction_rank(rows):
    """Oracle: plain Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestMultilinear:
    def test_power_collapse(self):
        assert multilinear_reduce(2, ("*", ("x", 1), ("x", 1), ("x", 2))) == (
            MultilinearPoly(2, {0b11: Fraction(1)})
        )

    def test_square_of_sum(self):
        got = multilinear_reduce(2, ("^", ("+", ("x", 1), ("x", 2)), 2))
        assert got == MultilinearPoly(
            2, {0b01: Fraction(1), 0b10: Fraction(1), 0b11: Fraction(2)}
        )

    def test_constant(self):
        assert multilinear_reduce(3, 5) == MultilinearPoly.constant(3, 5)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_on_boolean_points(self, data):
        n = data.draw(st.integers(2, 5))

        def expr(depth):
            if depth == 0:
                return data.draw(
                    st.one_of(
                        st.integers(-3, 3),
                        st.tuples(st.just("x"), st.integers(1, n)),
                    )
                )
            op = data.draw(st.sampled_from(["+", "*", "^"]))
            if op == "^":
                return ("^", expr(depth - 1), data.draw(st.integers(0, 3)))
            return (op, expr(depth - 1), expr(depth - 1))

        tree = expr(3)

        def eval_plain(node, point):
            if isinstance(node, int):
                return node
            if node[0] == "x":
                return point >> (node[1] - 1) & 1
            if node[0] == "+":
                return sum(eval_plain(sub, point) for sub in node[1:])
            if node[0] == "*":
                out = 1
                for sub in node[1:]:
                    out *= eval_plain(sub, point)
                return out
            return eval_plain(node[1], point) ** node[2]

        reduced = multilinear_reduce(n, tree)
        for point in range(1 << n):
            assert reduced.evaluate(point) == eval_plain(tree, point)

    def test_int_and_fraction_coefficients_compare_equal(self):
        as_ints = MultilinearPoly(3, {0: 2, 0b101: -3})
        as_fractions = MultilinearPoly(3, {0: Fraction(4, 2), 0b101: Fraction(-3)})
        assert as_ints == as_fractions
        assert all(type(c) is int for c in as_fractions.coeffs.values())
        assert MultilinearPoly.constant(3, Fraction(1, 3)) * 3 == MultilinearPoly.constant(3, 1)

    def test_fraction_scalar_stays_exact(self):
        x = MultilinearPoly.variable(2, 1)
        half = x * Fraction(1, 2)
        assert half.coeffs == {0b01: Fraction(1, 2)}
        assert half.evaluate(0b01) == Fraction(1, 2)
        assert half.evaluate(0b10) == 0
        assert half + half == x
        assert type((half * 2).coeffs[0b01]) is int

    @given(
        st.dictionaries(
            st.integers(0, 15),
            st.one_of(st.integers(-50, 50), st.fractions(max_denominator=9)),
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_evaluate_matches_fraction_evaluation(self, coeffs):
        poly = MultilinearPoly(4, coeffs)
        integral = all(type(c) is int for c in poly.coeffs.values())
        for point in range(16):
            expected = Fraction(0)
            for m, c in coeffs.items():
                if m & ~point == 0:
                    expected += Fraction(c)
            got = poly.evaluate(point)
            assert got == expected
            assert type(got) is int or not integral

    def test_degree_and_affine(self):
        p = MultilinearPoly.affine(3, 2, {1: -1, 3: -1})
        assert p.degree == 1
        assert p.evaluate(0b101) == 0


def sparse_rank(rows):
    return _sparse_rank({j: x for j, x in enumerate(row)} for row in rows)


@st.composite
def matrices(draw):
    """Up to 8 x 8 integer matrices, mostly sparse; some rows are integer
    combinations of earlier rows, so rank deficiency is common."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-10**6, 10**6))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


class TestSparseRank:
    def test_known_rank(self):
        assert sparse_rank([[1, 2], [2, 4]]) == 1
        assert sparse_rank([[1, 0, 0], [0, 0, 1]]) == 2
        assert sparse_rank([[0, 0], [0, 0]]) == 0

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_elimination(self, rows):
        assert sparse_rank(rows) == fraction_rank(rows)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_fraction_coefficients_in_a_proof_system(self, data):
        """Non-integral coefficients go through the denominator scaling."""
        pp3 = PrimePower.from_q(3)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3, 4}, {1, 2, 4}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1, 2)), pp3)
        polys = sys_.all_polys()
        scales = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)
        mixed = []
        for poly in polys:
            if mixed and data.draw(st.booleans()):
                # a rational combination of the earlier rows
                picks = data.draw(st.lists(st.sampled_from(mixed), min_size=1, max_size=3))
                poly = MultilinearPoly(4)
                for earlier in picks:
                    poly = poly + earlier * data.draw(scales)
            else:
                poly = poly * data.draw(scales)
            mixed.append(poly)
        support = sorted({m for p in mixed for m in p.coeffs})
        rows = [[p.coeffs.get(m, 0) for m in support] for p in mixed]
        assert _sparse_rank(p.coeffs for p in mixed) == fraction_rank(rows)

    def test_blocks_follow_the_closed_forms(self):
        """The blocks are expanded from the forms, so a system can never be
        ranked on one set of polynomials and pattern-checked on another."""
        pp3 = PrimePower.from_q(3)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3, 4}, {1, 2, 4}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1, 2)), pp3)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(sys_, blocks={"P": []})
        only_p = dataclasses.replace(sys_, forms={"P": sys_.forms["P"]})
        assert only_p.blocks == {"P": sys_.blocks["P"]}
        assert verify_independence(only_p, 3).block_sizes == {"P": len(fam)}


class TestDiffSystem:
    def test_two_singletons_matrix(self):
        pp3 = PrimePower.from_q(3)
        fam = SetFamily.from_sets(2, [{1}, {2}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1, 2)), pp3)
        assert [row[:2] for row in sys_.matrix[:2]] == [
            [Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(2)],
        ]

    def test_diagonal_is_g_at_zero(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3}, {1, 2, 3}])
        g = FactoredIntPoly(1, (1,))
        sys_ = build_diff_sperner_system(fam, g, pp2)
        m = len(fam)
        for i in range(m):
            assert sys_.matrix[i][i] == g(0)

    def test_index_block_count(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(5, [{1}, {2}])
        g = FactoredIntPoly(1, (1, 2, 3))
        sys_ = build_diff_sperner_system(fam, g, pp2)
        d = g.degree
        expected_t = sum(
            len(list(itertools.combinations(range(4), i))) for i in range(d)
        )
        assert len(sys_.blocks["F"]) == expected_t

    def test_members_reordered_around_last_element(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(3, [{3}, {1}, {2, 3}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp2)
        has_top = [bool(m >> 2 & 1) for m in sys_.order]
        assert has_top == sorted(has_top)

    def test_full_rank_on_valid_witness(self):
        pp2 = PrimePower.from_q(2)
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={1}, modulus=pp2)
        witness = max_family(spec).witness
        sys_ = build_diff_sperner_system(witness, FactoredIntPoly(1, (1,)), pp2)
        report = verify_independence(sys_, 2)
        assert report.full_rank
        assert report.rank == len(witness) + report.block_sizes["F"]
        assert report.pattern_ok
        # the dimension count: m <= dim - t
        assert len(witness) <= report.dimension - report.block_sizes["F"]

    def test_empty_family_rank_is_index_block(self):
        pp2 = PrimePower.from_q(2)
        sys_ = build_diff_sperner_system(
            SetFamily(4, ()), FactoredIntPoly(1, (1, 2)), pp2
        )
        report = verify_independence(sys_, 2)
        assert report.block_sizes == {"P": 0, "F": 4}
        assert report.rank == 4

    def test_mutated_family_breaks_pattern(self):
        pp2 = PrimePower.from_q(2)
        # {1} inside {1,2} gives a zero difference, hitting the diagonal value
        fam = SetFamily.from_sets(4, [{1}, {1, 2}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp2)
        report = verify_independence(sys_, 2)
        assert not report.pattern_ok
        assert report.pattern_failures

    def test_plus_variant(self):
        pp4 = PrimePower.from_q(4)
        fam = SetFamily.from_sets(3, [{1}, {3}, {2, 3}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp4, "plus")
        xn_low = [m & ~(1 << 2) for m in sys_.order if m >> 2 & 1]
        assert list(sys_.probes["family_shifted"]) == xn_low

    def test_rank_invariant_under_prime_choice(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp2)
        assert verify_independence(sys_, 2).rank == verify_independence(sys_, 5).rank


class TestMidbandSystems:
    def sym_system(self):
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={1, 2})
        witness = max_family(spec).witness
        return build_midband_system(witness, 2, "sym")

    def test_sym_block_budget(self):
        sys_ = self.sym_system()
        m = len(sys_.blocks["P"])
        t = len(sys_.blocks["F"])
        T = len(sys_.blocks["H"])
        dim = verify_independence(sys_, 5).dimension
        assert m + t + T <= dim
        assert T == 1  # subsets of [n-1] of size <= 3s-n-2 = 0

    def test_sym_window_vanishing_and_rank(self):
        sys_ = self.sym_system()
        report = verify_independence(sys_, 5)
        assert report.pattern_ok
        assert report.full_rank

    def test_sym_degree_cap(self):
        sys_ = self.sym_system()
        assert all(
            poly.degree <= sys_.degree_cap
            for block in sys_.blocks.values()
            for poly in block
        )

    def test_close_triangular_laws(self):
        spec = ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=5, L={1, 2})
        witness = max_family(spec).witness
        sys_ = build_midband_system(witness, 2, "close")
        report = verify_independence(sys_, 5)
        assert report.pattern_ok
        assert report.full_rank
        sizes = [m.bit_count() for m in sys_.order]
        assert sizes == sorted(sizes, reverse=True)

    def test_band_violation_instructs_push(self):
        fam = SetFamily.from_sets(4, [{1}])
        with pytest.raises(ValueError, match="push_to_middle"):
            build_midband_system(fam, 2, "sym")

    def test_parameter_window(self):
        fam = SetFamily.from_sets(7, [{1, 2}])
        with pytest.raises(ValueError):
            build_midband_system(fam, 2, "sym")  # 3s < n + 2

    def test_close_detects_violation(self):
        # a containment pair (skew distance 0) breaks the triangular law
        fam = SetFamily.from_sets(5, [{1, 2}, {1, 2, 3}])
        sys_ = build_midband_system(fam, 2, "close")
        report = verify_independence(sys_, 5)
        assert not report.pattern_ok
        assert report.pattern_failures


class TestRankOracle:
    def test_system_rank_matches_fraction_oracle(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3}, {4}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp2)
        polys = sys_.all_polys()
        support = sorted({m for p in polys for m in p.coeffs})
        rows = [[p.coeffs.get(m, Fraction(0)) for m in support] for p in polys]
        assert verify_independence(sys_, 2).rank == fraction_rank(rows)


def product_blocks(sys_):
    """Oracle: the block polynomials as products of affine forms, straight
    from their definitions: g(|A_i| - v_i . x), (x_n - 1) x^b or x_n x^b,
    and the window product over the head variables times x^c."""
    n = sys_.family.n
    meta = sys_.meta
    xn = MultilinearPoly.variable(n, n)

    def differences(g):
        polys = []
        for mask in sys_.order:
            weights = {i + 1: -1 for i in range(n) if mask >> i & 1}
            prod = MultilinearPoly.constant(n, g.lead)
            for r in g.roots:
                prod = prod * MultilinearPoly.affine(n, mask.bit_count() - r, weights)
            polys.append(prod)
        return polys

    def windows(lo, hi, head_size):
        window = MultilinearPoly.constant(n, 1)
        head_sum = MultilinearPoly(n, {1 << i: 1 for i in range(head_size)})
        for c in range(lo, hi + 1):
            window = window * (head_sum - c)
        return [window * MultilinearPoly.monomial(n, c) for c in sys_.probes["window_masks"]]

    def index_block(factor):
        return [factor * MultilinearPoly.monomial(n, b) for b in sys_.probes["index_masks"]]

    if meta["system"] == "diff":
        blocks = {"P": differences(FactoredIntPoly(meta["g_lead"], meta["g_roots"]))}
        if meta["variant"] != "none":
            blocks["F"] = index_block(xn - 1 if meta["variant"] == "minus" else xn)
        return blocks
    s = meta["s"]
    g = FactoredIntPoly(1, tuple(range(1, s + 1)))
    if meta["system"] == "sym":
        return {"P": differences(g), "F": index_block(xn - 1), "H": windows(s - 1, n - s, n - 1)}
    return {"P": differences(g), "H": windows(s, n - s, n)}


def band_shapes(lowest):
    """(n, s) with n <= 9 inside a mid-band window: lowest(n) <= 3s, 2s <= n."""
    return [(n, s) for n in range(2, 10) for s in range(1, n) if lowest(n) <= 3 * s and 2 * s <= n]


@st.composite
def proof_systems(draw):
    """Systems of every variant on random families at n <= 9."""
    variant = draw(st.sampled_from(["minus", "plus", "none", "sym", "close"]))
    if variant in ("sym", "close"):
        n, s = draw(st.sampled_from(band_shapes(lambda n: n + 2 if variant == "sym" else n + 1)))
        sizes = st.integers(s, n - s)
    else:
        n = draw(st.integers(1, 9))
        sizes = st.integers(0, n)
    members = set()
    for size in draw(st.lists(sizes, max_size=10)):
        members.add(sum(1 << i for i in draw(st.permutations(range(n)))[:size]))
    fam = SetFamily(n, tuple(sorted(members)))
    if variant in ("sym", "close"):
        return build_midband_system(fam, s, variant)
    roots = draw(st.lists(st.integers(-2, n + 2), min_size=1, max_size=4))
    g = FactoredIntPoly(draw(st.sampled_from([1, 2, -3])), tuple(roots))
    pp = PrimePower.from_q(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    return build_diff_sperner_system(fam, g, pp, variant)


class TestClosedForms:
    @given(proof_systems())
    @settings(max_examples=60, deadline=None)
    def test_every_matrix_entry_is_an_evaluation(self, sys_):
        points = [pt for group in sys_.probes.values() for pt in group]
        polys = sys_.all_polys()
        assert len(sys_.matrix) == len(polys)
        for poly, row in zip(polys, sys_.matrix):
            assert row == [poly.evaluate(pt) for pt in points]

    @given(proof_systems())
    @settings(max_examples=60, deadline=None)
    def test_moebius_polynomials_equal_product_build(self, sys_):
        assert sys_.blocks == product_blocks(sys_)
        assert all(poly.degree <= sys_.degree_cap for poly in sys_.all_polys())

    def test_masks_by_size_matches_full_scan(self):
        rng = random.Random(7)
        for n in range(11):
            withins = range(1 << n) if n <= 5 else [(1 << n) - 1, (1 << (n - 1)) - 1] + [
                rng.randrange(1 << n) for _ in range(6)
            ]
            for within in withins:
                for max_size in range(-1, n + 1):
                    scan = [
                        m for m in range(1 << n)
                        if m & ~within == 0 and m.bit_count() <= max_size
                    ]
                    scan.sort(key=lambda m: (m.bit_count(), m))
                    assert _masks_by_size(max_size, within) == scan

    def test_five_layer_of_13(self):
        pp8 = PrimePower.from_q(8)
        g = first_zero_separator(pp8, (1, 2, 3, 4, 5))[1]
        fam = SetFamily(13, tuple(m for m in range(1 << 13) if m.bit_count() == 5))
        report = verify_independence(build_diff_sperner_system(fam, g, pp8), pp8.p)
        assert (report.rank, report.total_polys) == (2081, 2081)
        assert report.pattern_ok
        assert report.stats["pattern_cells"] == 1287 * 1287


class TestSymPattern:
    def test_sym_checks_the_p_block(self):
        # |{4,5,6,7} - {1,2,3}| = 4 lies outside L = [3]: P is [[-6, 0], [6, -6]]
        fam = SetFamily.from_sets(7, [{1, 2, 3}, {4, 5, 6, 7}])
        sys_ = build_midband_system(fam, 3, "sym")
        assert [row[:2] for row in sys_.matrix[:2]] == [[-6, 0], [6, -6]]
        report = verify_independence(sys_, 2)
        assert (report.rank, report.total_polys) == (25, 25)
        assert not report.pattern_ok
        assert report.pattern_failures == ["P entry (1, 0) below the diagonal is nonzero"]
        # P reads 1 + 2 entries; H (one row) reads 2 members, 1 shifted, 1 index probe
        assert report.stats["pattern_cells"] == 7


def pattern_failures_by_entries(sys_, p):
    """Oracle: the pattern failures of `verify_independence`, reading every
    matrix entry the pattern covers one by one through `_ClosedForm.at`."""
    fam = sys_.probes["family"]
    failures = []
    if sys_.meta["system"] == "diff":
        g0 = sys_.meta["g_at_zero"]
        v0 = vp(p, g0).value if g0 else None
        for i, form in enumerate(sys_.forms["P"]):
            for j, val in enumerate(form.at(fam)):
                if j != i and val and (v0 is None or vp(p, val).value <= v0):
                    failures.append(
                        f"off-diagonal entry ({i}, {j}) has valuation {vp(p, val).value}, not above {v0}"
                    )
        return failures

    def triangular(forms, points, name):
        out = []
        for i, form in enumerate(forms):
            row = form.at(points[: i + 1])
            out += [f"{name} entry ({i}, {j}) below the diagonal is nonzero" for j, val in enumerate(row[:-1]) if val]
            if not row[-1]:
                out.append(f"{name} diagonal ({i}, {i}) vanishes")
        return out

    failures = triangular(sys_.forms["P"], fam, "P")
    for i, form in enumerate(sys_.forms["H"]):
        for what, points in (("member", fam), ("shifted member", sys_.probes.get("family_shifted", ()))):
            failures += [
                f"window polynomial {i} does not vanish on {what} {j}"
                for j, val in enumerate(form.at(points)) if val
            ]
    return failures + triangular(sys_.forms["H"], sys_.probes["window_masks"], "window")


def seeded_systems(rng, count):
    """(system, p) over every variant: random families of mixed sizes, layers
    and layers with one member replaced by a proper subset."""
    out = []
    for _ in range(count):
        variant = rng.choice(["minus", "plus", "none", "sym", "close"])
        if variant in ("sym", "close"):
            n, s = rng.choice(band_shapes(lambda n: n + 2 if variant == "sym" else n + 1))
            sizes = range(s, n - s + 1)
        else:
            n = rng.randint(1, 8)
            sizes = range(n + 1)
        shape = rng.choice(["random", "layer", "mutated"])
        if shape == "random":
            members = {
                sum(1 << i for i in rng.sample(range(n), rng.choice(sizes)))
                for _ in range(rng.randint(0, 12))
            }
        else:
            k = rng.choice(sizes)
            members = {m for m in range(1 << n) if m.bit_count() == k}
            if shape == "mutated" and members and (variant not in ("sym", "close") or k > sizes[0]):
                victim = rng.choice(sorted(members))
                members = (members - {victim}) | {victim & (victim - 1)}
        fam = SetFamily(n, tuple(sorted(members)))
        if variant in ("sym", "close"):
            out.append((build_midband_system(fam, s, variant), rng.choice([2, 3, 5])))
            continue
        roots = tuple(rng.randint(-2, n + 2) for _ in range(rng.randint(1, 4)))
        g = FactoredIntPoly(rng.choice([1, 2, -3]), roots)
        pp = PrimePower.from_q(rng.choice([2, 3, 4, 5, 7, 8, 9]))
        out.append((build_diff_sperner_system(fam, g, pp, variant), pp.p))
    return out


class TestPatternOracle:
    def test_failures_match_entry_by_entry(self):
        failing = {}
        for sys_, p in seeded_systems(random.Random(31), 600):
            expected = pattern_failures_by_entries(sys_, p)
            if sys_.meta["system"] == "diff":
                got = _padic_pattern(sys_, p)[0]
            else:
                got = _triangular_pattern(sys_)[0]
            assert got == expected, (sys_.meta, sys_.family)
            name = sys_.meta.get("variant", sys_.meta["system"])
            failing.setdefault(name, [0, 0])[bool(expected)] += 1
        assert sorted(failing) == ["close", "minus", "none", "plus", "sym"]
        assert all(ok and bad for ok, bad in failing.values()), failing

    def test_five_layer_of_13_against_entries(self):
        pp8 = PrimePower.from_q(8)
        g = first_zero_separator(pp8, (1, 2, 3, 4, 5))[1]
        layer = [m for m in range(1 << 13) if m.bit_count() == 5]
        victim = layer[200]
        fam = SetFamily(13, tuple(victim & (victim - 1) if m == victim else m for m in layer))
        sys_ = build_diff_sperner_system(fam, g, pp8)
        report = verify_independence(sys_, pp8.p)
        assert report.pattern_failures
        assert report.pattern_failures == pattern_failures_by_entries(sys_, pp8.p)
