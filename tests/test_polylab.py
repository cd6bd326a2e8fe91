import copy
import dataclasses
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsperner.families import ConstraintSpec, Kind, SetFamily, _holders, max_family
from qsperner.padic import PrimePower, vp
from qsperner.polylab import (
    ProofSystem,
    _ClosedForm,
    _difference_forms,
    _masks_by_size,
    _padic_pattern,
    _rank_rows,
    _sparse_rank,
    _subsets,
    _triangular_pattern,
    _window_forms,
    build_diff_sperner_system,
    build_midband_system,
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


def mul(f, g):
    """Oracle: the product of two multilinear polynomials, given as dicts
    monomial mask -> coefficient, reduced by x_i**2 = x_i."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            out[m1 | m2] = out.get(m1 | m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def evaluate(f, point):
    """Oracle: the value of f at the 0/1 point given as a mask, term by term."""
    return sum(c for m, c in f.items() if m & ~point == 0)


def degree(f):
    return max((m.bit_count() for m in f), default=0)


def matrix(sys_):
    """The evaluation matrix: rows follow the concatenated blocks, columns
    the concatenated probe groups."""
    points = [pt for group in sys_.probes.values() for pt in group]
    return [form.at(points) for forms in sys_.forms.values() for form in forms]


def coefficient_rows(sys_):
    return [form.coeffs(form.differences()) for forms in sys_.forms.values() for form in forms]


def sparse_rank(rows):
    return _sparse_rank({j: x for j, x in enumerate(row) if x} for row in rows)


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

    @pytest.mark.parametrize(
        "rows",
        [
            # the row's lead 6 is a multiple of the pivot's 2: an in-place step
            [[2, 1, 0], [6, 3, 0]],
            [[2, 1, 0], [6, 0, 1]],
            # 3 is not: the row is scaled by 2
            [[2, 1, 0], [3, 0, 1]],
            [[4, 2, 6], [6, 3, 9]],
            # a negative lead, on the stored pivot and on the reduced row
            [[-2, 4, 6], [1, -2, -3]],
            [[-2, 4, 6], [1, -2, 0], [-3, 0, 5]],
            [[3, 0, 1], [-6, 2, 0], [9, -2, 3]],
        ],
        ids=["multiple-dependent", "multiple", "not-multiple", "not-multiple-dependent",
             "negative-pivot", "negative-pivot-three-rows", "negative-row"],
    )
    def test_hand_made_steps(self, rows):
        assert sparse_rank(rows) == fraction_rank(rows)

    def test_rows_are_not_modified(self):
        """In-place steps work on a copy: every row passed in, a stored
        pivot or a reduced row, reads as it did before the call."""
        rows = [
            {0: -2, 1: 4, 2: 6},
            {0: 6, 1: 3, 3: 1},
            {0: 3, 2: 1},
            {0: 4, 1: -8, 2: -12},
            {1: 5, 3: 2},
        ]
        before = copy.deepcopy(rows)
        assert _sparse_rank(rows) == 4
        assert rows == before

    @pytest.mark.parametrize(
        "variant, n, s, k, rank, total",
        [("close", 8, 3, 4, 57, 71), ("sym", 8, 4, 4, 163, 163)],
        ids=["close-8-3-4", "sym-8-4"],
    )
    def test_real_systems(self, variant, n, s, k, rank, total):
        """The k-layer of [n] under the mid-band system: both ranks
        against the Fraction oracle, and the rows left as they were."""
        fam = SetFamily.from_sets(n, itertools.combinations(range(1, n + 1), k))
        rows = coefficient_rows(build_midband_system(fam, s, variant))
        before = copy.deepcopy(rows)
        support = sorted(set().union(*rows))
        assert (_sparse_rank(rows), len(rows)) == (rank, total)
        assert fraction_rank([[row.get(m, 0) for m in support] for row in rows]) == rank
        assert rows == before

    def test_blocks_follow_the_closed_forms(self):
        """Rank, sizes and pattern all read the forms, so a system can never
        be ranked on one set of polynomials and pattern-checked on another."""
        pp3 = PrimePower.from_q(3)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3, 4}, {1, 2, 4}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1, 2)), pp3)
        only_p = dataclasses.replace(sys_, forms={"P": sys_.forms["P"]})
        report = verify_independence(only_p)
        assert report.block_sizes == {"P": len(fam)}
        assert report.total_polys == len(fam)
        assert report.stats["nonzeros"] == sum(map(len, coefficient_rows(only_p)))


class TestDiffSystem:
    def test_two_singletons_matrix(self):
        pp3 = PrimePower.from_q(3)
        fam = SetFamily.from_sets(2, [{1}, {2}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1, 2)), pp3)
        assert [row[:2] for row in matrix(sys_)[:2]] == [[2, 0], [0, 2]]

    def test_diagonal_is_g_at_zero(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3}, {1, 2, 3}])
        g = FactoredIntPoly(1, (1,))
        sys_ = build_diff_sperner_system(fam, g, pp2)
        rows = matrix(sys_)
        for i in range(len(fam)):
            assert rows[i][i] == g(0)

    def test_index_block_count(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(5, [{1}, {2}])
        g = FactoredIntPoly(1, (1, 2, 3))
        sys_ = build_diff_sperner_system(fam, g, pp2)
        d = g.degree
        expected_t = sum(
            len(list(itertools.combinations(range(4), i))) for i in range(d)
        )
        assert len(sys_.forms["F"]) == expected_t

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
        report = verify_independence(sys_)
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
        report = verify_independence(sys_)
        assert report.block_sizes == {"P": 0, "F": 4}
        assert report.rank == 4

    def test_mutated_family_breaks_pattern(self):
        pp2 = PrimePower.from_q(2)
        # {1} inside {1,2} gives a zero difference, hitting the diagonal value
        fam = SetFamily.from_sets(4, [{1}, {1, 2}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp2)
        report = verify_independence(sys_)
        assert not report.pattern_ok
        assert report.pattern_failures

    def test_g_evaluated_up_to_largest_member(self, monkeypatch):
        calls = []
        original = FactoredIntPoly.__call__
        monkeypatch.setattr(FactoredIntPoly, "__call__", lambda g, y: calls.append(y) or original(g, y))
        fam = SetFamily.from_sets(10**6, [{1}, {2, 10**6}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), PrimePower.from_q(2))
        assert sorted(calls) == [0, 0, 1, 2]  # g(0..2), then g(0) for the metadata
        assert [f.t for f in sys_.forms["P"]] == [(0, -1), (1, 0, -1)]

    def test_plus_variant(self):
        pp4 = PrimePower.from_q(4)
        fam = SetFamily.from_sets(3, [{1}, {3}, {2, 3}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp4, "plus")
        xn_low = [m & ~(1 << 2) for m in sys_.order if m >> 2 & 1]
        assert list(sys_.probes["family_shifted"]) == xn_low


class TestMidbandSystems:
    def sym_system(self):
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={1, 2})
        witness = max_family(spec).witness
        return build_midband_system(witness, 2, "sym")

    def test_sym_block_budget(self):
        sys_ = self.sym_system()
        m = len(sys_.forms["P"])
        t = len(sys_.forms["F"])
        T = len(sys_.forms["H"])
        dim = verify_independence(sys_).dimension
        assert m + t + T <= dim
        assert T == 1  # subsets of [n-1] of size <= 3s-n-2 = 0

    def test_sym_window_vanishing_and_rank(self):
        sys_ = self.sym_system()
        report = verify_independence(sys_)
        assert report.pattern_ok
        assert report.full_rank

    def test_sym_degree_cap(self):
        sys_ = self.sym_system()
        assert all(degree(row) <= sys_.degree_cap for row in coefficient_rows(sys_))

    def test_close_triangular_laws(self):
        spec = ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=5, L={1, 2})
        witness = max_family(spec).witness
        sys_ = build_midband_system(witness, 2, "close")
        report = verify_independence(sys_)
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
        report = verify_independence(sys_)
        assert not report.pattern_ok
        assert report.pattern_failures


class TestSharedBuilder:
    def test_sym_is_the_minus_difference_system(self):
        """The sym system's P and F blocks and its difference probes are
        the minus difference system's for g = (y-1)...(y-s), on every band
        shape with n <= 9: the full lowest layer of the band, and a random
        band family."""
        rng = random.Random(5)
        pp = PrimePower.from_q(2)
        for n, s in band_shapes(lambda n: n + 2):
            g = FactoredIntPoly(1, range(1, s + 1))
            band = [m for m in range(1 << n) if s <= m.bit_count() <= n - s]
            lowest = tuple(m for m in band if m.bit_count() == s)
            for members in (lowest, tuple(sorted(rng.sample(band, min(len(band), 12))))):
                fam = SetFamily(n, members)
                sym = build_midband_system(fam, s, "sym")
                diff = build_diff_sperner_system(fam, g, pp, "minus")
                assert [sym.forms[b] for b in "PF"] == [diff.forms[b] for b in "PF"]
                assert sym.order == diff.order
                for probe in ("family", "index_masks", "family_shifted"):
                    assert sym.probes[probe] == diff.probes[probe]
                assert (sym.degree_cap, sym.meta["r"]) == (diff.degree_cap, diff.meta["r"])

    def test_variants(self):
        fam, g, pp = SetFamily.from_sets(3, [{1}, {3}]), FactoredIntPoly(1, (1,)), PrimePower.from_q(2)
        builds = (
            ("none", lambda: build_diff_sperner_system(fam, g, pp, "none")),
            ("sym", lambda: build_diff_sperner_system(fam, g, pp, "sym")),
            ("minus", lambda: build_midband_system(fam, 1, "minus")),
        )
        for variant, build in builds:
            with pytest.raises(ValueError, match=f"^unknown variant '{variant}'$"):
                build()


class TestRankOracle:
    def test_system_rank_matches_fraction_oracle(self):
        pp2 = PrimePower.from_q(2)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3}, {4}])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), pp2)
        rows = coefficient_rows(sys_)
        support = sorted(set().union(*rows))
        assert verify_independence(sys_).rank == fraction_rank(
            [[row.get(m, 0) for m in support] for row in rows]
        )


def product_blocks(sys_):
    """Oracle: the block polynomials as products of affine forms, straight
    from their definitions: g(|A_i| - v_i . x), (x_n - 1) x^b or x_n x^b,
    and the window product over the head variables times x^c."""
    n = sys_.family.n
    meta = sys_.meta
    xn = 1 << (n - 1)

    def differences(g):
        polys = []
        for mask in sys_.order:
            weights = {1 << i: -1 for i in range(n) if mask >> i & 1}
            prod = {0: g.lead}
            for r in g.roots:
                prod = mul(prod, {0: mask.bit_count() - r, **weights})
            polys.append(prod)
        return polys

    def windows(lo, hi, head_size):
        window = {0: 1}
        for c in range(lo, hi + 1):
            window = mul(window, {0: -c, **{1 << i: 1 for i in range(head_size)}})
        return [mul(window, {c: 1}) for c in sys_.probes["window_masks"]]

    def index_block(factor):
        return [mul(factor, {b: 1}) for b in sys_.probes["index_masks"]]

    if meta["system"] == "diff":
        g = FactoredIntPoly(meta["g_lead"], meta["g_roots"])
        factor = {0: -1, xn: 1} if meta["variant"] == "minus" else {xn: 1}
        return {"P": differences(g), "F": index_block(factor)}
    s = meta["s"]
    g = FactoredIntPoly(1, tuple(range(1, s + 1)))
    if meta["system"] == "sym":
        return {"P": differences(g), "F": index_block({0: -1, xn: 1}), "H": windows(s - 1, n - s, n - 1)}
    return {"P": differences(g), "H": windows(s, n - s, n)}


def band_shapes(lowest):
    """(n, s) with n <= 9 inside a mid-band window: lowest(n) <= 3s, 2s <= n."""
    return [(n, s) for n in range(2, 10) for s in range(1, n) if lowest(n) <= 3 * s and 2 * s <= n]


@st.composite
def proof_systems(draw):
    """Systems of every variant on random families at n <= 9."""
    variant = draw(st.sampled_from(["minus", "plus", "sym", "close"]))
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


@st.composite
def top_close_systems(draw):
    """The close system on part of the (n - s)-layer of [n], at n <= 9,
    where the values are mostly chosen."""
    n, s = draw(st.sampled_from(band_shapes(lambda n: n + 1)))
    rng = draw(st.randoms(use_true_random=False))
    members = [m for m in range(1 << n) if m.bit_count() == n - s and rng.random() < 0.75]
    return build_midband_system(SetFamily(n, tuple(members)), s, "close")


@st.composite
def form_systems(draw):
    """Up to 16 forms x^fixed * g(|A| - sum over A) on [n], n <= 8, fixed
    mostly empty and g with one to three roots among 0..4: like the P
    rows of the difference systems, most hold the constant, and their
    values at the top points are 0 wherever |A - B| is a root, but g and
    the sizes vary freely."""
    n = draw(st.integers(2, 8))
    forms = []
    for _ in range(draw(st.integers(1, 16))):
        free = draw(st.integers(0, (1 << n) - 1))
        fixed = draw(st.sampled_from([0, 0, 0, 1 << draw(st.integers(0, n - 1))])) & ~free
        roots = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        g = FactoredIntPoly(draw(st.sampled_from([1, -2, 3])), tuple(roots))
        size = free.bit_count()
        forms.append(_ClosedForm(fixed, free, tuple(g(size - j) for j in range(size + 1))))
    return ProofSystem(SetFamily(n, ()), (), n, {}, {"P": forms})


def rank_systems():
    """`proof_systems`' four variants, the close system at the top of the
    band, and free closed forms."""
    return st.one_of(proof_systems(), top_close_systems(), form_systems())


class TestRankBasis:
    """`verify_independence` ranks either the coefficient rows or the
    values at the points of [n] of size >= n - d, d the largest degree of
    a row; both have the same rank."""

    @given(rank_systems())
    @settings(max_examples=60, deadline=None)
    def test_top_values_rank_as_coefficients(self, sys_):
        rows, values, chosen = bases(sys_)
        rank = _sparse_rank(rows)
        assert _sparse_rank(values) == rank
        assert chosen is rows or chosen == values
        rows, _, chosen = bases(sys_, budget=10**6)  # the values' cost no object
        assert chosen is rows or chosen == values
        if sys_.meta:  # a built system, not free forms
            assert verify_independence(sys_).rank == rank

    @pytest.mark.parametrize(
        "variant, n, s, k, on_values",
        [
            ("close", 9, 4, 5, True),
            ("close", 8, 3, 5, True),
            ("close", 8, 3, 4, True),
            ("close", 9, 4, 4, False),
            ("sym", 7, 3, 3, False),
            ("sym", 8, 4, 4, False),
            ("sym", 9, 4, 4, False),
        ],
        ids=["close-9-4-5", "close-8-3-5", "close-8-3-4", "close-9-4-4", "sym-7-3", "sym-8-4", "sym-9-4"],
    )
    def test_replayed_layers(self, variant, n, s, k, on_values):
        """The close layers at or above n - s have P rows that all hold the
        constant monomial, and move to the values, where each lead is a
        least superset of its member; the sym layers' coefficient leads are
        already nearly distinct, and they stay."""
        fam = SetFamily.from_sets(n, itertools.combinations(range(1, n + 1), k))
        rows, values, chosen = bases(build_midband_system(fam, s, variant))
        assert chosen == (values if on_values else rows)
        assert (chosen is rows) is not on_values

    def test_wide_ground_sets_stay_on_coefficients(self):
        """Three rows, all led by the constant monomial.  Two members of
        ten elements on [300] have 24 coefficients and 301 points of size
        >= 299; two halves of [300] have 306 coefficients, which the points
        fit, but not their table of 300 elements a point."""
        g, pp2 = FactoredIntPoly(1, (1,)), PrimePower.from_q(2)
        for members in ([range(1, 11), range(11, 21)], [range(1, 151), range(151, 301)]):
            sys_ = build_diff_sperner_system(SetFamily.from_sets(300, members), g, pp2)
            rows, values, chosen = bases(sys_)
            assert len({min(row) for row in rows}) == 1 and len(rows) == 3
            assert chosen is rows
            assert _sparse_rank(values) == _sparse_rank(rows) == 3

    @pytest.mark.parametrize("limit, on_values", [(60566, False), (60567, True)])
    def test_values_obey_the_coefficient_limit(self, limit, on_values):
        """The close 6-layer of [11] at s = 5 has 38,424 coefficients and
        60,567 nonzero values: under a limit between the two, the values
        are not ranked, though they have more distinct leads."""
        fam = SetFamily.from_sets(11, itertools.combinations(range(1, 12), 6))
        sys_ = build_midband_system(fam, 5, "close")
        rows = coefficient_rows(sys_)
        forms = [form for block in sys_.forms.values() for form in block]
        with mock.patch("qsperner.polylab._MAX_COEFFS", limit):
            chosen = _rank_rows(forms, rows, 11, 5, sum(map(len, rows)))
        assert (sum(map(len, rows)), chosen is not rows) == (38424, on_values)
        if on_values:
            assert sum(map(len, chosen)) == 60567


def top_values(sys_, degree):
    """Oracle: each form's values at the points of [n] of size >= n -
    degree, entry by entry through `_ClosedForm.at`, keyed by the point's
    index in ascending mask order."""
    n, full = sys_.family.n, (1 << sys_.family.n) - 1
    missing = itertools.chain.from_iterable(itertools.combinations(range(n), j) for j in range(degree + 1))
    points = sorted(full - sum(1 << i for i in c) for c in missing)
    forms = [form for block in sys_.forms.values() for form in block]
    return [{i: v for i, v in enumerate(form.at(points)) if v} for form in forms]


def bases(sys_, budget=None):
    """The coefficient rows, the value rows at the top points, and the
    rows `_rank_rows` picks of the two, given the system's number of
    coefficients or, to let more systems try the values, `budget`."""
    rows = coefficient_rows(sys_)
    forms = [form for block in sys_.forms.values() for form in block]
    d = max(map(degree, rows), default=0)
    budget = sum(map(len, rows)) if budget is None else budget
    return rows, top_values(sys_, d), _rank_rows(forms, rows, sys_.family.n, d, budget)


@st.composite
def kept_forms(draw):
    """A form over [8] with `fixed` non-empty, t of distinct nonzero
    values, points and a subset `among` of them, and the counts whose
    values `keep` holds: 0, |free|, both or neither, with some middle
    counts beside them."""
    free = draw(st.integers(0, (1 << 7) - 1))
    fixed = 1 << 7 | (draw(st.integers(0, (1 << 7) - 1)) & ~free)
    size = free.bit_count()
    t = tuple(draw(st.permutations(range(1, size + 2))))
    ends = draw(st.sampled_from([(), (0,), (size,), (0, size)]))
    middle = draw(st.sets(st.integers(1, size - 1))) if size > 1 else set()
    points = draw(st.lists(st.integers(0, (1 << 8) - 1), max_size=12))
    among = draw(st.integers(0, (1 << len(points)) - 1))
    return _ClosedForm(fixed, free, t), {*ends, *middle}, points, among


class TestClosedForms:
    @given(kept_forms())
    @settings(max_examples=300, deadline=None)
    def test_where_matches_the_entries(self, case):
        """`levels` and `where` agree with `at`, point by point, whichever
        ends of the counts `keep` holds."""
        form, counts, points, among = case
        keep = {form.t[c] for c in counts}.__contains__
        holders, values = _holders(points), form.at(points)
        chosen = [j for j, v in enumerate(values) if among >> j & 1]
        levels = form.levels(holders, among, keep)
        assert sorted(levels) == sorted(counts)
        for c, bits in levels.items():
            assert bits == sum(1 << j for j in chosen if values[j] == form.t[c])
        assert form.where(holders, among, keep) == sum(1 << j for j in chosen if keep(values[j]))

    @given(st.integers(0, (1 << 10) - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_subsets_at_every_size(self, within, high):
        """Every size from 0 to |within| + 1, the empty `within` too."""
        within |= high << 3000
        bits = [1 << i for i in range(within.bit_length()) if within >> i & 1]
        for size in range(len(bits) + 2):
            expected = sorted(sum(c) for c in itertools.combinations(bits, size))
            assert sorted(_subsets(within, size)) == expected

    @given(proof_systems())
    @settings(max_examples=60, deadline=None)
    def test_every_matrix_entry_is_an_evaluation(self, sys_):
        points = [pt for group in sys_.probes.values() for pt in group]
        polys = [poly for block in product_blocks(sys_).values() for poly in block]
        rows = matrix(sys_)
        assert len(rows) == len(polys)
        for poly, row in zip(polys, rows):
            assert row == [evaluate(poly, pt) for pt in points]

    @given(proof_systems())
    @settings(max_examples=60, deadline=None)
    def test_moebius_polynomials_equal_product_build(self, sys_):
        moebius = {
            name: [form.coeffs(form.differences()) for form in forms] for name, forms in sys_.forms.items()
        }
        assert moebius == product_blocks(sys_)
        assert all(degree(row) <= sys_.degree_cap for row in coefficient_rows(sys_))

    @given(proof_systems())
    @settings(max_examples=30, deadline=None)
    def test_coefficient_limit_counts_exactly(self, sys_):
        """The count the coefficient limit reads is the number of
        coefficients the forms expand to: a limit at that number passes
        the system, one below it refuses it."""
        nonzeros = verify_independence(sys_).stats["nonzeros"]
        with mock.patch("qsperner.polylab._MAX_COEFFS", nonzeros):
            assert verify_independence(sys_).stats["nonzeros"] == nonzeros
        with mock.patch("qsperner.polylab._MAX_COEFFS", nonzeros - 1):
            with pytest.raises(ValueError, match=f"more than {nonzeros - 1} coefficients"):
                verify_independence(sys_)

    @pytest.mark.parametrize(
        "n, limit, refused",
        [(4096, 4098, 4098), (4096, 4099, None), (4097, 8199, 4099), (4097, 8200, None)],
    )
    def test_coefficient_limit_weighs_key_width(self, n, limit, refused):
        """A member {1..n} and g = y - 1 give n + 3 coefficients, each
        counted once per started 4,096 ground elements: once at n = 4,096,
        twice at n = 4,097, where the refusal names the limit halved."""
        fam = SetFamily.from_sets(n, [range(1, n + 1)])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), PrimePower.from_q(2))
        with mock.patch("qsperner.polylab._MAX_COEFFS", limit):
            if refused is None:
                assert verify_independence(sys_).stats["nonzeros"] == n + 3
            else:
                with pytest.raises(ValueError, match=f"^the proof system has more than {refused} coefficients$"):
                    verify_independence(sys_)

    def test_differences_stop_at_the_degree(self):
        """A form of degree 1 over 5,000 free elements has two nonzero
        differences, and they are all it computes: no |free|^2 table."""
        fam = SetFamily.from_sets(5000, [range(1, 5001)])
        sys_ = build_diff_sperner_system(fam, FactoredIntPoly(1, (1,)), PrimePower.from_q(2))
        assert [form.differences() for form in sys_.forms["P"]] == [[4999, -1]]
        assert verify_independence(sys_).stats["nonzeros"] == 1 + 5000 + 2

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

    @pytest.mark.parametrize(
        "within, size",
        [((1 << 5000) | 0b1011, 2), ((1 << 5000) | 0b1011, 4), ((1 << 3000) - 1, 0)],
        ids=["sparse-high-bit", "sparse-all", "dense-size-0"],
    )
    def test_subsets_match_combinations(self, within, size):
        bits = [1 << i for i in range(within.bit_length()) if within >> i & 1]
        expected = sorted(sum(c) for c in itertools.combinations(bits, size))
        assert sorted(_subsets(within, size)) == expected

    def test_five_layer_of_13(self):
        pp8 = PrimePower.from_q(8)
        g = FactoredIntPoly(1, (1, 2, 3, 4, 5))  # R22's polynomial for L = [5] mod 8
        fam = SetFamily(13, tuple(m for m in range(1 << 13) if m.bit_count() == 5))
        report = verify_independence(build_diff_sperner_system(fam, g, pp8))
        assert (report.rank, report.total_polys) == (2081, 2081)
        assert report.pattern_ok
        assert report.stats["pattern_cells"] == 1287 * 1287


class TestSymPattern:
    def test_sym_checks_the_p_block(self):
        # |{4,5,6,7} - {1,2,3}| = 4 lies outside L = [3]: P is [[-6, 0], [6, -6]]
        fam = SetFamily.from_sets(7, [{1, 2, 3}, {4, 5, 6, 7}])
        sys_ = build_midband_system(fam, 3, "sym")
        assert [row[:2] for row in matrix(sys_)[:2]] == [[-6, 0], [6, -6]]
        report = verify_independence(sys_)
        assert (report.rank, report.total_polys) == (25, 25)
        assert not report.pattern_ok
        assert report.pattern_failures == ["P entry (1, 0) below the diagonal is nonzero"]
        # P reads 1 + 2 entries; H (one row) reads 2 members, 1 shifted, 1 index probe
        assert report.stats["pattern_cells"] == 7


class TestTriangularFailures:
    """The two triangular failures no built system meets, since the
    builders fix g(0) != 0 and reject members outside the window's band:
    each is reached by swapping one block of a built close system."""

    def close_system(self):
        witness = max_family(ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=5, L={1, 2})).witness
        return build_midband_system(witness, 2, "close")

    def test_p_diagonal_vanishes(self):
        sys_ = self.close_system()
        # g(y) = y(y-1)(y-2) is zero on the diagonal g(0) and still zero
        # below it
        forms = {**sys_.forms, "P": _difference_forms(sys_.order, FactoredIntPoly(1, (0, 1, 2)))}
        mutated = dataclasses.replace(sys_, forms=forms)
        failures = verify_independence(mutated).pattern_failures
        expected = [f"P diagonal ({i}, {i}) vanishes" for i in range(len(sys_.order))]
        assert failures == expected == pattern_failures_by_entries(mutated)

    def test_window_polynomial_misses_members(self):
        sys_ = self.close_system()
        # every member has size 2, and a window with the one root 3 is
        # nonzero there
        window = _window_forms(3, 3, (1 << 5) - 1, sys_.probes["window_masks"])
        mutated = dataclasses.replace(sys_, forms={**sys_.forms, "H": window})
        failures = verify_independence(mutated).pattern_failures
        expected = [f"window polynomial 0 does not vanish on member {j}" for j in range(len(sys_.order))]
        assert failures == expected == pattern_failures_by_entries(mutated)


def pattern_failures_by_entries(sys_):
    """Oracle: the pattern failures of `verify_independence`, reading every
    matrix entry the pattern covers one by one through `_ClosedForm.at`."""
    fam = sys_.probes["family"]
    failures = []
    if sys_.meta["system"] == "diff":
        p, g0 = sys_.meta["p"], sys_.meta["g_at_zero"]
        v0 = vp(p, g0) if g0 else None
        for i, form in enumerate(sys_.forms["P"]):
            for j, val in enumerate(form.at(fam)):
                if j != i and val and (v0 is None or vp(p, val) <= v0):
                    failures.append(
                        f"off-diagonal entry ({i}, {j}) has valuation {vp(p, val)}, not above {v0}"
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
    """Systems of every variant: random families of mixed sizes, layers
    and layers with one member replaced by a proper subset."""
    out = []
    for _ in range(count):
        variant = rng.choice(["minus", "plus", "sym", "close"])
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
            out.append(build_midband_system(fam, s, variant))
            continue
        roots = tuple(rng.randint(-2, n + 2) for _ in range(rng.randint(1, 4)))
        g = FactoredIntPoly(rng.choice([1, 2, -3]), roots)
        pp = PrimePower.from_q(rng.choice([2, 3, 4, 5, 7, 8, 9]))
        out.append(build_diff_sperner_system(fam, g, pp, variant))
    return out


class TestPatternOracle:
    def test_failures_match_entry_by_entry(self):
        failing = {}
        for sys_ in seeded_systems(random.Random(31), 600):
            expected = pattern_failures_by_entries(sys_)
            if sys_.meta["system"] == "diff":
                got = _padic_pattern(sys_)[0]
            else:
                got = _triangular_pattern(sys_)[0]
            assert got == expected, (sys_.meta, sys_.family)
            name = sys_.meta.get("variant", sys_.meta["system"])
            failing.setdefault(name, [0, 0])[bool(expected)] += 1
        assert sorted(failing) == ["close", "minus", "plus", "sym"]
        assert all(ok and bad for ok, bad in failing.values()), failing

    def test_five_layer_of_13_against_entries(self):
        pp8 = PrimePower.from_q(8)
        g = FactoredIntPoly(1, (1, 2, 3, 4, 5))  # R22's polynomial for L = [5] mod 8
        layer = [m for m in range(1 << 13) if m.bit_count() == 5]
        victim = layer[200]
        fam = SetFamily(13, tuple(victim & (victim - 1) if m == victim else m for m in layer))
        sys_ = build_diff_sperner_system(fam, g, pp8)
        report = verify_independence(sys_)
        assert report.pattern_failures
        assert report.pattern_failures == pattern_failures_by_entries(sys_)
