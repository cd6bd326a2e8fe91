import math
from itertools import combinations

import pytest

from qsperner.bounds import (
    SeparationFailure,
    _per_alpha_construction,
    best_bound,
    binom_sum,
    bound_from_seppoly,
    first_zero_separator,
)
from qsperner.closure import IntervalL, closure_length_bound, q_closure
from qsperner.families import ConstraintSpec, Kind, max_family
from qsperner.padic import PrimePower
from qsperner.seppoly import FactoredIntPoly, canonical_interval_poly, check_separation

PP = PrimePower.from_q


def spec_of(kind, n, L, q=None, residue=None):
    return ConstraintSpec(
        kind=kind,
        n=n,
        L=frozenset(L),
        modulus=PP(q) if q else None,
        uniform_residue=residue,
    )


class TestBinomSum:
    def test_plain(self):
        b = binom_sum(6, 0, 3, "n")
        assert b.value == 1 + 6 + 15 + 20

    def test_column_n_minus_1(self):
        assert binom_sum(6, 0, 3, "n-1").value == 1 + 5 + 10 + 10 == 26

    def test_clamping(self):
        assert binom_sum(4, 0, 100, "n").value == 16
        assert binom_sum(4, -3, 2, "n").value == 1 + 4 + 6
        assert binom_sum(4, 5, 2, "n").value == 0

    def test_bad_column(self):
        with pytest.raises(ValueError):
            binom_sum(4, 0, 1, "m")


class TestBestBoundExamples:
    def test_full_interval_mod_4(self):
        best, _ = best_bound(spec_of(Kind.DIFF_SPERNER, 6, {1, 2, 3}, q=4))
        assert best.bound.value == 26
        assert best.theorem_id == "R5"

    def test_top_singleton_mod_4(self):
        best, _ = best_bound(spec_of(Kind.DIFF_SPERNER, 6, {3}, q=4))
        assert best.bound.value == 6
        assert best.theorem_id == "R4"

    def test_progression_mod_8(self):
        best, _ = best_bound(spec_of(Kind.DIFF_SPERNER, 6, {2, 4}, q=8))
        assert best.bound.value == 22
        assert best.theorem_id == "R6"

    def test_close_sperner_interval(self):
        best, _ = best_bound(spec_of(Kind.CLOSE_SPERNER, 5, {1, 2}))
        assert best.bound.value == 15
        assert best.theorem_id == "R12"

    def test_intersecting_interval_improvement(self):
        best, certs = best_bound(spec_of(Kind.INTERSECTING, 8, {0, 1}, q=9))
        r18 = [c for c in certs if c.theorem_id == "R18"]
        assert r18 and r18[0].bound.value == sum(math.comb(8, i) for i in range(5))
        # the older interval rule requires |L| <= n - q + 2, which fails here
        assert not any(c.theorem_id == "R17" for c in certs)
        assert best.bound.value <= r18[0].bound.value

    def test_close_singleton_linear_bound(self):
        best, _ = best_bound(spec_of(Kind.CLOSE_SPERNER, 9, {4}))
        assert best.bound.value == 9  # |L| = 1 gives the linear bound

    def test_empty_L_rejected(self):
        with pytest.raises(ValueError):
            best_bound(spec_of(Kind.DIFF_SPERNER, 5, set(), q=4))

    def test_all_hypotheses_true(self):
        _, certs = best_bound(spec_of(Kind.DIFF_SPERNER, 7, {1, 2}, q=9))
        for cert in certs:
            assert all(ok for _, ok in cert.hypotheses)

    def test_nonmodular_lift_records_prime(self):
        best, certs = best_bound(spec_of(Kind.DIFF_SPERNER, 5, {1, 2}))
        lifted = [
            c
            for c in certs
            if any("smallest prime" in text for text, _ in c.hypotheses)
        ]
        assert lifted
        assert best.bound.value == 11  # prime-modulus route at p = 7

    def test_midband_rules_fire(self):
        best, _ = best_bound(spec_of(Kind.DIFF_SPERNER, 4, {1, 2}))
        assert best.theorem_id == "R10"
        assert best.bound.value == math.comb(3, 1) + math.comb(3, 2)

    def test_uniform_kind(self):
        best, certs = best_bound(
            spec_of(Kind.INTERSECTING_UNIFORM, 8, set(), q=4, residue=0)
        )
        r16 = [c for c in certs if c.theorem_id == "R16"]
        assert r16 and r16[0].bound.value == math.comb(8, 3)
        assert best.bound.value <= math.comb(8, 3)

    def test_hamming_modular(self):
        best, certs = best_bound(spec_of(Kind.HAMMING, 6, {1, 2}, q=3))
        # only the full-column bound is sound in the Hamming setting
        assert best.bound.value == sum(math.comb(6, i) for i in range(3))
        assert all(c.bound.column == "n" for c in certs)

    def test_hamming_column_upgrade_would_be_unsound(self):
        # all 8 even-weight subsets of [4] have pairwise symmetric
        # differences 2 or 4, hence in {1, 2} mod 3; any bound below 8
        # would be wrong, and the (n-1)-column variant would give 7
        from qsperner.families import SetFamily, satisfies

        members = [m for m in range(16) if m.bit_count() % 2 == 0]
        fam = SetFamily(4, tuple(members))
        spec = spec_of(Kind.HAMMING, 4, {1, 2}, q=3)
        assert satisfies(spec, fam)
        assert len(fam) == 8 > sum(math.comb(3, i) for i in range(3))
        best, _ = best_bound(spec)
        assert best.bound.value >= 8

    def test_hamming_nonmodular_delsarte(self):
        best, certs = best_bound(spec_of(Kind.HAMMING, 6, {2, 4}))
        r21 = [c for c in certs if c.theorem_id == "R21"]
        assert any(c.bound.value == sum(math.comb(6, i) for i in range(3)) for c in r21)

    def test_snevily_nonmodular(self):
        best, certs = best_bound(spec_of(Kind.INTERSECTING, 7, {1, 2}))
        r13 = [c for c in certs if c.theorem_id == "R13"]
        assert r13
        assert r13[0].bound.value == sum(math.comb(6, i) for i in range(3))


class TestPortfolioProperties:
    def test_minimum_dominates(self):
        best, certs = best_bound(spec_of(Kind.DIFF_SPERNER, 7, {1, 2, 3}, q=8))
        assert all(c.bound.value >= best.bound.value for c in certs)

    def test_interval_rule_monotone_in_L(self):
        # Enlarging an interval never shrinks the interval-route minimum,
        # provided the constructive closure certificate is counted among
        # the routes: a closed superinterval of the larger L also covers
        # the smaller one.  The closure-length descriptor alone is not
        # monotone in s (e.g. 6 then 4 at q=8, sizes 3 and 4), so the
        # declarative rules by themselves do not satisfy this.
        for q in (4, 8, 9, 16):
            n = 7
            for lo in range(1, q):
                previous = None
                for hi in range(lo, q):
                    spec = spec_of(Kind.DIFF_SPERNER, n, range(lo, hi + 1), q=q)
                    _, certs = best_bound(spec)
                    current = min(
                        c.bound.value
                        for c in certs
                        if c.theorem_id in ("R4", "R5", "R8", "R22")
                    )
                    if previous is not None:
                        assert previous <= current, (q, lo, hi)
                    previous = current

    def test_prime_square_branch_crossover(self):
        # for q = p*p the 2s-1 branch wins under the closure branch exactly
        # while s < p (comparing descriptor degrees)
        for q in (4, 9, 25):
            pp = PP(q)
            for s in range(1, q - 1):
                mu = closure_length_bound(pp, s)
                if s < pp.p:
                    assert 2 * s - 1 < mu
                else:
                    assert mu <= 2 * s - 1

    def test_constructive_rule_matches_declarative(self):
        # the explicit-polynomial route reproduces the full-range rule
        for q in (3, 4, 8):
            n = 7
            spec = spec_of(Kind.DIFF_SPERNER, n, range(1, q), q=q)
            _, certs = best_bound(spec)
            r5 = next(c for c in certs if c.theorem_id == "R5")
            r22 = next(c for c in certs if c.theorem_id == "R22")
            assert r22.bound.value <= r5.bound.value

    def test_removed_rules_never_set_the_minimum(self):
        # R1 (prime q) and R3 (L = [s], q > s) bounded by sum C(n, i) over
        # i <= s = |L|.  R2 has R1's hypotheses with the n-1 column, and R4
        # at b = s has R3's count of hypotheses with it, so both left the
        # portfolio.  Re-implemented here, neither may beat the best.
        for q in (None, 2, 3, 4, 5, 7, 8, 9):
            for s in (1, 2, 3):
                for L in combinations(range(1, q or 10), s):
                    for n in range(13):
                        best, certs = best_bound(spec_of(Kind.DIFF_SPERNER, n, L, q=q))
                        assert not {"R1", "R3"} & {c.theorem_id for c in certs}
                        if q is None:  # read modulo the smallest prime above max(L) and n
                            p = next(m for m in range(max(L[-1], n) + 1, 64) if all(m % d for d in range(2, m)))
                            pp, lift = PP(p), 1
                        else:
                            pp, lift = PP(q), 0
                        value = sum(math.comb(n, i) for i in range(min(s, n) + 1))
                        removed = []
                        if pp.k == 1:
                            removed.append((value, 3 + lift, 1))
                        if L == tuple(range(1, s + 1)) and pp.q > s:
                            removed.append((value, 4 + lift, 3))
                        kept = (best.bound.value, len(best.hypotheses), int(best.theorem_id[1:]))
                        assert kept == min([kept, *removed]), (q, L, n)

    def test_soundness_small_sweep(self):
        pp = PP(4)
        for n in (4, 5):
            for lo in range(1, 4):
                for hi in range(lo, 4):
                    spec = spec_of(Kind.DIFF_SPERNER, n, range(lo, hi + 1), q=4)
                    best, _ = best_bound(spec)
                    found = max_family(spec)
                    assert found.exact
                    assert found.max_size <= best.bound.value


class TestBoundFromSeppoly:
    def test_diff_full_range(self):
        spec = spec_of(Kind.DIFF_SPERNER, 6, {1, 2, 3}, q=4)
        cert = bound_from_seppoly(spec, FactoredIntPoly(1, (1, 2, 3)))
        assert cert.bound.column == "n-1"
        assert cert.bound.value == 26

    def test_intersecting_per_alpha_reproduces_generic(self):
        q, n = 4, 6
        spec = spec_of(Kind.INTERSECTING, n, {0, 1}, q=q)
        full = FactoredIntPoly(1, tuple(range(1, q)))
        per = {a: full.shift_reflect(a) for a in (2, 3)}
        cert = bound_from_seppoly(spec, per_alpha=per)
        assert cert.bound.value == sum(math.comb(n, i) for i in range(q))
        assert cert.bound.column == "n"

    def test_hamming_stays_on_full_column(self):
        spec = spec_of(Kind.HAMMING, 6, {1, 2}, q=3)
        cert = bound_from_seppoly(spec, FactoredIntPoly(1, (1, 2)))
        assert cert.bound.column == "n"
        assert cert.bound.value == sum(math.comb(6, i) for i in range(3))
        # the shifted separation itself holds; only the column upgrade
        # is withheld for Hamming constraints
        assert cert.auxiliary["shifted_minus_ok"]

    def test_failure_names_class(self):
        spec = spec_of(Kind.DIFF_SPERNER, 6, {1, 2}, q=4)
        with pytest.raises(SeparationFailure) as info:
            bound_from_seppoly(spec, FactoredIntPoly(1, (3,)))
        assert info.value.failing_class in (1, 2)

    def test_intersecting_missing_alpha(self):
        spec = spec_of(Kind.INTERSECTING, 5, {0}, q=3)
        with pytest.raises(SeparationFailure):
            bound_from_seppoly(
                spec, per_alpha={1: FactoredIntPoly(1, (1, 2)).shift_reflect(1)}
            )

    def test_search_route(self):
        spec = spec_of(Kind.DIFF_SPERNER, 6, {2}, q=4)
        cert = bound_from_seppoly(spec, search_max_degree=2)
        assert cert.bound.value <= sum(math.comb(6, i) for i in range(2))

    def test_nonmodular_rejected(self):
        spec = spec_of(Kind.DIFF_SPERNER, 6, {1})
        with pytest.raises(ValueError):
            bound_from_seppoly(spec, FactoredIntPoly(1, (1,)))


def zero_candidates(pp, R):
    """The plain roots R, the closed superinterval of their hull and the
    full range, built eagerly."""
    closed = q_closure(pp, IntervalL(R[0], R[-1])).interval
    cands = [
        ("given residues", canonical_interval_poly(R)),
        (f"closed superinterval {closed}", canonical_interval_poly(closed.residues())),
    ]
    if pp.q > 2:
        cands.append(("full range", canonical_interval_poly(range(1, pp.q))))
    return cands


def min_degree_separator(pp, R):
    """Reference rule: the separating candidate of least degree, the
    earliest on ties, each judged by the full report."""
    best = None
    for label, h in zero_candidates(pp, R):
        if check_separation(pp, h, 0, R).separates:
            if best is None or h.degree < best[1].degree:
                best = (label, h)
    return best


def r22_reference(kind, n, pp, R):
    """Reference R22 choice for difference and Hamming kinds: every
    separating candidate with its full report, least (bound, degree)
    first, the earliest on ties; only difference kinds take the n-1
    column on a shifted separation."""
    best = None
    for label, h in zero_candidates(pp, R):
        rep = check_separation(pp, h, 0, R)
        if not rep.separates:
            continue
        shifted = rep.shifted_minus_ok or rep.shifted_plus_ok
        column = "n-1" if kind is Kind.DIFF_SPERNER and shifted else "n"
        entry = (binom_sum(n, 0, h.degree, column).value, h.degree, h, column)
        if best is None or entry[:2] < best[:2]:
            best = entry
    return best


class TestCandidateOrder:
    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    def test_per_alpha_matches_min_degree_rule(self, q):
        pp = PP(q)
        for size in (1, 2, 3):
            for R in combinations(range(1, q), size):
                label, h = min_degree_separator(pp, R)
                assert first_zero_separator(pp, R) == (label, h)
                # an alpha and L whose reflected residues are R
                alpha = R[-1]
                L = tuple(sorted((alpha - r) % q for r in R))
                assert _per_alpha_construction(pp, L, alpha) == (
                    label,
                    h.shift_reflect(alpha),
                )

    def test_q2(self):
        pp = PP(2)
        assert first_zero_separator(pp, (1,)) == min_degree_separator(pp, (1,))

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    @pytest.mark.parametrize("kind", [Kind.DIFF_SPERNER, Kind.HAMMING])
    def test_r22_matches_reference(self, q, kind):
        pp = PP(q)
        for size in (1, 2) if q > 16 else (1, 2, 3):
            for R in combinations(range(1, q), size):
                for n in (2, 5, 10, 40):
                    _, certs = best_bound(spec_of(kind, n, R, q=q))
                    (cert,) = [c for c in certs if c.theorem_id == "R22"]
                    _, _, h, column = r22_reference(kind, n, pp, R)
                    assert cert.bound == binom_sum(n, 0, h.degree, column)
                    assert cert.auxiliary["roots"] == list(h.roots)
