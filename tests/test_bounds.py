import hashlib
import math
import random
import re
import sys
from dataclasses import replace
from functools import partial
from itertools import combinations

import pytest

from qsperner import bounds, padic
from qsperner.bounds import (
    SeparationFailure,
    best_bound,
    binom_sum,
    bound_from_seppoly,
)
from qsperner.cli import _long_ints
from qsperner.closure import IntervalL, closure_length_bound, q_closure
from qsperner.families import ConstraintSpec, Kind, max_family
from qsperner.padic import INFINITY, PrimePower, vp, vp_factorial
from qsperner.seppoly import (
    FactoredIntPoly,
    check_separation,
    min_valuation_over_class,
    search_min_degree,
    separates,
)

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

    @pytest.mark.parametrize("column", ["n", "n-1"])
    def test_matches_term_by_term(self, column):
        # n = 0 and 1 give widths -1, 0 and 1; bounds past the width, below
        # 0 and crossed (lower > upper) are all read
        for n in (0, 1, 2, 5, 16, 40, 1030):
            width = n if column == "n" else n - 1
            for lower in range(-2, min(n, 45) + 3):
                for upper in range(-2, min(n, 45) + 3):
                    expected = sum(
                        math.comb(width, i) for i in range(max(lower, 0), min(upper, width) + 1)
                    )
                    b = binom_sum(n, lower, upper, column)
                    assert b == bounds.BinomSum(lower, upper, column, expected), (n, lower, upper)

    @pytest.mark.parametrize("column", ["n", "n-1"])
    def test_wide_rows_match_comb(self, column):
        # lower > 0 starts a span mid-row, upper past the width clamps
        for n in (1025, 1026, 1100, 30000):
            width = n if column == "n" else n - 1
            for lower, upper in ((0, 4), (1, 1), (3, 200), (500, 700), (2950, 3000), (width - 3, width + 5)):
                expected = sum(math.comb(width, i) for i in range(lower, min(upper, width) + 1))
                assert binom_sum(n, lower, upper, column).value == expected, (n, lower, upper)

    def test_rows_grow_in_any_order(self):
        # a read must not depend on which spans the memo already holds
        bounds._column_sum.cache_clear()
        for upper in (3, 40, 1, 25, 2):
            assert binom_sum(40, 0, upper).value == sum(math.comb(40, i) for i in range(upper + 1))
        assert binom_sum(1030, 0, 1030).value == 2**1030

    def test_spans_over_half_a_row_match_comb(self):
        # a span of more than half the row is 2^width less its two tails,
        # one of which may be empty
        for width in (1, 2, 7, 8, 33, 1030):
            for lo in range(0, width + 1, max(1, width // 9)):
                for hi in (width // 2 + lo, width - 1, width):
                    if 2 * (hi - lo + 1) > width + 1 and hi <= width:
                        expected = sum(math.comb(width, i) for i in range(lo, hi + 1))
                        assert binom_sum(width, lo, hi).value == expected, (width, lo, hi)
                        assert binom_sum(width + 1, lo, hi, "n-1").value == expected, (width, lo, hi)
        # a column running to the end of a wide row costs no terms
        assert binom_sum(100000, 2, 100000).value == 2**100000 - 1 - 100000


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

    def test_r20_never_sets_the_minimum(self):
        # R20 (q = p^2, L an interval of size s modulo q) bounded by sum
        # C(n, i) over i <= 2s - 1 with three hypotheses; the proof that R22,
        # R14 or R19 always comes first is in `bounds`' docstring.
        # Re-implemented here over every cyclic interval, it may not beat
        # the best.
        for q in (4, 9, 25):
            for L in {frozenset((a + i) % q for i in range(s)) for a in range(q) for s in range(1, q + 1)}:
                for n in (1, 3, 6, 10, 24):
                    best, certs = best_bound(spec_of(Kind.INTERSECTING, n, L, q=q))
                    value = sum(math.comb(n, i) for i in range(min(2 * len(L) - 1, n) + 1))
                    kept = (best.bound.value, len(best.hypotheses), int(best.theorem_id[1:]))
                    assert kept < (value, 3, 20), (q, sorted(L), n)
                    assert "R20" not in {c.theorem_id for c in certs}

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

    def test_mod_interval_matches_rotation(self):
        # L is an interval modulo q when some start in L runs through all
        # of L in |L| steps, wrapping past q - 1
        for q in (2, 3, 4, 5, 7, 8, 9):
            for size in range(1, q + 1):
                for L in combinations(range(q), size):
                    rotated = any(all((a + i) % q in L for i in range(size)) for a in L)
                    ctx = bounds._Ctx(Kind.INTERSECTING, 6, L, PP(q))
                    assert ctx.mod_interval == (size if rotated else None), (q, L)

    def test_uniform_wide_modulus(self):
        """L holds every residue but the middle one, an interval modulo q
        that the reading never lists.  R19 always fires and R17 from
        n = 2q - 3 on.  R18, which this test read while the reading ran
        every intersecting rule, ties R19 with one hypothesis more and is
        no longer run."""
        spec = spec_of(Kind.INTERSECTING_UNIFORM, 10, (), q=1 << 15, residue=1 << 14)
        best, certs = best_bound(spec)
        assert (best.theorem_id, best.bound.value) == ("R19", 1024)
        assert [c.theorem_id for c in certs] == ["R19"]
        q = 1 << 12
        best, certs = best_bound(spec_of(Kind.INTERSECTING_UNIFORM, 2 * q - 3, (), q=q, residue=q // 2))
        assert [c.theorem_id for c in certs] == ["R17", "R19"]
        assert best.hypotheses[2:4] == (
            ("L is an interval in the modulo-q sense", True),
            (f"|L| = {q - 1} <= n - q + 2 = {q - 1}", True),
        )


class TestReadings:
    """The lifted and uniform readings run only the rules that can come
    first in them; the proofs are in the `bounds` docstring.  The rules
    they leave out are run here as the engine used to run them, through
    `bounds._run` on the listed residues or on `_lifted_ctx`, and none may
    yield a certificate that sorts before `best_bound`'s winner."""

    @staticmethod
    def dropped_certificates(spec, ctx, rules):
        best, _ = best_bound(spec)
        certs = bounds._run(ctx, rules)
        for cert in certs:
            assert bounds._cert_key(cert) > bounds._cert_key(best), (spec, cert)
        return {cert.theorem_id for cert in certs}

    def test_uniform(self):
        # every prime power q <= 49, every residue r, five n
        modular = bounds._PORTFOLIO[Kind.INTERSECTING][1]
        dropped = [rule for rule in modular if rule.theorem_id not in ("R17", "R19")]
        fired = set()
        for q in prime_powers(49):
            for r in range(q):
                L = tuple(x for x in range(q) if x != r)
                note = f"uniform residue {r} read as L-avoiding L-intersecting with L = all residues except {r}"
                for n in (1, q - 1, 2 * q - 2, 2 * q, 5 * q):
                    spec = spec_of(Kind.INTERSECTING_UNIFORM, n, (), q=q, residue=r)
                    ctx = bounds._Ctx(Kind.INTERSECTING, n, L, PP(q), note)
                    fired |= self.dropped_certificates(spec, ctx, dropped)
        assert fired == {"R14", "R15", "R18", "R22"}

    @pytest.mark.parametrize(
        "kind, low, expected",
        [
            (Kind.DIFF_SPERNER, 1, {"R4", "R5", "R6", "R7", "R8", "R9", "R22"}),
            (Kind.HAMMING, 1, {"R21", "R22"}),
            (Kind.INTERSECTING, 0, {"R15", "R18", "R22"}),
        ],
        ids=["diff-sperner", "hamming", "intersecting"],
    )
    def test_lifted(self, kind, low, expected):
        # every L of at most 3 elements in [low, n] at n <= 14
        _, modular, lifted = bounds._PORTFOLIO[kind]
        dropped = [rule for rule in modular if rule not in lifted]
        fired = set()
        for n in range(15):
            for size in (1, 2, 3):
                for L in combinations(range(low, n + 1), size):
                    ctx = bounds._lifted_ctx(kind, n, L)
                    fired |= self.dropped_certificates(spec_of(kind, n, L), ctx, dropped)
        assert fired == expected

    @pytest.mark.parametrize("q", [1 << 23, 1 << 40, 3**30, 1 << 64], ids=["2^23", "2^40", "3^30", "2^64"])
    def test_uniform_above_the_table_limit(self, q):
        """Refused while the reading listed its q - 1 residues, which
        took 2.5 s and 570 MB at q = 2^22; now R19 answers alone.  At
        q = 2^64 the q - 1 residues are past the largest `len`, which
        the reading once took."""
        best, certs = best_bound(spec_of(Kind.INTERSECTING_UNIFORM, 1000, (), q=q, residue=1))
        assert (best.theorem_id, best.bound.value) == ("R19", 2**1000)
        assert certs == [best]

    def test_no_class_minima(self, monkeypatch):
        # the uniform and lifted readings run no R22, so they read no list
        # of class minima, even at q = 2^22
        def refuse(*args):
            raise AssertionError("a list of class minima was built")

        monkeypatch.setattr(bounds, "_class_minima", refuse)
        specs = [spec_of(Kind.INTERSECTING_UNIFORM, 10, (), q=q, residue=1) for q in (2, 9, 1 << 22)]
        specs += [
            spec_of(kind, 10, L)
            for kind in (Kind.DIFF_SPERNER, Kind.CLOSE_SPERNER, Kind.HAMMING, Kind.INTERSECTING)
            for L in ((1,), (1, 2, 3), (2, 5, 9))
        ]
        specs.append(spec_of(Kind.INTERSECTING, 10, (0, 1)))
        for spec in specs:
            assert best_bound(spec)[1]


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

    @pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "lowered-limit"])
    def test_refusals_past_the_int_text_limit(self, limit):
        """Modulo 2^14300, the residues 1, 2^14299 and 3 * 2^14298 do not
        separate 0 from themselves (class 1 has 14,300 against v0 =
        28,597), and the closure of their hull has more than 2^22 roots.
        So R22's own choice and the residues given as a polynomial are
        both refused, in texts that name q, the classes and the closure
        the same way under any limit."""
        L = (1, 2**14299, 3 * 2**14298)
        spec = ConstraintSpec(Kind.DIFF_SPERNER, 30, frozenset(L), PrimePower(2, 14300))
        messages = []
        for text_limit in (limit, 0):
            saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(text_limit)
            try:
                with pytest.raises(ValueError) as choice:
                    bound_from_seppoly(spec)
                with pytest.raises(SeparationFailure) as given:
                    bound_from_seppoly(spec, FactoredIntPoly(1, L))
            finally:
                sys.set_int_max_str_digits(saved)
            messages.append((str(choice.value), str(given.value)))
        assert messages[0] == messages[1]
        assert messages[0][0].startswith(
            "the given residues do not separate 0 from L modulo 2^14300, and their closed superinterval {1.."
        )
        assert messages[0][1] == "polynomial does not separate 0 from class 1 (mod 2^14300)"

    @pytest.mark.parametrize(
        "roots, message, ell, v0, minima, minus_ok, plus_ok",
        [
            ((0,), "polynomial for alpha = 3 fails on class 1 (mod 4)", 1, 0, {0: 2, 1: 0}, True, True),
            ((1, 2), "polynomial for alpha = 3 fails on class 0 (mod 4)", 0, 1, {0: 1, 1: 2}, True, True),
            ((3,), "polynomial for alpha = 3 fails on class 0 (mod 4)", 0, None, {0: 0, 1: 1}, False, False),
        ],
    )
    def test_intersecting_failure_report(
        self, monkeypatch, roots, message, ell, v0, minima, minus_ok, plus_ok
    ):
        """Only the failing alpha gets a full report, and the failure
        carries it; v0 None stands for an infinite valuation."""
        reported = []

        def spy(pp, g, alpha, L):
            reported.append(alpha)
            return check_separation(pp, g, alpha, L)

        monkeypatch.setattr(bounds, "check_separation", spy)
        spec = spec_of(Kind.INTERSECTING, 6, {0, 1}, q=4)
        full = FactoredIntPoly(1, (1, 2, 3))
        per = {2: full.shift_reflect(2), 3: FactoredIntPoly(1, roots)}
        with pytest.raises(SeparationFailure) as info:
            bound_from_seppoly(spec, per_alpha=per)
        assert type(info.value) is SeparationFailure
        assert str(info.value) == message
        assert info.value.failing_class == ell
        rep = info.value.report
        assert (rep.alpha, rep.separates) == (3, False)
        assert rep.v0 == (INFINITY if v0 is None else v0)
        assert rep.class_minima == minima
        assert (rep.shifted_minus_ok, rep.shifted_plus_ok) == (minus_ok, plus_ok)
        assert reported == [3]

    def test_intersecting_certificate_without_reports(self, monkeypatch):
        monkeypatch.setattr(bounds, "check_separation", None)
        spec = spec_of(Kind.INTERSECTING, 6, {0, 1}, q=4)
        full = FactoredIntPoly(1, (1, 2, 3))
        cert = bound_from_seppoly(spec, per_alpha={a: full.shift_reflect(a) for a in (2, 3)})
        assert cert.theorem_id == "R22"
        assert cert.hypotheses == (
            ("family is 4-modular L-avoiding L-intersecting", True),
            ("modulus 4 is a prime power", True),
            ("every residue outside L has a verified separating polynomial", True),
            ("maximum degree used is 3", True),
        )
        assert (cert.bound.lower, cert.bound.upper, cert.bound.column, cert.bound.value) == (0, 3, "n", 42)
        assert cert.auxiliary == {"per_alpha_degrees": {2: 3, 3: 3}}

    def test_intersecting_missing_alpha(self):
        spec = spec_of(Kind.INTERSECTING, 5, {0}, q=3)
        with pytest.raises(SeparationFailure):
            bound_from_seppoly(
                spec, per_alpha={1: FactoredIntPoly(1, (1, 2)).shift_reflect(1)}
            )

    def test_intersecting_root_congruent_to_alpha_refused(self):
        # (y-5)(y-2)^2 separates 1 from class 2 modulo 4, judged at 1
        # alone, but vanishes at 5 == 1 (mod 4)
        spec = spec_of(Kind.INTERSECTING, 8, {2}, q=4)
        per = {
            0: FactoredIntPoly(1, (2,)),
            1: FactoredIntPoly(1, (5, 2, 2)),
            3: FactoredIntPoly(1, (2,)),
        }
        assert separates(PP(4), per[1], 1, (2,))
        with pytest.raises(SeparationFailure) as info:
            bound_from_seppoly(spec, per_alpha=per)
        assert str(info.value) == "polynomial for alpha = 1 has a root congruent to 1 (mod 4)"
        assert info.value.failing_class == 1
        per[1] = FactoredIntPoly(1, (2,))
        assert bound_from_seppoly(spec, per_alpha=per).bound.value == 9

    def test_search_route(self):
        spec = spec_of(Kind.DIFF_SPERNER, 6, {2}, q=4)
        g, _ = search_min_degree(PP(4), 0, spec.L, 2)
        cert = bound_from_seppoly(spec, g)
        assert cert.bound.value <= sum(math.comb(6, i) for i in range(2))

    def test_plain_roots_above_the_table_limit(self):
        # the plain roots {1, 2^39} separate in the n column (7); their
        # hull is already q-closed and would win in the n-1 column (4),
        # but a polynomial of 2^39 roots is not built
        q, half = 1 << 40, 1 << 39
        assert q_closure(PP(q), IntervalL(1, half)) == IntervalL(1, half)
        assert binom_sum(3, 0, half, "n-1").value == 4
        cert = bound_from_seppoly(spec_of(Kind.DIFF_SPERNER, 3, {1, half}, q=q))
        assert (cert.bound.value, cert.auxiliary["roots"]) == (7, [1, half])
        assert ("candidate roots from given residues", True) in cert.hypotheses

    def test_closure_above_the_table_limit_refused(self):
        # the plain roots fail at q = 2^40: v_p(g(0)) = 37 + 38 + 39 = 114,
        # class 2^37's minimum; their closure {1..2^39} is never built
        q = 1 << 40
        L = {1 << 37, 1 << 38, 1 << 39}
        g = FactoredIntPoly(1, tuple(sorted(L)))
        assert min_valuation_over_class(PP(q), g, 1 << 37) == vp(2, g(0)) == 114
        with pytest.raises(
            ValueError,
            match=r"^the given residues do not separate 0 from L modulo 1099511627776, and their closed "
            r"superinterval \{1\.\.549755813888\} has 549755813888 roots, above the limit 4194304$",
        ):
            bound_from_seppoly(spec_of(Kind.DIFF_SPERNER, 20, L, q=q))

    def test_intersecting_above_the_list_limit(self):
        # refused before the q - 2 residues outside L are listed
        spec = spec_of(Kind.INTERSECTING, 20, {0, 1}, q=1 << 40)
        with pytest.raises(
            ValueError, match="^q = 1099511627776 is above 4194304, the limit of the residues to list outside L$"
        ):
            bound_from_seppoly(spec)

    @pytest.mark.parametrize(
        "kind, L, argument, message",
        [
            (Kind.DIFF_SPERNER, {1}, {"per_alpha": {}}, "^kind diff-sperner takes one polynomial g, not per_alpha$"),
            (Kind.HAMMING, {1}, {"per_alpha": {}}, "^kind hamming takes one polynomial g, not per_alpha$"),
            (
                Kind.INTERSECTING, {0, 1}, {"g": FactoredIntPoly(1, (1,))},
                "^kind intersecting takes per_alpha polynomials, not one g$",
            ),
        ],
        ids=["diff-per-alpha", "hamming-per-alpha", "intersecting-g"],
    )
    def test_unread_polynomial_refused(self, kind, L, argument, message):
        with pytest.raises(ValueError, match=message):
            bound_from_seppoly(spec_of(kind, 6, L, q=4), **argument)

    def test_nonmodular_rejected(self):
        spec = spec_of(Kind.DIFF_SPERNER, 6, {1})
        with pytest.raises(ValueError, match="^bound_from_seppoly needs a modular constraint$"):
            bound_from_seppoly(spec, FactoredIntPoly(1, (1,)))

    def test_kind_without_r22_refused_before_L(self):
        # the uniform kind takes no L; it is refused for its kind, not for
        # its empty L
        spec = spec_of(Kind.INTERSECTING_UNIFORM, 10, (), q=4, residue=1)
        with pytest.raises(ValueError, match="^bound_from_seppoly does not apply to kind intersecting-uniform$"):
            bound_from_seppoly(spec)

    @pytest.mark.parametrize(
        "kind, L", [(Kind.CLOSE_SPERNER, {1}), (Kind.ANTICHAIN, ())], ids=["close-sperner", "antichain"]
    )
    def test_nonmodular_kind_without_r22_refused_for_its_kind(self, kind, L):
        # these kinds take no modulus, so they are not told to give one
        with pytest.raises(ValueError, match=f"^bound_from_seppoly does not apply to kind {kind.value}$"):
            bound_from_seppoly(spec_of(kind, 6, L))

    @pytest.mark.parametrize("kind", [Kind.DIFF_SPERNER, Kind.HAMMING, Kind.INTERSECTING])
    def test_empty_L_refused(self, kind):
        with pytest.raises(ValueError, match="^empty L is rejected$"):
            bound_from_seppoly(spec_of(kind, 6, (), q=4))

    def test_one_r22_record(self):
        """R22 is one record, listed under the modular rules of exactly
        the kinds the checker accepts."""
        holders = {
            kind: [rule is bounds._R22 for rule in modular if rule.theorem_id == "R22"]
            for kind, (_, modular, _) in bounds._PORTFOLIO.items()
        }
        assert holders == {
            Kind.DIFF_SPERNER: [True], Kind.CLOSE_SPERNER: [], Kind.INTERSECTING: [True], Kind.HAMMING: [True],
        }


def zero_candidates(pp, R):
    """The plain roots R, the closed superinterval of their hull and the
    full range, built eagerly."""
    closed = q_closure(pp, IntervalL(R[0], R[-1]))
    cands = [
        ("given residues", FactoredIntPoly(1, tuple(sorted(R)))),
        (f"closed superinterval {closed}", FactoredIntPoly(1, tuple(range(closed.lo, closed.hi + 1)))),
    ]
    if pp.q > 2:
        cands.append(("full range", FactoredIntPoly(1, tuple(range(1, pp.q)))))
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
                # an alpha and L whose reflected residues are R
                alpha = R[-1]
                L = tuple(sorted((alpha - r) % q for r in R))
                assert tuple(sorted((alpha - ell) % q for ell in L)) == R
                spec = spec_of(Kind.INTERSECTING, 10, L, q=q)
                (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
                assert r22.auxiliary["per_alpha_degrees"][alpha] == min_degree_separator(pp, R)[1].degree

    def test_q2(self):
        cert = bound_from_seppoly(spec_of(Kind.DIFF_SPERNER, 4, (1,), q=2))
        label, h = min_degree_separator(PP(2), (1,))
        assert cert.auxiliary["roots"] == list(h.roots)
        assert (f"candidate roots from {label}", True) in cert.hypotheses

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


def per_alpha_reference(spec):
    """The intersecting checker's former default route, kept as an oracle
    for R22's per-alpha choice: for each residue alpha outside L, the
    plain roots (alpha - L) mod q reflected to alpha's frame if
    `separates` passes them, else the reflected closure of their hull,
    judged by `separates` too.  Returns the chosen polynomial per alpha."""
    pp, q, L = spec.modulus, spec.modulus.q, tuple(sorted(spec.L))

    def candidates(R):
        yield R
        closed = q_closure(pp, IntervalL(R[0], R[-1]))
        yield tuple(range(closed.lo, closed.hi + 1))

    chosen = {}
    for alpha in (a for a in range(q) if a not in spec.L):
        for roots in candidates(tuple(sorted((alpha - ell) % q for ell in L))):
            h = FactoredIntPoly(1, roots).shift_reflect(alpha)
            if separates(pp, h, alpha, L):
                chosen[alpha] = h
                break
        assert alpha in chosen, (q, L, alpha)  # the closure always separates
    return chosen


def assert_checker_matches_reference(spec):
    """`bound_from_seppoly(spec)` is the certificate the explicit path
    states for the reference's polynomials."""
    assert bound_from_seppoly(spec) == bound_from_seppoly(spec, per_alpha=per_alpha_reference(spec))


def r22_sample_sets(q, lo):
    """Every singleton and pair of residues in [lo, q-1] for small q, and
    seeded 3- to 5-element sets for every q."""
    rng = random.Random(q)
    sets = [(a,) for a in range(lo, q)]
    if q <= 9:
        sets += list(combinations(range(lo, q), 2))
    sets += [tuple(sorted(rng.sample(range(lo, q), rng.randint(3, min(5, q - 1))))) for _ in range(12)]
    return sets


class TestR22Routes:
    """`best_bound` and `bound_from_seppoly` state R22 for the same
    polynomials in the same certificate."""

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 32, 49])
    @pytest.mark.parametrize("kind", [Kind.DIFF_SPERNER, Kind.HAMMING])
    def test_zero_separation(self, q, kind):
        for L in r22_sample_sets(q, 1):
            for n in (3, 10, 40):
                spec = spec_of(kind, n, L, q=q)
                (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
                g = FactoredIntPoly(r22.auxiliary["lead"], tuple(r22.auxiliary["roots"]))
                unlabelled = tuple(
                    h for h in r22.hypotheses if not h[0].startswith("candidate roots from ")
                )
                assert bound_from_seppoly(spec, g) == replace(r22, hypotheses=unlabelled)
                assert bound_from_seppoly(spec) == r22

    def test_closure_beats_separating_residues(self):
        # the plain residues 2..6 separate 0 from L modulo 16 with neither
        # shifted condition, for 638 in the n column; their closure 1..6
        # earns the n-1 column, 466, so R22 and its checker both take it
        spec = spec_of(Kind.DIFF_SPERNER, 10, range(2, 7), q=16)
        rep = check_separation(PP(16), FactoredIntPoly(1, tuple(range(2, 7))), 0, spec.L)
        assert rep.separates and not (rep.shifted_minus_ok or rep.shifted_plus_ok)
        (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
        assert (r22.auxiliary["roots"], r22.bound.value) == (list(range(1, 7)), 466)
        assert bound_from_seppoly(spec) == r22

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 32, 49])
    def test_per_alpha(self, q):
        for L in r22_sample_sets(q, 0):
            for n in (3, 10, 40):
                spec = spec_of(Kind.INTERSECTING, n, L, q=q)
                (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
                cert = bound_from_seppoly(spec)
                assert cert.bound == r22.bound
                assert cert.auxiliary["per_alpha_degrees"] == r22.auxiliary["per_alpha_degrees"]

    @pytest.mark.parametrize(
        "L",
        [range(31), [*range(3, 20), *range(40, 52)], range(100, 127)],
        ids=["from-0", "two-runs", "to-q-1"],
    )
    def test_per_alpha_closed_hulls(self, L):
        # long L at q = 128, where most residues fail the plain roots and
        # take the closure of their reflected hull, bounded by L's
        # neighbours of alpha: past L's end, before its start, between runs
        spec = spec_of(Kind.INTERSECTING, 40, L, q=128)
        (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
        degrees = r22.auxiliary["per_alpha_degrees"]
        assert sum(d != len(spec.L) for d in degrees.values()) >= 40
        cert = bound_from_seppoly(spec)
        assert cert.bound == r22.bound
        assert cert.auxiliary["per_alpha_degrees"] == degrees
        assert_checker_matches_reference(spec)

    def test_per_alpha_over_a_long_L(self):
        # 49,536 residues outside L = [0, 15999] at q = 2^16: each hull is
        # read off L's two neighbours of alpha, where a pass over L per
        # residue would take minutes
        spec = spec_of(Kind.INTERSECTING, 40, range(16000), q=65536)
        (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
        degrees = r22.auxiliary["per_alpha_degrees"]
        assert list(degrees) == list(range(16000, 65536))
        assert max(degrees.values()) == r22.bound.upper

    def test_no_residue_outside_L(self):
        spec = spec_of(Kind.INTERSECTING, 5, {0, 1, 2}, q=3)
        assert not [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
        cert = bound_from_seppoly(spec)
        assert (cert.bound.upper, cert.bound.value) == (0, 1)
        assert cert.auxiliary == {"per_alpha_degrees": {}}


def prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            PP(q)
        except ValueError:
            continue
        out.append(q)
    return out


class TestR22Table:
    """The intersecting R22 degrees, read from g_L's list of class minima,
    equal those of `bound_from_seppoly`, which reads g_L's class
    minima by the digit recursion, and both equal the reference route,
    which judges each candidate with `separates`."""

    def test_matches_separates_route(self):
        rng = random.Random(2022)
        chosen = set()
        for q in prime_powers(49):
            for size in range(1, min(6, q - 1) + 1):
                for _ in range(4):
                    L = tuple(sorted(rng.sample(range(q), size)))
                    spec = spec_of(Kind.INTERSECTING, 10, L, q=q)
                    (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
                    degrees = bound_from_seppoly(spec).auxiliary["per_alpha_degrees"]
                    assert r22.auxiliary["per_alpha_degrees"] == degrees, (q, L)
                    assert_checker_matches_reference(spec)
                    # a degree above |L| is a closure's
                    chosen |= {(d > size, d == q - 1) for d in degrees.values()}
        # some residues need a closed superinterval short of the full
        # range, some need all of [1, q-1], reached as the closure of the
        # hull
        assert {(True, False), (True, True)} <= chosen

    def test_bound_table_keys(self, load_script):
        # every modular intersecting key of the benchmark's bound table
        keys = [
            key
            for stratum in load_script("scripts/cert_digest.py").table_strata()
            for key in stratum
            if key[0] == "intersecting" and key[1] is not None
        ]
        assert len(keys) == 1688
        for _, q, L, _ in keys:
            assert_checker_matches_reference(spec_of(Kind.INTERSECTING, 10, L, q=q))

    def test_size_limit(self, monkeypatch):
        # the limit is inclusive: both R22 routes are granted at it and
        # abstain above it, where the other rules still answer
        monkeypatch.setattr(bounds, "_MAX_TABLE_Q", 25)
        assert len(bounds._class_minima(PP(25), (1, 2))) == 25
        for kind in (Kind.DIFF_SPERNER, Kind.HAMMING, Kind.INTERSECTING):
            for q, granted in ((25, True), (27, False)):
                ids = [c.theorem_id for c in best_bound(spec_of(kind, 10, (1, 2), q=q))[1]]
                assert ids and ("R22" in ids) is granted, (kind, q)


class TestClosureSeparates:
    """The proof in the `bounds` docstring, read through `seppoly`'s digit
    recursion rather than the list of class minima: the closure C of every
    interval in [1, q-1] separates 0 from its own residues, with both
    shifted conditions, and v_p(g_C(0)) = v_p(|C|!)."""

    def test_every_closure(self):
        count = 0
        for q in prime_powers(49):
            pp = PP(q)
            for lo in range(1, q):
                for hi in range(lo, q):
                    closed = q_closure(pp, IntervalL(lo, hi))
                    roots = tuple(range(closed.lo, closed.hi + 1))
                    rep = check_separation(pp, FactoredIntPoly(1, roots), 0, roots)
                    assert rep.separates and rep.shifted_minus_ok and rep.shifted_plus_ok, (q, lo, hi)
                    assert rep.v0 == vp_factorial(pp.p, closed.size), (q, lo, hi)
                    count += 1
        assert count == 7582


def run_root_sets(q, rng):
    """Seeded distinct roots in [1, q-1]: single runs, several runs, and
    wrap-adjacent sets holding both 1 and q-1."""
    top = q - 1
    sets = [(1,), (top,), tuple(range(1, q))]
    for _ in range(6):
        lo = rng.randint(1, top)
        sets.append(tuple(range(lo, rng.randint(lo, top) + 1)))
        sets.append(tuple(sorted(rng.sample(range(1, q), rng.randint(1, top)))))
        middle = rng.sample(range(2, top), rng.randint(0, top - 2)) if q > 2 else []
        sets.append(tuple(sorted({1, top, *middle})))
    return sets


class TestClassMinima:
    """`bounds._class_minima` lists the minimum of v_p(g) over every
    residue class for the monic g with the given distinct roots; the digit
    recursion of `seppoly` is the oracle."""

    def test_matches_min_valuation_over_class(self):
        rng = random.Random(49)
        for q in prime_powers(49):
            pp = PP(q)
            # sets holding 0, as an intersecting L may
            some = rng.sample(range(1, q), rng.randint(0, q - 1))
            with_zero = [(0,), tuple(range(q)), tuple(sorted({0, *some}))]
            for roots in run_root_sets(q, rng) + with_zero:
                g = FactoredIntPoly(1, roots)
                expected = [min_valuation_over_class(pp, g, c) for c in range(q)]
                assert bounds._class_minima(pp, roots) == expected, (q, roots)

    def test_plain_judge_matches_check_separation(self):
        # R22's judgement of the plain residues, from the portfolio's list
        # and from the checker's digit recursion, is `check_separation`'s
        rng = random.Random(7)
        for q in prime_powers(49):
            pp = PP(q)
            for roots in run_root_sets(q, rng):
                g = FactoredIntPoly(1, roots)
                rep = check_separation(pp, g, 0, roots)
                expected = (rep.v0, rep.shifted_minus_ok, rep.shifted_plus_ok) if rep.separates else None
                for minimum in (
                    bounds._class_minima(pp, roots).__getitem__,
                    partial(min_valuation_over_class, pp, g),
                ):
                    assert bounds._r22_plain(minimum, roots, q) == expected, (q, roots, minimum)


class TestFrontier:
    """Portfolios with L the odd residues at n = 40: difference and Hamming
    modulo 2^14, intersecting modulo 2^12.  The plain roots are q/2
    residues, none adjacent; reading them as runs of consecutive roots
    took 20-25 s per difference or Hamming spec, and the digests were
    taken on that reading."""

    @pytest.mark.parametrize(
        "kind, q, digest",
        [
            (Kind.DIFF_SPERNER, 16384, "d948c0fd00001ab5ae699a3425e1b63b26d31dbd7885a92177db0fe0d6eb0d9a"),
            (Kind.HAMMING, 16384, "140de9510e8124dae2a20d39fdcb59e2fd094dda13a66d5267bc68552ae8f009"),
            (Kind.INTERSECTING, 4096, "679b9b6977f80d6564e2b900863f27d7736a6b113b6a0a96df32cdbb0093a293"),
        ],
        ids=["diff-sperner", "hamming", "intersecting"],
    )
    def test_odd_residues(self, kind, q, digest):
        certs = best_bound(spec_of(kind, 40, range(1, q, 2), q=q))[1]
        assert "R22" in [c.theorem_id for c in certs]
        assert hashlib.sha256(repr(certs).encode()).hexdigest() == digest


# One spec per route through the rule portfolio (modular, lifted, direct
# and uniform), with its full list of certificates: the wording, order and
# evidence of every certificate are part of the engine's output.
PINNED_CERTIFICATES = [
    pytest.param(
        "diff-sperner", 4, (3,), None, 6,
        [
            "BoundCertificate(theorem_id='R4', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L is the interval {3..3}', True), ('2 does not divide C(3, 1)', True)), bound=BinomSum(lower=0, upper=1, column='n-1', value=6), auxiliary={'b': 3, 's': 1})",
            "BoundCertificate(theorem_id='R22', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('candidate roots from given residues', True), ('polynomial separates 0 from L modulo q', True), ('shifted condition over u-1 holds, granting the n-1 column', True)), bound=BinomSum(lower=0, upper=1, column='n-1', value=6), auxiliary={'roots': [3], 'lead': 1, 'v0': 0, 'shifted_minus_ok': True, 'shifted_plus_ok': True})",
            "BoundCertificate(theorem_id='R7', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('sum of element valuations 0 < k = 2', True)), bound=BinomSum(lower=0, upper=1, column='n', value=7), auxiliary=None)",
            "BoundCertificate(theorem_id='R8', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L is the interval {3..3}', True)), bound=BinomSum(lower=0, upper=1, column='n', value=7), auxiliary={'branches': {'closure': 16, 'doubling': 7, 'prime-square': 7}, 'winner': 'doubling', 'closure_length_bound': 2})",
            "BoundCertificate(theorem_id='R6', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L is the arithmetic progression 3 + 1*[0, 0]', True), ('sum of valuations 0 < max((s-1)v(d)+v(q), s v(d)+v(s!)+1) = 2', True)), bound=BinomSum(lower=0, upper=1, column='n', value=7), auxiliary={'a': 3, 'd': 1})",
            "BoundCertificate(theorem_id='R9', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L within [1, 3]', True), ('worst-case separating degree 2^(s-1) = 1', True)), bound=BinomSum(lower=0, upper=1, column='n', value=7), auxiliary=None)",
        ],
        id="modular diff",
    ),
    pytest.param(
        "diff-sperner", None, (1,), None, 4,
        [
            "BoundCertificate(theorem_id='R11', hypotheses=(('family is L-differencing Sperner, hence L-close Sperner', True), ('L is a set of positive integers', True), ('|L| = 1', True)), bound=BinomSum(lower=1, upper=1, column='n', value=4), auxiliary=None)",
            "BoundCertificate(theorem_id='R2', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is prime', True), ('L within [1, 4]', True), ('non-modular constraint read modulo p = 5, the smallest prime exceeding max(L) and n', True)), bound=BinomSum(lower=0, upper=1, column='n-1', value=4), auxiliary=None)",
            "BoundCertificate(theorem_id='R11', hypotheses=(('family is L-differencing Sperner, hence L-close Sperner', True), ('L is a set of positive integers', True)), bound=BinomSum(lower=0, upper=1, column='n', value=5), auxiliary=None)",
        ],
        id="lifted diff",
    ),
    pytest.param(
        "close-sperner", None, (1, 2), None, 5,
        [
            "BoundCertificate(theorem_id='R12', hypotheses=(('family is L-close Sperner', True), ('L = [2]', True), ('(n+1)/3 <= s <= n/2 with n = 5, s = 2', True)), bound=BinomSum(lower=1, upper=2, column='n', value=15), auxiliary=None)",
            "BoundCertificate(theorem_id='R11', hypotheses=(('family is L-close Sperner', True), ('L is a set of positive integers', True)), bound=BinomSum(lower=0, upper=2, column='n', value=16), auxiliary=None)",
        ],
        id="close",
    ),
    pytest.param(
        "intersecting", 4, (0, 1), None, 6,
        [
            "BoundCertificate(theorem_id='R14', hypotheses=(('family is 4-modular L-avoiding L-intersecting', True), ('modulus 4 is a prime power', True), ('worst-case separating degree bound 2', True)), bound=BinomSum(lower=0, upper=2, column='n', value=22), auxiliary={'degree_cap': 2})",
            "BoundCertificate(theorem_id='R18', hypotheses=(('family is 4-modular L-avoiding L-intersecting', True), ('modulus 4 is a prime power', True), ('L is an interval in the modulo-q sense', True)), bound=BinomSum(lower=0, upper=2, column='n', value=22), auxiliary={'closure_length_bound': 2})",
            "BoundCertificate(theorem_id='R22', hypotheses=(('family is 4-modular L-avoiding L-intersecting', True), ('modulus 4 is a prime power', True), ('a separating polynomial was constructed for every residue outside L', True), ('maximum degree used is 2', True)), bound=BinomSum(lower=0, upper=2, column='n', value=22), auxiliary={'per_alpha_degrees': {2: 2, 3: 2}})",
            "BoundCertificate(theorem_id='R17', hypotheses=(('family is 4-modular L-avoiding L-intersecting', True), ('modulus 4 is a prime power', True), ('L is an interval in the modulo-q sense', True), ('|L| = 2 <= n - q + 2 = 4', True)), bound=BinomSum(lower=2, upper=3, column='n', value=35), auxiliary=None)",
            "BoundCertificate(theorem_id='R19', hypotheses=(('family is 4-modular L-avoiding L-intersecting', True), ('modulus 4 is a prime power', True)), bound=BinomSum(lower=0, upper=3, column='n', value=42), auxiliary=None)",
            "BoundCertificate(theorem_id='R15', hypotheses=(('family is 4-modular L-avoiding L-intersecting', True), ('modulus 4 is a prime power', True), ('L = {0, ..., 1}', True), ('s = 2 < q = 4', True)), bound=BinomSum(lower=0, upper=4, column='n', value=57), auxiliary=None)",
        ],
        id="modular intersecting",
    ),
    pytest.param(
        "intersecting", None, (1,), None, 3,
        [
            "BoundCertificate(theorem_id='R13', hypotheses=(('family is L-intersecting (non-modular)', True), ('L is a set of positive integers', True), ('modulus-free Snevily bound', True)), bound=BinomSum(lower=0, upper=1, column='n-1', value=3), auxiliary=None)",
            "BoundCertificate(theorem_id='R14', hypotheses=(('family is 5-modular L-avoiding L-intersecting', True), ('modulus 5 is a prime power', True), ('worst-case separating degree bound 1', True), ('non-modular constraint read modulo p = 5, the smallest prime exceeding max(L) and n', True)), bound=BinomSum(lower=0, upper=1, column='n', value=4), auxiliary={'degree_cap': 1})",
            "BoundCertificate(theorem_id='R19', hypotheses=(('family is 5-modular L-avoiding L-intersecting', True), ('modulus 5 is a prime power', True), ('non-modular constraint read modulo p = 5, the smallest prime exceeding max(L) and n', True)), bound=BinomSum(lower=0, upper=4, column='n', value=8), auxiliary=None)",
        ],
        id="lifted intersecting",
    ),
    pytest.param(
        "intersecting-uniform", 3, (), 0, 4,
        [
            "BoundCertificate(theorem_id='R16', hypotheses=(('member sizes are congruent to 0 and no intersection is (mod 3)', True), ('modulus 3 is a prime power', True), ('2(q-1) = 4 <= n = 4', True)), bound=BinomSum(lower=2, upper=2, column='n', value=6), auxiliary=None)",
            "BoundCertificate(theorem_id='R17', hypotheses=(('family is 3-modular L-avoiding L-intersecting', True), ('modulus 3 is a prime power', True), ('L is an interval in the modulo-q sense', True), ('|L| = 2 <= n - q + 2 = 3', True), ('uniform residue 0 read as L-avoiding L-intersecting with L = all residues except 0', True)), bound=BinomSum(lower=2, upper=2, column='n', value=6), auxiliary=None)",
            "BoundCertificate(theorem_id='R19', hypotheses=(('family is 3-modular L-avoiding L-intersecting', True), ('modulus 3 is a prime power', True), ('uniform residue 0 read as L-avoiding L-intersecting with L = all residues except 0', True)), bound=BinomSum(lower=0, upper=2, column='n', value=11), auxiliary=None)",
        ],
        id="uniform",
    ),
    pytest.param(
        "hamming", 3, (1, 2), None, 4,
        [
            "BoundCertificate(theorem_id='R21', hypotheses=(('pairwise Hamming distances lie in L modulo 3', True), ('modulus 3 is prime and L avoids its multiples', True)), bound=BinomSum(lower=0, upper=2, column='n', value=11), auxiliary=None)",
            "BoundCertificate(theorem_id='R21', hypotheses=(('pairwise Hamming distances lie in L modulo 3', True), ('modulus 3 is a prime power', True), ('L = [2]', True)), bound=BinomSum(lower=0, upper=2, column='n', value=11), auxiliary=None)",
            "BoundCertificate(theorem_id='R22', hypotheses=(('pairwise Hamming distances lie in L modulo 3', True), ('modulus 3 is a prime power', True), ('candidate roots from given residues', True), ('polynomial separates 0 from L modulo q', True)), bound=BinomSum(lower=0, upper=2, column='n', value=11), auxiliary={'roots': [1, 2], 'lead': 1, 'v0': 0, 'shifted_minus_ok': True, 'shifted_plus_ok': True})",
        ],
        id="modular Hamming",
    ),
    pytest.param(
        "hamming", None, (2,), None, 4,
        [
            "BoundCertificate(theorem_id='R21', hypotheses=(('pairwise Hamming distances lie in L', True), ('no modulus (Delsarte bound)', True)), bound=BinomSum(lower=0, upper=1, column='n', value=5), auxiliary=None)",
        ],
        id="lifted Hamming",
    ),
    pytest.param(
        "diff-sperner", 4, (1, 2, 3), None, 6,
        [
            "BoundCertificate(theorem_id='R5', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L = [1, 3], the full nonzero residue range', True)), bound=BinomSum(lower=0, upper=3, column='n-1', value=26), auxiliary=None)",
            "BoundCertificate(theorem_id='R8', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L is the interval {1..3}', True)), bound=BinomSum(lower=0, upper=3, column='n-1', value=26), auxiliary={'branches': {'closure': 26, 'doubling': 57, 'prime-square': 63}, 'winner': 'closure', 'closure_length_bound': 3})",
            "BoundCertificate(theorem_id='R4', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L is the interval {1..3}', True), ('2 does not divide C(3, 3)', True)), bound=BinomSum(lower=0, upper=3, column='n-1', value=26), auxiliary={'b': 3, 's': 3})",
            "BoundCertificate(theorem_id='R22', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('candidate roots from given residues', True), ('polynomial separates 0 from L modulo q', True), ('shifted condition over u-1 holds, granting the n-1 column', True)), bound=BinomSum(lower=0, upper=3, column='n-1', value=26), auxiliary={'roots': [1, 2, 3], 'lead': 1, 'v0': 1, 'shifted_minus_ok': True, 'shifted_plus_ok': True})",
            "BoundCertificate(theorem_id='R7', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('sum of element valuations 1 < k = 2', True)), bound=BinomSum(lower=0, upper=3, column='n', value=42), auxiliary=None)",
            "BoundCertificate(theorem_id='R6', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L is the arithmetic progression 1 + 1*[0, 2]', True), ('sum of valuations 1 < max((s-1)v(d)+v(q), s v(d)+v(s!)+1) = 2', True)), bound=BinomSum(lower=0, upper=3, column='n', value=42), auxiliary={'a': 1, 'd': 1})",
            "BoundCertificate(theorem_id='R9', hypotheses=(('family is 4-modular L-differencing Sperner', True), ('modulus 4 is a prime power', True), ('L within [1, 3]', True), ('worst-case separating degree 2^(s-1) = 4', True)), bound=BinomSum(lower=0, upper=4, column='n', value=57), auxiliary=None)",
        ],
        id="R5 full range",
    ),
    pytest.param(
        "diff-sperner", None, (1, 2), None, 4,
        [
            "BoundCertificate(theorem_id='R10', hypotheses=(('family is L-differencing Sperner (non-modular)', True), ('L = [2]', True), ('(n+2)/3 <= s <= n/2 with n = 4, s = 2', True)), bound=BinomSum(lower=1, upper=2, column='n-1', value=6), auxiliary=None)",
            "BoundCertificate(theorem_id='R12', hypotheses=(('family is L-differencing Sperner, hence L-close Sperner', True), ('L = [2]', True), ('(n+1)/3 <= s <= n/2 with n = 4, s = 2', True)), bound=BinomSum(lower=2, upper=2, column='n', value=6), auxiliary=None)",
            "BoundCertificate(theorem_id='R2', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is prime', True), ('L within [1, 4]', True), ('non-modular constraint read modulo p = 5, the smallest prime exceeding max(L) and n', True)), bound=BinomSum(lower=0, upper=2, column='n-1', value=7), auxiliary=None)",
            "BoundCertificate(theorem_id='R11', hypotheses=(('family is L-differencing Sperner, hence L-close Sperner', True), ('L is a set of positive integers', True)), bound=BinomSum(lower=0, upper=2, column='n', value=11), auxiliary=None)",
        ],
        id="R10 direct diff",
    ),
    pytest.param(
        "diff-sperner", 5, (1, 3), None, 5,
        [
            "BoundCertificate(theorem_id='R2', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is prime', True), ('L within [1, 4]', True)), bound=BinomSum(lower=0, upper=2, column='n-1', value=11), auxiliary=None)",
            "BoundCertificate(theorem_id='R22', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is a prime power', True), ('candidate roots from given residues', True), ('polynomial separates 0 from L modulo q', True), ('shifted condition over u-1 holds, granting the n-1 column', True)), bound=BinomSum(lower=0, upper=2, column='n-1', value=11), auxiliary={'roots': [1, 3], 'lead': 1, 'v0': 0, 'shifted_minus_ok': True, 'shifted_plus_ok': True})",
            "BoundCertificate(theorem_id='R7', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is a prime power', True), ('sum of element valuations 0 < k = 1', True)), bound=BinomSum(lower=0, upper=2, column='n', value=16), auxiliary=None)",
            "BoundCertificate(theorem_id='R6', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is a prime power', True), ('L is the arithmetic progression 1 + 2*[0, 1]', True), ('sum of valuations 0 < max((s-1)v(d)+v(q), s v(d)+v(s!)+1) = 1', True)), bound=BinomSum(lower=0, upper=2, column='n', value=16), auxiliary={'a': 1, 'd': 2})",
            "BoundCertificate(theorem_id='R9', hypotheses=(('family is 5-modular L-differencing Sperner', True), ('modulus 5 is a prime power', True), ('L within [1, 4]', True), ('worst-case separating degree 2^(s-1) = 2', True)), bound=BinomSum(lower=0, upper=2, column='n', value=16), auxiliary=None)",
        ],
        id="R2 native prime",
    ),
    pytest.param(
        "diff-sperner", 8, (1, 2, 4), None, 6,
        [
            "BoundCertificate(theorem_id='R22', hypotheses=(('family is 8-modular L-differencing Sperner', True), ('modulus 8 is a prime power', True), ('candidate roots from closed superinterval {1..4}', True), ('polynomial separates 0 from L modulo q', True), ('shifted condition over u-1 holds, granting the n-1 column', True)), bound=BinomSum(lower=0, upper=4, column='n-1', value=31), auxiliary={'roots': [1, 2, 3, 4], 'lead': 1, 'v0': 3, 'shifted_minus_ok': True, 'shifted_plus_ok': True})",
            "BoundCertificate(theorem_id='R9', hypotheses=(('family is 8-modular L-differencing Sperner', True), ('modulus 8 is a prime power', True), ('L within [1, 7]', True), ('worst-case separating degree 2^(s-1) = 4', True)), bound=BinomSum(lower=0, upper=4, column='n', value=57), auxiliary=None)",
        ],
        id="R22 closed superinterval",
    ),
]


class TestCertificateText:
    @pytest.mark.parametrize("kind, q, L, r, n, expected", PINNED_CERTIFICATES)
    def test_certificates(self, kind, q, L, r, n, expected):
        """The lifted and uniform readings list only the rules that can
        come first in them (see `TestReadings`): R2 for a lifted
        difference spec, R14, R17 and R19 for a lifted intersecting one,
        none for a lifted Hamming one, and R16, R17 and R19 for the uniform
        kind.  So the `lifted diff`, `R10 direct diff`, `lifted
        intersecting`, `lifted Hamming` and `uniform` lists lost the
        certificates of the other rules, each of which sorted after the
        best; the rest of each list is as it was."""
        _, certs = best_bound(spec_of(Kind(kind), n, L, q=q, residue=r))
        assert [repr(c) for c in certs] == expected

    def test_every_rule_is_pinned(self):
        # every record is read modulo q, so the modular cases pin the
        # rules of the lifted readings too
        pinned = {
            re.match(r"BoundCertificate\(theorem_id='(R\d+)'", text).group(1)
            for param in PINNED_CERTIFICATES
            for text in param.values[-1]
        }
        rules = {
            rule.theorem_id
            for direct, modular, _ in bounds._PORTFOLIO.values()
            for rule in (*direct, *modular)
        }
        assert rules | {bounds._R16.theorem_id} <= pinned

    @pytest.mark.parametrize(
        "s, degree", [(14285, str(2**14284)), (14286, "2^14285")], ids=["written", "as-a-power"]
    )
    def test_r9_degree_past_the_int_text_limit(self, s, degree):
        # 2^(s-1) is written out below 10^4300, which `str` writes under
        # its default limit of 4,300 digits, and as a power from there on
        _, certs = best_bound(spec_of(Kind.DIFF_SPERNER, 20, range(1, s + 1), q=32768))
        (r9,) = [c for c in certs if c.theorem_id == "R9"]
        assert r9.hypotheses[-1] == (f"worst-case separating degree 2^(s-1) = {degree}", True)
        assert r9.bound.upper == 2 ** (s - 1)

    @pytest.mark.parametrize(
        "kind, q, L, n",
        [(Kind.DIFF_SPERNER, 2**15, range(1, 20001), 40), (Kind.INTERSECTING, 2**2000, range(10**6), 30)],
        ids=["R9", "R14"],
    )
    def test_texts_ignore_the_int_text_limit(self, kind, q, L, n):
        # R9's degree of 6,021 digits and R14's cap of 5,400 are written
        # in closed form whether or not the limit is lifted
        spec = spec_of(kind, n, L, q=q)
        portfolio = best_bound(spec)
        with _long_ints():
            assert best_bound(spec) == portfolio

    @pytest.mark.parametrize(
        "limit, q, L, texts",
        [
            (
                4300,
                PrimePower(2, 14300),
                {1, 2},
                [
                    "family is 2^14300-modular L-differencing Sperner",
                    "modulus 2^14300 is a prime power",
                    "L within [1, 2^14300 - 1]",
                ],
            ),
            (
                640,
                PP(2**15),
                range(1, 3001),
                ["L within [1, 32767]", f"worst-case separating degree 2^(s-1) = {2**2999}"],
            ),
        ],
        ids=["q-past-the-default-limit", "degree-past-a-lowered-limit"],
    )
    def test_texts_take_any_limit(self, limit, q, L, texts):
        """q = 2^14300, past the default limit of 4,300 digits, is written
        as a power; 2^2999, past a limit lowered to 640 digits, in full.
        Each spec answers under its limit with the texts it has with the
        limit lifted, and the limit is put back."""
        spec = ConstraintSpec(Kind.DIFF_SPERNER, 30, frozenset(L), q)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            portfolio = best_bound(spec)
        finally:
            sys.set_int_max_str_digits(saved)
        with _long_ints():
            assert best_bound(spec) == portfolio
        written = {text for cert in portfolio[1] for text, _ in cert.hypotheses}
        assert set(texts) <= written

    @pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "lowered-limit"])
    @pytest.mark.parametrize(
        "kind, L, residue, rules, text",
        [
            (
                Kind.DIFF_SPERNER, {1, 2**14299}, None, ["R7", "R6", "R9"],
                lambda big: f"L is the arithmetic progression 1 + {big - 1}*[0, 1]",
            ),
            (
                Kind.DIFF_SPERNER, {2**14299 + 1}, None, ["R4", "R7", "R8", "R6", "R9"],
                lambda big: f"L is the interval {{{big + 1}..{big + 1}}}",
            ),
            (
                Kind.INTERSECTING_UNIFORM, (), 2**14299 + 1, ["R19"],
                lambda big: f"uniform residue {big + 1} read as L-avoiding L-intersecting"
                f" with L = all residues except {big + 1}",
            ),
        ],
        ids=["progression", "interval", "uniform-residue"],
    )
    def test_elements_past_the_int_text_limit(self, limit, kind, L, residue, rules, text):
        """An element of L or a uniform residue of 4,305 digits, past the
        default limit of 4,300, is written out in full under any limit:
        R6's first term and step, R4's and R8's interval and R4's
        binomial, and the uniform reading's note.  Each spec answers
        with the texts it has with the limit lifted."""
        spec = ConstraintSpec(kind, 30, frozenset(L), PrimePower(2, 14300), residue)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            portfolio = best_bound(spec)
        finally:
            sys.set_int_max_str_digits(saved)
        assert [c.theorem_id for c in portfolio[1]] == rules
        with _long_ints():
            assert best_bound(spec) == portfolio
            expected = text(2**14299)
        assert expected in {hyp for cert in portfolio[1] for hyp, _ in cert.hypotheses}

    def test_written_at_its_edges(self):
        """Under the lowest limit Python allows, `_written` writes in full
        around 10^640, where the texts stop formatting the int themselves,
        and up to 10^4300, then the closed form, or in full where there
        is none."""
        short, long = padic._SHORT, padic._MAX_WRITTEN
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
        try:
            written = [padic._written(v, lambda: "closed") for v in (short - 1, short, long - 1, long)]
            in_full = padic._written(long)
        finally:
            sys.set_int_max_str_digits(saved)
        assert written == ["9" * 640, "1" + "0" * 640, "9" * 4300, "closed"]
        assert in_full == "1" + "0" * 4300
