import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsperner import seppoly
from qsperner.padic import INFINITY, PrimePower, vp
from qsperner.seppoly import (
    FactoredIntPoly,
    SearchBudgetExhausted,
    _joint_min,
    _root_factors,
    _value_valuation,
    check_separation,
    degree_upper_bound,
    min_valuation_over_class,
    search_min_degree,
    separates,
)


def vp_int(p, n):
    assert n != 0
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def brute_min_valuation(pp, g, residue, t_span):
    """Oracle: scan u = residue + q*t over a window of t values."""
    best = None
    for t in range(-t_span, t_span + 1):
        value = g(residue + pp.q * t)
        if value == 0:
            continue
        v = vp_int(pp.p, value)
        if best is None or v < best:
            best = v
    return best


class TestFactoredPoly:
    def test_evaluation(self):
        g = FactoredIntPoly(2, (1, 3))
        assert g(0) == 2 * (-1) * (-3) == 6
        assert g(1) == 0
        assert g.degree == 2

    def test_zero_lead_rejected(self):
        with pytest.raises(ValueError):
            FactoredIntPoly(0, (1,))

    def test_roots_sorted(self):
        assert FactoredIntPoly(1, (3, 1, 2)).roots == (1, 2, 3)

    def test_shift_reflect(self):
        g = FactoredIntPoly(1, (1, 2))
        h = g.shift_reflect(5)
        for y in range(-10, 11):
            assert h(y) == g(5 - y)

    def test_canonical(self):
        """Roots are kept sorted, so equal polynomials compare equal."""
        assert FactoredIntPoly(1, (3, 1, 2)).roots == (1, 2, 3)
        assert FactoredIntPoly(1, (4, 2)) == FactoredIntPoly(1, (2, 4))


class TestMinValuation:
    def test_single_in_class_root_gives_k(self):
        pp = PrimePower.from_q(9)
        assert min_valuation_over_class(pp, FactoredIntPoly(1, (3,)), 3) == 2

    @pytest.mark.parametrize("residue", [-1, 9])
    def test_residue_out_of_range(self, residue):
        with pytest.raises(ValueError, match=f"^residue {residue} out of range \\[0, 8\\]$"):
            min_valuation_over_class(PrimePower.from_q(9), FactoredIntPoly(1, (3,)), residue)

    def test_joint_min_example(self):
        # min over t of v2(t) + v2(t-1) = 1, frozen from a scan over [-64, 64]
        assert _joint_min(2, (0, 1)) == 1
        pp = PrimePower.from_q(2)
        g = FactoredIntPoly(1, (0, 2))
        assert brute_min_valuation(pp, g, 0, 64) == 3
        assert min_valuation_over_class(pp, g, 0) == 3

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_joint_min_oracle(self, p):
        rng = random.Random(2000 + p)

        def brute(offsets, span):
            return min(
                sum(vp_int(p, t - d) for d in offsets)
                for t in range(-span, span)
                if t not in offsets
            )

        for _ in range(30):
            offsets = tuple(rng.randint(-p**3, p**3) for _ in range(rng.randint(1, 5)))
            assert _joint_min(p, offsets) == brute(offsets, p**5)
        # every residue mod p**j, some twice, beside offsets sharing the last
        # j digits b: every digit class is held for j levels, so the search
        # walks that deep on each path and drops the paths that cannot win;
        # with every offset below p**(j + 1), a minimiser lies below p**(j + 2)
        for _ in range(10):
            j = rng.randint(*{2: (2, 5), 3: (2, 3), 5: (1, 2), 7: (1, 2)}[p])
            b = rng.randrange(p**j)
            offsets = [r for r in range(p**j) for _ in range(rng.randint(1, 2))]
            offsets += [b + p**j * rng.randrange(p) for _ in range(rng.randint(1, p + 1))]
            rng.shuffle(offsets)
            assert _joint_min(p, tuple(offsets)) == brute(offsets, p ** (j + 2)), offsets

    def test_long_digit_roots(self):
        # roots whose differences run to thousands of digits: the digit
        # recursion is a loop, so no depth reaches the recursion limit
        assert min_valuation_over_class(PrimePower.from_q(2), FactoredIntPoly(1, (0, 2**400)), 0) == 2
        assert min_valuation_over_class(PrimePower.from_q(2), FactoredIntPoly(1, (0, 2**4000)), 0) == 2
        pp = PrimePower.from_q(9)
        assert min_valuation_over_class(pp, FactoredIntPoly(1, (1, 1 + 9 * 3**3000)), 1) == 4
        # t = 3 meets only the offset 1 at one digit
        assert _joint_min(2, (0, *(2**j for j in range(3000)))) == 1

    def test_mixed_class_example(self):
        pp = PrimePower.from_q(4)
        g = FactoredIntPoly(1, (1, 2))
        assert brute_min_valuation(pp, g, 1, 100) == 2
        assert min_valuation_over_class(pp, g, 1) == 2

    def test_lead_valuation_added(self):
        pp = PrimePower.from_q(9)
        g = FactoredIntPoly(9, (1,))
        assert min_valuation_over_class(pp, g, 2) == 2

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_oracle_equivalence_sample(self, q):
        pp = PrimePower.from_q(q)
        rng = random.Random(1000 + q)
        span = pp.p**6
        for _ in range(40):
            degree = rng.randint(1, 5)
            roots = tuple(
                rng.randint(-2 * q * q, 2 * q * q) for _ in range(degree)
            )
            lead = rng.choice([1, -1, 2, pp.p])
            g = FactoredIntPoly(lead, roots)
            residue = rng.randrange(q)
            assert min_valuation_over_class(pp, g, residue) == brute_min_valuation(
                pp, g, residue, span
            )


class TestSeparation:
    def test_prime_modulus_interval(self):
        pp = PrimePower.from_q(3)
        rep = check_separation(pp, FactoredIntPoly(1, (1, 2)), 0, {1, 2})
        assert rep.separates
        assert rep.v0 == 0  # v_3(2)

    def test_shifted_conditions_both_hold(self):
        pp = PrimePower.from_q(4)
        rep = check_separation(pp, FactoredIntPoly(1, (3,)), 0, {3})
        assert rep.separates and rep.shifted_minus_ok and rep.shifted_plus_ok

    def test_separates_despite_divisible_binomial(self):
        # v_2(g(0)) = 1 < 2 even though 2 | C(2,1)
        pp = PrimePower.from_q(4)
        rep = check_separation(pp, FactoredIntPoly(1, (2,)), 0, {2})
        assert rep.separates
        assert rep.v0 == 1

    def test_root_at_alpha_never_separates(self):
        pp = PrimePower.from_q(4)
        rep = check_separation(pp, FactoredIntPoly(1, (0, 3)), 0, {3})
        assert rep.v0 == INFINITY
        assert not rep.separates

    def test_alpha_in_L_rejected(self):
        pp = PrimePower.from_q(4)
        with pytest.raises(ValueError):
            check_separation(pp, FactoredIntPoly(1, (1,)), 5, {1, 2})

    def test_class_minima_keys(self):
        pp = PrimePower.from_q(4)
        rep = check_separation(pp, FactoredIntPoly(1, (1, 2)), 0, {1, 2})
        assert set(rep.class_minima) == {1, 2}

    def test_each_class_is_read_once(self, monkeypatch):
        """The classes of L = {1, 2, 3, 9} mod 8 and of their neighbours
        r - 1 and r + 1 overlap: 0..4 are read once each, not ten times."""
        calls = []

        def counted(pp, g, c):
            calls.append(c)
            return min_valuation_over_class(pp, g, c)

        monkeypatch.setattr(seppoly, "min_valuation_over_class", counted)
        pp, g = PrimePower.from_q(8), FactoredIntPoly(1, (1, 2, 3))
        rep = check_separation(pp, g, 0, {1, 2, 3, 9})
        assert sorted(calls) == [0, 1, 2, 3, 4]
        assert rep.class_minima == {ell: min_valuation_over_class(pp, g, ell % 8) for ell in (1, 2, 3, 9)}
        assert (rep.shifted_minus_ok, rep.shifted_plus_ok) == (
            all(rep.v0 <= min_valuation_over_class(pp, g, c) for c in (0, 1, 2)),
            all(rep.v0 <= min_valuation_over_class(pp, g, c) for c in (2, 3, 4)),
        )


class TestValueValuation:
    """v_p(g(alpha)) read root by root equals `vp` of the product."""

    def test_matches_vp_of_the_value(self):
        rng = random.Random(31)
        for q in (2, 4, 9, 25, 27, 32, 49, 1 << 22):
            pp = PrimePower.from_q(q)
            for _ in range(40):
                lead = rng.choice([1, -1, pp.p, -(pp.p**3) * 7, rng.randint(-10**6, 10**6) or 1])
                roots = tuple(rng.randint(-3 * q, 3 * q) for _ in range(rng.randint(0, 8)))
                alpha = rng.choice([rng.randint(-3 * q, 3 * q), *roots[:1]])
                g = FactoredIntPoly(lead, roots)
                assert _value_valuation(pp, g, alpha) == vp(pp.p, g(alpha)), (q, g, alpha)

    def test_root_at_alpha(self):
        pp = PrimePower.from_q(8)
        assert _value_valuation(pp, FactoredIntPoly(-4, (3, 5, 5)), 5) == INFINITY

    def test_many_roots(self):
        # 2^14 roots at q = 2^22, where the product g(0) = (2^14)! has
        # about 62,000 digits
        pp = PrimePower.from_q(1 << 22)
        g = FactoredIntPoly(1, tuple(range(1, 1 << 14 | 1)))
        assert _value_valuation(pp, g, 0) == (1 << 14) - 1  # v_2((2^14)!)


PRIME_POWERS = [PrimePower.from_q(q) for q in (2, 3, 4, 5, 8, 9, 16, 25, 27)]


@st.composite
def separation_inputs(draw):
    pp = draw(st.sampled_from(PRIME_POWERS))
    q = pp.q
    roots = draw(st.lists(st.integers(-2 * q * q, 2 * q * q), max_size=6))
    lead = draw(st.sampled_from([1, -1, 2, pp.p, pp.p**2 * 3]))
    alpha = draw(st.integers(-q * q, q * q))
    L = draw(st.sets(st.integers(-q * q, q * q), min_size=1, max_size=5))
    # move members of alpha's class one step off it
    L = {ell if (ell - alpha) % q else ell + 1 for ell in L}
    return pp, FactoredIntPoly(lead, tuple(roots)), alpha, L


class TestSeparatesFastPath:
    @given(separation_inputs())
    def test_matches_full_report(self, case):
        pp, g, alpha, L = case
        assert separates(pp, g, alpha, L) == check_separation(pp, g, alpha, L).separates

    @given(separation_inputs())
    def test_roots_on_L_match(self, case):
        # roots on L itself, the bound engine's first candidate: every class
        # holds a root, so each minimum goes through the digit recursion
        pp, _, alpha, L = case
        g = FactoredIntPoly(1, tuple(sorted(L)))
        assert separates(pp, g, alpha, L) == check_separation(pp, g, alpha, L).separates

    @pytest.mark.parametrize(
        "alpha, L",
        [(0, set()), (0, []), (5, {1, 2}), (0, {4}), (-3, {1, 6})],
    )
    def test_same_errors(self, alpha, L):
        pp = PrimePower.from_q(4)
        g = FactoredIntPoly(1, (1,))
        with pytest.raises(ValueError) as full:
            check_separation(pp, g, alpha, L)
        with pytest.raises(ValueError) as fast:
            separates(pp, g, alpha, L)
        assert str(fast.value) == str(full.value)

    def test_root_at_alpha_never_separates(self):
        pp = PrimePower.from_q(4)
        assert not separates(pp, FactoredIntPoly(1, (0, 3)), 0, {3})


class TestSearch:
    def test_full_range_needs_degree_3(self):
        pp = PrimePower.from_q(4)
        found = search_min_degree(pp, 0, {1, 2, 3}, 4)
        assert found is not None
        g, d = found
        # no degree-1 or degree-2 candidate over [0, 16) separates; the
        # first degree-3 multiset in lexicographic order is (1, 1, 2)
        assert d == 3
        assert g.roots == (1, 1, 2)
        assert check_separation(pp, g, 0, {1, 2, 3}).separates

    def test_prime_modulus_uses_plain_roots(self):
        pp = PrimePower.from_q(5)
        found = search_min_degree(pp, 0, {2, 4}, 3)
        assert found is not None
        g, d = found
        assert d <= 2
        assert check_separation(pp, g, 0, {2, 4}).separates

    def test_single_class_degree_one(self):
        pp = PrimePower.from_q(4)
        found = search_min_degree(pp, 0, {2}, 3)
        assert found == (FactoredIntPoly(1, (2,)), 1)

    def test_not_found_within_budget(self):
        pp = PrimePower.from_q(4)
        assert search_min_degree(pp, 0, {1, 2, 3}, 2) is None

    def test_node_budget_counts_root_multisets(self):
        # 16 multisets of degree 1 and C(17, 2) = 136 of degree 2 fail over
        # [0, 16); (1, 1, 2) is the 138th of degree 3, so the 290th overall
        pp = PrimePower.from_q(4)
        found = search_min_degree(pp, 0, {1, 2, 3}, 4)
        assert search_min_degree(pp, 0, {1, 2, 3}, 4, node_budget=290) == found
        with pytest.raises(SearchBudgetExhausted) as exc:
            search_min_degree(pp, 0, {1, 2, 3}, 4, node_budget=289)
        assert (exc.value.tried, exc.value.degree) == (289, 3)
        with pytest.raises(SearchBudgetExhausted) as exc:
            search_min_degree(pp, 0, {1, 2, 3}, 4, node_budget=0)
        assert (exc.value.tried, exc.value.degree) == (0, 1)
        with pytest.raises(ValueError, match="non-negative"):
            search_min_degree(pp, 0, {1, 2, 3}, 4, node_budget=-1)

    def test_root_window_limit(self):
        # the limit is inclusive; the default window [0, q**2) of q = 2**16
        # and one too large for len() are refused before any multiset
        pp = PrimePower.from_q(4)
        assert search_min_degree(pp, 0, {1}, 1, range(10**6)) == (FactoredIntPoly(1, (1,)), 1)
        message = "the root window holds more than 1000000 values; pass a smaller --window"
        with pytest.raises(ValueError, match=message):
            search_min_degree(pp, 0, {1}, 1, range(10**6 + 1))
        for q in (2**16, 2**40):
            with pytest.raises(ValueError, match=message):
                search_min_degree(PrimePower.from_q(q), 0, {1, 2, 3}, 3)

    def test_work_limit(self):
        # without a budget, a search of more than 10**6 root factors (each
        # multiset counted once per root) is refused before its first
        # multiset, whatever the degree; with a budget it is not counted
        pp = PrimePower.from_q(4)
        message = "would evaluate more than 1000000 root factors"
        for window, degree in ((range(1000), 2), (range(2), 10**6), (range(1), 10**12)):
            with pytest.raises(ValueError, match=message):
                search_min_degree(pp, 0, {1}, degree, window)
            with pytest.raises(SearchBudgetExhausted):
                search_min_degree(pp, 0, {1}, degree, window, node_budget=0)
        assert search_min_degree(pp, 0, {1}, 10**12, range(0)) is None

    def test_empty_window_checks_inputs(self):
        # an empty window answers None only for inputs a search may take
        pp = PrimePower.from_q(7)
        with pytest.raises(ValueError, match="alpha = 0 lies in L modulo 7"):
            search_min_degree(pp, 0, {7}, 3, range(0))
        with pytest.raises(ValueError, match="L must be nonempty"):
            search_min_degree(pp, 0, set(), 3, range(0))

    def test_root_factor_count(self):
        for width in range(8):
            for max_degree in range(8):
                expected = sum(d * math.comb(width + d - 1, d) for d in range(1, max_degree + 1))
                assert _root_factors(width, max_degree) == expected
        # the partial sum passing the limit, at the degree where it does
        assert _root_factors(2, 10**9) == sum(d * (d + 1) for d in range(1, 145)) == 1_016_160

    def test_answer_gate(self):
        # 57 budgeted searches over small prime powers: every answer, found
        # polynomial or budget exhaustion, hashed and pinned
        outcomes = []
        for q in (4, 8, 9, 16, 25, 27):
            pp = PrimePower.from_q(q)
            for L in ((1,), (1, 2), (1, 2, 3), (1, q // 2), (1, 3, 5, 7)):
                for alpha in (0, q - 1):
                    if alpha % q in {ell % q for ell in L}:
                        continue
                    try:
                        g, d = search_min_degree(pp, alpha, L, 3, node_budget=5000)
                        outcomes.append((q, alpha, L, g.roots, d))
                    except SearchBudgetExhausted as exc:
                        outcomes.append((q, alpha, L, exc.tried, exc.degree))
        assert len(outcomes) == 57
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "34afdbde4efbfbd154a9b8d27dd5d8b597d849be547d2b427b40c4d00ab36159"

    def test_reproducible(self):
        pp = PrimePower.from_q(8)
        a = search_min_degree(pp, 0, {1, 5}, 2)
        b = search_min_degree(pp, 0, {1, 5}, 2)
        assert a == b


class TestProgressionBridge:
    """Every arithmetic progression meeting the valuation hypothesis is
    plainly separated from 0 by its own root polynomial."""

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_all_qualifying_progressions_separate(self, q):
        pp = PrimePower.from_q(q)
        checked = 0
        for a in range(1, q):
            for d in range(1, q):
                for s in range(1, q):
                    last = a + (s - 1) * d
                    if last > q - 1:
                        break
                    L = [a + i * d for i in range(s)]
                    lhs = sum(vp_int(pp.p, ell) for ell in L)
                    vd = vp_int(pp.p, d)
                    fact = 0
                    power = pp.p
                    while power <= s:
                        fact += s // power
                        power *= pp.p
                    rhs = max((s - 1) * vd + pp.k, s * vd + fact + 1)
                    if lhs >= rhs:
                        continue
                    rep = check_separation(pp, FactoredIntPoly(1, tuple(sorted(L))), 0, L)
                    assert rep.separates, (q, a, d, s)
                    checked += 1
        assert checked > 0


class TestDegreeUpperBound:
    def test_examples(self):
        assert degree_upper_bound(3, 1) == 3  # min(4, 3)
        assert degree_upper_bound(4, 2) == 6  # min(8, 6.25)
        for k in range(1, 10):
            assert degree_upper_bound(1, k) == 1

    def test_matches_rational_formula(self):
        for s in range(1, 81):
            for k in range(1, 13):
                expected = math.floor(min(Fraction(2 ** (s - 1)), Fraction(k + s - 1, k) ** k))
                assert degree_upper_bound(s, k) == expected, (s, k)

    def test_monotone_in_s(self):
        for k in (1, 2, 3):
            values = [degree_upper_bound(s, k) for s in range(1, 9)]
            assert values == sorted(values)

    @pytest.mark.parametrize("s, k", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_s_or_k_below_one(self, s, k):
        with pytest.raises(ValueError, match="^s and k must be positive$"):
            degree_upper_bound(s, k)

    @given(st.integers(1, 12), st.integers(1, 8))
    def test_never_exceeds_doubling(self, s, k):
        assert degree_upper_bound(s, k) <= 2 ** (s - 1)

    def test_search_within_worst_case(self):
        # searched degrees stay within the worst-case cap for small systems
        for q, L in [(4, {1, 2}), (4, {2, 3}), (8, {3, 5}), (9, {4, 7})]:
            pp = PrimePower.from_q(q)
            cap = degree_upper_bound(len(L), pp.k)
            found = search_min_degree(pp, 0, L, cap)
            assert found is not None
            assert found[1] <= cap
