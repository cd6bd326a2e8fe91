"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test finishes by printing a single `[criterion N] PASS` line (visible
with `pytest -s`).  The whole suite is exact: no float comparisons, no
tunable tolerances.
"""

import itertools
import math
import random

from qsperner.bounds import best_bound, binom_sum, bound_from_seppoly
from qsperner.closure import (
    IntervalL,
    closure_length_bound,
    count_closed_pairs,
    q_closure,
)
from qsperner.families import (
    ConstraintSpec,
    Kind,
    SetFamily,
    max_family,
    push_to_middle_with_map,
    satisfies,
)
from qsperner.padic import PrimePower, lucas_nondivisible, vp_binomial, vp_factorial
from qsperner.polylab import build_diff_sperner_system, verify_independence
from qsperner.seppoly import (
    FactoredIntPoly,
    check_separation,
    min_valuation_over_class,
)

SEED = 987654321


def vp_by_division(p, n):
    n = abs(n)
    e = 0
    while n and n % p == 0:
        n //= p
        e += 1
    return e


def interval_and_small_L(q, least=1):
    """All intervals of [least, q-1] plus all L with at most two elements
    there."""
    out = set()
    for lo in range(least, q):
        for hi in range(lo, q):
            out.add(tuple(range(lo, hi + 1)))
    for a in range(least, q):
        out.add((a,))
        for b in range(a + 1, q):
            out.add((a, b))
    return sorted(out)


def every_certificate_holds(spec, label) -> int:
    """The exact search maximum is within every certificate `best_bound`
    returns and, for a modular spec R22's checker reads, within
    `bound_from_seppoly`'s; returns how many were checked."""
    _, certs = best_bound(spec)
    if spec.modulus is not None and spec.kind is not Kind.INTERSECTING_UNIFORM:
        certs.append(bound_from_seppoly(spec))
    found = max_family(spec)
    assert found.exact, label
    for cert in certs:
        assert found.max_size <= cert.bound.value, (*label, cert.theorem_id)
    return len(certs)


def test_criterion_1_soundness_sweep():
    instances = certificates = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        pp = PrimePower.from_q(q)
        for n in range(4, 9):
            for L in interval_and_small_L(q):
                spec = ConstraintSpec(
                    kind=Kind.DIFF_SPERNER, n=n, L=set(L), modulus=pp
                )
                certificates += every_certificate_holds(spec, (q, n, L))
                instances += 1
    for q in (2, 3, 4):
        pp = PrimePower.from_q(q)
        for kind in (Kind.INTERSECTING, Kind.HAMMING):
            for n in range(4, 8):
                for L in interval_and_small_L(q):
                    spec = ConstraintSpec(kind=kind, n=n, L=set(L), modulus=pp)
                    certificates += every_certificate_holds(spec, (kind, q, n, L))
                    instances += 1
    for q in (2, 3, 4, 5, 7, 8, 9):
        pp = PrimePower.from_q(q)
        for n in range(4, 9):
            for r in range(q):
                spec = ConstraintSpec(
                    kind=Kind.INTERSECTING_UNIFORM, n=n, modulus=pp, uniform_residue=r
                )
                certificates += every_certificate_holds(spec, (q, n, r))
                instances += 1
    # the non-modular readings, L within [1, min(n, 5)] ([0, ...] when
    # intersecting): at n = 8 the search on a Hamming L = [6] or 2..7
    # runs past 20 s
    for kind in (Kind.CLOSE_SPERNER, Kind.DIFF_SPERNER, Kind.HAMMING, Kind.INTERSECTING):
        least = 0 if kind is Kind.INTERSECTING else 1
        for n in range(4, 9):
            for L in interval_and_small_L(min(n, 5) + 1, least):
                spec = ConstraintSpec(kind=kind, n=n, L=set(L))
                certificates += every_certificate_holds(spec, (kind, n, L))
                instances += 1
    print(
        f"\n[criterion 1] PASS: brute force <= bound on {instances} instances "
        f"({certificates} certificates), zero violations"
    )


def test_criterion_2_sharpness_q2():
    pp2 = PrimePower.from_q(2)
    for n in range(3, 11):
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=n, L={1}, modulus=pp2)
        best, _ = best_bound(spec)
        assert best.bound.value == n, n
        found = max_family(spec)
        assert found.exact
        assert found.max_size == n, n
        assert satisfies(spec, found.witness)
    print("[criterion 2] PASS: brute force = bound = n for n in 3..10 at q=2, L={1}")


def test_criterion_3_kummer_lucas_oracle():
    for p in (2, 3, 5, 7):
        for a in range(301):
            for b in range(301):
                assert vp_binomial(p, a, b) == vp_by_division(p, math.comb(a + b, a))
        for x in range(301):
            for y in range(301):
                assert lucas_nondivisible(p, x, y) == (math.comb(x, y) % p != 0)
    print("[criterion 3] PASS: carry and digit criteria match big-integer factorization up to 300")


def test_criterion_4_closure_calculus():
    for q in (4, 8, 9, 16, 25, 27):
        pp = PrimePower.from_q(q)
        for lo in range(1, q):
            for hi in range(lo, q):
                closed = q_closure(pp, IntervalL(lo, hi))
                assert closed.size <= closure_length_bound(pp, hi - lo + 1), (q, lo, hi)
    for p in (2, 3, 5):
        pp = PrimePower(p, 2)
        closed = q_closure(pp, IntervalL(p, p))
        assert closed.size == p == closure_length_bound(pp, 1)
    print("[criterion 4] PASS: closure lengths within the digit bound, tight at prime squares")


def test_criterion_5_min_valuation_oracle():
    def brute(pp, g, residue, span):
        best = None
        for t in range(-span, span + 1):
            value = g(residue + pp.q * t)
            if value == 0:
                continue
            v = vp_by_division(pp.p, value)
            if best is None or v < best:
                best = v
        return best

    for q in (4, 8, 9):
        pp = PrimePower.from_q(q)
        rng = random.Random(SEED + q)
        span = pp.p ** 6
        for _ in range(200):
            degree = rng.randint(1, 5)
            roots = tuple(rng.randint(-2 * q * q, 2 * q * q) for _ in range(degree))
            lead = rng.choice([1, -1, 2, 3])
            g = FactoredIntPoly(lead, roots)
            residue = rng.randrange(q)
            assert min_valuation_over_class(pp, g, residue) == brute(
                pp, g, residue, span
            ), (q, g, residue)
    print("[criterion 5] PASS: 600 random polynomials, digit recursion = brute scan")


def test_criterion_6_interval_polynomial_bridge():
    checked = 0
    for q in (4, 8, 9, 16):
        pp = PrimePower.from_q(q)
        for b in range(1, q):
            for s in range(1, b + 1):
                if not lucas_nondivisible(pp.p, b, s):
                    continue
                L = set(range(b - s + 1, b + 1))
                g = FactoredIntPoly(1, tuple(sorted(L)))
                report = check_separation(pp, g, 0, L)
                assert report.separates, (q, b, s)
                assert report.v0 == vp_factorial(pp.p, s), (q, b, s)
                assert report.shifted_minus_ok or report.shifted_plus_ok, (q, b, s)
                checked += 1
    print(f"[criterion 6] PASS: {checked} closed intervals separate with v0 = v_p(s!) and a shift")


def test_criterion_7_census():
    expected = {3: 3, 4: 5, 8: 19, 9: 27, 25: 200}
    for q, want in expected.items():
        pp = PrimePower.from_q(q)
        census = count_closed_pairs(pp)
        closed_form = (pp.p * (pp.p + 1) // 2) ** pp.k - q
        assert census.count == closed_form == want, q
        # the alternative closed form is recorded but never asserted
        assert census.alt_form != census.count
    assert count_closed_pairs(PrimePower.from_q(4)).alt_form == -3
    print("[criterion 7] PASS: census = (p(p+1)/2)^k - q for q in {3,4,8,9,25}")


def _witness_pool(seed, count):
    """Deterministic pool of interval systems meeting the closed-interval
    hypothesis, with searched maximum witnesses."""
    rng = random.Random(seed)
    pool = []
    for q in (2, 3, 4, 5, 8, 9):
        pp = PrimePower.from_q(q)
        for b in range(1, q):
            for s in range(1, min(b, 3) + 1):
                if lucas_nondivisible(pp.p, b, s):
                    pool.append((pp, b, s))
    instances = []
    while len(instances) < count:
        pp, b, s = rng.choice(pool)
        n = rng.randint(4, 8 if s >= 3 else 9)
        instances.append((pp, b, s, n))
    return instances


def test_criterion_8_independence_verification():
    full_rank_checked = 0
    for pp, b, s, n in _witness_pool(SEED, 100):
        L = set(range(b - s + 1, b + 1))
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=n, L=L, modulus=pp)
        witness = max_family(spec).witness
        g = FactoredIntPoly(1, tuple(sorted(L)))
        system = build_diff_sperner_system(witness, g, pp, "minus")
        report = verify_independence(system)
        assert report.full_rank, (pp.q, b, s, n)
        assert report.rank == len(witness) + report.block_sizes["F"]
        assert report.pattern_ok
        full_rank_checked += 1

    mutated_checked = 0
    rng = random.Random(SEED + 1)
    pool = _witness_pool(SEED + 2, 60)
    for pp, b, s, n in pool:
        if mutated_checked >= 20:
            break
        L = set(range(b - s + 1, b + 1))
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=n, L=L, modulus=pp)
        witness = max_family(spec).witness
        if len(witness) < 2:
            continue
        members = list(witness.members)
        donor = members[0]
        sub = donor & (donor - 1)  # drop the lowest element: a proper subset
        if sub in members:
            continue
        members[-1] = sub
        mutated = SetFamily(witness.n, tuple(members))
        assert not satisfies(spec, mutated)
        system = build_diff_sperner_system(mutated, FactoredIntPoly(1, tuple(sorted(L))), pp, "minus")
        report = verify_independence(system)
        assert not report.pattern_ok, (pp.q, b, s, n)
        mutated_checked += 1
    assert mutated_checked == 20
    print(
        f"[criterion 8] PASS: rank = m + t on {full_rank_checked} witnesses; "
        f"{mutated_checked} mutated families break the valuation pattern"
    )


def _random_antichain(rng, n, target):
    masks = []
    for _ in range(300):
        cand = rng.randrange(1, 1 << n)
        if any(cand & ~m == 0 or m & ~cand == 0 for m in masks):
            continue
        masks.append(cand)
        if len(masks) >= target:
            break
    return SetFamily(n, tuple(masks))


def test_criterion_9_push_to_middle():
    rng = random.Random(SEED + 9)
    done = 0
    while done < 200:
        n = rng.randint(2, 10)
        s = rng.randint(1, n // 2)
        fam = _random_antichain(rng, n, rng.randint(1, 10))
        if not fam.members:
            continue
        pushed, mapping = push_to_middle_with_map(fam, s)
        assert len(pushed) == len(fam)
        assert all(s <= m.bit_count() <= n - s for m in pushed.members)
        for a, b in itertools.permutations(fam.members, 2):
            if (a & ~b).bit_count() <= s:
                assert (mapping[a] & ~mapping[b]).bit_count() <= s
        band_spec = ConstraintSpec(kind=Kind.ANTICHAIN, n=n)
        assert satisfies(band_spec, pushed)
        L = frozenset(range(1, s + 1))
        for kind in (Kind.DIFF_SPERNER, Kind.CLOSE_SPERNER):
            spec = ConstraintSpec(kind=kind, n=n, L=L)
            if satisfies(spec, fam):
                assert satisfies(spec, pushed), (kind, n, s, fam.members)
        done += 1
    print("[criterion 9] PASS: 200 pushed antichains keep size, band, and both properties")


def test_criterion_10_midband_theorems():
    spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={1, 2})
    best, _ = best_bound(spec)
    cap = math.comb(3, 1) + math.comb(3, 2)
    assert best.bound.value == cap == 6
    found = max_family(spec)
    assert found.exact and found.max_size <= cap

    sperner = max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=4))
    assert sperner.exact and sperner.max_size == 6

    close_spec = ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=5, L={1, 2})
    best_close, _ = best_bound(close_spec)
    assert best_close.bound.value == 15
    found_close = max_family(close_spec)
    assert found_close.exact and found_close.max_size <= 15
    print("[criterion 10] PASS: mid-band bounds hold exactly at n=4 and n=5")


def test_criterion_11_intersecting_improvements():
    pp9 = PrimePower.from_q(9)
    spec = ConstraintSpec(kind=Kind.INTERSECTING, n=8, L={0, 1}, modulus=pp9)
    _, certs = best_bound(spec)
    r18 = next(c for c in certs if c.theorem_id == "R18")
    new_bound = r18.bound.value
    old_bound = binom_sum(8, 2, 8, "n").value
    assert new_bound == sum(math.comb(8, i) for i in range(5)) == 163
    assert old_bound == 247
    assert new_bound < old_bound
    for n in (5, 6, 7):
        small = ConstraintSpec(kind=Kind.INTERSECTING, n=n, L={0, 1}, modulus=pp9)
        found = max_family(small)
        assert found.exact
        assert found.max_size <= sum(math.comb(n, i) for i in range(5))
        assert found.max_size <= binom_sum(n, 2, 8, "n").value
    print("[criterion 11] PASS: interval rule beats the legacy interval bound; brute force respects both")
