import itertools
import json
import random
import tracemalloc

import pytest

from qsperner.cli import main
from qsperner.families import (
    _KINDS,
    CheckResult,
    ConstraintSpec,
    Kind,
    SetFamily,
    _accepted,
    _admissible,
    _build_graph,
    _first_violation,
    _refine,
    _region_key,
    _words,
    format_family,
    max_family,
    parse_family,
    push_to_middle,
    push_to_middle_with_map,
    satisfies,
)
from qsperner.padic import PrimePower


def brute_max_by_enumeration(spec):
    """Oracle for tiny n: try every subfamily of 2^[n]."""
    best = 0
    universe = list(range(1 << spec.n))
    for r in range(len(universe), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(universe, r):
            fam = SetFamily(spec.n, combo)
            if satisfies(spec, fam):
                best = r
                break
        if best:
            break
    return best


def _in_L(spec, v):
    return (v % spec.q if spec.q else v) in spec.L


def oracle_admissible(spec, A):
    """Each kind's member condition, written over Python sets."""
    if spec.kind is Kind.INTERSECTING:
        return not _in_L(spec, len(A))
    if spec.kind is Kind.INTERSECTING_UNIFORM:
        return len(A) % spec.q == spec.uniform_residue
    return True


def oracle_compatible(spec, A, B):
    """Each kind's pair condition, written over Python sets."""
    kind = spec.kind
    if kind is Kind.DIFF_SPERNER:
        return _in_L(spec, len(A - B)) and _in_L(spec, len(B - A))
    if kind is Kind.CLOSE_SPERNER:
        return min(len(A - B), len(B - A)) in spec.L
    if kind is Kind.INTERSECTING:
        return _in_L(spec, len(A & B))
    if kind is Kind.INTERSECTING_UNIFORM:
        return len(A & B) % spec.q != spec.uniform_residue
    if kind is Kind.HAMMING:
        return _in_L(spec, len(A ^ B))
    assert kind is Kind.ANTICHAIN
    return not (A <= B or B <= A)


def pairwise_graph(spec):
    """Oracle for the compatibility graph: admissible subsets in (size,
    value) order and their adjacency rows, testing every pair with the
    set-based definitions above."""
    order = sorted(range(1 << spec.n), key=lambda m: (m.bit_count(), m))
    as_set = {m: frozenset(i for i in range(spec.n) if m >> i & 1) for m in order}
    verts = [m for m in order if oracle_admissible(spec, as_set[m])]
    adj = [0] * len(verts)
    for u, a in enumerate(verts):
        for w in range(u + 1, len(verts)):
            if oracle_compatible(spec, as_set[a], as_set[verts[w]]):
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    return verts, adj


def bron_kerbosch_witness(spec):
    """Oracle for n <= 5: every maximal clique of the compatibility graph by
    plain Bron-Kerbosch (no coloring, no symmetry), on the pairwise graph
    above, not the library's.  Returns the maximum size and the
    lexicographically smallest maximum clique under (size, value) order."""
    verts, adj = pairwise_graph(spec)
    nbrs = {
        a: {b for w, b in enumerate(verts) if adj[u] >> w & 1}
        for u, a in enumerate(verts)
    }
    rank = {m: i for i, m in enumerate(verts)}
    best = []

    def extend(clique, cand, excluded):
        nonlocal best
        if not cand and not excluded:
            found = sorted(clique, key=rank.__getitem__)
            key = [rank[m] for m in found]
            if len(found) > len(best) or (
                len(found) == len(best) and key < [rank[m] for m in best]
            ):
                best = found
            return
        for v in list(cand):
            extend(clique | {v}, cand & nbrs[v], excluded & nbrs[v])
            cand = cand - {v}
            excluded = excluded | {v}

    extend(set(), set(verts), set())
    return len(best), tuple(sorted(best))


def random_antichain(rng, n, target):
    masks = []
    for _ in range(200):
        cand = rng.randrange(1, 1 << n)
        if any(
            cand & ~m == 0 or m & ~cand == 0 for m in masks
        ):
            continue
        masks.append(cand)
        if len(masks) >= target:
            break
    return SetFamily(n, tuple(masks))


def all_antichains(n):
    """Every antichain of [n], members in ascending mask order.  A proper
    subset has the smaller mask, so a mask larger than every member so far
    can only be comparable with one by containing it."""
    out = [()]
    for m in range(1 << n):
        out += [a + (m,) for a in out if all(m & b != b for b in a)]
    return out


class TestSetFamily:
    def test_canonical_order_and_duplicates(self):
        fam = SetFamily(3, (4, 1, 2))
        assert fam.members == (1, 2, 4)
        with pytest.raises(ValueError):
            SetFamily(3, (1, 1))
        with pytest.raises(ValueError):
            SetFamily(2, (4,))

    def test_from_sets_round_trip(self):
        fam = SetFamily.from_sets(5, [{1, 3, 5}, set(), {2}])
        assert fam.sets() == [frozenset(), frozenset({2}), frozenset({1, 3, 5})]

    def test_file_format_round_trip(self):
        text = "# comment\n{1,3,5}\n\n{}\n{2}\n"
        fam = parse_family(text)
        assert fam.n == 5
        assert format_family(fam) == "{}\n{2}\n{1,3,5}\n"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_family("{1,2")
        with pytest.raises(ValueError):
            parse_family("1,2,3")


class TestSatisfies:
    def test_uniform_layer_is_diff_sperner(self):
        n, s = 5, 2
        fam = SetFamily.from_sets(
            n, [set(c) for c in itertools.combinations(range(1, n + 1), s)]
        )
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=n, L={1, 2})
        assert satisfies(spec, fam)

    def test_singletons_are_close_sperner(self):
        fam = SetFamily.from_sets(3, [{1}, {2}, {3}])
        assert satisfies(ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=3, L={1}), fam)

    def test_intersecting_examples(self):
        pp4 = PrimePower.from_q(4)
        spec = ConstraintSpec(kind=Kind.INTERSECTING, n=4, L={0, 1}, modulus=pp4)
        assert satisfies(spec, SetFamily.from_sets(4, [{1, 2}, {3, 4}]))
        assert satisfies(spec, SetFamily.from_sets(4, [{1, 2}, {1, 3}]))
        bad = satisfies(spec, SetFamily.from_sets(4, [{1}, {2}]))
        assert not bad
        assert "size 1" in bad.violation

    def test_violation_names_pair(self):
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={1})
        res = satisfies(spec, SetFamily.from_sets(4, [{1}, {2, 3}]))
        assert not res
        assert "{2,3}" in res.violation

    def test_uniform_kind(self):
        pp3 = PrimePower.from_q(3)
        spec = ConstraintSpec(
            kind=Kind.INTERSECTING_UNIFORM, n=7, modulus=pp3, uniform_residue=1
        )
        good = SetFamily.from_sets(7, [{1, 2, 3, 4}, {1, 5, 6, 2}])
        assert satisfies(spec, good)  # sizes 4 = 1 mod 3, intersection size 2
        bad = SetFamily.from_sets(7, [{1, 2, 3, 4}, {1, 5, 6, 7}])
        assert not satisfies(spec, bad)  # intersection size 1 = residue
        wrong_size = SetFamily.from_sets(7, [{1, 2, 3}])
        assert not satisfies(spec, wrong_size)

    def test_hamming(self):
        pp3 = PrimePower.from_q(3)
        spec = ConstraintSpec(kind=Kind.HAMMING, n=4, L={1, 2}, modulus=pp3)
        assert satisfies(spec, SetFamily.from_sets(4, [{1}, {1, 2}, {2}]))
        res = satisfies(spec, SetFamily.from_sets(4, [{1}, {1, 2, 3, 4}]))
        assert not res and "Hamming distance" in res.violation

    def test_mismatched_n(self):
        spec = ConstraintSpec(kind=Kind.ANTICHAIN, n=3)
        with pytest.raises(ValueError):
            satisfies(spec, SetFamily(4, (1,)))

    def test_modular_L_reduction(self):
        pp4 = PrimePower.from_q(4)
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={5}, modulus=pp4)
        assert spec.L == frozenset({1})
        with pytest.raises(ValueError):
            ConstraintSpec(kind=Kind.DIFF_SPERNER, n=4, L={4}, modulus=pp4)


# (kind, q, L, uniform residue, n, members, first violation): a failing
# member for each kind that restricts members, and a failing pair for every
# kind, modular and not; the text is the schema-1 `check` output, verbatim
VIOLATIONS = [
    ("intersecting", 4, "0,1", None, 4, [{1}, {2}], "member {1}: size 1 lies in L (mod 4)"),
    ("intersecting", None, "1,2", None, 4, [{1, 2, 3}, {1, 2}], "member {1,2}: size 2 lies in L"),
    (
        "intersecting-uniform", 3, None, 1, 7, [{1, 2, 3}],
        "member {1,2,3}: size 3 is not congruent to 1 (mod 3)",
    ),
    ("diff-sperner", 4, "2", None, 4, [{1}, {2}], "pair {1}, {2}: |A\\B| = 1 not in L (mod 4)"),
    ("diff-sperner", 4, "1", None, 5, [{1}, {2, 3}], "pair {2,3}, {1}: |A\\B| = 2 not in L (mod 4)"),
    (
        "diff-sperner", 3, "1", None, 6, [{1, 2, 3, 4, 5}, {6}],
        "pair {1,2,3,4,5}, {6}: |A\\B| = 2 not in L (mod 3)",
    ),
    ("diff-sperner", None, "1", None, 4, [{1}, {2, 3}], "pair {2,3}, {1}: |A\\B| = 2 not in L"),
    ("close-sperner", None, "1", None, 4, [{1, 2}, {3, 4}], "pair {1,2}, {3,4}: skew distance 2 not in L"),
    (
        "intersecting", 3, "1", None, 6, [{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5, 6}],
        "pair {1,2,3,4,5}, {1,2,3,4,5,6}: intersection size 5 not in L (mod 3)",
    ),
    (
        "intersecting", None, "1", None, 4, [{1, 2}, {3, 4}],
        "pair {1,2}, {3,4}: intersection size 0 not in L",
    ),
    (
        "intersecting-uniform", 3, None, 1, 7, [{1, 2, 3, 4}, {1, 5, 6, 7}],
        "pair {1,2,3,4}, {1,5,6,7}: intersection size 1 is congruent to 1 (mod 3)",
    ),
    (
        "hamming", 3, "1,2", None, 4, [{1}, {1, 2, 3, 4}],
        "pair {1}, {1,2,3,4}: Hamming distance 3 not in L (mod 3)",
    ),
    ("hamming", None, "1", None, 4, [set(), {1, 2}], "pair {}, {1,2}: Hamming distance 2 not in L"),
    ("antichain", None, None, None, 3, [{1}, {1, 2}], "pair {1} is contained in {1,2}"),
]


class TestViolationText:
    @pytest.mark.parametrize("kind,q,L,r,n,sets,expected", VIOLATIONS)
    def test_first_violation(self, kind, q, L, r, n, sets, expected, tmp_path, capsys):
        spec = ConstraintSpec(
            kind=Kind(kind),
            n=n,
            L=[int(x) for x in L.split(",")] if L else (),
            modulus=PrimePower.from_q(q) if q else None,
            uniform_residue=r,
        )
        fam = SetFamily.from_sets(n, sets)
        assert satisfies(spec, fam) == CheckResult(False, expected)
        path = tmp_path / "family.txt"
        path.write_text(format_family(fam))
        argv = ["check", "--kind", kind, "--file", str(path), "--n", str(n), "--json"]
        for flag, value in (("--q", q), ("--L", L), ("--uniform-residue", r)):
            if value is not None:
                argv += [flag, str(value)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["satisfied"], payload["violation"]) == (False, expected)

    def test_satisfies_matches_set_definitions(self):
        rng = random.Random(17)
        for spec in _oracle_specs():
            for _ in range(6):
                members = rng.sample(range(1 << spec.n), rng.randint(1, min(5, 1 << spec.n)))
                sets = [frozenset(i for i in range(spec.n) if m >> i & 1) for m in members]
                expected = all(oracle_admissible(spec, A) for A in sets) and all(
                    oracle_compatible(spec, A, B) for A, B in itertools.combinations(sets, 2)
                )
                assert satisfies(spec, SetFamily(spec.n, tuple(members))).ok == expected, spec


def first_violation_by_pairs(spec, members):
    """Oracle: the first failing member, else the first failing pair in
    member order, found by testing every pair in turn with one popcount
    each, over the same `_KINDS` records and wording as the library."""
    kd = _KINDS[spec.kind]
    for a in members:
        if not _admissible(spec, a.bit_count()):
            return _words(spec, kd.avoiding, a, a, a.bit_count())
    accepted = {}
    for j, a in enumerate(members):
        ka = a.bit_count()
        for b in members[j + 1 :]:
            kb = b.bit_count()
            ok = accepted.get((ka, kb))
            if ok is None:
                ok = accepted[ka, kb] = _accepted(spec, ka, kb)
            i = (a & b).bit_count()
            if i in ok:
                continue
            for x, y, kx, ky in ((a, b, ka, kb), (b, a, kb, ka)):
                v = kd.stat(kx, ky, i)
                if not kd.accept(spec, v):
                    return _words(spec, kd.pair, x, y, v)
    return None


def random_spec(rng, n):
    """A spec of a random kind on [n], with a random modulus where the kind
    allows one and a random non-empty L."""
    kind = rng.choice(list(Kind))
    if kind is Kind.ANTICHAIN:
        return ConstraintSpec(kind, n)
    q = rng.choice([None, 2, 3, 4, 5, 7, 8, 9])
    if kind is Kind.INTERSECTING_UNIFORM:
        q = q or 3
        return ConstraintSpec(kind, n, modulus=PrimePower.from_q(q), uniform_residue=rng.randrange(q))
    if kind is Kind.CLOSE_SPERNER:
        q = None
    lo = 0 if kind is Kind.INTERSECTING else 1
    pool = range(lo, q) if q else range(lo, n + 2)
    L = rng.sample(pool, rng.randint(1, len(pool)))
    return ConstraintSpec(kind, n, L=L, modulus=PrimePower.from_q(q) if q else None)


def random_members(rng, spec):
    """Members of mixed sizes: a greedy family that meets the spec, with a
    random extra member wedged in now and then (a violation at a random
    pair), or a plain random sample."""
    universe = 1 << spec.n
    if rng.random() < 0.3:
        return tuple(rng.sample(range(universe), rng.randint(0, min(8, universe))))
    members = []
    for _ in range(4 * spec.n + 4):
        cand = rng.randrange(universe)
        if cand not in members and satisfies(spec, SetFamily(spec.n, tuple(members + [cand]))):
            members.append(cand)
    if rng.random() < 0.6:
        extra = rng.randrange(universe)
        while rng.random() < 0.8 and not _admissible(spec, extra.bit_count()):
            extra = rng.randrange(universe)
        if extra not in members:
            members.append(extra)
    return tuple(members)


LAYER_14_6 = tuple(m for m in range(1 << 14) if m.bit_count() == 6)


class TestFirstViolationOracle:
    def test_random_families_all_kinds(self):
        rng = random.Random(20)
        seen = {kind: [0, 0] for kind in Kind}  # kind -> [satisfied, violated]
        for _ in range(700):
            spec = random_spec(rng, rng.randint(0, 9))
            members = SetFamily(spec.n, random_members(rng, spec)).members
            expected = first_violation_by_pairs(spec, members)
            assert _first_violation(spec, members) == expected, (spec, members)
            seen[spec.kind][expected is not None] += 1
        assert all(ok and bad for ok, bad in seen.values()), seen

    def test_empty_single_and_n_zero(self):
        rng = random.Random(21)
        for _ in range(200):
            spec = random_spec(rng, rng.randint(0, 6))
            for members in ((), (rng.randrange(1 << spec.n),)):
                assert _first_violation(spec, members) == first_violation_by_pairs(spec, members)
        for kind, L in ((Kind.INTERSECTING, {0}), (Kind.INTERSECTING, {1}), (Kind.HAMMING, {1})):
            spec = ConstraintSpec(kind, 0, L=L)
            assert _first_violation(spec, (0,)) == first_violation_by_pairs(spec, (0,))

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_violation_in_first_or_last_pair(self, where):
        # pairwise disjoint singletons, then {1,2} (meets the first) or
        # {4,5} (meets only the last singleton, and is the largest mask)
        spec = ConstraintSpec(Kind.INTERSECTING, 6, L={0})
        sets = [{1}, {2}, {3}, {4}] + [{1, 2} if where == "first" else {4, 5}]
        members = SetFamily.from_sets(6, sets).members
        pair = ("{1}, {1,2}" if where == "first" else "{4}, {4,5}")
        expected = f"pair {pair}: intersection size 1 not in L"
        assert first_violation_by_pairs(spec, members) == expected
        assert _first_violation(spec, members) == expected

    def test_six_layer_of_14(self):
        q8 = PrimePower.from_q(8)
        specs = [ConstraintSpec(Kind.ANTICHAIN, 14), ConstraintSpec(Kind.DIFF_SPERNER, 14, L=range(1, 7), modulus=q8)]
        victim = LAYER_14_6[400]
        mutated = SetFamily(14, tuple(victim & (victim - 1) if m == victim else m for m in LAYER_14_6))
        for spec in specs:
            assert satisfies(spec, SetFamily(14, LAYER_14_6)) == CheckResult(True, None)
            expected = first_violation_by_pairs(spec, mutated.members)
            assert expected is not None
            assert satisfies(spec, mutated) == CheckResult(False, expected)

    def test_constant_memory_in_n(self):
        # the counters are sized by the members' span, not by n
        n = 10**9
        fam = SetFamily.from_sets(n, [{1, 2}, {2, 3, 5}])
        specs = [
            (ConstraintSpec(Kind.ANTICHAIN, n), True),
            (ConstraintSpec(Kind.DIFF_SPERNER, n, L={1}), False),
        ]
        tracemalloc.start()
        try:
            results = [satisfies(spec, fam) for spec, _ in specs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.ok for r in results] == [ok for _, ok in specs]
        assert results[1].violation == "pair {2,3,5}, {1,2}: |A\\B| = 2 not in L"
        assert peak < 1 << 20


class TestPush:
    def test_single_small_member(self):
        fam = SetFamily.from_sets(4, [{1}])
        out = push_to_middle(fam, 2)
        (member,) = out.sets()
        assert len(member) == 2 and 1 in member

    def test_middle_band_unchanged(self):
        fam = SetFamily.from_sets(
            4, [set(c) for c in itertools.combinations(range(1, 5), 2)]
        )
        assert push_to_middle(fam, 2) == fam

    def test_mixed_sizes(self):
        fam = SetFamily.from_sets(4, [{1}, {2, 3, 4}])
        out = push_to_middle(fam, 2)
        sizes = sorted(len(s) for s in out.sets())
        assert sizes == [2, 2]
        assert satisfies(ConstraintSpec(kind=Kind.ANTICHAIN, n=4), out)
        # the input was [2]-close Sperner; the output must stay so
        assert satisfies(ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=4, L={1, 2}), out)

    def test_preconditions(self):
        fam = SetFamily.from_sets(4, [{1}, {1, 2}])
        with pytest.raises(ValueError):
            push_to_middle(fam, 2)  # not an antichain
        with pytest.raises(ValueError):
            push_to_middle(SetFamily.from_sets(4, [{1}]), 3)  # 2s > n

    def test_precondition_matches_pairwise_check(self):
        # push compares only members of different sizes; it must reject
        # exactly the families in which the all-pairs check finds a nesting
        def agrees(fam):
            nested = first_violation_by_pairs(ConstraintSpec(Kind.ANTICHAIN, fam.n), fam.members)
            try:
                push_to_middle(fam, fam.n // 2)
            except ValueError as e:
                assert str(e) == "push_to_middle requires an antichain"
                return nested is not None
            return nested is None

        for r in range(5):
            for members in itertools.combinations(range(16), r):
                assert agrees(SetFamily(4, members)), members
        rng = random.Random(88)
        outcomes = set()
        for _ in range(400):
            fam = random_antichain(rng, 8, rng.randint(2, 12))
            extra = rng.randrange(1 << 8)
            if rng.random() < 0.5 and extra not in fam.members:
                fam = SetFamily(8, fam.members + (extra,))
            assert agrees(fam), fam.members
            nested = first_violation_by_pairs(ConstraintSpec(Kind.ANTICHAIN, 8), fam.members)
            outcomes.add((len({m.bit_count() for m in fam.members}) > 1, nested is None))
        # mixed-size antichains and mixed-size nested families both occur
        assert {(True, True), (True, False)} <= outcomes

    def test_bracket_rule(self):
        # {1} is an unpaired ")" and takes the next unpaired position 2; in
        # {2} and {3} the ")" pairs with the "(" just before it and the
        # member takes the first unpaired "(" (3 and 1 respectively)
        fam = SetFamily.from_sets(4, [{1}, {2}, {3}])
        _, mapping = push_to_middle_with_map(fam, 2)
        assert mapping == {0b0001: 0b0011, 0b0010: 0b0110, 0b0100: 0b0101}

    @pytest.mark.parametrize(
        "n, k, s",
        [(14, 6, 7), (14, 8, 7), (12, 2, 5), (12, 10, 4), (11, 0, 5), (11, 11, 3), (9, 7, 2)],
    )
    def test_whole_layer(self, n, k, s):
        # a whole layer below the band is raised and one above it lowered,
        # every member straight to the band edge along its own chain, with
        # no search; the 3003 six-sets of [14] once overflowed a recursive
        # matching
        fam = SetFamily(n, tuple(m for m in range(1 << n) if m.bit_count() == k))
        out, mapping = push_to_middle_with_map(fam, s)
        level = min(max(k, s), n - s)
        assert len(out) == len(fam) == len(set(mapping.values()))
        assert all(m.bit_count() == level for m in out.members)
        if k <= level:
            assert all(orig & ~image == 0 for orig, image in mapping.items())
        else:
            assert all(image & ~orig == 0 for orig, image in mapping.items())

    def test_every_antichain_up_to_five(self):
        pushes = 0
        for n in range(6):
            for members in all_antichains(n):
                fam = SetFamily(n, members)
                for s in range(n // 2 + 1):
                    out, mapping = push_to_middle_with_map(fam, s)
                    assert len(out) == len(fam)
                    assert all(s <= m.bit_count() <= n - s for m in out.members)
                    for a, image in mapping.items():
                        assert a & image in (a, image)  # comparable
                    for a, b in itertools.permutations(members, 2):
                        fa, fb = mapping[a], mapping[b]
                        assert fa & ~fb, (n, s, members)  # still an antichain
                        if (a & ~b).bit_count() <= s:
                            assert (fa & ~fb).bit_count() <= s, (n, s, members)
                    pushes += 1
        assert pushes == 23304

    def test_randomized_case_analysis(self):
        rng = random.Random(20240802)
        for trial in range(60):
            n = rng.randint(4, 10)
            s = rng.randint(1, n // 2)
            fam = random_antichain(rng, n, rng.randint(1, 8))
            if not fam.members:
                continue
            out, mapping = push_to_middle_with_map(fam, s)
            assert len(out) == len(fam)
            assert all(s <= m.bit_count() <= n - s for m in out.members)
            assert satisfies(ConstraintSpec(kind=Kind.ANTICHAIN, n=n), out)
            # growth law behind the band transform: a difference that was
            # at most s stays at most s after the move
            for a, b in itertools.permutations(fam.members, 2):
                if (a & ~b).bit_count() <= s:
                    fa, fb = mapping[a], mapping[b]
                    assert (fa & ~fb).bit_count() <= s


class TestMaxFamily:
    def test_diff_q2_singletons(self):
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=5, L={1}, modulus=PrimePower.from_q(2)
        )
        res = max_family(spec)
        assert res.max_size == 5 and res.exact
        assert res.witness.sets() == [frozenset({i}) for i in range(1, 6)]
        assert satisfies(spec, res.witness)

    def test_pure_antichain(self):
        res = max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=4))
        assert res.max_size == 6

    def test_close_sperner_singletons(self):
        spec = ConstraintSpec(kind=Kind.CLOSE_SPERNER, n=3, L={1})
        res = max_family(spec)
        assert res.max_size == 3
        assert res.witness.sets() == [frozenset({1}), frozenset({2}), frozenset({3})]

    @pytest.mark.parametrize(
        "kind,L,q",
        [
            (Kind.DIFF_SPERNER, {1}, 2),
            (Kind.DIFF_SPERNER, {1, 2}, 3),
            (Kind.CLOSE_SPERNER, {1}, None),
            (Kind.HAMMING, {1, 2}, 3),
            (Kind.INTERSECTING, {0}, 2),
            (Kind.ANTICHAIN, set(), None),
        ],
    )
    def test_against_subfamily_enumeration(self, kind, L, q):
        spec = ConstraintSpec(
            kind=kind,
            n=3,
            L=L,
            modulus=PrimePower.from_q(q) if q else None,
        )
        res = max_family(spec)
        assert res.exact
        assert res.max_size == brute_max_by_enumeration(spec)
        assert satisfies(spec, res.witness)

    def test_empty_L_gives_single_member(self):
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=3, L=set())
        res = max_family(spec)
        assert res.max_size == 1

    def test_n_zero(self):
        res = max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=0))
        assert res.max_size == 1 and res.witness.members == (0,)

    def test_budget_truncation(self):
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=6, L={1}, modulus=PrimePower.from_q(2)
        )
        res = max_family(spec, node_budget=2)
        assert not res.exact
        assert res.max_size <= 6
        assert satisfies(spec, res.witness)

    def test_n_limit(self):
        with pytest.raises(ValueError):
            max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=13))

    def test_negative_budget(self, monkeypatch):
        spec = ConstraintSpec(kind=Kind.ANTICHAIN, n=3)
        with pytest.raises(ValueError, match="non-negative"):
            max_family(spec, node_budget=-1)
        monkeypatch.setenv("QSPERNER_NODE_BUDGET", "-1")
        with pytest.raises(ValueError, match="non-negative"):
            max_family(spec)
        assert satisfies(spec, max_family(spec, node_budget=0).witness)

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("QSPERNER_NODE_BUDGET", "2")
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=6, L={1}, modulus=PrimePower.from_q(2)
        )
        assert not max_family(spec).exact
        monkeypatch.delenv("QSPERNER_NODE_BUDGET")
        assert max_family(spec).exact

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        pp = PrimePower.from_q(3)
        n = 5
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=n, L={1, 2}, modulus=pp)
        base = max_family(spec)

        def relabel(mask, perm):
            out = 0
            for i in range(n):
                if mask >> i & 1:
                    out |= 1 << perm[i]
            return out

        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = SetFamily(n, tuple(relabel(m, perm) for m in base.witness.members))
            # the constraint only reads cardinalities, so a relabeled
            # maximum witness is again a maximum witness
            assert satisfies(spec, permuted)
            assert len(permuted) == base.max_size

    def test_uniform_kind_search(self):
        pp = PrimePower.from_q(2)
        spec = ConstraintSpec(
            kind=Kind.INTERSECTING_UNIFORM, n=5, modulus=pp, uniform_residue=1
        )
        res = max_family(spec)
        assert res.exact
        assert satisfies(spec, res.witness)
        # odd sizes with even pairwise intersections: at most n members
        assert res.max_size <= 5

    def test_witness_is_lex_smallest(self):
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=4, L={1}, modulus=PrimePower.from_q(2)
        )
        res = max_family(spec)
        assert res.witness.sets() == [frozenset({i}) for i in range(1, 5)]


def _oracle_specs():
    cases = [
        (Kind.DIFF_SPERNER, None, [{1}, {2}, {1, 2}, {1, 3}]),
        (Kind.DIFF_SPERNER, 2, [{1}]),
        (Kind.DIFF_SPERNER, 3, [{1}, {2}, {1, 2}]),
        (Kind.DIFF_SPERNER, 4, [{1, 3}, {1, 2, 3}, {2}]),
        (Kind.CLOSE_SPERNER, None, [{1}, {2}, {1, 2}, {2, 3}]),
        (Kind.INTERSECTING, None, [{0}, {1}, {0, 2}, {1, 2}]),
        (Kind.INTERSECTING, 2, [{0}, {1}]),
        (Kind.INTERSECTING, 3, [{0}, {1, 2}, {0, 2}]),
        (Kind.INTERSECTING, 4, [{1}, {0, 3}]),
        (Kind.HAMMING, None, [{1}, {2}, {1, 3}, {2, 3}, {1, 2, 4}]),
        (Kind.HAMMING, 2, [{1}]),
        (Kind.HAMMING, 3, [{1}, {2}, {1, 2}]),
        (Kind.HAMMING, 4, [{2}, {1, 2}, {1, 3}]),
        (Kind.INTERSECTING_UNIFORM, 2, [0, 1]),
        (Kind.INTERSECTING_UNIFORM, 3, [0, 1, 2]),
        (Kind.INTERSECTING_UNIFORM, 4, [1, 3]),
        (Kind.ANTICHAIN, None, [set()]),
    ]
    out = []
    for kind, q, variants in cases:
        for variant in variants:
            for n in range(1, 6):
                pp = PrimePower.from_q(q) if q else None
                if kind is Kind.INTERSECTING_UNIFORM:
                    spec = ConstraintSpec(kind=kind, n=n, modulus=pp, uniform_residue=variant)
                else:
                    spec = ConstraintSpec(kind=kind, n=n, L=variant, modulus=pp)
                out.append(spec)
    return out


class TestBruteForceOracle:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_omega_and_witness_match(self, kind):
        specs = [spec for spec in _oracle_specs() if spec.kind is kind]
        assert specs
        for spec in specs:
            res = max_family(spec)
            omega, witness = bron_kerbosch_witness(spec)
            assert res.exact
            assert (res.max_size, res.witness.members) == (omega, witness), spec

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_symmetry_group_preserves_graph(self, kind):
        # the search branches once per orbit of the declared group, which
        # is sound only if the group maps the compatibility graph to itself
        rng = random.Random(11)
        n = 6
        full = (1 << n) - 1
        key = _KINDS[kind].orbit
        specs = [spec for spec in _oracle_specs() if spec.kind is kind]
        for spec in rng.sample(specs, min(5, len(specs))):
            spec = ConstraintSpec(
                kind=kind, n=n, L=spec.L, modulus=spec.modulus,
                uniform_residue=spec.uniform_residue,
            )

            def pred(a, b):
                return (a & b).bit_count() in _accepted(spec, a.bit_count(), b.bit_count())

            for _ in range(40):
                perm = list(range(n))
                rng.shuffle(perm)
                shift = rng.randrange(full + 1) if kind is Kind.HAMMING else 0

                def image(m):
                    return sum(1 << perm[i] for i in range(n) if m >> i & 1) ^ shift

                a, b = rng.randrange(full + 1), rng.randrange(full + 1)
                assert key(image(a)) == key(a)
                assert pred(image(a), image(b)) == pred(a, b)
                single = SetFamily(n, (a,))
                moved = SetFamily(n, (image(a),))
                assert bool(satisfies(spec, single)) == bool(satisfies(spec, moved))


# (kind, q, variants): L for most kinds, the residue for the uniform kind;
# the empty L, an L out of reach of every statistic and the mod-2
# intersecting L = {0, 1} leave levels, or every level, accepting nothing
_GRAPH_CASES = [
    (Kind.DIFF_SPERNER, None, [set(), {1}, {2, 3}, {1, 2, 4}, {9}]),
    (Kind.DIFF_SPERNER, 3, [{1}, {1, 2}]),
    (Kind.DIFF_SPERNER, 4, [{2}, {1, 3}]),
    (Kind.CLOSE_SPERNER, None, [set(), {1}, {1, 2}, {3}, {5}]),
    (Kind.INTERSECTING, None, [set(), {0}, {1, 3}, {0, 2, 4}, {9}]),
    (Kind.INTERSECTING, 2, [{0, 1}, {1}]),
    (Kind.INTERSECTING, 3, [{0}, {1, 2}]),
    (Kind.HAMMING, None, [set(), {1}, {2, 4}, {1, 3, 5}, {9}]),
    (Kind.HAMMING, 3, [{1}, {1, 2}]),
    (Kind.HAMMING, 4, [{2}]),
    (Kind.INTERSECTING_UNIFORM, 2, [0, 1]),
    (Kind.INTERSECTING_UNIFORM, 3, [0, 2]),
    (Kind.INTERSECTING_UNIFORM, 4, [1]),
    (Kind.ANTICHAIN, None, [set()]),
]


class TestGraphOracle:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_build_matches_pairwise_definitions(self, kind):
        edgeless = 0
        for case_kind, q, variants in _GRAPH_CASES:
            if case_kind is not kind:
                continue
            pp = PrimePower.from_q(q) if q else None
            for variant in variants:
                for n in range(9):
                    if kind is Kind.INTERSECTING_UNIFORM:
                        spec = ConstraintSpec(kind=kind, n=n, modulus=pp, uniform_residue=variant)
                    else:
                        spec = ConstraintSpec(kind=kind, n=n, L=variant, modulus=pp)
                    verts, adj = _build_graph(spec)
                    assert (verts, adj) == pairwise_graph(spec), spec
                    edgeless += n >= 2 and not any(adj)
        # every kind but antichain has a spec with several vertices and no edge
        assert edgeless or kind is Kind.ANTICHAIN


def _relabellings(n, translations):
    """The maps b -> perm(b) ^ t on subsets of [n], as image lists."""
    for perm in itertools.permutations(range(n)):
        image = [sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in range(1 << n)]
        for t in range(1 << n) if translations else (0,):
            yield [m ^ t for m in image]


def _partition(n, key):
    classes = {}
    for m in range(1 << n):
        classes.setdefault(key(m), set()).add(m)
    return {frozenset(c) for c in classes.values()}


def _orbit_partition(n, group, fixing=()):
    return _partition(
        n, lambda m: frozenset(g[m] for g in group if all(g[c] == c for c in fixing))
    )


class TestOrbitKeys:
    """The keys the search branches on must be exactly the orbits of the
    declared groups (checked by listing the groups at n = 4)."""

    n = 4
    full = (1 << n) - 1

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_root_and_stabiliser_orbits(self, kind):
        group = list(_relabellings(self.n, kind is Kind.HAMMING))
        assert _partition(self.n, _KINDS[kind].orbit) == _orbit_partition(self.n, group)
        # the search roots Hamming at the empty set, every other kind anywhere
        roots = [0] if kind is Kind.HAMMING else range(1 << self.n)
        for r in roots:
            key = _region_key(_refine([self.full], r))
            assert _partition(self.n, key) == _orbit_partition(self.n, group, (r,)), r

    def test_stabiliser_of_chosen_sets(self):
        rng = random.Random(3)
        group = list(_relabellings(self.n, False))
        for _ in range(30):
            chosen = rng.sample(range(1 << self.n), rng.randint(1, 3))
            regions = [self.full]
            for c in chosen:
                regions = _refine(regions, c)
            assert _partition(self.n, _region_key(regions)) == _orbit_partition(
                self.n, group, chosen
            ), chosen


class TestSearchStats:
    def test_stats_split_the_node_count(self):
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=7, L={2, 3}, modulus=PrimePower.from_q(8)
        )
        res = max_family(spec)
        stats = res.stats
        assert set(stats) == {
            "graph_build_s", "vertices", "edges", "root_orbits", "search_nodes",
            "restore_nodes",
        }
        assert stats["vertices"] == 128
        assert 1 <= stats["root_orbits"] <= spec.n + 1
        assert res.nodes_explored == stats["search_nodes"] + stats["restore_nodes"]
        assert stats["graph_build_s"] >= 0

    def test_hamming_has_a_single_root_orbit(self):
        spec = ConstraintSpec(kind=Kind.HAMMING, n=6, L={1, 2}, modulus=PrimePower.from_q(3))
        res = max_family(spec)
        assert res.stats["root_orbits"] == 1
        assert res.witness.members[0] == 0

    def test_empty_graph(self):
        pp = PrimePower.from_q(2)
        spec = ConstraintSpec(kind=Kind.INTERSECTING, n=3, L={0, 1}, modulus=pp)
        res = max_family(spec)
        assert res.max_size == 0 and res.exact
        assert res.stats["vertices"] == 0 and res.nodes_explored == 0


class TestConstructionFromUniformShift:
    def test_tail_padded_uniform_system(self):
        # {A + fixed tail of a elements} with A ranging over s-subsets
        q, a, s, n = 9, 2, 3, 8
        pp = PrimePower.from_q(q)
        tail = set(range(n - a + 1, n + 1))
        members = [
            set(c) | tail for c in itertools.combinations(range(1, n - a + 1), s)
        ]
        fam = SetFamily.from_sets(n, members)
        spec = ConstraintSpec(
            kind=Kind.INTERSECTING, n=n, L=set(range(a, a + s)), modulus=pp
        )
        assert satisfies(spec, fam)
