import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsperner.cli import main
from qsperner.families import (
    _KINDS,
    _MAX_ELEMENT,
    DEFAULT_N_LIMIT,
    CheckResult,
    ConstraintSpec,
    Kind,
    SetFamily,
    _admissible,
    _CliqueSearch,
    _color_sort,
    _cube,
    _counting,
    _cuts,
    _elements,
    _first_violation,
    _graph_with_holders,
    _greedy_clique,
    _holders,
    _meet_planes,
    _meet_tables,
    _meeting,
    _on_chain,
    _orbits,
    _refine,
    _require_element,
    _root_orbits,
    _seed,
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

    @pytest.mark.parametrize(
        "n, sets, message",
        [
            (3, [[1, 0], [5]], "element 0 outside [1, 3]"),
            (3, [[2], [4, 1], [0]], "element 4 outside [1, 3]"),
            (2**31, [[2**40], [2**30 + 1]], "element 1099511627776 outside [1, 1073741824]"),
        ],
        ids=["zero-first", "past-n-first", "past-the-mask-limit"],
    )
    def test_from_sets_names_the_first_element_outside(self, n, sets, message):
        with pytest.raises(ValueError) as exc:
            SetFamily.from_sets(n, sets)
        assert str(exc.value) == message

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


def parent_parse_family(text, n=None):
    """`parse_family` as it was before it built masks in its own pass: every
    line parsed to a list of elements, then masks built as `from_sets`
    built them."""
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^\{\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\}$", line)
        if not m:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
        body = m.group(1).strip()
        sets.append([int(tok) for tok in body.split(",")] if body else [])
    if n is None:
        n = max((max(s) for s in sets if s), default=0)
    top = min(n, _MAX_ELEMENT)
    masks = []
    for s in sets:
        mask = 0
        for x in s:
            if not 1 <= x <= top:
                raise ValueError(f"element {x} outside [1, {top}]")
            mask |= 1 << (x - 1)
        masks.append(mask)
    return SetFamily(n, tuple(masks))


def outcome(parse, text, n):
    """The family parse gives, or the type and text of its refusal."""
    try:
        fam = parse(text, n)
    except ValueError as exc:
        return type(exc), str(exc)
    return fam.n, fam.members


# elements mostly in [0, 9], some past n, and some past 2^30, which no
# mask may hold; none near 2^30 itself, whose mask takes 128 MB
ELEMENTS = st.one_of(
    st.integers(0, 9),
    st.integers(10, 80),
    st.sampled_from([_MAX_ELEMENT + 1, 2**40, 10**30]),
)
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\u3000"])


@st.composite
def family_lines(draw):
    """One line of a family file: a set, possibly padded, a blank or
    comment line, or a malformed or unusual one (a digit other than 0-9
    parses)."""
    form = draw(st.sampled_from(["set", "set", "set", "blank", "comment", "malformed"]))
    if form == "set":
        elements = draw(st.lists(ELEMENTS, max_size=4))
        tokens = [
            draw(SPACE) + ("0" * draw(st.integers(0, 1))) + str(x) + draw(SPACE) for x in elements
        ]
        return draw(SPACE) + "{" + draw(SPACE) + ",".join(tokens) + "}" + draw(SPACE)
    if form == "blank":
        return draw(SPACE)
    if form == "comment":
        return draw(SPACE) + "#" + draw(st.sampled_from(["", " note", "{1,2}"]))
    return draw(
        st.sampled_from(["{1,2", "1,2}", "{1,,2}", "{,}", "{a}", "{-1}", "{1 2}", "{1;2}", "{1},", "{\u0661}"])
    )


class TestParseFamilyOracle:
    """`parse_family` builds each mask in the pass that parses its line;
    the parser it replaced, copied above, is the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(
        lines=st.lists(family_lines(), max_size=8),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\u2028", " "]), min_size=8, max_size=8),
        last=st.booleans(),
        n=st.one_of(st.none(), st.integers(-1, 12), st.just(2**31)),
    )
    def test_matches_the_parent_parser(self, lines, ends, last, n):
        text = "".join(line + end for line, end in zip(lines, ends))
        if not last and text:
            text = text[: -len(ends[len(lines) - 1])]
        assert outcome(parse_family, text, n) == outcome(parent_parse_family, text, n)

    @pytest.mark.parametrize(
        "text, n, message",
        [
            ("{0}\n{5}\n", None, "element 0 outside [1, 5]"),
            ("{0}\n{1073741825}\n", None, "element 0 outside [1, 1073741824]"),
            ("{3}\n{1073741825}\n{2}\n", 2, "element 3 outside [1, 2]"),
            ("{0}\n{1,\n", None, "line 2: cannot parse '{1,'"),
            ("{1}\n{1}\n", None, "duplicate members"),
        ],
        ids=["top-from-the-file", "top-capped", "top-from-n", "parse-error-first", "duplicate"],
    )
    def test_refusals(self, text, n, message):
        """An element is refused against the top of the whole file, and
        only once every line has parsed."""
        with pytest.raises(ValueError) as exc:
            parse_family(text, n)
        assert str(exc.value) == message


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

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            (Kind.ANTICHAIN, {"q": 7}, "antichain constraints are non-modular"),
            (Kind.ANTICHAIN, {"L": {5}}, "antichain constraints take no L"),
            (Kind.INTERSECTING_UNIFORM, {"q": 3, "r": 1, "L": {0}}, "uniform kind takes no L"),
            *[
                (kind, {"q": 7, "L": {1}, "r": 3}, f"kind {kind.value} takes no uniform residue")
                for kind in Kind
                if kind is not Kind.INTERSECTING_UNIFORM
            ],
        ],
    )
    def test_unread_inputs_refused(self, kind, fields, message):
        """A spec refuses an input its kind never reads, rather than
        answering as if it had not been given."""
        q = fields.get("q")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ConstraintSpec(
                kind, 4, L=fields.get("L", ()), modulus=PrimePower.from_q(q) if q else None,
                uniform_residue=fields.get("r"),
            )

    @staticmethod
    def per_kind_checks(kind, L, modulus, uniform_residue):
        """The spec checks as written kind by kind, before they read the
        kind records: the ValueError message, or the stored L and
        residue."""
        q = modulus.q if modulus is not None else None
        if uniform_residue is not None and kind is not Kind.INTERSECTING_UNIFORM:
            return f"kind {kind.value} takes no uniform residue"
        if kind in (Kind.DIFF_SPERNER, Kind.HAMMING):
            if q is not None:
                reduced = frozenset(ell % q for ell in L)
                if 0 in reduced:
                    return "L may not contain 0 modulo q"
                L = reduced
            elif any(ell < 1 for ell in L):
                return "L must contain positive integers"
        elif kind is Kind.CLOSE_SPERNER:
            if modulus is not None:
                return "close-Sperner constraints are non-modular"
            if any(ell < 1 for ell in L):
                return "L must contain positive integers"
        elif kind is Kind.INTERSECTING:
            if q is not None:
                L = frozenset(ell % q for ell in L)
            elif any(ell < 0 for ell in L):
                return "L must contain non-negative integers"
        elif kind is Kind.INTERSECTING_UNIFORM:
            if modulus is None or uniform_residue is None:
                return "uniform kind needs a modulus and a residue"
            if L:
                return "uniform kind takes no L"
            uniform_residue %= q
        else:
            if modulus is not None:
                return "antichain constraints are non-modular"
            if L:
                return "antichain constraints take no L"
        return frozenset(L), uniform_residue

    @given(
        kind=st.sampled_from(Kind),
        q=st.sampled_from([None, 2, 3, 4, 5, 7, 8, 9]),
        L=st.frozensets(st.integers(-2, 12), max_size=5),
        residue=st.none() | st.integers(-2, 12),
    )
    @settings(max_examples=400, deadline=None)
    def test_checks_match_the_per_kind_checks(self, kind, q, L, residue):
        """Every kind, with and without a modulus, L in [-2, 12] (empty
        included) and with or without a residue: the checks read from the
        kind records refuse with the same message, or store the same L and
        residue, as the checks written kind by kind."""
        modulus = PrimePower.from_q(q) if q else None
        try:
            spec = ConstraintSpec(kind, 4, L=L, modulus=modulus, uniform_residue=residue)
        except ValueError as exc:
            outcome = str(exc)
        else:
            outcome = spec.L, spec.uniform_residue
        assert outcome == self.per_kind_checks(kind, L, modulus, residue)


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
    ok = {}  # (|a|, |b|, |a∩b|) -> whether pair_violation passes the pair
    for j, a in enumerate(members):
        ka = a.bit_count()
        for b in members[j + 1 :]:
            key = (ka, b.bit_count(), (a & b).bit_count())
            if key not in ok:
                ok[key] = pair_violation(spec, a, b) is None
            if not ok[key]:
                return pair_violation(spec, a, b)
    return None


def pair_violation(spec, a, b):
    """Oracle: the words of the first of the pair's two statistics,
    stat(|a|, |b|, |a∩b|) then stat(|b|, |a|, |a∩b|), that the kind's
    `accept` rejects, or None when it accepts both."""
    kd = _KINDS[spec.kind]
    i = (a & b).bit_count()
    for x, y in ((a, b), (b, a)):
        v = kd.stat(x.bit_count(), y.bit_count(), i)
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


class TestMeetTables:
    @pytest.mark.parametrize("accepted", [True, False])
    def test_matches_pairwise_definitions(self, accepted):
        # per size k of the points: |A∩B| = i -> the points B that some
        # k-set A other than B accepts (or rejects) at i, by the set-based
        # pair conditions over every k-set A of [n]
        rng = random.Random(27)
        seen = set()
        for _ in range(150):
            spec = random_spec(rng, rng.randint(0, 7))
            as_set = [frozenset(i for i in range(spec.n) if m >> i & 1) for m in range(1 << spec.n)]
            points = rng.sample(range(1 << spec.n), rng.randint(1, min(10, 1 << spec.n)))
            levels = {}
            for j, b in enumerate(points):
                levels[b.bit_count()] = levels.get(b.bit_count(), 0) | 1 << j
            expected = {k: {} for k in levels}
            for a, A in enumerate(as_set):
                row = expected.get(len(A))
                if row is None:
                    continue
                for j, b in enumerate(points):
                    if a != b and oracle_compatible(spec, A, as_set[b]) == accepted:
                        i = (a & b).bit_count()
                        row[i] = row.get(i, 0) | 1 << j
            assert _meet_tables(spec, levels, accepted) == expected, (spec, points)
            seen.add((spec.kind, len(levels) > 1))
        assert seen >= {(kind, True) for kind in Kind}


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


def on_chain_by_scan(n, m, level):
    """Oracle: the bracket scan over every i < n."""
    kept, closes, opens = 0, [], []
    for i in range(n):
        if not m >> i & 1:
            opens.append(i)
        elif opens:
            opens.pop()
            kept |= 1 << i
        else:
            closes.append(i)
    for i in (closes + opens)[: level - kept.bit_count()]:
        kept |= 1 << i
    return kept


def chain_pairs(n, m):
    """The number p of bracket pairs of m: its chain runs from level p to
    n - p."""
    depth = pairs = 0
    for i in range(n):
        if not m >> i & 1:
            depth += 1
        elif depth:
            depth -= 1
            pairs += 1
    return pairs


class TestOnChain:
    def test_matches_bracket_scan(self):
        # every m below 2^n and every level of its chain, p to n - p;
        # the chain passes through m itself at level |m|
        for n in range(11):
            for m in range(1 << n):
                pairs = chain_pairs(n, m)
                assert pairs <= m.bit_count() <= n - pairs
                for level in range(pairs, n - pairs + 1):
                    assert _on_chain(n, m, level) == on_chain_by_scan(n, m, level), (n, m, level)
                assert _on_chain(n, m, m.bit_count()) == m

    def test_high_element(self):
        # {1} and {300000}, pushed to level 1 of 2^[300001]: both stay
        n = 300001
        for m in (1 << 1, 1 << 300000):
            assert _on_chain(n, m, 1) == m
        assert _on_chain(n, 1 << 300000, 2) == 1 | 1 << 300000


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
        # push reads its precondition from `satisfies` on the antichain
        # kind; it must reject exactly the families in which the all-pairs
        # check finds a nesting
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

    def test_large_two_level_antichain(self):
        # the 7-sets of [16] holding element 1 and the 9-sets missing it:
        # 10,010 members, none inside another, all pushed to level 8; one
        # 9-set holding a 7-set makes the family nested
        seven = [m for m in range(1 << 16) if m.bit_count() == 7 and m & 1]
        nine = [m for m in range(1 << 16) if m.bit_count() == 9 and not m & 1]
        fam = SetFamily(16, tuple(seven + nine))
        out = push_to_middle(fam, 8)
        assert len(out) == 10010 and {m.bit_count() for m in out.members} == {8}
        assert satisfies(ConstraintSpec(Kind.ANTICHAIN, 16), out)
        nested = SetFamily(16, fam.members + (seven[0] | 0b11 << 7,))
        with pytest.raises(ValueError, match="^push_to_middle requires an antichain$"):
            push_to_middle(nested, 8)

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

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_budget_counts_the_nodes_opened(self, budget):
        # a budget of N opens N nodes; the node it refuses is not counted
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=6, L={1}, modulus=PrimePower.from_q(2)
        )
        assert max_family(spec).stats["search_nodes"] > 2
        res = max_family(spec, node_budget=budget)
        assert not res.exact
        assert res.stats["search_nodes"] == res.nodes_explored == budget

    def test_n_limit(self):
        with pytest.raises(ValueError):
            max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=13))

    def test_element_limit_edge(self):
        """Element 2^30, the largest a mask may hold, passes, and the one
        above it is refused; the check builds no mask."""
        assert _require_element(_MAX_ELEMENT) is None
        with pytest.raises(ValueError, match=f"^element {_MAX_ELEMENT + 1} is above {_MAX_ELEMENT}, the largest"):
            _require_element(_MAX_ELEMENT + 1)

    def test_n_limit_edge_is_searched(self):
        """n = 12, the limit itself, is accepted: after one node the
        antichain search answers its seed, the middle layer of [12]."""
        res = max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=DEFAULT_N_LIMIT), node_budget=1)
        assert (DEFAULT_N_LIMIT, res.max_size, res.exact, res.nodes_explored) == (12, 924, False, 1)

    def test_negative_budget(self):
        spec = ConstraintSpec(kind=Kind.ANTICHAIN, n=3)
        with pytest.raises(ValueError, match="non-negative"):
            max_family(spec, node_budget=-1)
        assert satisfies(spec, max_family(spec, node_budget=0).witness)

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
        # the root merges levels k and n - k on an even n too, where level
        # n/2 is its own mirror, and on uniform specs with n = 2r mod q
        mirrored = [spec for spec in specs if spec.n % 2 == 0 and _KINDS[kind].complement(spec)]
        assert mirrored or kind in (Kind.INTERSECTING, Kind.HAMMING)
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
        specs = [spec for spec in _oracle_specs() if spec.kind is kind]
        for n, spec in itertools.product((5, 6), rng.sample(specs, min(5, len(specs)))):
            full = (1 << n) - 1

            def key(m):  # the root orbit: a size level, or all of 2^[n]
                return 0 if _KINDS[kind].translations else m.bit_count()

            spec = ConstraintSpec(
                kind=kind, n=n, L=spec.L, modulus=spec.modulus,
                uniform_residue=spec.uniform_residue,
            )
            if _KINDS[kind].complement(spec):
                assert complement_preserves_graph(spec), spec

            def pred(a, b):
                return pair_violation(spec, a, b) is None

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

    def test_complement_predicate(self):
        # diff-Sperner, close-Sperner and antichain have the symmetry for
        # every L, the uniform kind exactly when n = 2r mod q, and the
        # intersecting kind and Hamming are never declared to have it
        for n, spec in itertools.product((5, 6), _oracle_specs()):
            spec = ConstraintSpec(
                kind=spec.kind, n=n, L=spec.L, modulus=spec.modulus,
                uniform_residue=spec.uniform_residue,
            )
            expected = spec.kind in (Kind.DIFF_SPERNER, Kind.CLOSE_SPERNER, Kind.ANTICHAIN) or (
                spec.kind is Kind.INTERSECTING_UNIFORM and (n - 2 * spec.uniform_residue) % spec.q == 0
            )
            assert _KINDS[spec.kind].complement(spec) == expected, spec

    @pytest.mark.parametrize(
        "kind, q, L, r, n",
        [
            (Kind.INTERSECTING_UNIFORM, 2, (), 0, 5),
            (Kind.INTERSECTING_UNIFORM, 3, (), 1, 6),
            (Kind.INTERSECTING_UNIFORM, 4, (), 1, 5),
            (Kind.INTERSECTING_UNIFORM, 4, (), 3, 5),
            (Kind.INTERSECTING, None, {1}, None, 5),
            (Kind.INTERSECTING, None, {0, 2}, None, 6),
            (Kind.INTERSECTING, 3, {0}, None, 6),
        ],
    )
    def test_complement_false_where_it_breaks_the_graph(self, kind, q, L, r, n):
        # a uniform spec with n != 2r mod q and the intersecting kind: the
        # complement of some member, or of some compatible pair, is not one
        spec = ConstraintSpec(
            kind=kind, n=n, L=L, modulus=PrimePower.from_q(q) if q else None, uniform_residue=r
        )
        assert not _KINDS[kind].complement(spec)
        assert not complement_preserves_graph(spec)


def complement_preserves_graph(spec):
    """Whether A -> [n] \\ A maps the pairwise graph onto itself."""
    verts, adj = pairwise_graph(spec)
    full = (1 << spec.n) - 1
    index = {m: u for u, m in enumerate(verts)}
    if any(m ^ full not in index for m in verts):
        return False
    return all(
        (adj[u] >> w & 1) == (adj[index[a ^ full]] >> index[b ^ full] & 1)
        for u, a in enumerate(verts)
        for w, b in enumerate(verts)
    )


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
                    verts, adj, holders = _graph_with_holders(spec)
                    assert (verts, adj) == pairwise_graph(spec), spec
                    assert holders == _holders(verts), spec
                    edgeless += n >= 2 and not any(adj)
        # every kind but antichain has a spec with several vertices and no edge
        assert edgeless or kind is Kind.ANTICHAIN

    # two specs with inadmissible levels below admissible ones, whose rows
    # and holders are compressed, and two with every level admissible
    CUBE_SPECS = [
        (Kind.INTERSECTING_UNIFORM, 3, None, 2),
        (Kind.INTERSECTING, 2, {1}, None),
        (Kind.DIFF_SPERNER, 3, {1, 2}, None),
        (Kind.HAMMING, None, {1, 3}, None),
    ]

    def cube_specs(self, n):
        return [
            ConstraintSpec(
                kind=kind, n=n, L=L or (), modulus=PrimePower.from_q(q) if q else None,
                uniform_residue=r,
            )
            for kind, q, L, r in self.CUBE_SPECS
        ]

    def cube_graphs(self, n):
        return [_graph_with_holders(spec) for spec in self.cube_specs(n)]

    def test_cube_order_does_not_matter(self):
        # the cube of [n] is built on the first graph at n and kept; graphs
        # read off it must not depend on which n came first
        built = []
        for order in ((8, 5, 8), (5, 8, 5)):
            _cube.cache_clear()
            built.append({n: self.cube_graphs(n) for n in order})
            assert _cube.cache_info().currsize == 2
        assert built[0] == built[1]
        for spec, (verts, adj, holders) in zip(self.cube_specs(5), built[0][5]):
            assert (verts, adj) == pairwise_graph(spec) and holders == _holders(verts)

    def test_callers_cannot_corrupt_the_cube(self):
        n = 6
        first = self.cube_graphs(n)
        expected = [(list(v), list(a), dict(h)) for v, a, h in first]
        for verts, adj, holders in first:
            verts[0] ^= 1
            adj.clear()
            holders[0] = -1
        assert self.cube_graphs(n) == expected
        assert all(type(part) is tuple for part in _cube(n))
        assert all(type(meet) is tuple for meet in _cube(n)[3])

    def test_import_builds_no_cube(self):
        code = (
            "import qsperner, qsperner.cli\n"
            "from qsperner.families import _cube\n"
            "print(_cube.cache_info().currsize)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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


def _bit_sliced_partition(n, regions):
    """`_orbits` from all of 2^[n], vertex j standing for the set j, over
    `regions`, as sets."""
    parts = _orbits([(1 << (1 << n)) - 1], _holders(list(range(1 << n))), regions)
    return {frozenset(j for j in range(1 << n) if c >> j & 1) for c in parts}


def _mates(partition):
    """The classes of more than one set, the ones `_orbits` keeps."""
    return {c for c in partition if len(c) > 1}


class TestOrbitKeys:
    """The partitions the search branches on must be exactly the orbits of
    the declared groups (checked by listing the groups at n = 4)."""

    n = 4
    full = (1 << n) - 1

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_root_and_stabiliser_orbits(self, kind):
        group = list(_relabellings(self.n, kind is Kind.HAMMING))
        # split over [n], all of 2^[n] falls into its size levels
        levels = _mates(_orbit_partition(self.n, list(_relabellings(self.n, False))))
        assert _bit_sliced_partition(self.n, [self.full]) == levels
        # the search roots Hamming at the empty set, every other kind anywhere
        for r in [0] if kind is Kind.HAMMING else range(1 << self.n):
            regions = _refine([self.full], r)
            assert _bit_sliced_partition(self.n, regions) == _mates(
                _orbit_partition(self.n, group, (r,))
            ), r

    # per kind, specs with and without complement symmetry: the uniform kind
    # has it at n = 4 for r = 0 and r = 1 mod 2, not for r = 1 mod 3
    ROOT_SPECS = [
        (Kind.DIFF_SPERNER, 3, {1, 2}, None),
        (Kind.CLOSE_SPERNER, None, {1}, None),
        (Kind.ANTICHAIN, None, (), None),
        (Kind.INTERSECTING_UNIFORM, 2, (), 0),
        (Kind.INTERSECTING_UNIFORM, 2, (), 1),
        (Kind.INTERSECTING_UNIFORM, 3, (), 1),
        (Kind.INTERSECTING, None, {1}, None),
        (Kind.HAMMING, None, {1, 2}, None),
    ]

    @pytest.mark.parametrize("kind, q, L, r", ROOT_SPECS)
    def test_root_orbits_with_complement(self, kind, q, L, r):
        # the search's root orbits: those of the declared group, with
        # complementation added where the kind's predicate holds
        spec = ConstraintSpec(
            kind=kind, n=self.n, L=L, modulus=PrimePower.from_q(q) if q else None, uniform_residue=r
        )
        group = list(_relabellings(self.n, kind is Kind.HAMMING))
        if _KINDS[kind].complement(spec):
            group += [[g[m] ^ self.full for m in range(1 << self.n)] for g in group]
        verts = _graph_with_holders(spec)[0]
        orbits = _root_orbits(spec)
        assert orbits == sorted(orbits, key=lambda c: c & -c)
        assert sum(orbits) == (1 << len(verts)) - 1  # disjoint and covering
        found = {frozenset(verts[j] for j in range(len(verts)) if c >> j & 1) for c in orbits}
        expected = {c for c in _orbit_partition(self.n, group) if c <= set(verts)}
        assert found == expected
        if kind is not Kind.HAMMING:  # one orbit already
            merged = len(found) < len({m.bit_count() for m in verts})
            assert merged == _KINDS[kind].complement(spec)

    def test_stabiliser_of_chosen_sets(self):
        rng = random.Random(3)
        group = list(_relabellings(self.n, False))
        for _ in range(30):
            chosen = rng.sample(range(1 << self.n), rng.randint(1, 3))
            regions = [self.full]
            for c in chosen:
                regions = _refine(regions, c)
            assert _bit_sliced_partition(self.n, regions) == _mates(
                _orbit_partition(self.n, group, chosen)
            ), chosen

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_orbits_down_a_chain_of_branches(self, kind):
        # down random chains of branches, as the search takes them (the
        # candidates meet the branched vertex's row, less some of the
        # parent's orbits), both a child's orbits split from its parent's
        # over the regions its set cuts and those split from its
        # candidates over all its regions must be the candidates' classes
        # of more than one set under the enumerated stabiliser of the
        # chosen sets: the relabellings fixing them, for Hamming too once
        # rooted at the empty set
        group = list(_relabellings(self.n, False))
        rng = random.Random(29)
        draws = (random_spec(rng, self.n) for _ in range(200))
        specs = [spec for spec in draws if spec.kind is kind][:6]
        splits = 0
        for spec in specs:
            verts, adj, holders = _graph_with_holders(spec)
            for _ in range(10):
                P, regions, chosen = (1 << len(verts)) - 1, [self.full], []
                mates = _orbits([P], holders, regions)
                while P:
                    v = rng.choice([u for u in range(len(verts)) if P >> u & 1])
                    if kind is Kind.HAMMING and not chosen and 0 in verts:
                        v = 0
                    for c in mates:
                        if rng.random() < 0.2:
                            P &= ~c
                    P &= adj[v]
                    mates = _orbits([c & P for c in mates], holders, _cuts(regions, verts[v]))
                    regions = _refine(regions, verts[v])
                    chosen.append(verts[v])
                    inside = {verts[u] for u in range(len(verts)) if P >> u & 1}
                    expected = {
                        c for c in _mates(_orbit_partition(self.n, group, chosen)) if c <= inside
                    }
                    for parts in (mates, _orbits([P], holders, regions)):
                        found = {frozenset(verts[u] for u in _elements(c)) for c in parts}
                        assert found == expected, (spec, chosen)
                    splits += 1
        assert len(specs) == 6 and splits

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_split_orbits_match_a_fresh_count(self, kind):
        # the same chains on larger graphs, n <= 7, where the group is too
        # large to list: the split and the fresh count must agree
        rng = random.Random(29)
        draws = (random_spec(rng, rng.randint(1, 7)) for _ in range(600))
        specs = [spec for spec in draws if spec.kind is kind][:12]
        splits = 0
        for spec in specs:
            verts, adj, holders = _graph_with_holders(spec)
            P, regions = (1 << len(verts)) - 1, [(1 << spec.n) - 1]
            mates = _orbits([P], holders, regions)
            while P:
                v = rng.choice([u for u in range(len(verts)) if P >> u & 1])
                for c in mates:
                    if rng.random() < 0.2:
                        P &= ~c
                P &= adj[v]
                mates = _orbits([c & P for c in mates], holders, _cuts(regions, verts[v]))
                regions = _refine(regions, verts[v])
                fresh = _orbits([P], holders, regions)
                assert sorted(mates) == sorted(fresh), spec
                splits += 1
        assert len(specs) == 12 and splits

    def test_elements_held_by_no_vertex(self):
        # the 2-sets of [3] hold no element past 3, so a region reaching
        # into [4] counts as its part inside [3]
        verts = [m for m in range(1 << 3) if m.bit_count() == 2]
        holders = _holders(verts)
        assert len(holders) == 3
        everything = (1 << len(verts)) - 1
        for region in (0b1001, 0b1101):
            parts = _orbits([everything], holders, [region])
            inside = _orbits([everything], holders, [region & 0b111])
            assert parts == inside


def counted_int_type():
    """A fresh int subclass whose `steps` counts the big-int operations
    taken on its values and on the values they return."""

    class Counted(int):
        steps = 0

    def counted(name):
        def op(self, *args):
            Counted.steps += 1
            return Counted(getattr(int, name)(self, *args))

        return op

    for name in ("__and__", "__neg__", "__xor__", "__rshift__"):
        setattr(Counted, name, counted(name))
    return Counted


class TestHolders:
    def test_matches_membership(self):
        rng = random.Random(7)
        for _ in range(50):
            points = [rng.getrandbits(rng.choice((1, 6, 70, 300))) for _ in range(rng.randint(0, 12))]
            points += [1 << rng.randrange(5000)] if rng.random() < 0.5 else []
            expected = {}
            for j, p in enumerate(points):
                for e in range(p.bit_length()):
                    if p >> e & 1:
                        expected[e] = expected.get(e, 0) | 1 << j
            assert _holders(points) == expected

    def test_work_follows_the_held_elements(self):
        # {1} and {100001}: two steps per (point, held element), none per
        # element between them
        Counted = counted_int_type()
        holders = _holders([Counted(1), Counted(1 << 100000)])
        assert holders == {0: 0b01, 100000: 0b10}
        assert Counted.steps <= 2 * 2 * 2


@st.composite
def meeting_cases(draw):
    """Points over [10], x over [12] (elements 11 and 12 held by no point,
    x = 0 among them) and a table over the counts 0 to |x| + 2, each count
    with a random bitset of the points."""
    points = draw(st.lists(st.integers(0, (1 << 10) - 1), max_size=12))
    x = draw(st.integers(0, (1 << 12) - 1) | st.just(0))
    counts = draw(st.sets(st.integers(0, x.bit_count() + 2)))
    table = {i: draw(st.integers(0, (1 << len(points)) - 1)) for i in counts}
    return points, x, table


class TestMeeting:
    """`_meeting` gives `_counting(_meet_planes(...))`'s answer, reading the
    counts 0 and |x| from the holders."""

    @staticmethod
    def by_entries(points, x, table):
        """Oracle: count i -> the points j of table[i] with |points[j] & x| = i."""
        return {
            i: sum(1 << j for j, p in enumerate(points) if mask >> j & 1 and (p & x).bit_count() == i)
            for i, mask in table.items()
        }

    @given(meeting_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_planes_count_by_count(self, case):
        points, x, table = case
        holders = _holders(points)
        expected = self.by_entries(points, x, table)
        assert _counting(_meet_planes(x, holders), table) == expected
        assert _meeting(x, holders, table) == expected

    @pytest.mark.parametrize(
        "x, counts",
        [
            (0b0111, [0]),
            (0b0111, [3]),
            (0b0111, [0, 3, 4]),
            (0b0111, [5]),
            (0, [0, 1]),
            (0b1100_0000_0011, [0, 4]),  # elements 11 and 12 are held by no point
        ],
        ids=["zero", "all", "both-ends-and-above", "above", "empty-x", "unheld"],
    )
    def test_ends_build_no_planes(self, x, counts):
        """The counts 0, |x| and above are read from the holders, and
        every point's count is right at each of them."""
        points = [m for m in range(1 << 4)]
        table = {i: (1 << len(points)) - 1 for i in counts}
        holders = _holders(points)
        with mock.patch("qsperner.families._meet_planes", side_effect=AssertionError("planes built")):
            got = _meeting(x, holders, table)
        assert got == self.by_entries(points, x, table)

    def test_each_count_alone(self):
        """Every count from 0 to |x| + 1, alone in the table, on the 16
        points of [4]."""
        points = list(range(1 << 4))
        holders, everywhere = _holders(points), (1 << len(points)) - 1
        for x in (0, 0b0001, 0b0110, 0b0111, 0b1111):
            for i in range(x.bit_count() + 2):
                table = {i: everywhere}
                assert _meeting(x, holders, table) == self.by_entries(points, x, table), (x, i)

    def test_middle_counts_share_one_count(self):
        points = list(range(1 << 5))
        holders, everywhere = _holders(points), (1 << len(points)) - 1
        table = {i: everywhere for i in range(5)}
        with mock.patch("qsperner.families._meet_planes", wraps=_meet_planes) as planes:
            got = _meeting(0b11110, holders, table)
        assert planes.call_count == 1
        assert got == self.by_entries(points, 0b11110, table)


class TestSearchStats:
    def test_stats_split_the_node_count(self):
        spec = ConstraintSpec(
            kind=Kind.DIFF_SPERNER, n=7, L={2, 3}, modulus=PrimePower.from_q(8)
        )
        start = time.perf_counter()
        res = max_family(spec)
        wall = time.perf_counter() - start
        stats = res.stats
        timings = {"graph_build_s", "seed_s", "search_s", "restore_s"}
        assert set(stats) == timings | {
            "vertices", "edges", "seed_size", "seed_source",
            "root_orbits", "search_nodes", "restore_nodes", "orbit_nodes", "orbit_pruned",
        }
        assert stats["vertices"] == 128
        assert 1 <= stats["root_orbits"] <= spec.n + 1
        assert res.nodes_explored == stats["search_nodes"] + stats["restore_nodes"]
        assert all(stats[name] >= 0 for name in timings)
        assert sum(stats[name] for name in timings) <= wall  # the phases split the call

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
        assert (res.stats["seed_size"], res.stats["seed_source"]) == (0, "greedy")

    def test_one_pass_seed_beats_greedy_on_the_antichain(self):
        # in degree order the one-pass seed keeps the whole 4-layer of [9];
        # the greedy clique from the vertex of highest degree stops short
        res = max_family(ConstraintSpec(kind=Kind.ANTICHAIN, n=9))
        assert (res.stats["seed_size"], res.stats["seed_source"]) == (126, "degree order")
        assert res.max_size == 126 and res.exact


def _reference_coloring(P, adj):
    """Sequential greedy colouring: each vertex of P, ascending, goes to the
    lowest colour class holding none of its neighbours."""
    classes = []
    for v in (j for j in range(P.bit_length()) if P >> j & 1):
        for members in classes:
            if not any(adj[v] >> u & 1 for u in members):
                members.append(v)
                break
        else:
            classes.append([v])
    return [(v, c) for c, members in enumerate(classes, start=1) for v in members]


def _decider(adj, P, target, verts=(), holders=(), regions=None):
    """The search that asks for a clique of size target inside P as the
    witness restoration asks it: unbudgeted, its incumbent one short of the
    target, given the Venn regions of the sets P must be invariant under
    the stabiliser of (none: no orbits)."""
    search = _CliqueSearch(adj, None, verts, holders)
    search.best_size, search.best = target - 1, []
    search._expand([], P, target, regions)
    return search


def _decide(adj, P, target):
    """A clique of size target inside P, or None, with the nodes spent."""
    search = _decider(adj, P, target)
    return (search.best if search.best_size == target else None), search.nodes


def _random_graph(rng, nv, density):
    adj = [0] * nv
    for u, v in itertools.combinations(range(nv), 2):
        if rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


class TestCliqueKernels:
    def test_color_sort_lists_the_suffix_from_kmin(self):
        rng = random.Random(5)
        for _ in range(60):
            nv = rng.randint(1, 40)
            adj = _random_graph(rng, nv, rng.choice((0.1, 0.5, 0.9)))
            nadj = _CliqueSearch(adj, None).nadj
            P = rng.getrandbits(nv) | 1
            full = _reference_coloring(P, adj)
            for kmin in range(0, full[-1][1] + 2):
                order, bounds = _color_sort(P, nadj, kmin)
                assert list(zip(order, bounds)) == [(v, c) for v, c in full if c >= kmin]

    def test_deep_cliques_need_no_recursion(self):
        # the search descends one level per clique member, maximising or
        # deciding; a complete graph deeper than the interpreter's
        # recursion limit must finish
        nv = 1200
        assert sys.getrecursionlimit() < nv
        everything = (1 << nv) - 1
        adj = [everything ^ 1 << v for v in range(nv)]
        search = _CliqueSearch(adj, None)
        search._expand([], everything)
        assert search.best_size == nv and sorted(search.best) == list(range(nv))
        assert search.nodes == nv and search.exact
        clique, nodes = _decide(adj, everything, nv)
        assert sorted(clique) == list(range(nv)) and nodes == nv
        assert _decide(adj, everything, nv + 1) == (None, 0)

    def test_greedy_and_seed_match_their_plain_forms(self):
        # the greedy stops once its candidates are a clique and keeps its
        # degrees as counters seeded per class of equal degree, each vertex
        # in no class on its own, and degree order is read off orbits of
        # equal degree (single vertices here, or the root orbits and the
        # stabiliser orbits of start in a spec's graph): the plain
        # pick-by-pick greedy and a stable sort by degree must give the
        # same cliques
        def plain_greedy(start, adj):
            clique, cand = [start], adj[start]
            while cand:
                inside = [u for u in range(len(adj)) if cand >> u & 1]
                pick = max(inside, key=lambda u: ((adj[u] & cand).bit_count(), -u))
                clique.append(pick)
                cand &= adj[pick]
            return clique

        def plain_seed(adj):
            by_degree = sorted(range(len(adj)), key=lambda v: -adj[v].bit_count())
            best, source = plain_greedy(by_degree[0], adj), "greedy"
            for name, order in (("reverse order", range(len(adj) - 1, -1, -1)), ("degree order", by_degree)):
                clique, cand = [], -1
                for v in order:
                    if cand >> v & 1:
                        clique.append(v)
                        cand &= adj[v]
                if len(clique) > len(best):
                    best, source = clique, name
            return best, source

        def single_vertices(adj):
            return lambda v: [1 << u for u in range(len(adj)) if adj[v] >> u & 1]

        def some_equal_degree_classes(adj, rng):
            # vertices of adj[v] of one degree within it, some classes of
            # them leaving the rest out, and no class at all for some v
            def classes(v):
                by_degree = {}
                for u in _elements(adj[v]):
                    deg = (adj[u] & adj[v]).bit_count()
                    by_degree[deg] = by_degree.get(deg, 0) | 1 << u
                return [c for c in by_degree.values() if c & c - 1 and rng.random() < 0.5]

            return classes

        def stabiliser_orbits(spec, verts, adj, holders):
            return lambda v: _orbits([adj[v]], holders, _refine([(1 << spec.n) - 1], verts[v]))

        rng = random.Random(23)
        graphs = []
        for _ in range(60):
            nv = rng.randint(1, 40)
            adj = _random_graph(rng, nv, rng.choice((0.5, 0.9, 0.97, 1.0)))
            graphs.append((adj, [1 << v for v in range(nv)], single_vertices(adj)))
            graphs.append((adj, [1 << v for v in range(nv)], some_equal_degree_classes(adj, rng)))
        specs = [random_spec(rng, rng.randint(3, 7)) for _ in range(20)]
        specs += [
            ConstraintSpec(Kind.INTERSECTING_UNIFORM, 7, modulus=PrimePower.from_q(4), uniform_residue=0),
            ConstraintSpec(Kind.HAMMING, 6, L={1, 2}, modulus=PrimePower.from_q(3)),
            ConstraintSpec(Kind.CLOSE_SPERNER, 7, L={1, 2}),
        ]
        shared = 0
        for spec in specs:
            verts, adj, holders = _graph_with_holders(spec)
            if verts:
                groups = stabiliser_orbits(spec, verts, adj, holders)
                shared += sum(any(g & g - 1 for g in groups(v)) for v in range(len(adj)))
                graphs.append((adj, _root_orbits(spec), groups))
        assert shared
        for adj, orbits, groups in graphs:
            for start in range(len(adj)):
                assert _greedy_clique(start, adj, groups(start)) == plain_greedy(start, adj)
            assert _seed(adj, orbits, groups) == plain_seed(adj)

    def test_decision_search_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(18)
        for _ in range(40):
            nv = rng.randint(1, 40)
            adj = _random_graph(rng, nv, rng.choice((0.1, 0.5, 0.9)))
            P = rng.getrandbits(nv)
            inside = [v for v in range(nv) if P >> v & 1]
            graph = nx.Graph()
            graph.add_nodes_from(inside)
            graph.add_edges_from((u, v) for u in inside for v in inside if u < v and adj[u] >> v & 1)
            omega = nx.max_weight_clique(graph, weight=None)[1]
            for target in range(nv + 2):
                clique, _ = _decide(adj, P, target)
                assert (clique is not None) == (target <= omega)
                if clique is not None:
                    assert len(set(clique)) == target
                    assert all(P >> v & 1 for v in clique)
                    assert all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2))


class TestOrbitalBranching:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_decisions_below_a_clique_match_networkx(self, kind):
        # below a random clique C of a random spec, the common neighbours of
        # C are invariant under the stabiliser of C's sets; dropping whole
        # orbits of it at every depth must decide every target as the plain
        # search and networkx do
        nx = pytest.importorskip("networkx")
        rng = random.Random(19)
        draws = (random_spec(rng, rng.randint(4, 6)) for _ in range(400))
        specs = [spec for spec in draws if spec.kind is kind][:10]
        pruned = 0
        for spec in specs:
            verts, adj, holders = _graph_with_holders(spec)
            P, regions = (1 << len(verts)) - 1, [(1 << spec.n) - 1]
            for _ in range(rng.randint(1, 2)):
                if not P:
                    break
                c = rng.choice([v for v in range(len(verts)) if P >> v & 1])
                P, regions = P & adj[c], _refine(regions, verts[c])
            inside = [v for v in range(len(verts)) if P >> v & 1]
            graph = nx.Graph()
            graph.add_nodes_from(inside)
            graph.add_edges_from((u, v) for u in inside for v in inside if u < v and adj[u] >> v & 1)
            omega = nx.max_weight_clique(graph, weight=None)[1]
            for target in range(len(inside) + 2):
                plain = _decider(adj, P, target)
                orbital = _decider(adj, P, target, verts, holders, regions)
                pruned += orbital.orbit_pruned
                found = orbital.best_size == target
                assert found == (plain.best_size == target) == (target <= omega), spec
                if found:
                    clique = orbital.best
                    assert len(set(clique)) == target and all(P >> v & 1 for v in clique)
                    assert all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
        assert len(specs) == 10 and pruned

    def test_maxima_below_a_clique_match_the_plain_search(self):
        # n = 7 graphs are large enough that orbits taken over the wrong
        # regions (a child's sets not refining its parent's) lose the
        # maximum; the plain search is checked against networkx above
        rng = random.Random(7)
        compared = 0
        for _ in range(400):
            spec = random_spec(rng, 7)
            verts, adj, holders = _graph_with_holders(spec)
            P, regions = (1 << len(verts)) - 1, [(1 << spec.n) - 1]
            for _ in range(rng.randint(1, 3)):
                if not P:
                    break
                c = rng.choice([v for v in range(len(verts)) if P >> v & 1])
                P, regions = P & adj[c], _refine(regions, verts[c])
            plain = _CliqueSearch(adj, 2000)
            plain._expand([], P)
            if not plain.exact:
                continue
            orbital = _CliqueSearch(adj, 2000, verts, holders)
            orbital._expand([], P, regions=regions)
            assert orbital.exact and orbital.best_size == plain.best_size, spec
            compared += 1
        assert compared >= 390

    def test_singleton_regions_compute_no_orbits(self):
        n = 6
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=n, L={1, 2}, modulus=PrimePower.from_q(3))
        verts, adj, holders = _graph_with_holders(spec)
        everything = (1 << len(verts)) - 1
        plain = _CliqueSearch(adj, None)
        plain._expand([], everything)
        singletons = _CliqueSearch(adj, None, verts, holders)
        singletons._expand([], everything, regions=[1 << e for e in range(n)])
        assert (singletons.orbit_nodes, singletons.orbit_pruned) == (0, 0)
        assert (singletons.nodes, singletons.best) == (plain.nodes, plain.best)
        # the whole of [n] as one region splits the root into size levels
        whole = _CliqueSearch(adj, None, verts, holders)
        whole._expand([], everything, regions=[(1 << n) - 1])
        assert whole.orbit_nodes and whole.orbit_pruned
        assert whole.best_size == plain.best_size

    def test_diff_q8_n10_is_exact(self):
        # one of three n = 10 instances that stopped inexact after 300,000
        # nodes while only the top two levels branched on orbits
        spec = ConstraintSpec(kind=Kind.DIFF_SPERNER, n=10, L={2, 3}, modulus=PrimePower.from_q(8))
        res = max_family(spec)
        assert res.exact and res.max_size == 15
        assert satisfies(spec, res.witness)
        assert res.stats["search_nodes"] + res.stats["restore_nodes"] < 12_000


class TestKnownCodeSizes:
    """Non-modular Hamming with L = {d..n} is the binary code problem, so
    its maximum is A(n, d), known from the literature (MacWilliams and
    Sloane 1977; Brouwer's table): an oracle outside the bound portfolio.
    The values are test data only, never inputs to the search."""

    @pytest.mark.parametrize(
        "n, d, known", [(7, 3, 16), (8, 4, 16), (8, 5, 4), (9, 4, 20), (9, 5, 6), (10, 5, 12)]
    )
    def test_search_finds_A_n_d(self, n, d, known):
        spec = ConstraintSpec(kind=Kind.HAMMING, n=n, L=range(d, n + 1))
        res = max_family(spec)
        assert res.exact and res.max_size == known
        assert satisfies(spec, res.witness)


class TestErdosKoRado:
    """Intersecting-uniform with residue 0 modulo q = k on [2k] admits only
    the empty set, the k-sets and [2k]; the empty set and [2k] each conflict
    with every k-set, and two k-sets are compatible when they meet.  So the
    maximum is the Erdos-Ko-Rado value C(2k-1, k-1), an oracle outside the
    bound portfolio.  The values are test data only, never inputs to the
    search."""

    @pytest.mark.parametrize("k, known", [(3, 10), (4, 35), (5, 126)])
    def test_search_finds_the_ekr_value(self, k, known):
        spec = ConstraintSpec(
            kind=Kind.INTERSECTING_UNIFORM, n=2 * k, modulus=PrimePower.from_q(k), uniform_residue=0
        )
        res = max_family(spec)
        assert res.exact and res.max_size == known
        assert satisfies(spec, res.witness)


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
