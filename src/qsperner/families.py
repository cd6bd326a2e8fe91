"""Set-family model, constraint predicates, push-to-the-middle, and exact
maximum-family search via branch-and-bound clique search.

Members of a family over the ground set [n] are stored as bit masks with
bit i-1 standing for element i.  Every constraint kind reads only |A|, |B|
and |A∩B|, and each is defined once, as a record of `_KINDS`: its member
condition, its pair statistic with the values it accepts, the wording of
its violations, its symmetry group, the modulus and L it accepts and its
hypothesis in a bound's certificate.  `satisfies` and the search read
that record through one acceptance table per spec (`_meet_tables`: per
size level, the |A∩B| values each level accepts, reading `accept` once
per statistic value), and both count |A∩B| bit-sliced, against many sets
at once; where a member's table holds only the counts 0 and |A| (and
none between), `satisfies` reads them from the holders of A's elements
alone (`_meeting`).  The antichain precondition of push-to-the-middle
compares only members of different sizes.
The maximum-family search builds the compatibility graph (admissible
subsets as vertices, edges where the pairwise constraint holds) from the
cube of [n], which no spec changes and which is built once per n on
first use: for each subset m, the bitsets of the subsets meeting m in i
elements, i = 0..|m| (about 0.3 MB at n = 9 and 14 MB at n = 12).  A
spec only chooses which i each pair of size levels accepts, so a row is
an OR of those bitsets, masked by level.  The search runs a deterministic
branch-and-bound maximum clique with greedy-coloring upper bounds on
bitset adjacency rows.  It starts from the larger of a greedy clique and
one-pass cliques in reverse and degree order; the greedy clique keeps the
degrees within its candidates as bit-plane counters, seeded once per
orbit of its start's stabiliser and lowered by the rows of the
candidates each pick drops.  The search lists only the vertices
whose colour can beat the incumbent (the k_min cut-off of MCS/BBMC), and
keeps its depth-first path on an explicit stack, so a clique of thousands
of members needs no recursion.

The search breaks the symmetry of the constraint kinds by orbital
branching (Ostrowski, Linderoth, Rossi & Smriglio, Math. Programming
2011) at every depth.  Every kind is invariant under relabelling [n],
whose orbits on subsets are the size levels; Hamming distance is also
invariant under XOR translation, which makes 2^[n] a single orbit, and
most kinds under complementation, which merges levels k and n - k.  The
search branches once per orbit, rooted at the orbit's least vertex
({1..k} for levels k <= n/2 and n - k, the empty set for Hamming).
Below the root, the stabiliser of the clique's sets keeps each node's
candidates, and a vertex branched on takes its whole orbit out of them.
The canonical witness, the lexicographically smallest maximum clique, is
then restored vertex by vertex.  Whether a candidate extends the chosen
ones to a maximum clique is decided by the search's own loop, orbits
included, started with its incumbent one short of the size still needed
and stopped when it gets there; a candidate that fails takes its whole
orbit under the stabiliser of the sets chosen so far with it.  The root
orbits are read off the level sizes.  Every other orbit, of a stabiliser
of sets, is a class of equal counts |b ∩ x| over their Venn regions x,
and one routine (`_orbits`) splits classes by those counts held
bit-sliced: a node's orbits are its parent's, split only over the regions
that the set just added cuts, and a node without its parent's orbits,
restoration and the greedy seed split their candidates over every
region.
"""

from __future__ import annotations

import math
import re
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .padic import PrimePower, _text, _written_q

__all__ = [
    "Kind",
    "SetFamily",
    "ConstraintSpec",
    "CheckResult",
    "SearchResult",
    "satisfies",
    "push_to_middle",
    "push_to_middle_with_map",
    "max_family",
    "parse_family",
    "format_family",
    "DEFAULT_N_LIMIT",
]

DEFAULT_N_LIMIT = 12
# the largest element a set mask may hold: a mask of 2^30 bits takes 128 MB
_MAX_ELEMENT = 1 << 30


def _require_element(x: int) -> None:
    """Refuse element x, before any mask holding it is built, when it is
    above `_MAX_ELEMENT`."""
    if x > _MAX_ELEMENT:
        raise ValueError(f"element {_text(x)} is above {_MAX_ELEMENT}, the largest a set mask may hold")


class Kind(str, Enum):
    DIFF_SPERNER = "diff-sperner"
    CLOSE_SPERNER = "close-sperner"
    INTERSECTING = "intersecting"
    INTERSECTING_UNIFORM = "intersecting-uniform"
    HAMMING = "hamming"
    ANTICHAIN = "antichain"


@dataclass(frozen=True)
class SetFamily:
    """An ordered duplicate-free list of subsets of [n], kept in canonical
    order (ascending numeric bit-mask value)."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be non-negative")
        members = tuple(sorted(self.members))
        for m in members:
            if m < 0 or m >> self.n:
                raise ValueError(f"member mask {m:#x} not a subset of [{_text(self.n)}]")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        top = min(n, _MAX_ELEMENT)  # no mask holds an element past _MAX_ELEMENT
        masks, outside = _masks(sets, top)
        if outside:
            raise ValueError(f"element {_text(outside[0])} outside [1, {_text(top)}]")
        return cls(n, tuple(masks))

    def sets(self) -> list[frozenset[int]]:
        return [frozenset(i + 1 for i in _elements(m)) for m in self.members]


def _masks(sets, top: int) -> tuple[list[int], list[int]]:
    """Each set of ints as its mask, and the elements outside [1, top] in
    the order met; an element is range-checked before it is shifted in,
    and one outside is left out of its mask."""
    masks, outside = [], []
    for s in sets:
        mask = 0
        for x in s:
            if 1 <= x <= top:
                mask |= 1 << (x - 1)
            else:
                outside.append(x)
        masks.append(mask)
    return masks, outside


_LINE_RE = re.compile(r"^\{\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\}$")


def _member_lines(text: str):
    """The elements of each member line of text, refusing a line that
    does not parse where it is met."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
        body = m.group(1)  # empty, or opening with a digit
        yield map(int, body.split(",")) if body else ()


def parse_family(text: str, n: int | None = None) -> SetFamily:
    """Parse the one-set-per-line format: `{1,3,5}` per line, `{}` for the
    empty set; blank lines and lines starting with '#' are ignored.

    Each line becomes its member's mask in the pass that matches it, by
    the `_masks` that `from_sets` builds with.  A line that does not parse
    is refused where it is met; an element outside [1, top] only once
    every line has parsed, as `from_sets` would refuse it: top is
    min(n, `_MAX_ELEMENT`), n the largest element when none is given."""
    masks, outside = _masks(_member_lines(text), _MAX_ELEMENT if n is None else min(n, _MAX_ELEMENT))
    # none given, n is the largest element: the top bit of the largest mask, or one refused
    n = max([max(masks, default=0).bit_length(), *outside]) if n is None else n
    if outside:
        raise ValueError(f"element {outside[0]} outside [1, {min(n, _MAX_ELEMENT)}]")
    return SetFamily(n, tuple(masks))


def format_family(fam: SetFamily) -> str:
    return "".join(_set_str(m) + "\n" for m in fam.members)


@dataclass(frozen=True)
class ConstraintSpec:
    """Family kind plus the residue set L, optional modulus, and ground-set
    size; the object every predicate, search, and bound rule consumes."""

    kind: Kind
    n: int
    L: frozenset[int] = frozenset()
    modulus: PrimePower | None = None
    uniform_residue: int | None = None

    def __post_init__(self):
        """Check the input against the kind's contract in `_KINDS` (see
        `_KindDef`); a modular L is reduced modulo q, and may not hold 0
        there where `least` is 1.  The uniform kind alone needs a modulus
        and reads a residue in place of L."""
        kind = Kind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "L", frozenset(self.L))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        kd = _KINDS[kind]
        q = self.q
        if kind is Kind.INTERSECTING_UNIFORM:
            if q is None or self.uniform_residue is None:
                raise ValueError("uniform kind needs a modulus and a residue")
            if self.L:
                raise ValueError("uniform kind takes no L")
            object.__setattr__(self, "uniform_residue", self.uniform_residue % q)
        elif self.uniform_residue is not None:
            raise ValueError(f"kind {kind.value} takes no uniform residue")
        elif q is not None:
            if kd.modular is None:
                raise ValueError(f"{kd.noun} constraints are non-modular")
            reduced = frozenset(ell % q for ell in self.L)
            if kd.least and 0 in reduced:
                raise ValueError("L may not contain 0 modulo q")
            object.__setattr__(self, "L", reduced)
        elif kd.least is None:
            if self.L:
                raise ValueError(f"{kd.noun} constraints take no L")
        elif any(ell < kd.least for ell in self.L):
            raise ValueError(f"L must contain {'positive' if kd.least else 'non-negative'} integers")

    @property
    def q(self) -> int | None:
        return self.modulus.q if self.modulus is not None else None


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violation: str | None = None

    def __bool__(self):
        return self.ok


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in _elements(mask)) + "}"


def _in_L(spec: ConstraintSpec, v: int) -> bool:
    return (v if spec.q is None else v % spec.q) in spec.L


def _off_residue(spec: ConstraintSpec, v: int) -> bool:
    return v % spec.q != spec.uniform_residue


@dataclass(frozen=True)
class _KindDef:
    """One constraint kind, written over cardinalities.

    A pair A, B is compatible when `accept(spec, v)` holds for both pair
    statistics v = stat(|A|, |B|, |A∩B|) and stat(|B|, |A|, |A∩B|), one
    value for every kind but diff-Sperner and antichain.  `avoiding` is set
    for the kinds whose members must fail that test themselves (|A| = |A∩A|
    may not be accepted) and words that member violation, as `pair` words
    the pair violation: X and Y are the sets, v the statistic, res it
    reduced mod q, mod the " (mod q)" suffix of modular specs, q and r the
    modulus and uniform residue.
    The kind's symmetry group (see `_root_orbits`) holds relabelling [n]
    for every kind, whose orbits are the size levels; `translations` adds
    XOR translation b -> b ^ t, which makes all of 2^[n] one orbit (for
    Hamming).  `complement(spec)` holds when b -> [n] \\ b is a symmetry
    too, merging levels k and n - k: it swaps |A \\ B| and
    |B \\ A|, keeps min(|A|, |B|) - |A∩B| and reverses containment, and
    for the uniform kind maps |A∩B| = i to n - |A| - |B| + i, which is
    i mod q on members of size r mod q exactly when n = 2r mod q.  It is
    false for the intersecting kind, and for Hamming, whose translations
    already hold it.
    The kind's input contract and the wording of its bound hypothesis:
    `plain` states the kind when L is read as it is, `modular` when it is
    read modulo q (naming q as {q} and the uniform residue as {r}), and a
    kind with no modular wording takes no modulus.  `least` is the least
    element a non-modular L may hold, None for a kind that takes no L, and
    `noun` names the kind where a modulus or an L is refused."""

    stat: Callable[[int, int, int], int]
    accept: Callable[[ConstraintSpec, int], bool]
    pair: str
    avoiding: str | None = None
    translations: bool = False
    complement: Callable[[ConstraintSpec], bool] = lambda spec: True
    plain: str | None = None
    modular: str | None = None
    least: int | None = 1
    noun: str = ""


_KINDS = {
    Kind.DIFF_SPERNER: _KindDef(
        lambda kx, ky, i: kx - i, _in_L,
        "pair {X}, {Y}: |A\\B| = {res} not in L{mod}",
        plain="family is L-differencing Sperner (non-modular)",
        modular="family is {q}-modular L-differencing Sperner",
    ),
    Kind.CLOSE_SPERNER: _KindDef(
        lambda kx, ky, i: min(kx, ky) - i, _in_L,
        "pair {X}, {Y}: skew distance {v} not in L",
        plain="family is L-close Sperner", noun="close-Sperner",
    ),
    Kind.INTERSECTING: _KindDef(
        lambda kx, ky, i: i, _in_L,
        "pair {X}, {Y}: intersection size {v} not in L{mod}",
        avoiding="member {X}: size {v} lies in L{mod}",
        complement=lambda spec: False,
        plain="family is L-intersecting (non-modular)",
        modular="family is {q}-modular L-avoiding L-intersecting", least=0,
    ),
    Kind.INTERSECTING_UNIFORM: _KindDef(
        lambda kx, ky, i: i, _off_residue,
        "pair {X}, {Y}: intersection size {v} is congruent to {r} (mod {q})",
        avoiding="member {X}: size {v} is not congruent to {r} (mod {q})",
        complement=lambda spec: (spec.n - 2 * spec.uniform_residue) % spec.q == 0,
        modular="member sizes are congruent to {r} and no intersection is (mod {q})", least=None,
    ),
    Kind.HAMMING: _KindDef(
        lambda kx, ky, i: kx + ky - 2 * i, _in_L,
        "pair {X}, {Y}: Hamming distance {v} not in L{mod}",
        translations=True,
        complement=lambda spec: False,
        plain="pairwise Hamming distances lie in L",
        modular="pairwise Hamming distances lie in L modulo {q}",
    ),
    Kind.ANTICHAIN: _KindDef(
        lambda kx, ky, i: kx - i, lambda spec, v: v > 0,
        "pair {X} is contained in {Y}",
        least=None, noun="antichain",
    ),
}


def _admissible(spec: ConstraintSpec, k: int) -> bool:
    """Whether a member of size k is allowed."""
    kd = _KINDS[spec.kind]
    return kd.avoiding is None or not kd.accept(spec, k)


def _words(spec: ConstraintSpec, text: str, x: int, y: int, v: int) -> str:
    q, r = spec.q, spec.uniform_residue
    written = None if q is None else _written_q(spec.modulus)
    return text.format(
        X=_set_str(x),
        Y=_set_str(y),
        v=v,
        res=v if q is None else v % q,
        mod="" if q is None else f" (mod {written})",
        q=written,
        r=None if r is None else _text(r),
    )


# ---------------------------------------------------------------------------
# bit-sliced meet counts (San Segundo, Rodríguez-Losada & Jiménez, Comput.
# Oper. Res. 2011): |m ∩ b| against every point b of a list at once, as
# bit-plane counters over the points' indices


def _elements(m: int):
    """The bit positions of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _holders(points) -> dict[int, int]:
    """For each element e some point holds, and for no other, the bitset
    of the indices j with e in points[j]."""
    held = 0
    for p in points:
        held |= p
    return {
        e: int("".join("1" if p >> e & 1 else "0" for p in reversed(points)), 2)
        for e in _elements(held)
    }


def _meet_planes(x: int, holders: dict[int, int]) -> list[int]:
    """The counts |p ∩ x| of every point p, as bit-plane counters over the
    points' indices (plane b holds bit b of each count), adding one at the
    points holding each element of x by ripple carry.  An element no
    point holds adds nothing."""
    planes: list[int] = []
    for e in _elements(x):
        carry = holders.get(e, 0)
        for b, p in enumerate(planes):
            planes[b] = p ^ carry
            carry &= p
        if carry:
            planes.append(carry)
    return planes


def _counting(planes: list[int], table: dict[int, int]) -> dict[int, int]:
    """For every i of the table, the points whose count is i among the
    points of table[i]."""
    out = dict.fromkeys(table, 0)
    for i, mask in table.items():
        if not i >> len(planes):  # else i has more bits than any count
            for b, p in enumerate(planes):  # each plane matches i's bit
                mask &= p if i >> b & 1 else ~p
            out[i] = mask
    return out


def _meeting(x: int, holders: dict[int, int], table: dict[int, int]) -> dict[int, int]:
    """`_counting(_meet_planes(x, holders), table)`, with the planes built
    only when the table holds a count strictly between 0 and |x|.
    Otherwise each count is read straight from the holders: the points
    meeting x in all |x| of its elements are those holding each, the
    points meeting it in none those holding none, and no point meets it
    in more."""
    size = x.bit_count()
    for i in table:
        if 0 < i < size:
            return _counting(_meet_planes(x, holders), table)
    out = {}
    for i, mask in table.items():
        if i == size:
            for e in _elements(x):
                mask &= holders.get(e, 0)
        elif i == 0:
            for e in _elements(x):
                mask &= ~holders.get(e, 0)
        else:
            mask = 0
        out[i] = mask
    return out


def _meet_tables(
    spec: ConstraintSpec, levels: dict[int, int], accepted: bool = True
) -> dict[int, dict[int, int]]:
    """For each size k of `levels` (size -> bitset of points): |A∩B| = i ->
    the OR of the levels whose sets B a k-set A accepts at i, over the i at
    which a distinct set of that size can meet A; with `accepted` false,
    those it rejects at i instead.  A pair is accepted when both stat(|A|,
    |B|, i) and stat(|B|, |A|, i) are, and the kind's `accept` is read once
    per statistic value that occurs."""
    kd = _KINDS[spec.kind]
    # without this memo the median search slot made 6.5% more Python calls
    seen: dict[int, bool] = {}

    def ok(v: int) -> bool:
        if v not in seen:
            seen[v] = kd.accept(spec, v)
        return seen[v]

    tables: dict[int, dict[int, int]] = {k: {} for k in levels}
    sizes = sorted(levels)
    for at, ka in enumerate(sizes):
        for kb in sizes[at:]:  # ka <= kb: each unordered pair once
            for i in range(max(0, ka + kb - spec.n), ka + (ka != kb)):
                if (ok(kd.stat(ka, kb, i)) and ok(kd.stat(kb, ka, i))) == accepted:
                    tables[ka][i] = tables[ka].get(i, 0) | levels[kb]
                    tables[kb][i] = tables[kb].get(i, 0) | levels[ka]
    return tables


def _first_violation(spec: ConstraintSpec, members: tuple[int, ...]) -> str | None:
    """The first failing member, else the first failing pair (in member
    order), in words; None when there is none.  The later members a member
    a fails with are those whose count of |a∩b| its size level rejects;
    only the first of them is worded.  A level that rejects nothing (a
    whole layer of an antichain, say) is never counted."""
    kd = _KINDS[spec.kind]
    for a in members:
        if not _admissible(spec, a.bit_count()):
            return _words(spec, kd.avoiding, a, a, a.bit_count())
    levels: dict[int, int] = {}
    for j, a in enumerate(members):
        levels[a.bit_count()] = levels.get(a.bit_count(), 0) | 1 << j
    rejects = _meet_tables(spec, levels, accepted=False)
    holders = _holders(members) if any(rejects.values()) else {}
    for j, a in enumerate(members):
        table, later = rejects[a.bit_count()], -2 << j
        if not table:
            continue
        bad = sum(_meeting(a, holders, table).values()) & later  # disjoint: one count a point
        if bad:
            b = members[(bad & -bad).bit_length() - 1]
            ka, kb, i = a.bit_count(), b.bit_count(), (a & b).bit_count()
            for x, y, kx, ky in ((a, b, ka, kb), (b, a, kb, ka)):
                v = kd.stat(kx, ky, i)
                if not kd.accept(spec, v):
                    return _words(spec, kd.pair, x, y, v)
    return None


def satisfies(spec: ConstraintSpec, fam: SetFamily) -> CheckResult:
    """Whether the family meets the constraint; reports the first violation."""
    if spec.n != fam.n:
        raise ValueError(f"spec has n = {_text(spec.n)} but family has n = {_text(fam.n)}")
    msg = _first_violation(spec, fam.members)
    return CheckResult(msg is None, msg)


# ---------------------------------------------------------------------------
# push to the middle


def _on_chain(n: int, m: int, level: int) -> int:
    """The member at `level` of the symmetric chain through m, in the
    decomposition of 2^[n] by de Bruijn, Tengbergen and Kruyswijk (1951),
    as bracketed by Greene and Kleitman (1976).

    Read element i as ")" when it is in m and "(" when it is not, and pair
    each ")" with the nearest unpaired "(" before it.  The unpaired
    positions then read ")))(((".  Every set on the chain through m has the
    same pairs: it keeps m's paired elements and takes the first
    `level - p` unpaired positions, where p is the number of pairs, so the
    chain runs from level p to level n - p.  The chains partition 2^[n]
    and two sets on one chain are nested, so the members of an antichain
    lie on distinct chains and their images are distinct.

    Only m's elements and the gaps between them are visited: the unpaired
    "(" positions are kept as a stack of runs [a, b), so the loop takes
    O(|m| + level) steps, whatever n.  A run reaching past `_MAX_ELEMENT`
    is refused before its mask is built."""
    kept, closes, opens, nxt = 0, [], [], 0  # closes, opens: unpaired positions
    for e in _elements(m):
        if nxt < e:
            opens.append([nxt, e])
        nxt = e + 1
        if opens:
            opens[-1][1] -= 1  # pair e with the nearest "(" before it
            if opens[-1][0] == opens[-1][1]:
                opens.pop()
            kept |= 1 << e
        else:
            closes.append(e)
    if nxt < n:
        opens.append([nxt, n])
    need = level - kept.bit_count()
    for e in closes[:need]:
        kept |= 1 << e
    need -= len(closes)
    for a, b in opens:
        if need <= 0:
            break
        b = min(b, a + need)
        _require_element(b)
        kept |= (1 << b) - (1 << a)
        need -= b - a
    return kept


def push_to_middle_with_map(fam: SetFamily, s: int) -> tuple[SetFamily, dict[int, int]]:
    """push_to_middle plus the injection original member -> moved member."""
    n = fam.n
    if s < 0 or 2 * s > n:
        raise ValueError(f"need 0 <= 2s <= n, got s = {_text(s)}, n = {_text(n)}")
    if not satisfies(ConstraintSpec(Kind.ANTICHAIN, n), fam):
        raise ValueError("push_to_middle requires an antichain")
    moved = {
        m: _on_chain(n, m, min(max(m.bit_count(), s), n - s)) for m in fam.members
    }
    return SetFamily(n, tuple(moved.values())), moved


def push_to_middle(fam: SetFamily, s: int) -> SetFamily:
    """Move every member size into the band [s, n-s] without changing the
    family size, each member along its symmetric chain: a member below the
    band is raised to a superset of size s, one above it lowered to a
    subset of size n - s.  The images form an antichain, and a difference
    |A \\ B| of at most s stays at most s."""
    return push_to_middle_with_map(fam, s)[0]


# ---------------------------------------------------------------------------
# exact maximum-family search


@dataclass
class SearchResult:
    """`nodes_explored` counts search and restoration nodes together; `stats`
    splits them and adds the time of each phase (`graph_build_s`; `seed_s`,
    the root orbits and the seed clique; `search_s`; `restore_s`, the
    canonical witness), the vertex and edge counts,
    the size and source of the seed clique, the number of root orbits
    (size levels, with levels k and n - k one orbit where the kind is
    symmetric under complementation, and one orbit for Hamming; read off
    the level sizes, not counted) whose branch was searched, the nodes
    that split their candidates into orbits (each by one call of
    `_orbits`) and the candidates dropped as orbit-mates of a branched
    vertex.
    Both kinds of node are opened by the same branch-and-bound loop:
    restoration runs it as a decision search, one per candidate vertex,
    with the incumbent set one short of its target."""

    max_size: int
    witness: SetFamily
    nodes_explored: int
    exact: bool
    stats: dict = field(default_factory=dict)


def _refine(regions: list[int], m: int) -> list[int]:
    """The Venn regions of the sets behind `regions` together with m."""
    return [part for x in regions for part in (x & m, x & ~m) if part]


def _cuts(regions: list[int], m: int) -> list[int]:
    """The smaller side of each region that m cuts, leaving both sides
    non-empty."""
    sides = ((x & m, x & ~m) for x in regions)
    return [min(side, key=int.bit_count) for side in sides if all(side)]


def _orbits(parts: list[int], holders: dict[int, int], xs: list[int]) -> list[int]:
    """The classes of more than one vertex into which the counts |b ∩ x|,
    for every x of xs, split the vertex classes `parts`, in no set order;
    each count splits them on each of its bit planes.

    On [P] over the Venn regions of some sets, these are the orbits on P
    of the relabellings keeping every region, the product of their
    symmetric groups: the stabiliser of those sets.  A child's orbits
    come from its parent's, met with its candidates, over `_cuts(regions,
    m)` for the set m it adds: within a parent orbit |b ∩ x| is fixed for
    each region x, so |b ∩ x ∩ m| splits it only where m cuts x, and as
    the count of either side does."""
    parts = [c for c in parts if c & c - 1]
    for x in xs:
        if not parts:
            break
        for plane in _meet_planes(x, holders):
            parts = [c for part in parts for c in (part & plane, part & ~plane) if c & c - 1]
    return parts


def _root_orbits(spec: ConstraintSpec) -> list[int]:
    """The orbits of the kind's symmetry group on the search graph's
    vertices, ordered by least vertex, read off the level sizes: the
    relabellings of [n] have the size levels as orbits, each admissible
    level k a run of C(n, k) vertices in the (size, value) order; levels k
    and n - k merge where `complement` holds, and `translations` make all
    the vertices one orbit."""
    kd = _KINDS[spec.kind]
    merged, at = {}, 0  # an orbit's lowest level -> its runs; where the next level starts
    for k in range(spec.n + 1):
        if _admissible(spec, k):
            key = 0 if kd.translations else min(k, spec.n - k) if kd.complement(spec) else k
            merged[key] = merged.get(key, 0) | ((1 << math.comb(spec.n, k)) - 1) << at
            at += math.comb(spec.n, k)
    return list(merged.values())


@lru_cache(maxsize=DEFAULT_N_LIMIT + 1)
def _cube(
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The spec-independent part of every search graph on [n], built on
    first use and kept per n, all in tuples: the subsets of [n] ordered by
    (size, value); the level offsets (level k is verts[offsets[k]:
    offsets[k + 1]]); the holders of each element of [n] (see `_holders`);
    and for each vertex m, the bitsets meets[j][i] of the vertices b with
    |m ∩ b| = i, for i = 0..|m|.  Those of m are those of m minus its top
    element e, each split by the holders of e:
    eq_i(m) = (eq_i(m - e) & ~H_e) | (eq_{i-1}(m - e) & H_e).  The table
    holds 2^n (n/2 + 1) bitsets of 2^n bits: about 0.3 MB at n = 9 and
    14 MB at n = 12."""
    verts = tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))
    offsets = tuple(sum(math.comb(n, j) for j in range(k)) for k in range(n + 2))
    held = _holders(verts)
    holders = tuple(held[e] for e in range(n))
    full = (1 << len(verts)) - 1
    index = [0] * len(verts)
    meets: list[tuple[int, ...]] = [(full,)]
    for j in range(1, len(verts)):
        m = verts[j]
        index[m] = j
        top = m.bit_length() - 1
        h = holders[top]
        prev = meets[index[m ^ (1 << top)]]
        meets.append(
            tuple((p & ~h) | (below & h) for p, below in zip(prev, (0,) + prev)) + (prev[-1] & h,)
        )
    return verts, offsets, holders, tuple(meets)


def _graph_with_holders(spec: ConstraintSpec) -> tuple[list[int], list[int], dict[int, int]]:
    """Admissible subsets ordered by (size, value), their adjacency rows and
    the vertex holders of each element (see `_holders`), read off the cube
    of [n] (`_cube`, San Segundo, Rodríguez-Losada & Jiménez's bit-sliced
    adjacency, Comput. Oper. Res. 2011).  Only which |A∩B| = i a pair of
    levels accepts depends on the spec: a row ORs, per accepted i, the
    cube's bitset of the vertices meeting it in i elements, masked by the
    levels accepting i.  It never holds its vertex, since a level's table
    lists only the i at which a distinct set can meet it.  Where some level
    is not admissible (the avoiding and uniform kinds), rows and holders
    are then compressed from the cube's vertex positions to the admissible
    ones, a level at a time."""
    cube_verts, offsets, cube_holders, meets = _cube(spec.n)
    levels = [k for k in range(spec.n + 1) if _admissible(spec, k)]
    level_mask = {k: (1 << offsets[k + 1]) - (1 << offsets[k]) for k in levels}
    tables = _meet_tables(spec, level_mask)
    verts, adj = [], []
    for k in levels:
        start, stop = offsets[k], offsets[k + 1]
        verts.extend(cube_verts[start:stop])
        within = list(tables[k].items())
        for meet in meets[start:stop]:
            row = 0
            for i, mask in within:
                row |= meet[i] & mask
            adj.append(row)
    holders = dict(enumerate(cube_holders))
    if len(levels) <= spec.n:

        def compress(x: int) -> int:
            out = at = 0
            for k in levels:
                size = offsets[k + 1] - offsets[k]
                out |= ((x >> offsets[k]) & ((1 << size) - 1)) << at
                at += size
            return out

        adj = [compress(row) for row in adj]
        holders = {e: kept for e, h in holders.items() if (kept := compress(h))}
    return verts, adj, holders


def _color_sort(P: int, nadj: list[int], kmin: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of the candidate set from the complement rows (each
    without its own vertex).  Returns the vertices of colour at least kmin
    in colouring order with their colour numbers, a clique-size upper bound
    for the vertices up to that position.  The lower colour classes are
    formed all the same, since the later classes depend on them, but not
    listed: a branch on one of their vertices is pruned (Tomita et al.,
    WALCOM 2010; San Segundo et al., Comput. Oper. Res. 2011)."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    while P:
        color += 1
        avail = P
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= nadj[v]
            P ^= low
            if color >= kmin:
                order.append(v)
                bounds.append(color)
    return order, bounds


def _degree_planes(mates: list[int], adj: list[int], cand: int) -> list[int]:
    """Bit-plane counters of the degree within `cand` of its vertices, read
    once per class of `mates`, disjoint classes of vertices of equal degree,
    at its least vertex, and once per other vertex."""
    planes: list[int] = []
    for group in mates + [1 << u for u in _elements(cand & ~sum(mates))]:  # disjoint: sum is OR
        deg = (adj[(group & -group).bit_length() - 1] & cand).bit_count()
        planes += [0] * (deg.bit_length() - len(planes))
        for b in _elements(deg):
            planes[b] |= group
    return planes


def _greedy_clique(start: int, adj: list[int], mates: list[int]) -> list[int]:
    """From `start`, repeatedly add the candidate with the most neighbours
    among the candidates, the least on a tie, until none is left.  No
    clique test is needed: once the candidates form a clique, each has all
    |cand| - 1 others, and so has each after every pick, so the picks take
    them whole in ascending order.

    The degrees within the candidates are bit-plane counters over the
    vertex indices (see `_meet_planes`), from which the pick is read.
    They are seeded with one count per class of `mates`, disjoint classes
    within adj[start] on which that degree is constant (the orbits of
    start's stabiliser), and one per other vertex.  A pick
    subtracts the rows of the candidates it drops, or, when it drops more
    than it keeps, the kept candidates are counted afresh.  That recount
    pays: on intersecting L = {0}, n = 12, the seed's median time was
    3.5-3.7 ms with it and 5.5-6.0 ms subtracting every dropped row
    (Python 3.11, a shared 2-core x86-64 host)."""
    clique = [start]
    cand = adj[start]
    planes = _degree_planes(mates, adj, cand)
    size = cand.bit_count()
    while cand:
        top = cand  # the candidates of highest degree
        for p in reversed(planes):
            if top & p:
                top &= p
        pick = (top & -top).bit_length() - 1
        clique.append(pick)
        kept = cand & adj[pick]
        kept_size = kept.bit_count()
        if size - kept_size <= kept_size:
            for w in _elements(cand ^ kept):  # ripple borrow at w's kept neighbours
                borrow = adj[w] & kept
                for b, p in enumerate(planes):
                    if not borrow:
                        break
                    planes[b] = p ^ borrow
                    borrow &= ~p
        else:
            planes = _degree_planes([], adj, kept)
        cand, size = kept, kept_size
    return clique


def _one_pass_clique(order, adj: list[int]) -> list[int]:
    """Each vertex of `order` that is adjacent to every vertex kept so far."""
    clique, cand = [], -1
    for v in order:
        if cand >> v & 1:
            clique.append(v)
            cand &= adj[v]
            if not cand:  # reading on took 1.08x per pass over the 91 slots, their seeds 1.31x
                break
    return clique


def _seed(
    adj: list[int], orbits: list[int], mates: Callable[[int], list[int]]
) -> tuple[list[int], str]:
    """The clique the search starts from, with its source: the greedy clique
    from the vertex of highest degree, or a one-pass clique in reverse or
    degree order when it is larger (the first such on a tie).  Degree order
    is by degree, highest first, then by vertex, and is listed only as far
    as the one-pass clique reads it.  Degree is constant on each of the
    root `orbits`, so one row per orbit is counted; `mates(start)` gives
    the greedy clique its classes of equal degree in adj[start]."""
    nv = len(adj)
    if not nv:
        return [], "greedy"
    by_deg: dict[int, int] = {}
    for orbit in orbits:
        deg = adj[(orbit & -orbit).bit_length() - 1].bit_count()
        by_deg[deg] = by_deg.get(deg, 0) | orbit
    degs = sorted(by_deg, reverse=True)
    top = by_deg[degs[0]]
    start = (top & -top).bit_length() - 1
    best, source = _greedy_clique(start, adj, mates(start)), "greedy"
    orders = {
        "reverse order": range(nv - 1, -1, -1),
        "degree order": (v for deg in degs for v in _elements(by_deg[deg])),
    }
    for name, order in orders.items():
        clique = _one_pass_clique(order, adj)
        if len(clique) > len(best):
            best, source = clique, name
    return best, source


class _CliqueSearch:
    def __init__(self, adj: list[int], node_budget: int | None, verts=(), holders=()):
        self.adj = adj
        self.nadj = [~(a | 1 << v) for v, a in enumerate(adj)]
        self.verts = verts
        self.holders = holders
        self.budget = node_budget
        self.nodes = self.root_orbits = self.orbit_nodes = self.orbit_pruned = 0
        self.exact = True
        self.best_size = 0
        self.best: list[int] = []

    def run(self, seed: list[int], n: int, orbits: list[int]) -> None:
        """Orbital branching at the root, continued by `_expand` at every
        depth.  A maximum clique meeting a root orbit (`_root_orbits`) can
        be mapped onto one holding its representative (its least vertex)
        without meeting the earlier orbits, so each root orbit is one branch
        and is then dropped from the pool.  The branch for r is searched
        with r's Venn regions, whose stabiliser is the relabellings fixing
        r: for Hamming r is the empty set, and where complementation merged
        levels k and n - k, r lies in level min(k, n - k).  Only the
        incumbent prunes: no certified bound is fed in, since the search is
        what checks those bounds."""
        self.best_size, self.best = len(seed), list(seed)
        pool = (1 << len(self.verts)) - 1
        for orbit in orbits:
            r = (orbit & -orbit).bit_length() - 1
            P = pool & self.adj[r]
            pool &= ~orbit
            if P.bit_count() < self.best_size:
                continue
            self.root_orbits += 1
            self._expand([r], P, regions=_refine([(1 << n) - 1], self.verts[r]))
            if not self.exact:
                return

    def _expand(
        self, clique: list[int], P: int, target: int | None = None,
        regions: list[int] | None = None,
    ) -> None:
        """Branch and bound below `clique` on the candidates P, depth first
        on an explicit stack of frames [candidates, order, bounds, regions,
        orbits], one per open node.  Each node branches on its colour order
        from the end and stops at the first vertex whose colour bound cannot
        beat the incumbent; a vertex branched on leaves its node's
        candidates.  A clique that beats the incumbent becomes it, and the
        search returns once the incumbent reaches `target`.  No node is
        opened when P cannot beat the incumbent.

        Given `regions`, the Venn regions of the clique's sets, whose
        stabiliser must keep P, a node whose regions are not all singletons
        and which can take a second branch splits P into that stabiliser's
        orbits, and a vertex branched on takes its orbit with it: a clique
        through an orbit-mate maps onto one through the vertex.  A child's
        candidates, the parent's minus whole orbits met with the vertex's
        row, are kept by its own stabiliser, and its orbits are the
        parent's split over the regions the vertex's set cuts, or [P] split
        over all its regions where the parent split none (both `_orbits`).
        A node budget of N opens at most N nodes."""
        if len(clique) > self.best_size:  # a decision at target 0 is met here, by the empty clique
            self.best_size, self.best = len(clique), list(clique)
        if self.best_size == target or len(clique) + P.bit_count() <= self.best_size:
            return
        adj, nadj, verts = self.adj, self.nadj, self.verts
        ground = sum(x.bit_count() for x in regions or ())  # what the regions partition
        frames: list[list] = []
        while True:  # open the node of `clique` on P
            if self.nodes == self.budget:
                self.exact = False
                return
            self.nodes += 1
            order, bounds = _color_sort(P, nadj, self.best_size - len(clique) + 1)
            if regions and len(regions) == ground:
                regions = None  # all singletons: a trivial stabiliser, here and below
            mates = None  # the orbits of more than one vertex
            if regions and len(order) > 1:
                self.orbit_nodes += 1
                parts, xs = [P], regions  # without the parent's orbits: P over every region
                if frames and frames[-1][4] is not None:  # the parent's over its cut regions
                    parts = [c & P for c in frames[-1][4]]
                    xs = _cuts(frames[-1][3], verts[clique[-1]])
                mates = _orbits(parts, self.holders, xs)
            frames.append([P, order, bounds, regions, mates])
            while True:  # the next branch, closing exhausted nodes
                frame = frames[-1]
                P, order, bounds, regions, mates = frame
                while order and not P >> order[-1] & 1:  # left with an orbit-mate
                    order.pop()
                    bounds.pop()
                depth = len(clique)
                if order and depth + bounds[-1] > self.best_size:
                    v = order.pop()
                    bounds.pop()
                    orbit = next((c for c in mates if c >> v & 1), 1 << v) if mates else 1 << v
                    self.orbit_pruned += orbit.bit_count() - 1
                    frame[0] = P & ~orbit
                    if depth + 1 > self.best_size:
                        self.best_size, self.best = depth + 1, clique + [v]
                        if self.best_size == target:
                            return
                    P &= adj[v]
                    if P:
                        clique.append(v)
                        if regions:
                            regions = _refine(regions, verts[v])
                        break
                    continue
                frames.pop()
                if not frames:
                    return
                clique.pop()


def _lex_smallest_optimum(decide: _CliqueSearch, known: list[int], n: int) -> list[int]:
    """The lexicographically smallest maximum clique, given the maximum
    clique `known`, taking vertex by vertex the least one of the pool that
    extends the chosen ones to a maximum clique.  Whether one does is asked
    of `decide`, a search whose incumbent is set one short of the size
    still needed and which stops on reaching it, given the Venn regions of
    the chosen sets and the candidate, whose stabiliser keeps its pool.
    `known` extends the chosen ones, so a candidate in it needs no search.
    A candidate that fails takes its orbit under the stabiliser of the
    chosen sets with it."""
    omega, known = len(known), set(known)
    chosen: list[int] = []
    P = (1 << len(decide.verts)) - 1
    regions = [(1 << n) - 1]
    parts = None
    while len(chosen) < omega:
        if not P:  # pragma: no cover
            raise AssertionError("lexicographic restoration failed")
        v = (P & -P).bit_length() - 1
        newP = P & decide.adj[v]
        inner = _refine(regions, decide.verts[v])
        if v not in known:
            need = omega - len(chosen) - 1
            decide.best_size, decide.best = need - 1, []
            decide._expand([], newP, need, inner)
            if decide.best_size < need:
                if parts is None:
                    parts = _orbits([P], decide.holders, regions)
                orbit = next((part for part in parts if part >> v & 1), 1 << v)
                decide.orbit_pruned += orbit.bit_count() - 1
                P &= ~orbit
                continue
            known = set(decide.best)
        chosen.append(v)
        P, regions, parts = newP, inner, None
    return chosen


def max_family(spec: ConstraintSpec, node_budget: int | None = None) -> SearchResult:
    """Exact maximum family size and a canonical witness.

    Vertices are admissible subsets ordered by (size, numeric value); the
    witness is the lexicographically smallest maximum clique under that
    order.  A node budget of N stops the search once it has opened N
    nodes and would open another, flagging the result as inexact with the
    best clique found.
    """
    if spec.n > DEFAULT_N_LIMIT:
        raise ValueError(f"n = {_text(spec.n)} exceeds the search limit {DEFAULT_N_LIMIT}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {_text(node_budget)}")
    t0 = time.perf_counter()
    verts, adj, holders = _graph_with_holders(spec)
    t1 = time.perf_counter()
    orbits = _root_orbits(spec)
    whole = [(1 << spec.n) - 1]
    # the greedy's classes of equal degree: without them its seeds took 1.54x over the 91
    # search slots (34.8 ms against 22.5 ms a pass) and 1.6-2.0x at n = 12
    seed, source = _seed(adj, orbits, lambda v: _orbits([adj[v]], holders, _refine(whole, verts[v])))
    t2 = time.perf_counter()
    search = _CliqueSearch(adj, node_budget, verts, holders)
    search.run(seed, spec.n, orbits)
    t3 = time.perf_counter()
    size, search_nodes, witness_idx = search.best_size, search.nodes, search.best
    if search.exact:
        search.budget = None
        witness_idx = _lex_smallest_optimum(search, witness_idx, spec.n)
    stats = dict(
        graph_build_s=t1 - t0,
        seed_s=t2 - t1,
        search_s=t3 - t2,
        restore_s=time.perf_counter() - t3,
        vertices=len(verts),
        edges=sum(o.bit_count() * adj[(o & -o).bit_length() - 1].bit_count() for o in orbits) // 2,
        seed_size=len(seed),
        seed_source=source,
        root_orbits=search.root_orbits,
        search_nodes=search_nodes,
        restore_nodes=search.nodes - search_nodes,
        orbit_nodes=search.orbit_nodes,
        orbit_pruned=search.orbit_pruned,
    )
    witness = SetFamily(spec.n, tuple(verts[i] for i in witness_idx))
    return SearchResult(size, witness, search.nodes, search.exact, stats)
