"""Set-family model, constraint predicates, push-to-the-middle, and exact
maximum-family search via branch-and-bound clique search.

Members of a family over the ground set [n] are stored as bit masks with
bit i-1 standing for element i.  Every constraint kind reads only |A|, |B|
and |A∩B|, and each is defined once, as a record of `_KINDS`: its member
condition, its pair statistic with the values it accepts, the wording of
its violations and its symmetry group.  `satisfies` and the search read
that table, and both count |A∩B| bit-sliced, against many sets at once;
the antichain precondition of push-to-the-middle compares only members of
different sizes.
The maximum-family search builds the compatibility graph (admissible
subsets as vertices, edges where the pairwise constraint holds) a row at
a time from bit-sliced counts of |A∩B|, and runs a deterministic
branch-and-bound maximum clique with greedy-coloring upper bounds on
bitset adjacency rows.

The search breaks the symmetry of the constraint kinds by orbital
branching (Ostrowski, Linderoth, Rossi & Smriglio, Math. Programming
2011) at its top two levels.  Every kind is invariant under relabelling
[n], whose orbits on subsets are the size levels; Hamming distance is also
invariant under XOR translation, which makes 2^[n] a single orbit.  The
search branches once per orbit, rooted at the orbit's least vertex ({1..k}
for level k, the empty set for Hamming), then once per orbit of that
root's stabiliser, dropping each orbit after its branch.  The canonical
witness, the lexicographically smallest maximum clique, is then restored
vertex by vertex; a candidate that fails takes its whole orbit under the
stabiliser of the sets chosen so far with it.
"""

from __future__ import annotations

import os
import re
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from .padic import PrimePower

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
    "NODE_BUDGET_ENV",
]

DEFAULT_N_LIMIT = 12
NODE_BUDGET_ENV = "QSPERNER_NODE_BUDGET"


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
                raise ValueError(f"member mask {m:#x} not a subset of [{self.n}]")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        masks = []
        for s in sets:
            mask = 0
            for x in s:
                if not 1 <= x <= n:
                    raise ValueError(f"element {x} outside [1, {n}]")
                mask |= 1 << (x - 1)
            masks.append(mask)
        return cls(n, tuple(masks))

    def sets(self) -> list[frozenset[int]]:
        return [
            frozenset(i + 1 for i in range(self.n) if m >> i & 1)
            for m in self.members
        ]


_LINE_RE = re.compile(r"^\{\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\}$")


def parse_family(text: str, n: int | None = None) -> SetFamily:
    """Parse the one-set-per-line format: `{1,3,5}` per line, `{}` for the
    empty set; blank lines and lines starting with '#' are ignored."""
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
        body = m.group(1).strip()
        sets.append([int(tok) for tok in body.split(",")] if body else [])
    if n is None:
        n = max((max(s) for s in sets if s), default=0)
    return SetFamily.from_sets(n, sets)


def format_family(fam: SetFamily) -> str:
    lines = []
    for s in fam.sets():
        lines.append("{" + ",".join(str(x) for x in sorted(s)) + "}")
    return "\n".join(lines) + ("\n" if lines else "")


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
        kind = Kind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "L", frozenset(self.L))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        q = self.modulus.q if self.modulus is not None else None
        if kind in (Kind.DIFF_SPERNER, Kind.HAMMING):
            if q is not None:
                reduced = frozenset(ell % q for ell in self.L)
                if 0 in reduced:
                    raise ValueError("L may not contain 0 modulo q")
                object.__setattr__(self, "L", reduced)
            elif any(ell < 1 for ell in self.L):
                raise ValueError("L must contain positive integers")
        elif kind is Kind.CLOSE_SPERNER:
            if self.modulus is not None:
                raise ValueError("close-Sperner constraints are non-modular")
            if any(ell < 1 for ell in self.L):
                raise ValueError("L must contain positive integers")
        elif kind is Kind.INTERSECTING:
            if q is not None:
                object.__setattr__(self, "L", frozenset(ell % q for ell in self.L))
            elif any(ell < 0 for ell in self.L):
                raise ValueError("L must contain non-negative integers")
        elif kind is Kind.INTERSECTING_UNIFORM:
            if self.modulus is None or self.uniform_residue is None:
                raise ValueError("uniform kind needs a modulus and a residue")
            object.__setattr__(self, "uniform_residue", self.uniform_residue % q)

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
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _in_L(spec: ConstraintSpec, v: int) -> bool:
    return (v if spec.q is None else v % spec.q) in spec.L


def _off_residue(spec: ConstraintSpec, v: int) -> bool:
    return v % spec.q != spec.uniform_residue


@dataclass(frozen=True)
class _KindDef:
    """One constraint kind, written over cardinalities.

    A pair A, B is compatible when `accept(spec, v)` holds for the pair
    statistic v = stat(|A|, |B|, |A∩B|) and, for a directed kind, also for
    stat(|B|, |A|, |A∩B|).  `avoiding` is set for the kinds whose members
    must fail that test themselves (|A| = |A∩A| may not be accepted) and
    words that member violation, as `pair` words the pair violation: X and
    Y are the sets, v the statistic, res it reduced mod q, mod the " (mod
    q)" suffix of modular specs, q and r the modulus and uniform residue.
    `orbit` keys the orbits of the kind's symmetry group: relabelling [n]
    for every kind, whose orbits are the size levels, and for Hamming also
    XOR translation b -> b ^ t, which makes all of 2^[n] one orbit."""

    stat: Callable[[int, int, int], int]
    accept: Callable[[ConstraintSpec, int], bool]
    pair: str
    directed: bool = False
    avoiding: str | None = None
    orbit: Callable[[int], int] = int.bit_count


_KINDS = {
    Kind.DIFF_SPERNER: _KindDef(
        lambda kx, ky, i: kx - i, _in_L,
        "pair {X}, {Y}: |A\\B| = {res} not in L{mod}", directed=True,
    ),
    Kind.CLOSE_SPERNER: _KindDef(
        lambda kx, ky, i: min(kx, ky) - i, _in_L,
        "pair {X}, {Y}: skew distance {v} not in L",
    ),
    Kind.INTERSECTING: _KindDef(
        lambda kx, ky, i: i, _in_L,
        "pair {X}, {Y}: intersection size {v} not in L{mod}",
        avoiding="member {X}: size {v} lies in L{mod}",
    ),
    Kind.INTERSECTING_UNIFORM: _KindDef(
        lambda kx, ky, i: i, _off_residue,
        "pair {X}, {Y}: intersection size {v} is congruent to {r} (mod {q})",
        avoiding="member {X}: size {v} is not congruent to {r} (mod {q})",
    ),
    Kind.HAMMING: _KindDef(
        lambda kx, ky, i: kx + ky - 2 * i, _in_L,
        "pair {X}, {Y}: Hamming distance {v} not in L{mod}", orbit=lambda b: 0,
    ),
    Kind.ANTICHAIN: _KindDef(
        lambda kx, ky, i: kx - i, lambda spec, v: v > 0,
        "pair {X} is contained in {Y}", directed=True,
    ),
}


def _admissible(spec: ConstraintSpec, k: int) -> bool:
    """Whether a member of size k is allowed."""
    kd = _KINDS[spec.kind]
    return kd.avoiding is None or not kd.accept(spec, k)


def _accepted(spec: ConstraintSpec, ka: int, kb: int) -> frozenset[int]:
    """The values of |A∩B| at which subsets of [n] of sizes ka and kb are
    compatible."""
    kd = _KINDS[spec.kind]
    sides = ((ka, kb), (kb, ka)) if kd.directed else ((ka, kb),)
    return frozenset(
        i
        for i in range(max(0, ka + kb - spec.n), min(ka, kb) + 1)
        if all(kd.accept(spec, kd.stat(x, y, i)) for x, y in sides)
    )


def _words(spec: ConstraintSpec, text: str, x: int, y: int, v: int) -> str:
    q = spec.q
    return text.format(
        X=_set_str(x),
        Y=_set_str(y),
        v=v,
        res=v if q is None else v % q,
        mod="" if q is None else f" (mod {q})",
        q=q,
        r=spec.uniform_residue,
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


def _holders(points) -> list[int]:
    """For each element e up to the highest any point holds (never more,
    whatever the ground set), the bitset of the indices j with e in
    points[j]."""
    span = max(points, default=0).bit_length()
    rows = ("".join("1" if p >> e & 1 else "0" for p in reversed(points)) for e in range(span))
    return [int(row, 2) for row in rows]


def _ripple_add(planes: list[int], holder: int) -> list[int]:
    """Bit-plane counters (plane b holds bit b of each point's count) plus
    one at the points of `holder`, by ripple carry."""
    out, carry = [], holder
    for p in planes:
        out.append(p ^ carry)
        carry &= p
    return out + [carry] if carry else out


def _counting(planes: list[int], table: dict[int, int]) -> int:
    """The points whose count is i among the points of table[i], for every
    i of the table."""
    out = 0
    for i, mask in table.items():
        if i >> len(planes):
            continue
        for b, p in enumerate(planes):  # each plane matches i's bit
            mask &= p if i >> b & 1 else ~p
        out |= mask
    return out


def _meet_table(spec: ConstraintSpec, k: int, levels: dict, accepted: bool) -> dict[int, int]:
    """For a k-set A: |A∩B| = i -> the OR of the masks of `levels` (size
    -> bitset of points) whose sets B it accepts at i.  With `accepted`
    false, those it rejects at i instead, over the i at which a distinct
    set of that size can meet A."""
    table: dict[int, int] = {}
    for kb, mask in levels.items():
        ok = _accepted(spec, k, kb)
        meets = range(max(0, k + kb - spec.n), min(k, kb) + (k != kb))
        values = ok if accepted else set(meets) - ok
        for i in values:
            table[i] = table.get(i, 0) | mask
    return table


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
    rejects = {k: _meet_table(spec, k, levels, accepted=False) for k in levels}
    holders = _holders(members) if any(rejects.values()) else []
    for j, a in enumerate(members):
        table, later = rejects[a.bit_count()], -2 << j
        if not table:
            continue
        planes: list[int] = []
        for e in _elements(a):
            planes = _ripple_add(planes, holders[e])
        bad = _counting(planes, table) & later
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
        raise ValueError(f"spec has n = {spec.n} but family has n = {fam.n}")
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
    lie on distinct chains and their images are distinct."""
    kept, closes, opens = 0, [], []  # closes, opens: unpaired positions
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


def _is_antichain(members: tuple[int, ...]) -> bool:
    """Whether no member contains another.  Distinct sets of one size are
    never nested, so only members of different sizes are compared."""
    by_size: dict[int, list[int]] = {}
    for m in members:
        by_size.setdefault(m.bit_count(), []).append(m)
    sizes = sorted(by_size)
    for i, k in enumerate(sizes):
        above = [b for kb in sizes[i + 1 :] for b in by_size[kb]]
        if any(a & b == a for a in by_size[k] for b in above):
            return False
    return True


def push_to_middle_with_map(fam: SetFamily, s: int) -> tuple[SetFamily, dict[int, int]]:
    """push_to_middle plus the injection original member -> moved member."""
    n = fam.n
    if s < 0 or 2 * s > n:
        raise ValueError(f"need 0 <= 2s <= n, got s = {s}, n = {n}")
    if not _is_antichain(fam.members):
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
    splits them and adds the graph-build time, the vertex and edge counts
    and the number of root orbits whose branch was searched."""

    max_size: int
    witness: SetFamily
    nodes_explored: int
    exact: bool
    stats: dict = field(default_factory=dict)


def _refine(regions: list[int], m: int) -> list[int]:
    """The Venn regions of the sets behind `regions` together with m."""
    return [part for x in regions for part in (x & m, x & ~m) if part]


def _region_key(regions: list[int]):
    """Orbit of a subset under the relabellings that keep every region, the
    product of their symmetric groups: the stabiliser of every set whose
    Venn regions they are.  The orbit of b is fixed by |b & region|."""
    return lambda b: tuple((b & x).bit_count() for x in regions)


def _orbits(P: int, verts: list[int], key) -> dict:
    """Partition of the vertex bitmask P into classes of equal key(subset),
    ordered by least vertex."""
    parts: dict = {}
    while P:
        low = P & -P
        k = key(verts[low.bit_length() - 1])
        parts[k] = parts.get(k, 0) | low
        P ^= low
    return parts


def _build_graph(spec: ConstraintSpec) -> tuple[list[int], list[int]]:
    """Admissible subsets ordered by (size, value) and their adjacency rows,
    built bit-sliced (San Segundo, Rodríguez-Losada & Jiménez, Comput. Oper.
    Res. 2011).  Bit-plane counters hold |m ∩ verts[j]| for all j: those of
    m are those of m minus its top element e plus the bitset of the
    vertices holding e, by ripple carry, one size level at a time.  A row
    ORs, per accepted |A∩B| = i, the vertices counting i in the levels
    accepting i.  It never holds its vertex: the `avoiding` kinds reject
    A, A by the member condition, the rest read it as statistic 0, which
    they never accept."""
    by_size: list[list[int]] = [[] for _ in range(spec.n + 1)]
    for m in range(1 << spec.n):
        by_size[m.bit_count()].append(m)
    verts, level_mask = [], {}
    for k, level in enumerate(by_size):
        if _admissible(spec, k):
            level_mask[k] = ((1 << len(level)) - 1) << len(verts)
            verts.extend(level)
    holders = _holders(verts)  # all of [n] once a level above 0 is admissible
    adj, counts = [], {0: []}
    for k in range(max(level_mask, default=-1) + 1):
        if k:
            prev, counts = counts, {}
            for m in by_size[k]:
                top = m.bit_length() - 1
                counts[m] = _ripple_add(prev[m ^ (1 << top)], holders[top])
        if k not in level_mask:
            continue
        within = _meet_table(spec, k, level_mask, accepted=True)
        adj.extend(_counting(counts[m], within) for m in by_size[k])
    return verts, adj


def _color_sort(P: int, nadj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set from the complement rows; returns
    vertices in coloring order with their color numbers (a clique-size upper
    bound for the vertices up to that position)."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    while P:
        color += 1
        avail = P
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= nadj[v] & ~low
            P &= ~low
            order.append(v)
            bounds.append(color)
    return order, bounds


def _greedy_clique(nv: int, adj: list[int]) -> list[int]:
    best: list[int] = []
    starts = sorted(range(nv), key=lambda v: -adj[v].bit_count())[:3]
    for start in starts:
        clique = [start]
        cand = adj[start]
        while cand:
            pick, pick_deg = -1, -1
            c = cand
            while c:
                u = (c & -c).bit_length() - 1
                c &= c - 1
                deg = (adj[u] & cand).bit_count()
                if deg > pick_deg:
                    pick, pick_deg = u, deg
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return best


class _CliqueSearch:
    def __init__(self, adj: list[int], node_budget: int | None):
        self.adj = adj
        self.nadj = [~a for a in adj]
        self.budget = node_budget
        self.nodes = 0
        self.restore_nodes = 0
        self.root_orbits = 0
        self.exact = True
        self.best_size = 0
        self.best: list[int] = []

    def run(self, seed: list[int], verts: list[int], n: int, root_key) -> None:
        """Orbital branching at the top two levels.  A maximum clique meeting
        a root orbit can be mapped onto one holding its representative (its
        least vertex) without meeting the earlier orbits, so each root orbit
        is one branch and is then dropped from the pool.  Inside the branch
        for r the pool is invariant under the stabiliser of r, and its
        orbits are branched on and dropped the same way; for Hamming r is
        the empty set, whose stabiliser is the relabellings alone.  Only the
        incumbent prunes: no certified bound is fed in, since the search is
        what checks those bounds."""
        self.best_size, self.best = len(seed), list(seed)
        adj = self.adj
        pool = (1 << len(verts)) - 1
        for orbit in _orbits(pool, verts, root_key).values():
            r = (orbit & -orbit).bit_length() - 1
            P = pool & adj[r]
            pool &= ~orbit
            if P.bit_count() < self.best_size:
                continue
            self.root_orbits += 1
            stab_key = _region_key(_refine([(1 << n) - 1], verts[r]))
            for sub in _orbits(P, verts, stab_key).values():
                s = (sub & -sub).bit_length() - 1
                cand = P & adj[s]
                P &= ~sub
                if cand.bit_count() + 2 <= self.best_size:
                    continue
                if cand:
                    self._expand([r, s], cand)
                    if not self.exact:
                        return
                else:
                    self.best_size, self.best = 2, [r, s]

    def _expand(self, stack: list[int], P: int) -> bool:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            self.exact = False
            return True
        adj = self.adj
        depth = len(stack)
        order, bounds = _color_sort(P, self.nadj)
        for i in range(len(order) - 1, -1, -1):
            if depth + bounds[i] <= self.best_size:
                return False
            v = order[i]
            stack.append(v)
            newP = P & adj[v]
            if newP:
                if self._expand(stack, newP):
                    stack.pop()
                    return True
            elif depth + 1 > self.best_size:
                self.best_size = depth + 1
                self.best = stack.copy()
            stack.pop()
            P &= ~(1 << v)
        return False

    def has_clique(self, P: int, target: int) -> list[int] | None:
        """Decision search: a clique of size target inside P, or None."""
        if target <= 0:
            return []
        if P.bit_count() < target:
            return None
        self.restore_nodes += 1
        order, bounds = _color_sort(P, self.nadj)
        for i in range(len(order) - 1, -1, -1):
            if bounds[i] < target:
                return None
            v = order[i]
            found = self.has_clique(P & self.adj[v], target - 1)
            if found is not None:
                found.append(v)
                return found
            P &= ~(1 << v)
        return None


def _lex_smallest_optimum(
    search: _CliqueSearch, verts: list[int], n: int, omega: int
) -> list[int]:
    """The lexicographically smallest maximum clique, taking vertex by vertex
    the least one of the pool that extends the chosen ones to a maximum
    clique.  `known` extends the chosen ones, so a candidate in it needs no
    search.  A candidate that fails takes its orbit under the stabiliser of
    the chosen sets with it (see `_region_key`)."""
    chosen: list[int] = []
    known = set(search.best)
    P = (1 << len(verts)) - 1
    regions = [(1 << n) - 1]
    key = _region_key(regions)
    orbits = None
    while len(chosen) < omega:
        if not P:  # pragma: no cover
            raise AssertionError("lexicographic restoration failed")
        v = (P & -P).bit_length() - 1
        newP = P & search.adj[v]
        if v in known:
            completion = known
        else:
            completion = search.has_clique(newP, omega - len(chosen) - 1)
        if completion is None:
            if orbits is None:
                orbits = _orbits(P, verts, key)
            P &= ~orbits[key(verts[v])]
            continue
        known = set(completion)
        chosen.append(v)
        P = newP
        regions = _refine(regions, verts[v])
        key = _region_key(regions)
        orbits = None
    return chosen


def max_family(spec: ConstraintSpec, node_budget: int | None = None) -> SearchResult:
    """Exact maximum family size and a canonical witness.

    Vertices are admissible subsets ordered by (size, numeric value); the
    witness is the lexicographically smallest maximum clique under that
    order.  A node budget (argument or QSPERNER_NODE_BUDGET) truncates the
    search, flagging the result as inexact with the best clique found.
    """
    if spec.n > DEFAULT_N_LIMIT:
        raise ValueError(f"n = {spec.n} exceeds the search limit {DEFAULT_N_LIMIT}")
    if node_budget is None:
        env = os.environ.get(NODE_BUDGET_ENV)
        node_budget = int(env) if env else None
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    start = time.perf_counter()
    verts, adj = _build_graph(spec)
    stats = {"graph_build_s": time.perf_counter() - start, "vertices": len(verts)}
    search = _CliqueSearch(adj, node_budget)
    seed = _greedy_clique(len(verts), adj)
    search.run(seed, verts, spec.n, _KINDS[spec.kind].orbit)
    if search.exact:
        witness_idx = _lex_smallest_optimum(search, verts, spec.n, search.best_size)
    else:
        witness_idx = search.best
    stats.update(
        edges=sum(row.bit_count() for row in adj) // 2,
        root_orbits=search.root_orbits,
        search_nodes=search.nodes,
        restore_nodes=search.restore_nodes,
    )
    witness = SetFamily(spec.n, tuple(verts[i] for i in witness_idx))
    return SearchResult(
        search.best_size,
        witness,
        search.nodes + search.restore_nodes,
        search.exact,
        stats,
    )
