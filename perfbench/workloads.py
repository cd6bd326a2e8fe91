"""The benchmark's workloads: seeded inputs, the one library call each
operation makes, and the check of every output against the expectations
recorded in `data/` (see record.py).

A workload is built by `build(name, seed, workdir)`.  Its operations form
a pass; `planned_ops` says how many of them a run of a given length times,
in whole passes or as a prefix of one pass.  Inputs depend only on the
seed; the library receives only the specs and family files made here.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from qsperner import bounds, cli, families
from qsperner.families import ConstraintSpec, Kind, SetFamily
from qsperner.padic import PrimePower

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("bound-table", "bound-random", "search-exact", "proof-replay")

# ground-set sizes a bound spec may be asked at; the seed picks one per spec
N_CHOICES = (10, 16, 24, 40)
TABLE_QS = (4, 8, 9, 16, 25, 27)
NONMODULAR_MAX = 12
RANDOM_QS = (25, 27, 32, 49)
RANDOM_KINDS = ("diff-sperner", "intersecting", "hamming")
RANDOM_POOL_SEED = 2210_02409
RANDOM_PER_STRATUM = 1000

# operations per second at the seed (see Workload.rate)
BOUND_TABLE_RATE = 370.0
BOUND_RANDOM_RATE = 180.0
SEARCH_EXACT_RATE = 7.0
PROOF_REPLAY_RATE = 4.0

# a run times at least this many operations, so that its median has ten
# samples beyond it
MIN_OPS = 20
PERCENTILES = (50, 75, 80, 85, 90, 95, 99, 99.9)


@dataclass
class Op:
    """One timed library call and the check of its output."""

    label: str
    call: Callable[[Any], Any]
    arg: Any
    check: Callable[[Any], str | None]  # None when the output is as expected


@dataclass
class Workload:
    ops: list[Op]  # one pass
    # timed in whole passes (operations whose costs span orders of
    # magnitude); otherwise as a prefix of one pass, so that no operation
    # repeats and meets its own earlier results in the library's caches
    whole_passes: bool
    # operations per second of the seed commit on a 2-core x86-64
    # container with Python 3.11; it only sizes a run, so that every
    # commit times the same operations
    rate: float
    # run once after the timed phase and reported by name, never counted
    # as operations: known defects of the library under test
    probes: list[Op] = field(default_factory=list)

    def planned_ops(self, seconds: float) -> int:
        """How many operations a run of `seconds` times: what the seed
        commit completes in that time, rounded to whole passes (at least
        one) or else cut to one pass, and at least MIN_OPS."""
        ops = max(MIN_OPS, round(seconds * self.rate))
        if self.whole_passes:
            return max(1, round(ops / len(self.ops))) * len(self.ops)
        return min(ops, len(self.ops))


def tail_percentile(samples: int) -> float:
    """Highest percentile of PERCENTILES with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if samples * (100 - p) / 100 >= 10]
    if not ok:
        raise ValueError(f"{samples} samples leave no percentile with ten beyond it")
    return ok[-1]


def make_spec(kind: str, n: int, q: int | None, L, r: int | None = None) -> ConstraintSpec:
    return ConstraintSpec(
        kind=Kind(kind),
        n=n,
        L=frozenset(L),
        modulus=PrimePower.from_q(q) if q else None,
        uniform_residue=r,
    )


def spec_key(kind: str, q: int | None, L, r: int | None = None) -> str:
    return f"{kind}|{q or ''}|{','.join(map(str, L))}|{'' if r is None else r}"


@functools.cache
def expectations(name: str) -> dict:
    path = DATA / f"{name}.json.gz"
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def _stratified_order(strata: list[list], rng: random.Random) -> list:
    """Shuffle each stratum and interleave them in proportion to their
    sizes, so that every prefix holds about the same mix."""
    keyed = []
    for items in strata:
        items = list(items)
        rng.shuffle(items)
        size = len(items)
        keyed += [((i + rng.random()) / size, item) for i, item in enumerate(items)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


# --- bound-table and bound-random ---------------------------------------------


def _small_sets(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every interval and every set of at most two elements within [lo, hi]."""
    out = {tuple(range(a, b + 1)) for a in range(lo, hi + 1) for b in range(a, hi + 1)}
    out |= {pair for pair in itertools.combinations(range(lo, hi + 1), 2)}
    return sorted(out)


def table_strata() -> list[list[tuple]]:
    """The bound table, as (kind, q, L, r) keys grouped by kind and modulus."""
    strata = []
    for q in TABLE_QS:
        for kind in ("diff-sperner", "hamming"):
            strata.append([(kind, q, L, None) for L in _small_sets(1, q - 1)])
        strata.append([("intersecting", q, L, None) for L in _small_sets(0, q - 1)])
        strata.append([("intersecting-uniform", q, (), r) for r in range(q)])
    for kind in ("diff-sperner", "hamming", "close-sperner"):
        strata.append([(kind, None, L, None) for L in _small_sets(1, NONMODULAR_MAX)])
    strata.append([("intersecting", None, L, None) for L in _small_sets(0, NONMODULAR_MAX)])
    return strata


def random_strata() -> list[list[tuple]]:
    """The fixed pool behind bound-random: distinct residue sets of 3 to 6
    elements per (kind, q), each with its own ground-set size."""
    rng = random.Random(RANDOM_POOL_SEED)
    strata = []
    for q in RANDOM_QS:
        for kind in RANDOM_KINDS:
            lo = 0 if kind == "intersecting" else 1
            seen, items = set(), []
            while len(items) < RANDOM_PER_STRATUM:
                L = tuple(sorted(rng.sample(range(lo, q), rng.randint(3, 6))))
                if L not in seen:
                    seen.add(L)
                    items.append((kind, q, L, rng.choice(N_CHOICES)))
            strata.append(items)
    return strata


# operations look the library function up when called, so that a traced
# run reaches the wrapper installed in its place
def _best_bound(spec):
    return bounds.best_bound(spec)


def _bound_check(workload: str, key: str, index: int | None):
    def check(out) -> str | None:
        expected = expectations(workload)[key]
        if index is not None:
            expected = expected[index]
        best = out[0]
        got = f"{best.theorem_id}:{best.bound.value}"
        return None if got == expected else f"best bound {got}, expected {expected}"

    return check


def _build_bound_table(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for kind, q, L, r in _stratified_order(table_strata(), rng):
        key = spec_key(kind, q, L, r)
        i = rng.randrange(len(N_CHOICES))
        n = N_CHOICES[i]
        spec = make_spec(kind, n, q, L, r)
        ops.append(Op(f"{key}|n={n}", _best_bound, spec, _bound_check("bound-table", key, i)))
    return ops


def _build_bound_random(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for kind, q, L, n in _stratified_order(random_strata(), rng):
        key = spec_key(kind, q, L)
        spec = make_spec(kind, n, q, L)
        ops.append(Op(f"{key}|n={n}", _best_bound, spec, _bound_check("bound-random", key, None)))
    return ops


# --- search-exact ---------------------------------------------------------------

# Canonical instances (kind, n, q, L, r), from one node up to the 4.4e5-node
# q=2, L={1}, n=9 search; several spend more nodes restoring the canonical
# witness than finding the maximum (diff q=8 L={2,3} n=8, antichain n=7).
SEARCH_SLOTS = (
    ("antichain", 7, None, (), None),
    ("antichain", 8, None, (), None),
    ("antichain", 9, None, (), None),
    ("diff-sperner", 7, 2, (1,), None),
    ("diff-sperner", 7, 3, (1,), None),
    ("diff-sperner", 7, 3, (1, 2), None),
    ("diff-sperner", 7, 4, (1, 2, 3), None),
    ("diff-sperner", 7, 5, (1,), None),
    ("diff-sperner", 7, 5, (4,), None),
    ("diff-sperner", 7, 8, (1, 3), None),
    ("diff-sperner", 7, 8, (2, 3), None),
    ("diff-sperner", 8, 2, (1,), None),
    ("diff-sperner", 8, 3, (1,), None),
    ("diff-sperner", 8, 3, (1, 2), None),
    ("diff-sperner", 8, 4, (1, 2), None),
    ("diff-sperner", 8, 4, (1, 2, 3), None),
    ("diff-sperner", 8, 5, (4,), None),
    ("diff-sperner", 8, 5, (3, 4), None),
    ("diff-sperner", 8, 5, (1, 2, 4), None),
    ("diff-sperner", 8, 7, (1, 4, 5), None),
    ("diff-sperner", 8, 8, (2, 3), None),
    ("diff-sperner", 9, 2, (1,), None),
    ("diff-sperner", 9, 4, (1,), None),
    ("diff-sperner", 9, 5, (1,), None),
    ("diff-sperner", 9, 5, (4,), None),
    ("diff-sperner", 9, 7, (2, 4), None),
    ("diff-sperner", 9, 8, (2, 5, 7), None),
    ("close-sperner", 7, None, (1,), None),
    ("close-sperner", 7, None, (2,), None),
    ("close-sperner", 7, None, (1, 2), None),
    ("close-sperner", 7, None, (1, 3), None),
    ("close-sperner", 7, None, (2, 3), None),
    ("close-sperner", 8, None, (2,), None),
    ("close-sperner", 8, None, (3,), None),
    ("close-sperner", 8, None, (2, 4), None),
    ("close-sperner", 9, None, (3, 4), None),
    ("close-sperner", 9, None, (4,), None),
    ("hamming", 7, 2, (1,), None),
    ("hamming", 7, 3, (1,), None),
    ("hamming", 7, 3, (1, 2), None),
    ("hamming", 7, 4, (2,), None),
    ("hamming", 7, 4, (1, 2), None),
    ("hamming", 7, 5, (1, 3), None),
    ("hamming", 7, 5, (1, 2, 3), None),
    ("hamming", 7, 5, (1, 3, 4), None),
    ("hamming", 7, 5, (2, 3, 4), None),
    ("hamming", 8, 2, (1,), None),
    ("hamming", 8, 3, (1,), None),
    ("hamming", 8, 3, (2,), None),
    ("hamming", 8, 3, (1, 2), None),
    ("hamming", 8, 4, (3,), None),
    ("hamming", 8, 4, (1, 2, 3), None),
    ("hamming", 8, 5, (1, 2, 3), None),
    ("hamming", 8, 5, (1, 2, 4), None),
    ("hamming", 9, 2, (1,), None),
    ("hamming", 9, 4, (3,), None),
    ("hamming", 9, 5, (1,), None),
    ("hamming", 9, 5, (2,), None),
    ("hamming", 9, 5, (3,), None),
    ("hamming", 9, 5, (1, 3), None),
    ("intersecting", 7, 2, (1,), None),
    ("intersecting", 7, 3, (0,), None),
    ("intersecting", 7, 3, (1,), None),
    ("intersecting", 7, 3, (1, 2), None),
    ("intersecting", 7, 4, (1, 2), None),
    ("intersecting", 7, 5, (0,), None),
    ("intersecting", 7, 5, (0, 2, 4), None),
    ("intersecting", 7, 5, (0, 1, 2), None),
    ("intersecting", 8, 2, (0,), None),
    ("intersecting", 8, 3, (0, 1), None),
    ("intersecting", 8, 4, (0, 3), None),
    ("intersecting", 8, 4, (1, 2), None),
    ("intersecting", 8, 5, (1,), None),
    ("intersecting", 8, 5, (0, 3), None),
    ("intersecting", 8, 5, (1, 3, 4), None),
    ("intersecting", 9, 3, (0, 1), None),
    ("intersecting", 9, 4, (1, 2), None),
    ("intersecting", 9, 4, (0, 1, 3), None),
    ("intersecting", 9, 5, (1,), None),
    ("intersecting", 9, 5, (0, 1, 3), None),
    ("intersecting", 9, 5, (0, 2, 4), None),
    ("intersecting-uniform", 7, 3, (), 1),
    ("intersecting-uniform", 7, 4, (), 0),
    ("intersecting-uniform", 7, 5, (), 3),
    ("intersecting-uniform", 8, 3, (), 1),
    ("intersecting-uniform", 8, 4, (), 2),
    ("intersecting-uniform", 8, 5, (), 0),
    ("intersecting-uniform", 8, 5, (), 4),
    ("intersecting-uniform", 9, 3, (), 2),
    ("intersecting-uniform", 9, 4, (), 3),
    ("intersecting-uniform", 9, 5, (), 0),
)

_PRIME_POWERS = (8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def presentations(kind: str, n: int, q: int | None, L, r) -> list[tuple]:
    """Inputs (kind, q, L, r) that the library reads exactly like the
    canonical instance on [n]: same constraint code, same compatibility
    graph, hence the same work and the same witness.

    No statistic of two subsets of [n] exceeds n (nor, for the skew
    distance, n/2), so a modulus above n may be any prime power above n
    and a non-modular L may hold extra elements beyond that range; a
    residue may be written as any representative modulo q.
    """
    L = tuple(L)
    if kind == "antichain":
        return [(kind, q, L, r)]
    if kind == "intersecting-uniform":
        return [(kind, q, L, r), (kind, q, L, r + q)]
    if q is None:
        beyond = n // 2 + 1 if kind == "close-sperner" else n + 1
        return [(kind, q, L, r), (kind, q, L + (beyond,), r)]
    if q > n:
        return [(kind, q, L, r)] + [(kind, m, L, r) for m in _PRIME_POWERS if m > n and m != q][:2]
    return [(kind, q, L, r), (kind, q, L[:-1] + (L[-1] + q,), r)]


def search_key(slot) -> str:
    kind, n, q, L, r = slot
    return f"{spec_key(kind, q, L, r)}|n={n}"


def _max_family(spec):
    return families.max_family(spec)


def _search_check(key: str):
    def check(out) -> str | None:
        expected = expectations("search-exact")[key]
        if not out.exact:
            return f"inexact search after {out.nodes_explored} nodes"
        if out.max_size != expected["omega"]:
            return f"omega {out.max_size}, expected {expected['omega']}"
        if list(out.witness.members) != expected["witness"]:
            return "witness differs from the canonical one"
        return None

    return check


def _build_search_exact(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for slot in SEARCH_SLOTS:
        kind, q, L, r = rng.choice(presentations(*slot))
        n = slot[1]
        check = _search_check(search_key(slot))
        ops.append(Op(f"{spec_key(kind, q, L, r)}|n={n}", _max_family, make_spec(kind, n, q, L, r), check))
    rng.shuffle(ops)
    return ops


# --- proof-replay -----------------------------------------------------------------

# (n, k, q): uniform k-layers of [n], verified as q-modular [k]-differencing
# Sperner systems; the first six also get a single-member mutation
DIFF_LAYERS = (
    (7, 3, 4), (8, 3, 5), (9, 3, 7), (10, 3, 8),
    (9, 4, 5), (11, 3, 9), (10, 4, 7), (11, 4, 8),
)
MUTATED = 6
# (n, s): the s-layer of [n] under the mid-band difference system
SYM_LAYERS = ((7, 3), (8, 4), (9, 4))
# (n, s, k): k-layers of [n] under the close system for L = [s]; the
# 4-layer of [8] is not 3-close-Sperner, so its replay must reject
CLOSE_LAYERS = ((8, 3, 3), (8, 3, 4), (8, 3, 5), (9, 4, 4), (9, 4, 5))
# the maximum q=8, L={2,3,6} difference-Sperner family on [8]: the only
# family here whose separating polynomial takes the "plus" proof variant
PLUS_FAMILY = (8, 8, "2,3,6", (15, 51, 60, 85, 106, 150, 169, 216, 228))
PUSHES = 12
# push_to_middle on the whole 6-layer of [14] raises RecursionError in the
# recursive matching; kept as a probe so the defect stays visible
DEFECT_PUSH = (14, 6, 7)


def layer(n: int, k: int) -> tuple[int, ...]:
    return tuple(m for m in range(1 << n) if m.bit_count() == k)


def mutate(n: int, members: tuple[int, ...], with_top: bool) -> tuple[int, ...]:
    """Replace the first member that does (or does not) contain element n
    by that member without its lowest element: a proper subset of it, so
    the difference pattern must fail."""
    top = 1 << (n - 1)
    victim = next(m for m in members if bool(m & top) == with_top)
    subset = victim & (victim - 1)
    return tuple(subset if m == victim else m for m in members)


def relabel(n: int, members, perm: list[int]) -> tuple[int, ...]:
    """Image of the family under the permutation i -> perm[i] of bit positions."""
    out = []
    for m in members:
        image = 0
        for i in range(n):
            if m >> i & 1:
                image |= 1 << perm[i]
        out.append(image)
    return tuple(sorted(out))


def random_antichain(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    members: list[int] = []
    for _ in range(40 * size):
        if len(members) == size:
            break
        k = rng.randint(1, n - 1)
        cand = sum(1 << i for i in rng.sample(range(n), k))
        if all(cand & ~m and m & ~cand for m in members):
            members.append(cand)
    return tuple(sorted(members))


def proof_families(rng: random.Random | None) -> list[tuple[str, int, tuple[int, ...], list[tuple[str, list[str]]]]]:
    """(family id, n, members, [(command id, argv without --file)]) for the
    recorded part of proof-replay.  Mutated families are relabelled by a
    permutation fixing element n drawn from `rng` (none: identity); the
    proof systems single out element n only, so the recorded rank and
    pattern hold for every such relabelling."""
    out = []
    for i, (n, k, q) in enumerate(DIFF_LAYERS):
        diff = ["--kind", "diff-sperner", "--q", str(q), "--L", f"1..{k}"]
        cmds = [("verify", ["verify", *diff]), ("check", ["check", *diff])]
        members = layer(n, k)
        out.append((f"diff-{n}-{k}-q{q}", n, members, cmds))
        if i < MUTATED:
            mutated = mutate(n, members, with_top=bool(i % 2))
            if rng is not None:
                perm = list(range(n - 1))
                rng.shuffle(perm)
                mutated = relabel(n, mutated, perm + [n - 1])
            out.append((f"diff-{n}-{k}-q{q}-mutated", n, mutated, cmds))
    n, q, L, members = PLUS_FAMILY
    diff = ["--kind", "diff-sperner", "--q", str(q), "--L", L]
    out.append((f"diff-{n}-plus-q{q}", n, members, [("verify", ["verify", *diff]), ("check", ["check", *diff])]))
    for n, s in SYM_LAYERS:
        cmds = [
            ("verify", ["verify", "--kind", "diff-sperner", "--variant", "sym", "--s", str(s)]),
            ("check", ["check", "--kind", "diff-sperner", "--L", f"1..{s}"]),
        ]
        out.append((f"sym-{n}-{s}", n, layer(n, s), cmds))
    for n, s, k in CLOSE_LAYERS:
        cmds = [
            ("verify", ["verify", "--kind", "close-sperner", "--variant", "close", "--s", str(s)]),
            ("check", ["check", "--kind", "close-sperner", "--L", f"1..{s}"]),
        ]
        out.append((f"close-{n}-{s}-{k}", n, layer(n, k), cmds))
    return out


def _cli_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    doc = json.loads(buf.getvalue())
    doc["exit_code"] = code
    return doc


def _doc_error(doc: dict, command: str) -> str | None:
    if doc.get("schema") != 1 or doc.get("command") != command:
        return f"not a schema-1 {command} document"
    if doc["exit_code"] != 0 or doc.get("status") != "ok":
        return f"status {doc.get('status')!r}, exit code {doc['exit_code']}"
    return None


def _replay_check(command: str, key: str):
    def check(doc) -> str | None:
        err = _doc_error(doc, command)
        if err:
            return err
        expected = expectations("proof-replay")[key]
        got = {name: doc["payload"].get(name) for name in expected}
        return None if got == expected else f"{got}, expected {expected}"

    return check


def _pair_stats(members) -> list[tuple[int, int]]:
    return [((a & ~b).bit_count(), (b & ~a).bit_count()) for a, b in itertools.combinations(members, 2)]


def _push_check(n: int, s: int, members: tuple[int, ...]):
    """Properties every correct push has, whatever matching it used."""

    def check(doc) -> str | None:
        err = _doc_error(doc, "push")
        if err:
            return err
        stats = _pair_stats(members)
        was_diff = all(1 <= d <= s and 1 <= e <= s for d, e in stats)
        was_close = all(1 <= min(d, e) <= s for d, e in stats)
        pushed = sorted(sum(1 << (x - 1) for x in sorted_set) for sorted_set in doc["payload"]["pushed"])
        if len(set(pushed)) != len(members):
            return f"pushed {len(set(pushed))} distinct members from {len(members)}"
        if any(not s <= m.bit_count() <= n - s or m >> n for m in pushed):
            return f"a pushed member lies outside the band [{s}, {n - s}]"
        after = _pair_stats(pushed)
        if any(d == 0 or e == 0 for d, e in after):
            return "pushed family is not an antichain"
        if was_diff and not all(d <= s and e <= s for d, e in after):
            return "push broke the difference-Sperner property"
        if was_close and not all(min(d, e) <= s for d, e in after):
            return "push broke the close-Sperner property"
        return None

    return check


def _build_proof_replay(seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    rng = random.Random(seed)

    def write(name: str, n: int, members) -> str:
        path = workdir / f"{name}.txt"
        path.write_text(families.format_family(SetFamily(n, tuple(members))))
        return str(path)

    ops = []
    for fam_id, n, members, cmds in proof_families(rng):
        path = write(fam_id, n, members)
        for cmd_id, argv in cmds:
            key = f"{fam_id}:{cmd_id}"
            ops.append(Op(key, _cli_json, [argv[0], "--file", path, *argv[1:], "--json"], _replay_check(argv[0], key)))
    for i in range(PUSHES):
        n = 8 + i % 5
        s = 1 + i % (n // 2)
        members = random_antichain(rng, n, 10 + 2 * i)
        path = write(f"push-{i}", n, members)
        argv = ["push", "--file", path, "--s", str(s), "--n", str(n), "--json"]
        ops.append(Op(f"push-{i}:n={n}:s={s}", _cli_json, argv, _push_check(n, s, members)))
    rng.shuffle(ops)
    n, k, s = DEFECT_PUSH
    members = layer(n, k)
    path = write(f"push-layer-{n}-{k}", n, members)
    argv = ["push", "--file", path, "--s", str(s), "--json"]
    probes = [Op(f"push {k}-layer of [{n}] to s={s}", _cli_json, argv, _push_check(n, s, members))]
    return ops, probes


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Make the workload's inputs from the seed; files go under workdir."""
    if name == "bound-table":
        return Workload(_build_bound_table(seed), False, BOUND_TABLE_RATE)
    if name == "bound-random":
        return Workload(_build_bound_random(seed), False, BOUND_RANDOM_RATE)
    if name == "search-exact":
        return Workload(_build_search_exact(seed), True, SEARCH_EXACT_RATE)
    if name == "proof-replay":
        ops, probes = _build_proof_replay(seed, workdir)
        return Workload(ops, True, PROOF_REPLAY_RATE, probes)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


def percentile(sorted_samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of an ascending list:
    the order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density
    (taken at the midpoint of each one's share of [0, 1]).  It averages
    the samples near the percentile instead of picking one, so one slow
    or fast operation moves it little."""
    n = len(sorted_samples)
    a, b = (n + 1) * p / 100, (n + 1) * (1 - p / 100)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * x for w, x in zip(weights, sorted_samples)) / sum(weights)
