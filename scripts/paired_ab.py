#!/usr/bin/env python3
"""Time the exact search, or the proof replay, of two source trees
against each other in one process, so that both meet the same machine
state.

Timings of one tree taken in separate processes spread by 10-30% on a
shared host, more than most changes to the search move them.  Here each
tree's `qsperner` package is copied to a temporary directory as
`qsperner_a` and `qsperner_b` and both are imported side by side.

The items are `slots`, one pass of `max_family` over the 91 `search-exact`
slots of `perfbench/workloads.py` (each slot's first presentation), and,
with `--rows`, budgeted rows on which the search's shortcuts were weighed:
intersecting-uniform, q = 4, residue 0 at n = 9 and n = 12, and the seed
alone (node budget 0) of three n = 12 specs.  With `--verify`, the
`verify` item builds each `proof-replay` system (`proof_families(None)`
of `perfbench/workloads.py`) and runs `verify_independence` on it; the
polynomial each difference system takes from its R22 certificate is
found once per tree, untimed.  With `--cli`, the `cli` item makes the
`cli.main` calls of one `proof-replay` pass (its operations at seed 0,
their files written once), each with its own captured stdout, as the
benchmark makes them.  After one untimed warm-up pass per tree,
each round times one pass of every item with each tree in turn, the tree
that goes first alternating from round to round.

Per item it prints a `wall` line (the time of the pass) and, for the
search items, a `seed` line (the `seed_s` of its searches, summed): the
median over the rounds of each tree's time in ms, then the median of
the per-round ratios b/a and their quartiles.  A ratio above 1 means B
is slower.  With `--verify` a last line, `verify meet_planes a N b M`,
gives each tree's calls to `families._meet_planes` in one untimed pass
of the `verify` item, counted at every name the tree's modules bind the
function by: a count that does not depend on the machine, beside the
wall time.  With `--cli` a last line, `cli parse_known_args a N b M`,
gives each tree's calls to argparse's `parse_known_args`, which every
parser the CLI builds inherits, in one untimed pass of the `cli` item:
two per call while the top-level parser read the whole command line,
one since the command's own parser reads it.

Both trees share one heap and one garbage collector, so a change that only
allocates more is charged to both and reads as neutral here: removing
restoration's singleton skip read 0.994 in this script against a +4.3%
p50 in the benchmark.  The benchmark's alternating pairs, one tree per
process, decide; this script only narrows down what to take them on.

Usage:
  python3 scripts/paired_ab.py A_SRC B_SRC [--rows] [--verify] [--cli] [--rounds N]

A_SRC and B_SRC are directories holding a `qsperner` package, such as
the `src` of two checkouts.
"""

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out

# (item, kind, n, q, L, uniform residue, node budget)
ROWS = (
    ("uniform-q4-r0-n9", "intersecting-uniform", 9, 4, (), 0, 20_000),
    ("uniform-q4-r0-n12", "intersecting-uniform", 12, 4, (), 0, 2_000),
    ("seed-hamming-n12-L1..10", "hamming", 12, None, range(1, 11), None, 0),
    ("seed-intersecting-n12-L0", "intersecting", 12, None, (0,), None, 0),
    ("seed-diff-sperner-n12-L1..5", "diff-sperner", 12, None, range(1, 6), None, 0),
)


def perfbench_workloads(a_src: Path):
    """`perfbench/workloads.py`, which imports `qsperner` from A_SRC."""
    sys.path[:0] = [str(a_src), str(ROOT / "perfbench")]
    return importlib.import_module("workloads")


def slot_specs(workloads) -> list[tuple]:
    """(kind, n, q, L, r) of each `search-exact` slot's first presentation."""
    out = []
    for slot in workloads.SEARCH_SLOTS:
        kind, q, L, r = workloads.presentations(*slot)[0]
        out.append((kind, slot[1], q, L, r))
    return out


def load(src: Path, name: str, into: Path) -> SimpleNamespace:
    """The modules of src's `qsperner` package, imported as `name` from a copy."""
    shutil.copytree(src / "qsperner", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    modules = ("bounds", "cli", "families", "padic", "polylab", "seppoly")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def system_builders(pkg: SimpleNamespace, replays: list[tuple]) -> list:
    """A function building the proof system of each family of `replays`,
    as `proof_families` lists them, with this tree, as its `verify`
    command does; the steps are spelled out here, not shared with `cli`,
    so that an older tree, without such a helper, can be timed too."""
    builders = []
    for _, n, members, cmds in replays:
        # the family is given, not read from --file
        args = pkg.cli._build_parser().parse_args([*dict(cmds)["verify"], "--file", "-"])
        fam = pkg.families.SetFamily(n, tuple(members))
        if args.variant:
            builders.append(partial(pkg.polylab.build_midband_system, fam, args.s, args.variant))
            continue
        pp, L = pkg.cli._modulus_and_L(args)
        spec = pkg.families.ConstraintSpec(kind=pkg.families.Kind(args.kind), n=n, L=frozenset(L), modulus=pp)
        aux = pkg.bounds.bound_from_seppoly(spec).auxiliary
        g = pkg.seppoly.FactoredIntPoly(aux["lead"], aux["roots"])
        variant = "minus" if aux["shifted_minus_ok"] or not aux["shifted_plus_ok"] else "plus"
        builders.append(partial(pkg.polylab.build_diff_sperner_system, fam, g, pp, variant))
    return builders


def make_runner(
    pkg: SimpleNamespace, items: dict[str, list[tuple]], replays: list[tuple] = (), argvs: list[list[str]] = ()
):
    """A function timing one pass of an item with this tree: its wall time
    and, for a search item, the summed `seed_s`, in seconds.  The `verify`
    item, given no search rows, verifies the systems of `replays`, and the
    `cli` item runs `cli.main` on each of `argvs`."""
    fam, padic = pkg.families, pkg.padic
    specs = {
        item: [
            (
                fam.ConstraintSpec(
                    kind=fam.Kind(kind),
                    n=n,
                    L=frozenset(L),
                    modulus=padic.PrimePower.from_q(q) if q else None,
                    uniform_residue=r,
                ),
                budget,
            )
            for kind, n, q, L, r, budget in rows
        ]
        for item, rows in items.items()
    }
    builders = system_builders(pkg, replays)

    def run(item: str) -> tuple[float, ...]:
        gc.collect()
        if item == "cli":
            start = time.perf_counter()
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    pkg.cli.main(argv)
            return (time.perf_counter() - start,)
        if item == "verify":
            start = time.perf_counter()
            for build in builders:
                pkg.polylab.verify_independence(build())
            return (time.perf_counter() - start,)
        seed = 0.0
        start = time.perf_counter()
        for spec, budget in specs[item]:
            seed += fam.max_family(spec, budget).stats["seed_s"]
        return time.perf_counter() - start, seed

    return run


def planes_calls(name: str, run) -> int:
    """The calls to `families._meet_planes` in one pass of the `verify`
    item of the tree imported as `name`, at every name its modules bind
    the function by; each binding is put back after the pass."""
    original = sys.modules[f"{name}.families"]._meet_planes
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    bound = [
        (module, attr)
        for key, module in list(sys.modules.items())
        if key.partition(".")[0] == name
        for attr, value in list(vars(module).items())
        if value is original
    ]
    for module, attr in bound:
        setattr(module, attr, counting)
    try:
        run("verify")
    finally:
        for module, attr in bound:
            setattr(module, attr, original)
    return calls


def parse_passes(run) -> int:
    """The calls to argparse's `parse_known_args` in one pass of the `cli`
    item; the method is put back after the pass."""
    original = argparse.ArgumentParser.parse_known_args
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    argparse.ArgumentParser.parse_known_args = counting
    try:
        run("cli")
    finally:
        argparse.ArgumentParser.parse_known_args = original
    return calls


def summary(a: list[float], b: list[float]) -> str:
    ratios = [y / x for x, y in zip(a, b)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return (
        f"a {statistics.median(a) * 1e3:.3f} ms b {statistics.median(b) * 1e3:.3f} ms "
        f"b/a {median:.3f} q1 {q1:.3f} q3 {q3:.3f}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_src", type=Path, help="the directory holding tree A's qsperner")
    ap.add_argument("b_src", type=Path, help="the directory holding tree B's qsperner")
    ap.add_argument("--rows", action="store_true", help="also time the budgeted rows")
    ap.add_argument("--verify", action="store_true", help="also time the proof-replay systems' verify")
    ap.add_argument("--cli", action="store_true", help="also time the proof-replay cli.main calls")
    ap.add_argument("--rounds", type=int, default=20, help="timed rounds (at least 2)")
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    workloads = perfbench_workloads(args.a_src.resolve())
    items = {"slots": [(*spec, None) for spec in slot_specs(workloads)]}
    if args.rows:
        items.update((item, [row]) for item, *row in ROWS)
    replays = []
    if args.verify:
        replays, items["verify"] = workloads.proof_families(None), []
    names = ("qsperner_a", "qsperner_b")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        argvs = []
        if args.cli:
            (Path(tmp) / "replay").mkdir()
            items["cli"] = []
            argvs = [op.arg for op in workloads.build("proof-replay", 0, Path(tmp) / "replay").ops]
        runners = [
            make_runner(load(src.resolve(), name, Path(tmp)), items, replays, argvs)
            for src, name in zip((args.a_src, args.b_src), names)
        ]
        for run in runners:  # warm-up: the cube of each n, caches, the allocator
            for item in items:
                run(item)
        calls = [planes_calls(name, run) for name, run in zip(names, runners)] if args.verify else None
        passes = [parse_passes(run) for run in runners] if args.cli else None
        times = {item: ([], []) for item in items}  # item -> per tree, (wall, seed) per round
        for rnd in range(args.rounds):
            for item in items:
                for t in (0, 1) if rnd % 2 == 0 else (1, 0):
                    times[item][t].append(runners[t](item))
    for item, (a, b) in times.items():
        for i, measure in enumerate(("wall", "seed")[: len(a[0])]):
            print(f"{item} {measure} {summary([x[i] for x in a], [y[i] for y in b])}")
    if calls:
        print(f"verify meet_planes a {calls[0]} b {calls[1]}")
    if passes:
        print(f"cli parse_known_args a {passes[0]} b {passes[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
