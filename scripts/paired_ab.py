#!/usr/bin/env python3
"""Time the benchmark's workloads on two source trees against each other
in one process, so that both meet the same machine state.

Timings of one tree taken in separate processes spread by 10-30% on a
shared host, more than most changes move them.  Here each tree's
`qsperner` package is copied to a temporary directory as `qsperner_a`
and `qsperner_b`, both are imported side by side, and
`perfbench/workloads.py` is executed once against each copy: `qsperner`
and its submodules name that copy in `sys.modules` only while the file
runs.

The items are named on the command line.  A workload (`bound-table`,
`bound-random`, `search-exact`, `proof-replay`) is the operations a
benchmark run of `run_seconds` (BENCHMARK.json) times at seed 0; `rows`
is the budgeted searches on which the search's shortcuts were weighed:
intersecting-uniform, q = 4, residue 0 at n = 9 and n = 12, and the seed
alone (node budget 0) of three n = 12 specs.  Every output of an item is
checked once, by its operation's own check, before anything is timed; a
wrong one ends the script with exit code 1 and names the operation.
Every timed or counted pass starts with the tree's `functools` caches
cleared (today `_column_sum`, `_cube`, `PrimePower.from_q` and
`_build_parser`), as a benchmark run starts: `_column_sum`'s memo alone
is worth 11-13% of a warm bound pass.  Each round then times one pass of
every item with each tree in turn, the tree that goes first alternating
from round to round.

Per item it prints a `wall` line (the time of the pass) and, for
`search-exact` and `rows`, a `seed` line (the `seed_s` of its searches,
summed): the median over the rounds of each tree's time in ms, then the
median of the per-round ratios b/a and their quartiles.  A ratio above 1
means B is slower.  With `--count MODULE.NAME`, a last line,
`count MODULE.NAME a N b M`, gives each tree's calls to that function in
one untimed pass of every item, counted at every name the tree's modules
bind it by (`replay_digest.rebound`): a count that does not depend on
the machine, beside the wall time.

Both trees share one heap and one garbage collector, so a change that only
allocates more is charged to both and reads as neutral here: removing
restoration's singleton skip read 0.994 in this script against a +4.3%
p50 in the benchmark.  The benchmark's alternating pairs, one tree per
process, decide; this script only narrows down what to take them on.

Usage:
  python3 scripts/paired_ab.py A_SRC B_SRC ITEM... [--count MODULE.NAME] [--rounds N]

A_SRC and B_SRC are directories holding a `qsperner` package, such as
the `src` of two checkouts.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out

from replay_digest import rebound

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("bound-table", "bound-random", "search-exact", "proof-replay")
SEEDED = ("search-exact", "rows")  # items whose outputs report `seed_s`

# (kind, n, q, L, uniform residue, node budget)
ROWS = (
    ("intersecting-uniform", 9, 4, (), 0, 20_000),
    ("intersecting-uniform", 12, 4, (), 0, 2_000),
    ("hamming", 12, None, range(1, 11), None, 0),
    ("intersecting", 12, None, (0,), None, 0),
    ("diff-sperner", 12, None, range(1, 6), None, 0),
)


def load(src: Path, name: str, into: Path):
    """`perfbench/workloads.py` executed against src's `qsperner` package,
    copied into `into` (which must be on sys.path) and imported as `name`."""
    shutil.copytree(src / "qsperner", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    for path in (into / name).glob("*.py"):
        if path.stem != "__main__":
            importlib.import_module(name if path.stem == "__init__" else f"{name}.{path.stem}")
    aliases = {
        "qsperner" + key[len(name) :]: module
        for key, module in list(sys.modules.items())
        if key.partition(".")[0] == name
    }
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    names = [*aliases, "workloads"]
    saved = {key: sys.modules.pop(key) for key in names if key in sys.modules}
    sys.modules.update(aliases, workloads=workloads)  # `dataclasses` looks the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        for key in names:
            del sys.modules[key]
        sys.modules.update(saved)
    return workloads


def operations(workloads, item: str, workdir: Path) -> list:
    """The operations of one pass of the item, built by `workloads`."""
    if item != "rows":
        workload = workloads.build(item, 0, workdir)
        return workload.ops[: workload.planned_ops(RUN_SECONDS)]
    fam = workloads.families
    return [
        workloads.Op(
            f"{kind}|n={n}|budget={budget}",
            lambda spec, budget=budget: fam.max_family(spec, budget),
            workloads.make_spec(kind, n, q, L, r),
            lambda out: None,
        )
        for kind, n, q, L, r, budget in ROWS
    ]


def caches(name: str) -> list:
    """The `functools` caches of the modules of the package imported as
    `name`: its memoised functions and classes' methods."""
    found = {}
    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] == name:
            for value in vars(module).values():
                for f in (value, *vars(value).values()) if isinstance(value, type) else (value,):
                    f = getattr(f, "__func__", f)
                    if hasattr(f, "cache_clear"):
                        found[id(f)] = f
    return list(found.values())


def make_runner(ops: dict[str, list], cached: list):
    """A function timing one pass of an item's operations, the caches
    cleared first: its wall time and, for a search item, the summed
    `seed_s`, in seconds."""

    def run(item: str) -> tuple[float, ...]:
        for f in cached:
            f.cache_clear()
        gc.collect()
        seeded, seed = item in SEEDED, 0.0
        start = time.perf_counter()
        for op in ops[item]:
            out = op.call(op.arg)
            if seeded:
                seed += out.stats["seed_s"]
        wall = time.perf_counter() - start
        return (wall, seed) if seeded else (wall,)

    return run


def count_calls(name: str, target: str, run, items: list[str]) -> int:
    """The calls to the function at `target` (MODULE.NAME) of the tree
    imported as `name` in one pass of each item, at every name its
    modules bind the function by, through `replay_digest.rebound`."""
    module, _, attr = target.rpartition(".")
    original = getattr(sys.modules[f"{name}.{module}"], attr)
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    with rebound({original: counting}, name):
        for item in items:
            run(item)
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
    ap.add_argument("items", nargs="+", choices=(*WORKLOADS, "rows"), help="what to time")
    ap.add_argument("--count", metavar="MODULE.NAME", help="also count each tree's calls to this function")
    ap.add_argument("--rounds", type=int, default=20, help="timed rounds (at least 2)")
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    items = list(dict.fromkeys(args.items))
    names = ("qsperner_a", "qsperner_b")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        runners = []
        for src, name in zip((args.a_src, args.b_src), names):
            workloads = load(src.resolve(), name, Path(tmp))
            (Path(tmp) / f"{name}-work").mkdir()
            ops = {item: operations(workloads, item, Path(tmp) / f"{name}-work") for item in items}
            runners.append(make_runner(ops, caches(name)))
            for item in items:  # each output checked once, before any timing
                for op in ops[item]:
                    error = op.check(op.call(op.arg))
                    if error is not None:
                        print(f"{name} {item} {op.label}: {error}", file=sys.stderr)
                        return 1
        calls = [count_calls(name, args.count, run, items) for name, run in zip(names, runners)] if args.count else None
        times = {item: ([], []) for item in items}  # item -> per tree, (wall, seed) per round
        for rnd in range(args.rounds):
            for item in items:
                for t in (0, 1) if rnd % 2 == 0 else (1, 0):
                    times[item][t].append(runners[t](item))
    for item, (a, b) in times.items():
        for i, measure in enumerate(("wall", "seed")[: len(a[0])]):
            print(f"{item} {measure} {summary([x[i] for x in a], [y[i] for y in b])}")
    if calls:
        print(f"count {args.count} a {calls[0]} b {calls[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
