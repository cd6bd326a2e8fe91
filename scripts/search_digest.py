#!/usr/bin/env python3
"""Digest of what the exact search returns on the benchmark's search specs
and on seeded random specs, to show that a change to the search leaves its
answers identical.

The specs are every presentation of the 91 `search-exact` slots, as
`perfbench/workloads.py` defines them, then seeded random specs of all six
kinds at n <= 8.  For each spec the script hashes the maximum size, the
exactness flag and the canonical witness that `max_family` returns, so a
change to any of them changes the digest.  It also prints the search and
restoration nodes summed over all specs, which a faster search may lower
but never needs to raise, and `graph-sha256`, a hash of the search graph
itself (vertices, adjacency rows and element holders, as
`_graph_with_holders` returns them) for every spec, which a change to how
the graph is built must leave unchanged, and `stats-sha256`, a hash of
every spec's `stats` without its `*_s` timings, which a change to how the
search keeps its books must leave unchanged (a search that opens fewer
nodes changes it too).  Run it on two checkouts and compare the lines.  `digest` computes them, and the test suite pins them
through it.

Usage:
  python3 scripts/search_digest.py [--seed N] [--random COUNT]
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from qsperner.families import Kind, _graph_with_holders, max_family
from replay_digest import untimed
from workloads import SEARCH_SLOTS, make_spec, presentations

MODULI = (None, 2, 3, 4, 5, 7, 8, 9)


def random_spec(rng: random.Random):
    """One spec of a random kind on [n], n <= 8: a residue set L of the
    kind's range (non-empty, and modular where the kind allows it), or a
    uniform residue."""
    kind = rng.choice(list(Kind))
    n = rng.randint(1, 8)
    if kind is Kind.ANTICHAIN:
        return make_spec(kind.value, n, None, ())
    if kind is Kind.INTERSECTING_UNIFORM:
        q = rng.choice(MODULI[1:])
        return make_spec(kind.value, n, q, (), rng.randrange(q))
    q = None if kind is Kind.CLOSE_SPERNER else rng.choice(MODULI)
    if kind is Kind.INTERSECTING:
        values = range(q) if q else range(n + 1)
    else:
        values = range(1, q) if q else range(1, (n // 2 if kind is Kind.CLOSE_SPERNER else n) + 1)
    values = list(values) or [1]
    return make_spec(kind.value, n, q, rng.sample(values, rng.randint(1, len(values))))


def specs(seed: int, count: int):
    for slot in SEARCH_SLOTS:
        n = slot[1]
        for kind, q, L, r in presentations(*slot):
            yield make_spec(kind, n, q, L, r)
    rng = random.Random(seed)
    for _ in range(count):
        yield random_spec(rng)


def digest(seed: int = 1, count: int = 300) -> dict:
    """The lines the script prints, by name: the number of specs, the
    search and restoration nodes summed over them, `sha256`,
    `graph-sha256` and `stats-sha256`."""
    answers, graphs, stats = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    out = {"specs": 0, "search_nodes": 0, "restore_nodes": 0}
    for spec in specs(seed, count):
        res = max_family(spec)
        answers.update(repr((res.max_size, res.exact, res.witness.members)).encode())
        answers.update(b"\n")
        verts, adj, holders = _graph_with_holders(spec)
        graphs.update(repr((verts, adj, sorted(holders.items()))).encode())
        graphs.update(b"\n")
        stats.update(repr(sorted(untimed(res.stats).items())).encode())
        stats.update(b"\n")
        out["specs"] += 1
        out["search_nodes"] += res.stats["search_nodes"]
        out["restore_nodes"] += res.stats["restore_nodes"]
    return {
        **out,
        "sha256": answers.hexdigest(),
        "graph-sha256": graphs.hexdigest(),
        "stats-sha256": stats.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of the random specs")
    ap.add_argument("--random", type=int, default=300, help="number of random specs")
    args = ap.parse_args()
    for name, value in digest(args.seed, args.random).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
