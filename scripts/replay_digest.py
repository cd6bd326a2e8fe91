#!/usr/bin/env python3
"""Digest of the `check`, `push` and `verify --json` documents the CLI
prints on the benchmark's proof-replay inputs, to show that a change to
`families` or `polylab` leaves them identical.

The inputs are every operation of the `proof-replay` workload at the given
seeds (its recorded families, their mutations, the random antichains it
pushes and its probe), as `perfbench/workloads.py` builds them, plus the
6-layer of [14] checked as an antichain and as a q = 8, L = [6]
difference-Sperner family, pushed to s = 7 and verified under the sym
system with s = 6.  Each document is hashed as sorted JSON with every key
ending in `_s` (a timing) dropped.

The last line, `arith-sha256`, hashes the same way the `--json` documents
of the arithmetic commands (`vp`, `binom`, `digits`, `closure`, `mu`,
`census` and `seppoly check`) over a small fixed grid of prime powers
q <= 27, a few rejected inputs included, to show that a change to
`padic`, `closure` or `seppoly` leaves them identical.

The fourth line, `systems-sha256`, hashes every proof system that
`polylab.verify_independence` receives during those runs: per block, in
order, each form's (fixed, free, t), then the probe groups sorted by name,
`degree_cap` and `meta` sorted by key.  Rank, block sizes and pattern
failures can agree while the blocks differ; this line shows that a change
to the builders leaves the P, F and H blocks themselves identical.  The
systems are read through `rebound`, whose wrapping lasts for its `with`
block only.

Run it on two checkouts and compare the printed lines.  `digest`
computes them, and the test suite pins them through it, once with the
6-layer of [14] and once without.

Usage:
  python3 scripts/replay_digest.py [--seed N ...]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from qsperner import cli, polylab
from qsperner.families import SetFamily, format_family
from workloads import build, layer

LAYER_14_6 = (
    ["check", "--kind", "antichain"],
    ["check", "--kind", "diff-sperner", "--q", "8", "--L", "6"],
    ["push", "--s", "7"],
    ["verify", "--kind", "diff-sperner", "--variant", "sym", "--s", "6"],
)


def untimed(doc):
    """The document without its `*_s` timing keys, at any depth."""
    if isinstance(doc, dict):
        return {k: untimed(v) for k, v in doc.items() if not k.endswith("_s")}
    if isinstance(doc, list):
        return [untimed(v) for v in doc]
    return doc


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    doc = untimed(json.loads(buf.getvalue()))
    doc["exit_code"] = code
    return json.dumps(doc, sort_keys=True)


@contextlib.contextmanager
def rebound(wrappers: dict, package: str = "qsperner"):
    """For the `with` block, bind wrappers[f] in place of each function f
    of `wrappers` at every name by which `package` or one of its modules
    binds f; every binding is put back on exit."""
    bound = [
        (module, attr, original)
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == package
        for attr, value in list(vars(module).items())
        for original in wrappers
        if value is original
    ]
    for module, attr, original in bound:
        setattr(module, attr, wrappers[original])
    try:
        yield
    finally:
        for module, attr, original in bound:
            setattr(module, attr, original)


def hashing_systems(digest):
    """For the `with` block, hash each system `polylab.verify_independence`
    receives into `digest` before it is checked."""
    original = polylab.verify_independence

    def wrapper(sys_):
        blocks = [(name, [tuple(form) for form in forms]) for name, forms in sys_.forms.items()]
        record = (blocks, sorted(sys_.probes.items()), sys_.degree_cap, sorted(sys_.meta.items()))
        digest.update(repr(record).encode() + b"\n")
        return original(sys_)

    return rebound({original: wrapper})


def argvs(seeds: list[int], workdir: Path, layer_14_6: bool = True):
    for seed in seeds:
        seed_dir = workdir / f"seed-{seed}"
        seed_dir.mkdir(exist_ok=True)
        work = build("proof-replay", seed, seed_dir)
        for op in work.ops + work.probes:
            yield op.label, op.arg
    if not layer_14_6:
        return
    path = workdir / "layer-14-6.txt"
    path.write_text(format_family(SetFamily(14, layer(14, 6))))
    for argv in LAYER_14_6:
        yield "layer-14-6:" + " ".join(argv), [argv[0], "--file", str(path), *argv[1:], "--json"]


ARITH_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)
ARITH_REJECTED = (
    ["vp", "--p", "4", "--n", "8"],
    ["digits", "--q", "8", "--s", "8"],
    ["closure", "--q", "8", "--lo", "2", "--hi", "8"],
    ["mu", "--q", "8", "--s", "0"],
    ["census", "--q", "6"],
    ["seppoly", "check", "--q", "4", "--alpha", "1", "--L", "1", "--roots", "1"],
)


def arith_argvs():
    for p in (2, 3, 5, 7):
        for n in range(-27, 28):
            yield ["vp", "--p", str(p), "--n", str(n)]
        for a in range(10):
            for b in range(10):
                yield ["binom", "--p", str(p), "--a", str(a), "--b", str(b)]
    for q in ARITH_QS:
        yield ["census", "--q", str(q)]
        for s in range(q):
            yield ["digits", "--q", str(q), "--s", str(s)]
        for s in range(1, q):
            yield ["mu", "--q", str(q), "--s", str(s)]
        for lo in range(1, q):
            for hi in range(lo, q):
                yield ["closure", "--q", str(q), "--lo", str(lo), "--hi", str(hi)]
    # every root set of up to two roots in [0, q), so some vanish at alpha
    for q in (4, 8, 9):
        root_sets = [*map(str, range(q)), *(f"{a},{b}" for a in range(q) for b in range(a, q))]
        for L in ((1,), (1, 2), (q - 1,), tuple(range(1, q))):
            for alpha in (a for a in range(q) if a not in L):
                for roots in root_sets:
                    argv = ["seppoly", "check", "--q", str(q), "--alpha", str(alpha)]
                    yield [*argv, "--L", ",".join(map(str, L)), "--roots", roots]
    yield from ARITH_REJECTED


def digest(seeds=(11,), layer_14_6: bool = True) -> dict:
    """The lines the script prints, by name and in order: the number of
    documents, `sha256`, `arith-sha256` and `systems-sha256`.  Without
    `layer_14_6` the four documents of the 6-layer of [14] are left out,
    and with them its sym system of 5,475 polynomials."""
    docs, systems, arith = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = 0
    with hashing_systems(systems), tempfile.TemporaryDirectory() as tmp:
        for label, argv in argvs(seeds, Path(tmp), layer_14_6):
            docs.update(f"{label}\n{run(argv)}\n".encode())
            count += 1
    for argv in arith_argvs():
        arith.update(f"{' '.join(argv)}\n{run([*argv, '--json'])}\n".encode())
    return {
        "documents": count,
        "sha256": docs.hexdigest(),
        "arith-sha256": arith.hexdigest(),
        "systems-sha256": systems.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", help="proof-replay seed (repeatable; default 11)")
    args = parser.parse_args()
    for name, value in digest(args.seed or [11]).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
