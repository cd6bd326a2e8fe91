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
ending in `_s` (a timing) dropped.  Run it on two checkouts and compare
the printed lines.

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

from qsperner import cli
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


def argvs(seeds: list[int], workdir: Path):
    for seed in seeds:
        seed_dir = workdir / f"seed-{seed}"
        seed_dir.mkdir(exist_ok=True)
        work = build("proof-replay", seed, seed_dir)
        for op in work.ops + work.probes:
            yield op.label, op.arg
    path = workdir / "layer-14-6.txt"
    path.write_text(format_family(SetFamily(14, layer(14, 6))))
    for argv in LAYER_14_6:
        yield "layer-14-6:" + " ".join(argv), [argv[0], "--file", str(path), *argv[1:], "--json"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", help="proof-replay seed (repeatable; default 11)")
    args = parser.parse_args()
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in argvs(args.seed or [11], Path(tmp)):
            digest.update(f"{label}\n{run(argv)}\n".encode())
            count += 1
    print(f"documents {count}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
