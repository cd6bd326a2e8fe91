#!/usr/bin/env python3
"""Digest of every certificate the bound engine emits on the benchmark's
bound specs, to show that a change to the engine leaves them identical.

The specs are the `bound-table` keys at every ground-set size the benchmark
may pick, then the whole `bound-random` pool, both as `perfbench/workloads.py`
defines them.  For each spec the script hashes `repr` of the full sorted
portfolio that `best_bound` returns, so a change to any certificate's value,
rule, hypothesis wording or auxiliary evidence changes the digest.  Run it
on two checkouts and compare the printed lines.

Usage:
  python3 scripts/cert_digest.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from qsperner.bounds import best_bound
from workloads import N_CHOICES, make_spec, random_strata, table_strata


def specs():
    for stratum in table_strata():
        for kind, q, L, r in stratum:
            for n in N_CHOICES:
                yield make_spec(kind, n, q, L, r)
    for stratum in random_strata():
        for kind, q, L, n in stratum:
            yield make_spec(kind, n, q, L)


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for spec in specs():
        digest.update(repr(best_bound(spec)[1]).encode())
        digest.update(b"\n")
        count += 1
    print(f"specs {count}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
