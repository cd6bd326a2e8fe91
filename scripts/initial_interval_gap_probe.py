#!/usr/bin/env python3
"""Probe the gap between the exact maximum of [s]-differencing Sperner
systems and the layer construction C(n, s).

The s-uniform layer gives the obvious lower bound C(n, s); whether the
upper bound can be pulled down to it in general is open.  This script
searches exhaustively at desk scale and logs every instance where the
exact maximum exceeds the layer, i.e. candidate counterexample gaps.

Usage:
  python3 scripts/initial_interval_gap_probe.py --max-n 12
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qsperner.bounds import best_bound
from qsperner.families import ConstraintSpec, Kind, max_family


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=9)
    args = parser.parse_args()

    print(f"{'n':>3} {'s':>3} {'layer':>7} {'exact':>7} {'bound':>7} {'excess':>7}")
    candidates = 0
    for n in range(2, args.max_n + 1):
        for s in range(1, n // 2 + 1):
            spec = ConstraintSpec(
                kind=Kind.DIFF_SPERNER, n=n, L=frozenset(range(1, s + 1))
            )
            layer = math.comb(n, s)
            found = max_family(spec)
            best, _ = best_bound(spec)
            excess = found.max_size - layer
            flag = "  <-- exceeds the layer" if excess > 0 else ""
            print(
                f"{n:>3} {s:>3} {layer:>7} {found.max_size:>7} "
                f"{best.bound.value:>7} {excess:>7}{flag}"
            )
            if excess > 0:
                candidates += 1
    print(
        f"\n{candidates} instances exceed the layer construction"
        if candidates
        else "\nno instance beats the layer construction at this scale"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
