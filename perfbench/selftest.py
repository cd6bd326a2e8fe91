"""The benchmark's own tests.

    python3 perfbench/selftest.py

For every workload: an untraced run and two traced runs, several times
slower, at one seed and length must time the same operations, fail none,
and report exactly the metrics BENCHMARK.json names; the two traced runs
must report identical deterministic counts.  The calibration kernel's time
must not depend on the heap and caches the library leaves behind.  Finally
the benchmark must refuse to run, printing no result, in a directory
without the library's source.
Exit code 0 when every check holds.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
KERNEL_TOLERANCE = 0.03
SECONDS = "1"  # one pass of search-exact and proof-replay, a prefix of the bound workloads
DETERMINISTIC = (
    "seppoly.check_separation.calls",
    "seppoly.check_separation.repeat_frac",
    "seppoly.min_valuation_over_class.calls",
    "padic.vp_int.calls",
    "bounds.best_bound.calls",
    "bounds.certificates",
    "families.max_family.nodes",
    "families.satisfies.calls",
    "polylab.total_polys",
    "cli.main.calls",
)


def _run(script: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _kernel_sensitivity() -> float:
    """Median calibration time after walking and growing a 600k-list heap,
    over that after an equally long loop touching nothing, alternating
    every few milliseconds so that both see the same machine speed."""
    sys.path.insert(0, str(HERE))
    from run import _calibrate

    hoard = [[i, i] for i in range(600_000)]
    junk: list = []
    times: dict[bool, list[float]] = {False: [], True: []}
    for it in range(1500):
        heavy = bool(it % 2)
        total = 0
        if heavy:
            for member in hoard[it % 4 :: 4]:
                total += member[0]
            junk.extend([i] for i in range(400))
            if len(junk) > 200_000:
                junk.clear()
        else:
            for i in range(len(hoard) // 4):
                total += i
        times[heavy].append(_calibrate())
    return statistics.median(times[True]) / statistics.median(times[False])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    script = HERE / "run.py"
    problems = []
    for workload in ("bound-table", "bound-random", "search-exact", "proof-replay"):
        args = ("--workload", workload, "--seed", str(SEED), "--seconds", SECONDS)
        untraced = _result(_run(script, ROOT, *args, "--trace", "0"))
        if set(untraced["metrics"]) != end_to_end:
            problems.append(f"{workload}: untraced metrics {sorted(untraced['metrics'])}")
        runs = [_result(_run(script, ROOT, *args, "--trace", "1")) for _ in range(2)]
        for res in [untraced, *runs]:
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} operations failed")
        ops = {res["attempted"] for res in [untraced, *runs]}
        if len(ops) != 1:
            problems.append(f"{workload}: the runs timed different numbers of operations: {sorted(ops)}")
        if set(runs[0]["metrics"]) != per_layer:
            problems.append(f"{workload}: traced metrics {sorted(runs[0]['metrics'])}")
        for name in DETERMINISTIC:
            a, b = (r["metrics"][name]["value"] for r in runs)
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a} != {b}")
        counts = {name: runs[0]["metrics"][name]["value"] for name in DETERMINISTIC}
        print(f"{workload}: {untraced['attempted']} operations, counts repeat: {counts}", flush=True)

    ratio = _kernel_sensitivity()
    print(f"calibration kernel, heavy heap over light: x{ratio:.3f}")
    if abs(ratio - 1) > KERNEL_TOLERANCE:
        problems.append(f"the calibration kernel's time moves x{ratio:.3f} with the heap's state")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare / HERE.name / "run.py", bare, "--workload", "search-exact", "--seed", "1", "--seconds", SECONDS)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/ the benchmark exited {proc.returncode} printing {proc.stdout[-200:]!r}")
        else:
            print(f"without src/: exit code {proc.returncode}, nothing printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
