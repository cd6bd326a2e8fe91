"""qsperner benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bound-table --seed 1 --seconds 15 --trace 0

Run it from anywhere; it imports the library from `src/` of the checkout
it sits in and writes only under `perfbench/out/` there.  Workloads:
bound-table, bound-random, search-exact, proof-replay (see workloads.py).

A run times a fixed list of operations, made from the seed and sized by
--seconds: as many as the seed commit completes in that time on a 2-core
x86-64 container (see `Workload.rate`), whole passes for the workloads
timed in passes, and never more than one pass of a bound workload, so no
bound spec is timed twice.  Every commit thus does the same work, and a
faster one simply takes less time.

--trace 0 prints the end-to-end metrics; --trace 1 first runs the same
arguments untraced in a child interpreter (for the tracing overhead), then
traces the library's layers in this one over the same operations and
prints the per-layer metrics, whose counts repeat exactly from run to run.
--workload all runs the four workloads one after another, each in its own
interpreter.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every
metric with its unit and sample count, the run's context, and every
failed operation.  Exit code 0 when the run completed (failed operations
are reported, not fatal), 2 when it could not run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
CALIBRATE_EVERY_S = 0.005
CALIBRATION_NEIGHBOURS = 4
# Times are reported at the reference speed, where a warm calibration
# kernel run takes this long (about its median on a 2-core x86-64
# container with Python 3.11): each operation's time is scaled by this
# over the kernel's median time around it.
REFERENCE_CALIBRATION_S = 0.00006

clock = time.perf_counter


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import qsperner from this checkout's src/ and nowhere else."""
    if not (SRC / "qsperner" / "__init__.py").is_file():
        _fail(f"no library source at {SRC / 'qsperner'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qsperner

    if Path(qsperner.__file__).resolve().parent != (SRC / "qsperner").resolve():
        _fail(f"imported qsperner from {qsperner.__file__}, not from {SRC}")
    import workloads

    return workloads


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0, help="sizes the run (see above)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child_argv(args, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    return argv + list(extra)


def _sample_setup(args) -> list[float]:
    """Interpreter start to ready-for-the-first-operation, each sample in a
    fresh child interpreter run one after another, adjusted to the
    reference speed by calibrations taken just before and after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(_calibrate() for _ in range(5))
        t0 = clock()
        with subprocess.Popen(_child_argv(args, "--setup-probe"), stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = clock()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            _fail(f"set-up probe exited with {child.returncode}")
        after = statistics.median(_calibrate() for _ in range(5))
        samples.append((t1 - t0) * 2 * REFERENCE_CALIBRATION_S / (before + after))
    return samples


def _untraced_twin(args) -> dict:
    """The same run without tracing, in a child interpreter."""
    proc = subprocess.run(
        _child_argv(args, "--seconds", str(args.seconds), "--trace", "0"), stdout=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        _fail(f"untraced run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


_CAL_RNG = random.Random(0)
_CAL_WORDS = [_CAL_RNG.getrandbits(512) for _ in range(64)]
_CAL_LONGS = [_CAL_RNG.getrandbits(900) | 1 for _ in range(16)]


def _calibration_kernel() -> int:
    """Fixed pure-Python work of about a tenth of a millisecond, in the mix
    the library does: small-integer and dict steps (the bound engine),
    512-bit bitset scans (the clique search) and 900-bit multiply-divide
    steps (the Bareiss rank).  Its time tracks the machine's momentary
    speed for such code, which on a shared machine moves by 30% or more
    within a second."""
    table: dict[int, int] = {}
    acc = 1
    for i in range(60):
        acc = (acc * 6364136223846793005 + i) % (1 << 61)
        key = acc & 255
        table[key] = table.get(key, 0) + acc.bit_count()
    bits = _CAL_WORDS[acc & 63] & ~_CAL_WORDS[(acc >> 8) & 63]
    steps = 0
    while bits and steps < 40:
        bits ^= bits & -bits
        steps += 1
    y = 1
    for i in range(6):
        a, b, c, d = (_CAL_LONGS[(i + k) % 16] for k in (0, 6, 3, 9))
        y = (a * b - y * c) // d
    return acc + steps + (y & 1)


def _calibrate() -> float:
    """Time of one warm kernel run, with the garbage collector held off.

    The first, untimed run brings the kernel's data and code back into
    the processor's caches, and no collection runs inside the timed one:
    its time then follows the machine's speed and not the state the
    library left the caches or the heap in."""
    collecting = gc.isenabled()
    gc.disable()
    _calibration_kernel()
    t0 = clock()
    _calibration_kernel()
    dt = clock() - t0
    if collecting:
        gc.enable()
    return dt


class _Calibrator:
    """Calibrates from an interval timer signal every CALIBRATE_EVERY_S,
    also in the middle of operations, and records when each calibration
    ended and how long its timed run took.  `spent` is the total time spent
    in the signal handler, which callers take out of their timings."""

    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = clock()
        self.durations.append(_calibrate())
        t1 = clock()
        self.ends.append(t1)
        self.spent += t1 - t0

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factors(self) -> list[float]:
        """Reference over momentary speed at each calibration: over the
        median kernel time of the calibrations within CALIBRATION_NEIGHBOURS
        of it, which follows the machine's speed, shifting over tenths of
        seconds, and ignores the single runs a preemption stretched."""
        d, k = self.durations, CALIBRATION_NEIGHBOURS
        return [REFERENCE_CALIBRATION_S / statistics.median(d[max(0, i - k) : i + k + 1]) for i in range(len(d))]


class _Phase:
    """What the timed phase measured: per operation its start, end and
    time net of calibration, the failures, and how many passes over the
    workload's operations that made."""

    def __init__(self, calibrator: _Calibrator, ops_per_pass: int):
        self.calibrator = calibrator
        self.ops_per_pass = ops_per_pass
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []

    @property
    def passes(self) -> float:
        return len(self.latencies) / self.ops_per_pass

    def adjusted(self) -> list[float]:
        """Each operation's time at the reference machine speed: scaled by
        the mean factor of the calibrations during it, which averages the
        speed over a long operation, or else by the mean of the two
        calibrations around it."""
        ends = self.calibrator.ends
        factors = self.calibrator.factors()
        cumulative = [0.0, *itertools.accumulate(factors)]
        out = []
        for dt, (t0, t1) in zip(self.latencies, self.spans):
            lo = bisect.bisect_left(ends, t0)
            hi = bisect.bisect_right(ends, t1)
            if hi == lo:
                lo, hi = max(0, lo - 1), min(len(factors), lo + 1)
            out.append(dt * (cumulative[hi] - cumulative[lo]) / (hi - lo))
        return out


def _timed_phase(workload, planned: int, tracer) -> _Phase:
    """Run the first `planned` operations of the workload's passes, timing
    each and checking each output outside its timing.  Every exception and
    every wrong output is a failure."""
    from tracer import OP_SPAN

    op_span = tracer.name_id(OP_SPAN) if tracer else None
    ops = workload.ops
    with _Calibrator() as cal:
        phase = _Phase(cal, len(ops))
        for i in range(planned):
            op = ops[i % len(ops)]
            if tracer:
                span = tracer.open(op_span)
            spent = cal.spent
            t0 = clock()
            try:
                out = op.call(op.arg)
                error = None
            except Exception as exc:  # the harness's exception guard: every failure is counted
                error = f"{type(exc).__name__}: {exc}"[:300]
            t1 = clock()
            dt = t1 - t0 - (cal.spent - spent)
            if tracer:
                tracer.close(span)
            phase.spans.append((t0, t1))
            phase.latencies.append(dt)
            if error is None:
                error = op.check(out)
            if error is not None:
                phase.failures.append((op.label, error))
    return phase


def _run_probes(workload) -> dict[str, str]:
    outcomes = {}
    for op in workload.probes:
        try:
            error = op.check(op.call(op.arg))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"[:300]
        outcomes[op.label] = "ok" if error is None else error
    return outcomes


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _run_all(args, names) -> None:
    """Every workload in turn, each in its own interpreter; the last line
    sums their results, with metrics named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            _fail(f"{name} exited with {proc.returncode}")
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report), flush=True)
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))


def main(argv=None) -> None:
    args = _parse_args(argv)
    os.environ.pop("QSPERNER_NODE_BUDGET", None)  # the caller's shell may not truncate searches
    # importing here also writes the bytecode that the set-up probes load
    workloads = _import_library()
    if args.workload == "all":
        _run_all(args, workloads.WORKLOADS)
        return
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose all or one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workloads.build(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return

    # the traced run reports no end-to-end metric, so it needs no set-up samples
    setup = [] if args.trace else _sample_setup(args)
    twin = _untraced_twin(args) if args.trace else None

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        planned = workload.planned_ops(args.seconds)
        gc.collect()
        gc.freeze()  # the harness's own objects stay out of the library's collections
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        phase = _timed_phase(workload, planned, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
        probes = _run_probes(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = phase.failures
    adjusted = phase.adjusted()
    attempted = len(adjusted)
    tail = workloads.tail_percentile(attempted)
    ordered = sorted(adjusted)
    ops_per_s = attempted / sum(adjusted)
    raw = sorted(phase.latencies)
    report = {
        "ops_per_s": (ops_per_s, "1/s", attempted),
        "latency_p50_ms": (workloads.percentile(ordered, 50) * 1e3, "ms", attempted),
        "latency_tail_ms": (workloads.percentile(ordered, tail) * 1e3, "ms", attempted),
        "ops_failed_frac": (len(failures) / attempted, "fraction", attempted),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    if setup:
        report["setup_s"] = (statistics.median(setup), "s", len(setup))
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "ops_per_pass": phase.ops_per_pass,
        "passes": phase.passes,
        "ops": attempted,
        "timed_s": sum(phase.latencies),
        "latency_tail_percentile": tail,
        "raw_ops_per_s": attempted / sum(phase.latencies),
        "raw_latency_p50_ms": workloads.percentile(raw, 50) * 1e3,
        "raw_latency_tail_ms": workloads.percentile(raw, tail) * 1e3,
        "calibration_median_s": statistics.median(phase.calibrator.durations),
        "calibrations": len(phase.calibrator.durations),
        "setup_samples_s": setup,
        "known_defect_probes": probes,
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers["trace.ops_per_s"] = ops_per_s
        layers["trace.overhead_ops_per_s"] = ops_per_s - twin["metrics"]["ops_per_s"]["value"]
        context["seppoly.check_separation.repeat_frac"] = layers["seppoly.check_separation.repeat_frac"]
        context["spans"] = len(tracer.start)
        tracer.write(OUT / f"trace-{args.workload}.spans")
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in report.items()}
        del metrics["ops_failed_frac"]  # printed above; a bounded metric must never read 0

    for name, (value, unit, samples) in report.items():
        suffix = f" (p{tail:g})" if name == "latency_tail_ms" else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{suffix} over {samples} samples")
    for label, error in failures:
        print(f"FAILED {label}: {error}")
    print("context " + json.dumps(context))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))


def _unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    main()
