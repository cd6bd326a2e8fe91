"""Span tracing of the library's layers from outside the library.

`Tracer.install()` wraps each traced function at every name the library
resolves it by: each module of the `qsperner` package that holds the
function object under some attribute gets the wrapper there, so calls such
as `bounds.check_separation(...)` and `seppoly.check_separation(...)` are
both recorded.  Each call becomes a span (name, start, end, parent span)
kept in flat arrays; the harness opens one root span per operation, which
serves as the operation's identifier.  Self time is a span's duration
minus the time its child spans cover.

Leaf functions (LEAVES), called millions of times per run, are timed and
counted but kept as no span of their own: each call's time is added to the
enclosing span's leaf time, which its self time excludes like a child's.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

clock = time.perf_counter

OP_SPAN = "harness.op"


def _separation_key(pp, g, alpha, L) -> int:
    return hash((pp, g, alpha, tuple(L)))


def _on_best_bound(counts, result):
    counts["bounds.certificates"] += len(result[1])


def _on_max_family(counts, result):
    counts["families.max_family.nodes"] += result.nodes_explored
    counts["families.max_family.exact"] += result.exact


def _on_verify(counts, result):
    counts["polylab.total_polys"] += result.total_polys
    counts["polylab.full_rank"] += result.full_rank


# span name -> (defining module, function names, result hook)
TRACED = {
    "cli.main": ("qsperner.cli", ("main",), None),
    "bounds.best_bound": ("qsperner.bounds", ("best_bound",), _on_best_bound),
    "seppoly.check_separation": ("qsperner.seppoly", ("check_separation",), None),
    "seppoly.min_valuation_over_class": ("qsperner.seppoly", ("min_valuation_over_class",), None),
    "closure.q_closure": ("qsperner.closure", ("q_closure",), None),
    "closure.closure_length_bound": ("qsperner.closure", ("closure_length_bound",), None),
    "padic.vp": ("qsperner.padic", ("vp",), None),
    "padic.lucas_nondivisible": ("qsperner.padic", ("lucas_nondivisible",), None),
    "padic.is_prime": ("qsperner.padic", ("is_prime",), None),
    "families.max_family": ("qsperner.families", ("max_family",), _on_max_family),
    "families.satisfies": ("qsperner.families", ("satisfies",), None),
    "families.push_to_middle": ("qsperner.families", ("push_to_middle",), None),
    "families.parse_family": ("qsperner.families", ("parse_family",), None),
    "polylab.build_system": (
        "qsperner.polylab",
        ("build_diff_sperner_system", "build_midband_system"),
        None,
    ),
    "polylab.verify_independence": ("qsperner.polylab", ("verify_independence",), _on_verify),
}

# span name -> (defining module, function name); the p-adic valuation
# that seppoly, bounds, closure and polylab call directly
LEAVES = {
    "padic.vp_int": ("qsperner.padic", "_vp_int"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.leaf: array = array("d")
        self.leaf_totals: dict[str, list] = {name: [0, 0.0] for name in LEAVES}
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.seen_separations: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(clock())
        self.end.append(0.0)
        self.leaf.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self.stack.pop()

    def _wrap(self, name: str, fn, on_result):
        name_id = self.name_id(name)
        counts = self.counts
        failed = self.failed
        seen = self.seen_separations
        repeat_key = _separation_key if name == "seppoly.check_separation" else None

        def traced(*args, **kwargs):
            if repeat_key is not None:
                key = repeat_key(*args, **kwargs)
                if key in seen:
                    counts[name + ".repeats"] += 1
                else:
                    seen.add(key)
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                failed[name] += 1
                raise
            self.close(idx)
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, name: str, fn):
        totals = self.leaf_totals[name]
        leaf = self.leaf
        stack = self.stack

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                if stack[-1] >= 0:
                    leaf[stack[-1]] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every qsperner module attribute that holds a traced function."""
        wrappers = [
            (getattr(sys.modules[home], func), span, on_result)
            for span, (home, funcs, on_result) in TRACED.items()
            for func in funcs
        ]
        wrappers = [(original, self._wrap(span, original, on_result)) for original, span, on_result in wrappers]
        for span, (home, func) in LEAVES.items():
            original = getattr(sys.modules[home], func)
            wrappers.append((original, self._wrap_leaf(span, original)))
        modules = [m for name, m in sys.modules.items() if name == "qsperner" or name.startswith("qsperner.")]
        for original, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: total self time and number of spans."""
        n = len(self.start)
        child = array("d", self.leaf)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            totals[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return totals, calls

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, 0 for layers the
        workload never reached."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for span in TRACED:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        for span, (count, total) in self.leaf_totals.items():
            out[f"{span}.calls"] = count
            out[f"{span}.self_s"] = total
        out["seppoly.check_separation.repeat_frac"] = _frac(
            self.counts["seppoly.check_separation.repeats"], calls["seppoly.check_separation"]
        )
        out["bounds.certificates"] = self.counts["bounds.certificates"]
        out["families.max_family.nodes"] = self.counts["families.max_family.nodes"]
        out["families.max_family.exact_frac"] = _frac(
            self.counts["families.max_family.exact"], calls["families.max_family"]
        )
        out["families.push_to_middle.failed"] = self.failed["families.push_to_middle"]
        out["polylab.total_polys"] = self.counts["polylab.total_polys"]
        out["polylab.full_rank_frac"] = _frac(
            self.counts["polylab.full_rank"], calls["polylab.verify_independence"]
        )
        return out

    def write(self, path: Path) -> None:
        """Spans as five binary arrays after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"], ["leaf", "d"]],
            "leaves": self.leaf_totals,
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end, self.leaf):
                arr.tofile(fh)


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
