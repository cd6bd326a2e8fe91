"""The functions the benchmark's tracer and `scripts/cert_digest.py` wrap
by name all resolve, `cert_digest.count_calls` wraps the package's own
names too and puts every binding back, and
`scripts/initial_interval_gap_probe.py`, `scripts/code_lines.py` and
`scripts/paired_ab.py` run, so a rename fails here rather than in a
traced benchmark run, a digest, a probe, a size count or a timing."""

import hashlib
import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import qsperner

ROOT = Path(__file__).resolve().parent.parent


def bindings() -> dict:
    """Every name a `qsperner` module binds, with its value."""
    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "qsperner"]
    return {(m.__name__, name): value for m in modules for name, value in vars(m).items()}


def resolves(module: str, name: str) -> bool:
    return callable(getattr(importlib.import_module(module), name, None))


def test_traced_functions_resolve(load_script):
    tracer = load_script("perfbench/tracer.py")
    named = [(home, name) for home, names, _ in tracer.TRACED.values() for name in names]
    named += list(tracer.LEAVES.values())
    assert named and [(home, name) for home, name in named if not resolves(home, name)] == []


def test_counted_functions_resolve(load_script):
    cert = load_script("scripts/cert_digest.py")
    missing = [(home, name) for home, name in cert.COUNTED if not resolves(f"qsperner.{home}", name)]
    assert cert.COUNTED and missing == []


def test_count_calls_wraps_the_package_bindings(load_script):
    """`count_calls` counts a call made through the name `qsperner` itself
    binds, as through a module's.  After its block, and after
    `hashing_systems`'s, every name a `qsperner` module binds is bound to
    the object it was bound to before, and no call is counted."""
    cert, replay = load_script("scripts/cert_digest.py"), load_script("scripts/replay_digest.py")
    before = bindings()
    args = qsperner.PrimePower(2, 2), qsperner.IntervalL(1, 2)
    with cert.count_calls() as calls:
        qsperner.is_q_closed(*args)
        qsperner.closure.is_q_closed(*args)
    with replay.hashing_systems(hashlib.sha256()):
        assert qsperner.verify_independence is not before["qsperner", "verify_independence"]
    qsperner.is_q_closed(*args)
    assert calls["closure.is_q_closed"] == 2
    after = bindings()
    assert after.keys() == before.keys() and [k for k, v in after.items() if v is not before[k]] == []


def test_gap_probe_runs(load_script, monkeypatch, capsys):
    """`scripts/initial_interval_gap_probe.py` up to n = 8: every exact
    maximum is within the best bound, and none beats the layer."""
    probe = load_script("scripts/initial_interval_gap_probe.py")
    monkeypatch.setattr(sys, "argv", ["initial_interval_gap_probe.py", "--max-n", "8"])
    assert probe.main() == 0
    header, *rows, blank, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "s", "layer", "exact", "bound", "excess"]
    assert (blank, last) == ("", "no instance beats the layer construction at this scale")
    assert len(rows) == sum(n // 2 for n in range(2, 9))
    for row in rows:
        n, s, layer, exact, bound, excess = map(int, row.split()[:6])
        assert layer <= exact <= bound and excess == exact - layer, row


def test_code_lines_lists_every_module(load_script, capsys):
    """`scripts/code_lines.py` prints one line per module of the package
    and a total that is their sum."""
    script = load_script("scripts/code_lines.py")
    assert script.main() == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = {path.stem for path in (ROOT / "src" / "qsperner").glob("*.py")}
    assert [name for name, _ in rows] == sorted(modules)
    assert all(int(lines) > 0 for _, lines in rows)
    assert total[0] == "total" and int(total[1]) == sum(int(lines) for _, lines in rows)
    # a docstring, a comment and blank lines hold no code
    assert script.code_lines('"""doc\nstring"""\n\n# note\nx = 1  # one\n') == 1


def paired_ab(*args: str) -> subprocess.CompletedProcess:
    """`scripts/paired_ab.py` run on the given arguments."""
    argv = [sys.executable, str(ROOT / "scripts" / "paired_ab.py"), *args]
    return subprocess.run(argv, capture_output=True, text=True)


def test_paired_ab_runs(perfbench_untouched):
    """`scripts/paired_ab.py` on `src` against itself for two rounds of
    `search-exact` and `proof-replay` prints a `wall` and a `seed` line
    for the search and a `wall` line for the replay, each two median
    times and the median ratio between its quartiles, then each tree's
    `_meet_planes` calls in one pass of both, the same in both, and writes
    no bytecode under perfbench/."""
    src = str(ROOT / "src")
    done = paired_ab(src, src, "search-exact", "proof-replay", "--count", "families._meet_planes", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    *timings, last = done.stdout.splitlines()
    calls = re.fullmatch(r"count families._meet_planes a (\d+) b (\d+)", last)
    assert calls and 0 < int(calls[1]) == int(calls[2]) <= 2024
    number = r"(\d+\.\d{3})"
    line = re.compile(rf"(\S+) (wall|seed) a {number} ms b {number} ms b/a {number} q1 {number} q3 {number}")
    rows = [line.fullmatch(text) for text in timings]
    assert all(rows)
    assert [row.group(1, 2) for row in rows] == [
        ("search-exact", "wall"),
        ("search-exact", "seed"),
        ("proof-replay", "wall"),
    ]
    for row in rows:
        a, b, ratio, q1, q3 = map(float, row.group(3, 4, 5, 6, 7))
        assert a > 0 and b > 0 and 0 < q1 <= ratio <= q3


def test_paired_ab_cli_runs(perfbench_untouched):
    """`scripts/paired_ab.py` times the `cli.main` calls of one
    `proof-replay` pass, as the benchmark makes them: 58 in both trees."""
    src = str(ROOT / "src")
    done = paired_ab(src, src, "proof-replay", "--count", "cli.main", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    *timings, last = done.stdout.splitlines()
    assert last == "count cli.main a 58 b 58"
    assert [text.split()[:2] for text in timings] == [["proof-replay", "wall"]]


def test_paired_ab_refuses_a_wrong_answer(tmp_path, perfbench_untouched):
    """A tree whose search is one too large on the antichain of [7] makes
    `scripts/paired_ab.py` exit 1, naming the operation, before it times
    anything."""
    shutil.copytree(ROOT / "src" / "qsperner", tmp_path / "qsperner", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "qsperner" / "families.py", "a") as families:
        families.write(
            "\n_max_family = max_family\n\n\n"
            "def max_family(spec, node_budget=None):\n"
            "    out = _max_family(spec, node_budget)\n"
            "    if (spec.kind, spec.n) == (Kind.ANTICHAIN, 7):\n"
            "        out.max_size += 1\n"
            "    return out\n"
        )
    done = paired_ab(str(ROOT / "src"), str(tmp_path), "search-exact", "--rounds", "2")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "qsperner_b search-exact antichain||||n=7: omega 36, expected 35\n"


def test_paired_ab_rows_build(load_script, monkeypatch, tmp_path):
    """`scripts/paired_ab.py` executes `perfbench/workloads.py` against a
    copy of this tree, whose `rows` item makes a search spec of the copy
    for each of its rows; none is searched, and no `qsperner` alias is
    left in sys.modules."""
    script = load_script("scripts/paired_ab.py")
    monkeypatch.syspath_prepend(str(tmp_path))
    before = dict(sys.modules)
    try:
        workloads = script.load(ROOT / "src", "qsperner_rows", tmp_path)
        changed = [key for key in sys.modules.keys() | before.keys() if sys.modules.get(key) is not before.get(key)]
        assert [key for key in changed if key.partition(".")[0] in ("qsperner", "workloads")] == []
        assert workloads.bounds.__name__ == "qsperner_rows.bounds" and workloads.cli.__name__ == "qsperner_rows.cli"
        ops = script.operations(workloads, "rows", tmp_path)
    finally:
        for key in [key for key in sys.modules if key.partition(".")[0] == "qsperner_rows"]:
            del sys.modules[key]
    assert len(ops) == len(script.ROWS)
    assert all(type(op.arg) is workloads.ConstraintSpec for op in ops)
    assert workloads.ConstraintSpec.__module__ == "qsperner_rows.families"
