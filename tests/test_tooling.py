"""The functions the benchmark's tracer and `scripts/cert_digest.py` wrap
by name all resolve, `cert_digest.count_calls` wraps the package's own
names too and puts every binding back, and
`scripts/initial_interval_gap_probe.py`, `scripts/code_lines.py` and
`scripts/paired_ab.py` run, so a rename fails here rather than in a
traced benchmark run, a digest, a probe, a size count or a timing."""

import hashlib
import importlib
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_paired_ab_runs(perfbench_untouched):
    """`scripts/paired_ab.py --verify` on `src` against itself for two
    rounds prints a `wall` and a `seed` line for the search slots and a
    `wall` line for the proof replay, each two median times and the median
    ratio between its quartiles, then each tree's `_meet_planes` calls in
    one `verify` pass, the same in both, and writes no bytecode under
    perfbench/."""
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "scripts" / "paired_ab.py"), src, src, "--verify", "--rounds", "2"]
    *timings, last = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    calls = re.fullmatch(r"verify meet_planes a (\d+) b (\d+)", last)
    assert calls and 0 < int(calls[1]) == int(calls[2]) <= 1100
    number = r"(\d+\.\d{3})"
    line = re.compile(rf"(\S+) (wall|seed) a {number} ms b {number} ms b/a {number} q1 {number} q3 {number}")
    rows = [line.fullmatch(text) for text in timings]
    assert all(rows)
    assert [row.group(1, 2) for row in rows] == [("slots", "wall"), ("slots", "seed"), ("verify", "wall")]
    for row in rows:
        a, b, ratio, q1, q3 = map(float, row.group(3, 4, 5, 6, 7))
        assert a > 0 and b > 0 and 0 < q1 <= ratio <= q3


def test_paired_ab_cli_runs(perfbench_untouched):
    """`scripts/paired_ab.py --cli` on `src` against itself for two rounds
    prints the search slots' lines and a `wall` line for the `cli.main`
    calls of one `proof-replay` pass, then each tree's argparse passes in
    one `cli` pass: one per call, 58 in both."""
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "scripts" / "paired_ab.py"), src, src, "--cli", "--rounds", "2"]
    *timings, last = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    assert last == "cli parse_known_args a 58 b 58"
    assert [text.split()[:2] for text in timings] == [["slots", "wall"], ["slots", "seed"], ["cli", "wall"]]


def package():
    """This tree's modules, as `paired_ab.load` gives them."""
    modules = ("bounds", "cli", "families", "padic", "polylab", "seppoly")
    return SimpleNamespace(**{name: importlib.import_module(f"qsperner.{name}") for name in modules})


def test_paired_ab_rows_build(load_script):
    """Each of `paired_ab.py`'s `--rows` items makes a valid search spec
    with this tree; none is searched."""
    script = load_script("scripts/paired_ab.py")
    items = {item: [row] for item, *row in script.ROWS}
    assert len(items) == len(script.ROWS)
    assert callable(script.make_runner(package(), items))


def test_paired_ab_verify_systems_build(load_script, monkeypatch):
    """`paired_ab.py --verify` builds each `proof-replay` system on its
    family with this tree; none is verified."""
    script = load_script("scripts/paired_ab.py")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src and perfbench first
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    replays = script.perfbench_workloads(ROOT / "src").proof_families(None)
    systems = [build() for build in script.system_builders(package(), replays)]
    assert [(sys_.family.n, sys_.family.members) for sys_ in systems] == [
        (n, tuple(sorted(members))) for _, n, members, _ in replays
    ]
