"""The functions the benchmark's tracer and `scripts/cert_digest.py` wrap
by name all resolve, `cert_digest.count_calls` wraps the package's own
names too, and `scripts/initial_interval_gap_probe.py`,
`scripts/code_lines.py` and `scripts/paired_ab.py` run, so a rename
fails here rather than in a traced benchmark run, a digest, a probe, a
size count or a timing."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path):
    """Import the file at path, writing no bytecode; sys.path and the
    bytecode flag are left as they were found."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"_tooling_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def perfbench_bytecode() -> set[Path]:
    return set((ROOT / "perfbench").rglob("*.pyc"))


def resolves(module: str, name: str) -> bool:
    return callable(getattr(importlib.import_module(module), name, None))


def test_traced_functions_resolve():
    before = perfbench_bytecode()
    tracer = load(ROOT / "perfbench" / "tracer.py")
    named = [(home, name) for home, names, _ in tracer.TRACED.values() for name in names]
    named += list(tracer.LEAVES.values())
    assert named and [(home, name) for home, name in named if not resolves(home, name)] == []
    assert perfbench_bytecode() == before


def test_counted_functions_resolve():
    before = perfbench_bytecode()
    cert = load(ROOT / "scripts" / "cert_digest.py")
    missing = [(home, name) for home, name in cert.COUNTED if not resolves(f"qsperner.{home}", name)]
    assert cert.COUNTED and missing == []
    assert perfbench_bytecode() == before


def test_count_calls_wraps_the_package_bindings():
    """`count_calls` counts a call made through the name `qsperner` itself
    binds, as through a module's.  It wraps for good, so it runs in a
    process of its own."""
    script = f"""
import importlib.util, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("cert_digest", {str(ROOT / "scripts" / "cert_digest.py")!r})
cert = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cert)
import qsperner
calls = cert.count_calls()
qsperner.is_q_closed(qsperner.PrimePower(2, 2), qsperner.IntervalL(1, 2))
qsperner.closure.is_q_closed(qsperner.PrimePower(2, 2), qsperner.IntervalL(1, 2))
print(calls["closure.is_q_closed"])
"""
    before = perfbench_bytecode()
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    assert out == "2\n"
    assert perfbench_bytecode() == before


def test_gap_probe_runs(monkeypatch, capsys):
    """`scripts/initial_interval_gap_probe.py` up to n = 8: every exact
    maximum is within the best bound, and none beats the layer."""
    probe = load(ROOT / "scripts" / "initial_interval_gap_probe.py")
    monkeypatch.setattr(sys, "argv", ["initial_interval_gap_probe.py", "--max-n", "8"])
    assert probe.main() == 0
    header, *rows, blank, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "s", "layer", "exact", "bound", "excess"]
    assert (blank, last) == ("", "no instance beats the layer construction at this scale")
    assert len(rows) == sum(n // 2 for n in range(2, 9))
    for row in rows:
        n, s, layer, exact, bound, excess = map(int, row.split()[:6])
        assert layer <= exact <= bound and excess == exact - layer, row


def test_code_lines_lists_every_module(capsys):
    """`scripts/code_lines.py` prints one line per module of the package
    and a total that is their sum."""
    script = load(ROOT / "scripts" / "code_lines.py")
    assert script.main() == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = {path.stem for path in (ROOT / "src" / "qsperner").glob("*.py")}
    assert [name for name, _ in rows] == sorted(modules)
    assert all(int(lines) > 0 for _, lines in rows)
    assert total[0] == "total" and int(total[1]) == sum(int(lines) for _, lines in rows)
    # a docstring, a comment and blank lines hold no code
    assert script.code_lines('"""doc\nstring"""\n\n# note\nx = 1  # one\n') == 1


def test_paired_ab_runs():
    """`scripts/paired_ab.py` on `src` against itself for two rounds prints
    a `wall` and a `seed` line for the search slots, each two median times
    and the median ratio between its quartiles, and writes no bytecode
    under perfbench/."""
    before = perfbench_bytecode()
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "scripts" / "paired_ab.py"), src, src, "--rounds", "2"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    number = r"(\d+\.\d{3})"
    line = re.compile(rf"(\S+) (wall|seed) a {number} ms b {number} ms b/a {number} q1 {number} q3 {number}")
    rows = [line.fullmatch(text) for text in out.splitlines()]
    assert all(rows) and [row.group(1, 2) for row in rows] == [("slots", "wall"), ("slots", "seed")]
    for row in rows:
        a, b, ratio, q1, q3 = map(float, row.group(3, 4, 5, 6, 7))
        assert a > 0 and b > 0 and 0 < q1 <= ratio <= q3
    assert perfbench_bytecode() == before


def test_paired_ab_rows_build():
    """Each of `paired_ab.py`'s `--rows` items makes a valid search spec
    with this tree; none is searched."""
    from qsperner import families, padic

    script = load(ROOT / "scripts" / "paired_ab.py")
    items = {item: [row] for item, *row in script.ROWS}
    assert len(items) == len(script.ROWS)
    assert callable(script.make_runner(families, padic, items))
