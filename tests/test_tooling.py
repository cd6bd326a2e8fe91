"""The functions the benchmark's tracer and `scripts/cert_digest.py` wrap
by name all resolve, and `scripts/initial_interval_gap_probe.py` and
`scripts/code_lines.py` run, so a rename fails here rather than in a
traced benchmark run, a digest, a probe or a size count."""

import importlib
import importlib.util
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
