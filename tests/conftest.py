import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(path: str):
    """Import the file at `path`, relative to the repository, writing no
    bytecode and with its own folder first on sys.path, as Python runs a
    script.  The scripts put `src` and `perfbench` on sys.path; sys.path
    and the bytecode flag are left as they were found."""
    path = ROOT / path
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


@pytest.fixture
def perfbench_untouched():
    """The test errs at teardown if it left bytecode under perfbench/,
    which the benchmark runs as checked out."""
    before = set((ROOT / "perfbench").rglob("*.pyc"))
    yield
    assert set((ROOT / "perfbench").rglob("*.pyc")) == before, "bytecode written under perfbench/"


@pytest.fixture
def load_script(perfbench_untouched):
    """The loader of the repository's scripts, under the bytecode guard."""
    return _load
