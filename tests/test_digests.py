"""The answer gates: the digests `scripts/search_digest.py` and
`scripts/cert_digest.py` print, pinned through the functions the scripts
print them from.  A change that keeps every answer leaves them as they
are; a digest that changes on purpose is edited here, with the reason."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    """Import scripts/<name>.py.  The scripts put `src` and `perfbench` on
    sys.path and write no bytecode; sys.path and the bytecode flag are
    left as they were found."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"_script_{name}", ROOT / "scripts" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def perfbench_bytecode() -> set[Path]:
    return set((ROOT / "perfbench").rglob("*.pyc"))


def test_search_digest():
    """Every answer and every graph of the exact search on the 481 specs:
    the 91 `search-exact` slots in all their presentations and 300 seeded
    random specs.  A faster search may lower the node totals."""
    before = perfbench_bytecode()
    out = load_script("search_digest").digest()
    assert out["specs"] == 481
    assert out["sha256"] == "62a2c143c03d08a8cca03e13d9ef8da8ad103a74719bae96ce3b9f689b8dc717"
    assert out["graph-sha256"] == "195a23f4bf934dd5134711be370f7511493b18b42d2ab316f88af836b91bf9ba"
    assert out["search_nodes"] <= 16157
    assert out["restore_nodes"] <= 1712
    assert perfbench_bytecode() == before


def test_bound_table_digest_at_n_24():
    """Every certificate the bound engine emits on the 5,377 `bound-table`
    keys at n = 24, a slice of `cert_digest.py`'s specs."""
    before = perfbench_bytecode()
    cert = load_script("cert_digest")
    specs = [
        cert.make_spec(kind, 24, q, L, r)
        for stratum in cert.table_strata()
        for kind, q, L, r in stratum
    ]
    assert cert.portfolio_digests(specs) == (
        5377,
        "e37ab1d1fca8f388d1fbbbde0a82f294a1fa3101659c71ee1616a176cf83ef02",
        "6cdc30bbbddd0a2a958571f26a6c140a7681c5b8107eb78a2eb489e3114f0a78",
    )
    assert perfbench_bytecode() == before
