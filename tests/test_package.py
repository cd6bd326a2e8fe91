import ast
import importlib
import sys
from pathlib import Path

import pytest

import qsperner

SOURCES = sorted(Path(qsperner.__file__).parent.glob("*.py"))


def test_exports_resolve_and_imports_are_stdlib():
    """Every name in a module's `__all__` resolves, and the package imports
    nothing but the standard library and itself."""
    for path in SOURCES:
        module = importlib.import_module(f"qsperner.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.name}: {name} in __all__ does not resolve"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = ["qsperner" if node.level else node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "qsperner" or root in sys.stdlib_module_names, f"{path.name} imports {root}"


def test_package_reexports_every_module_all():
    """`qsperner.__all__` is every module's `__all__` in module order, no
    name twice, each name bound to its module's own object."""
    modules = [importlib.import_module(f"qsperner.{path.stem}") for path in SOURCES if path.stem != "__init__"]
    homes = [module for module in modules if hasattr(module, "__all__")]
    assert [home.__name__ for home in homes] == [
        f"qsperner.{stem}" for stem in ("bounds", "closure", "families", "padic", "polylab", "seppoly")
    ]
    declared = [(home, name) for home in homes for name in home.__all__]
    missing = [f"{home.__name__}.{name}" for home, name in declared if not hasattr(qsperner, name)]
    assert not missing, f"qsperner does not export {missing}"
    assert qsperner.__all__ == [name for _, name in declared]
    assert len(set(qsperner.__all__)) == len(qsperner.__all__)
    for home, name in declared:
        assert getattr(qsperner, name) is getattr(home, name), f"qsperner.{name} is not {home.__name__}.{name}"


def test_budget_exhaustion_is_caught_by_its_package_name():
    with pytest.raises(qsperner.SearchBudgetExhausted):
        qsperner.search_min_degree(qsperner.PrimePower.from_q(4), 0, [1, 2, 3], 3, node_budget=0)
