import ast
import importlib
import sys
from pathlib import Path

import qsperner

SOURCES = sorted(Path(qsperner.__file__).parent.glob("*.py"))


def test_exports_resolve_and_imports_are_stdlib():
    """Every name in a module's `__all__` and every name `qsperner` re-exports
    resolves, and the package imports nothing but the standard library and
    itself."""
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
            if path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                home = importlib.import_module(f"qsperner.{node.module}")
                for alias in node.names:
                    assert alias.name in home.__all__, f"qsperner re-exports {alias.name} outside {node.module}.__all__"
                    assert getattr(qsperner, alias.name) is getattr(home, alias.name)
