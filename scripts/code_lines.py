#!/usr/bin/env python3
"""Lines of code per module of `src/qsperner`: the lines that hold some
code, leaving out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function body).  This is the size
measure the ROADMAP quotes.

Usage:
  python3 scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsperner"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring of the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines holding a token other than a comment, outside
    the docstrings."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip and tok.type != tokenize.ENDMARKER:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - docstring_lines(ast.parse(source)))


def counts() -> dict[str, int]:
    """Module name -> code lines, for every module of the package."""
    return {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def main() -> int:
    table = counts()
    for name, lines in table.items():
        print(f"{name} {lines}")
    print(f"total {sum(table.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
