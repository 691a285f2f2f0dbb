#!/usr/bin/env python3
"""Print the size of the holonoise package: lines and settable values
per module of src/holonoise, then the totals.

Lines are newline counts, as ``wc -l`` reports them.  Settable values
are every parameter of a function, method or lambda except
``self``/``cls`` (nested functions and ``*args``/``**kwargs``
included), plus every annotated field of a ``@dataclass``.

Usage:
    python3 scripts/size_report.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "holonoise"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs
            count += sum(arg.arg not in ("self", "cls") for arg in named)
            count += (args.vararg is not None) + (args.kwarg is not None)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign) for item in node.body)
    return count


def main() -> int:
    total_lines = total_values = 0
    print(f"{'module':<20s} {'lines':>6s} {'settable':>9s}")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines, values = text.count("\n"), settable_values(ast.parse(text))
        total_lines += lines
        total_values += values
        print(f"{path.name:<20s} {lines:>6d} {values:>9d}")
    print(f"{'total':<20s} {total_lines:>6d} {total_values:>9d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
