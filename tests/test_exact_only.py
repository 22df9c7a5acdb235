"""Floats never decide: the package source has no floating point at all."""

from __future__ import annotations

import ast
from pathlib import Path

import g2cm

SOURCES = sorted(Path(g2cm.__file__).parent.glob("*.py"))


def _float_uses(tree: ast.AST):
    """(line, what) for every float construct in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            yield node.lineno, "import cmath"
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "cmath"
            or node.module == "math" and any(a.name == "sqrt" for a in node.names)
        ):
            yield node.lineno, f"from {node.module} import"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                yield node.lineno, "float()"
            elif (isinstance(f, ast.Attribute) and f.attr == "sqrt"
                  and isinstance(f.value, ast.Name) and f.value.id == "math"):
                yield node.lineno, "math.sqrt()"


def test_package_source_has_no_float_arithmetic():
    assert SOURCES
    found = [f"{path.name}:{line} {what}"
             for path in SOURCES
             for line, what in _float_uses(ast.parse(path.read_text(), str(path)))]
    assert found == []
