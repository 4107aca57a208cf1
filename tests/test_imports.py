"""Every name a module imports is used in it.

A standard-library AST scan over src/, tests/ and scripts/. A name counts
as used wherever it is read, in an annotation too, including one written
as a string.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_what_is_not_read():
    source = ("from __future__ import annotations\nimport os, sys\nimport numpy as np\n"
              "from a import b, c as d, e\nfrom f import g\n"
              "def h(x: b) -> 'list[d]':\n    return np.zeros(1)\nsys.exit(0)\n")
    assert unused_imports(source) == [(2, "os"), (4, "e"), (5, "g")]


def test_no_module_imports_a_name_it_does_not_use():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
