"""Every imported name in the library and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "nbcolor").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded.  Quoted
    annotations are parsed, so a name used only in one counts as used."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_every_import_is_used():
    found = {}
    for path in FILES:
        bad = unused_imports(path.read_text())
        if bad:
            found[str(path.relative_to(ROOT))] = bad
    assert not found, f"unused imports: {found}"


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c, d as e\n"
        "import x.y\n"
        "from f import Q, R\n"
        "def g(a: 'Q | None') -> int:\n"
        "    '''R is named only in this docstring.'''\n"
        "print(sys, e, x.y)\n"
    )
    assert unused_imports(source) == ["R (line 5)", "c (line 3)", "os (line 2)"]
