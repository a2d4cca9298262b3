"""Every imported name in the library and the tests is used, and every
private function, method and class of the library is used in the library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "nbcolor").glob("*.py"))
FILES = sorted([p for p in LIBRARY if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _loads(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def orphan_privates(sources: dict[str, str]) -> list[str]:
    """Private (`_`-prefixed, not dunder) functions, methods and classes
    that no source loads, as a name or an attribute, outside their own
    definition.  A load of the name anywhere counts for every definition
    of that name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loads: dict[str, int] = {}
    for tree in trees.values():
        for name in _loads(tree):
            loads[name] = loads.get(name, 0) + 1
    found = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name):
                inside = sum(1 for name in _loads(node) if name == node.name)
                if loads.get(node.name, 0) == inside:
                    found.append(f"{file}:{node.lineno} {node.name}")
    return sorted(found)


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text() for path in LIBRARY}
    assert not orphan_privates(sources), orphan_privates(sources)


def test_the_check_sees_orphan_privates():
    sources = {
        "a.py": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "def __dunder__(): pass\n"
            "class _Box:\n"
            "    def _get(self): return self._get\n"
            "    def _put(self): return _used()\n"
            "    def __init__(self): pass\n"
        ),
        "b.py": "from a import _Box\nprint(_Box()._put())\n",
    }
    assert orphan_privates(sources) == ["a.py:2 _recursive", "a.py:5 _get"]
