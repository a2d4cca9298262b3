"""Every function or closure in the library that calls itself by name is
listed here with a bound on its depth, so that no recursion whose depth
grows with the input comes in unseen.

The check sees direct self-calls only.  The one way a solver level reaches
another is through its workers, which are generators driven by one loop,
solver._run, on an explicit stack; a second check makes sure nothing else
in solver calls a worker, so no mutual recursion comes back unseen either.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "nbcolor").glob("*.py"))

ALLOWED = {
    "forbidden._extend": "one frame per pattern vertex: at most MEMBER_VERTEX_CAP",
}

WORKERS = ("_multi_worker", "_simple_worker", "worker")


def self_calls(source: str, module: str) -> list[str]:
    """Dotted names (module.outer.inner) of the functions, methods and
    closures whose body, nested definitions included, calls their own name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == child.name
                    for sub in ast.walk(child)
                ):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return sorted(found)


def worker_calls(source: str, module: str) -> list[str]:
    """Dotted names (module.outer.inner) of the functions, methods and
    closures whose own body, nested definitions aside, calls a name in
    WORKERS; a call outside every function counts for the module."""
    found = []

    def visit(node: ast.AST, owner: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}.{child.name}", f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, owner, f"{prefix}.{child.name}")
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in WORKERS:
                    found.append(owner)
                visit(child, owner, prefix)

    visit(ast.parse(source), module, module)
    return sorted(set(found))


def test_every_recursion_is_allowed():
    found = [name for path in LIBRARY for name in self_calls(path.read_text(), path.stem)]
    assert sorted(found) == sorted(ALLOWED), f"recursive: {found}; allowed: {ALLOWED}"


def test_the_check_sees_self_calls():
    source = (
        "def plain(n): return n\n"
        "def fact(n): return n * fact(n - 1) if n else 1\n"
        "def named(): return named\n"
        "def outer(xs):\n"
        "    def walk(i):\n"
        "        yield from walk(i + 1)\n"
        "    def inner():\n"
        "        return outer(xs)\n"
        "    return walk(0), inner\n"
        "class Box:\n"
        "    def get(self, n):\n"
        "        return get(n)\n"
        "    def put(self):\n"
        "        return self.put()\n"
    )
    assert self_calls(source, "m") == ["m.Box.get", "m.fact", "m.outer", "m.outer.walk"]


def test_only_the_level_loop_calls_a_worker():
    source = (ROOT / "src" / "nbcolor" / "solver.py").read_text()
    assert worker_calls(source, "solver") == ["solver._run"]


def test_the_check_sees_worker_calls():
    source = (
        "def _run(worker, G):\n"
        "    return worker(G)\n"
        "def _drive(G, worker):\n"
        "    return _run(worker, G)\n"
        "def level(G):\n"
        "    out = yield from _open(G)\n"
        "    def again(H):\n"
        "        return _simple_worker(H)\n"
        "    return again\n"
        "class Box:\n"
        "    def go(self, G):\n"
        "        return [_multi_worker(H) for H in G]\n"
        "top = _multi_worker\n"
    )
    assert worker_calls(source, "m") == ["m.Box.go", "m._run", "m.level.again"]
