"""Every function or closure in the library that calls itself by name is
listed here with a bound on its depth, so that no recursion whose depth
grows with the input comes in unseen.

The check sees direct self-calls only.  The drivers' workers recurse through
one another (a worker calls _open, which calls the worker again on a
component or a peeled core, and _recurse calls it on a reduced child), and
that mutual recursion, one set of frames per split level, is ROADMAP item 1;
tests/test_solver.py::test_a_chain_of_blocks_needs_no_deeper_stack marks it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "nbcolor").glob("*.py"))

ALLOWED = {
    "forbidden._extend": "one frame per pattern vertex: at most MEMBER_VERTEX_CAP",
}


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
