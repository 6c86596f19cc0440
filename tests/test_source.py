"""Properties of the package's own source code."""

from __future__ import annotations

import ast
from pathlib import Path

import logsynth

# Functions allowed to reach themselves.  Parsing, lowering and path
# finding run on explicit stacks, so none is; a new recursion fails here.
KNOWN_RECURSIVE: set[str] = set()


def _call_graph(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Each module-level function and method of a module-level class,
    named `module.f` or `module.C.m`, mapped to the functions of the same
    module it calls.  `f()` resolves to the module-level function `f`, or
    to `f.__init__` when `f` is a class; `self.m()` resolves to the
    enclosing class's method `m`; no other call resolves.  Calls inside a
    nested function or lambda count as its enclosing function's."""
    functions: dict[str, ast.AST] = {}
    methods: dict[str, set[str]] = {}  # class -> its method names
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            methods[node.name] = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[node.name].add(item.name)
                    functions[f"{node.name}.{item.name}"] = item
    graph = {}
    for name, fn in functions.items():
        owner = name.split(".")[0] if "." in name else None
        callees = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                if f.id in methods:
                    target = f"{f.id}.__init__"
                else:
                    target = f.id
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "self" and owner is not None
                    and f.attr in methods[owner]):
                target = f"{owner}.{f.attr}"
            else:
                continue
            if target in functions:
                callees.add(f"{module}.{target}")
        graph[f"{module}.{name}"] = callees
    return graph


def _recursive(graph: dict[str, set[str]]) -> set[str]:
    """The functions of `graph` that reach themselves along its edges."""
    found = set()
    for start in graph:
        seen, work = set(), list(graph[start])
        while work:
            name = work.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                work.extend(graph[name])
    return found


def test_only_the_known_functions_recurse():
    graph: dict[str, set[str]] = {}
    for path in sorted(Path(logsynth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph.update(_call_graph(tree, path.stem))
    assert len(graph) > 100  # every module was read
    assert _recursive(graph) == KNOWN_RECURSIVE


def test_the_recursion_scan_resolves_each_call_form():
    source = (
        "def f():\n    g()\n"
        "def g():\n    f()\n"
        "def h():\n    C()\n"
        "def loner():\n    other.loner()\n    x.loner()\n"
        "class C:\n"
        "    def __init__(self):\n        h()\n"
        "    def m(self):\n        self.n()\n"
        "    def n(self):\n        self.m()\n        self.absent()\n"
        "    def k(self):\n        k()\n"
        "class D:\n"
        "    def __init__(self):\n        C()\n        D.__init__(self)\n"
    )
    graph = _call_graph(ast.parse(source), "mod")
    assert graph["mod.D.__init__"] == {"mod.C.__init__"}
    assert _recursive(graph) == {"mod.f", "mod.g", "mod.h", "mod.C.__init__",
                                 "mod.C.m", "mod.C.n"}
