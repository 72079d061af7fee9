"""The package's import graph, read from the source with ``ast``.

The two exact engines are each other's check, so neither may reach the
other; an engine reaches none of the modules that consume its values; and
the checker and the file formats reach no engine.  Nothing is imported
here: every import statement of ``src/mcgraph`` is read from the source,
those inside functions included, and an edge joins a module to each package
module one of its statements names.  The graph has no edge into
``__init__``, which runs on every import of a submodule and re-exports both
engines; these rules are about the code each module asks for itself.

A private function or class (``_name``) serves only the package, so one
that no code of the package names is dead and fails the check too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcgraph"
ENGINES = ("naive", "treecover")

# (module, module it must not reach)
FORBIDDEN = [
    ("naive", "treecover"),
    ("treecover", "naive"),
    *(
        (engine, consumer)
        for engine in ENGINES
        for consumer in ("verification", "families", "cli", "smallgraphs")
    ),
    *((base, engine) for base in ("graph", "mc", "io") for engine in ENGINES),
]


def _imported(tree: ast.Module, modules: set[str]) -> set[str]:
    """The package modules that the import statements of ``tree`` name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:  # absolute: only mcgraph's own modules count
                if parts[0] != "mcgraph":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mcgraph" and len(parts) > 1:
                    found.add(parts[1])
    return found & modules


def _reach(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for nxt in graph[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def _unused(tree: ast.Module) -> list[str]:
    """The names the module's imports bind that it never reads, a name in
    its ``__all__`` counting as read."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_import_graph():
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    graph = {name: _imported(tree, set(trees)) for name, tree in trees.items()}
    named = {module for pair in FORBIDDEN for module in pair}
    assert named <= set(graph), f"no such module: {sorted(named - set(graph))}"

    broken = [f"{a} reaches {b}" for a, b in FORBIDDEN if b in _reach(graph, a)]
    assert not broken, broken

    unused = {name: _unused(tree) for name, tree in trees.items()}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}


def _private_definitions(tree: ast.AST) -> set[str]:
    """The ``_name`` functions and classes ``tree`` defines, at any depth."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }


def _names_read(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, as a variable, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    return read


def test_no_dead_private_helpers():
    trees = [ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")]
    defined = set().union(*map(_private_definitions, trees))
    read = set().union(*map(_names_read, trees))
    assert defined, "the walk found no private helper"
    dead = sorted(defined - read)
    assert not dead, dead
