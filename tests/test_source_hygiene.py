"""Source hygiene of the package, read with ast: every imported name is used
in its module, and every module-level private function is referenced
somewhere in the package besides its own def."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "circunits"
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(SRC.glob("*.py"))
}


def imported_names(tree: ast.Module) -> list[str]:
    """The names a module binds by import; star and __future__ imports bind
    none that can be checked."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names if a.name != "*"]
    return names


def references(tree: ast.AST, attributes: bool) -> set[str]:
    """Every name a tree reads: bare names, attribute names if asked, and
    the strings of __all__, which re-export."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and attributes:
            found.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            strings = ast.walk(node.value)
            found |= {e.value for e in strings if isinstance(e, ast.Constant)}
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = references(tree, attributes=False)
    unused = [n for n in imported_names(tree) if n not in used]
    assert not unused, f"{name} imports {unused} and never uses them"


def test_every_private_function_is_referenced():
    """A reference inside the function's own def, such as a recursive call,
    does not count."""
    statements = [(name, node) for name, tree in MODULES.items() for node in tree.body]
    reads = [references(node, attributes=True) for _, node in statements]
    orphans = [
        f"{name}: {node.name}"
        for i, (name, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in r for k, r in enumerate(reads) if k != i)
    ]
    assert not orphans, f"private functions nothing else references: {orphans}"
