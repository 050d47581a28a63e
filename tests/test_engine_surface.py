"""Every public top-level name of the template engine must be used by the
package itself: surface that only tests call belongs in ``tests/``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relpose"
ENGINE = ("poly.py", "gbsolver.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def public_definitions(tree: ast.Module):
    """``(name, node)`` of every top-level public function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def referenced_outside(name: str, definition: ast.AST) -> bool:
    """Whether any module of the package names ``name`` outside ``definition``."""
    inside = {id(n) for n in ast.walk(definition)}
    return any(
        id(n) not in inside
        and (isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
        for tree in TREES.values()
        for n in ast.walk(tree)
    )


CASES = [(module, name, node) for module in ENGINE for name, node in public_definitions(TREES[module])]


@pytest.mark.parametrize("module,name,definition", CASES, ids=[f"{m}:{n}" for m, n, _ in CASES])
def test_public_name_is_used_by_the_package(module, name, definition):
    assert referenced_outside(name, definition), f"{module} defines {name}, which no package code uses"
