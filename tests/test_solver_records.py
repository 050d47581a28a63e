"""Each minimal solver is one ``robust.Solver`` record in ``robust.SOLVERS``:
RANSAC, the benchmark harness, the CLI and the document formats read its
fields instead of comparing solver or document names, so the choice
between the solvers is made once."""

import ast
import dataclasses
from pathlib import Path

import pytest

from relpose import cli, robust
from relpose.robust import SOLVERS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relpose"

# The names of the solvers and of their document types.
NAMES = {"reg4", "gen5", "regular", "generalized"}

# Comparisons that may still name a solver: (module, function), and why.
ALLOWED = {
    # The Sampson and point-to-ray scores take their thresholds in different
    # units; ROADMAP items 1b and 2 take gen5's from pixels too, after which
    # one conversion serves both and this branch goes.
    ("cli.py", "cmd_ransac_bench"),
}


def names_compared(tree: ast.Module):
    """``(function, line, name)`` of every comparison in ``tree`` that has
    a solver or document name among its operands, or among the items of a
    tuple, list or set operand; ``function`` is the innermost enclosing
    function, or None at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                collection = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                for item in operand.elts if collection else [operand]:
                    if isinstance(item, ast.Constant) and item.value in NAMES:
                        found.append((function, node.lineno, item.value))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_compares_solver_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        (function, line, name)
        for function, line, name in names_compared(tree)
        if (path.name, function) not in ALLOWED
    ]
    assert not found, f"{path.name} decides by a solver name at {found}"


def test_the_allowed_comparison_is_still_there():
    # An entry of ALLOWED that no longer matches anything is stale.
    for module, function in ALLOWED:
        tree = ast.parse((PACKAGE / module).read_text())
        assert any(f == function for f, _, _ in names_compared(tree)), (module, function)


def test_the_guard_sees_every_form_of_comparison():
    source = (
        'def f(kind, doc):\n'
        '    a = kind == "reg4"\n'
        '    b = "gen5" != kind\n'
        '    c = doc not in ("regular", "generalized")\n'
        '    return kind in {"gen5"}\n'
    )
    found = names_compared(ast.parse(source))
    assert [name for _, _, name in found] == ["reg4", "gen5", "regular", "generalized", "gen5"]
    assert {function for function, _, _ in found} == {"f"}


# Every function of a record that ``ransac_estimate`` calls; gen5 has no step.
FUNCTIONS = [
    (name, field)
    for name, record in SOLVERS.items()
    for field in ("solve", "score", "step")
    if getattr(record, field) is not None
]


@pytest.mark.parametrize("name,field", FUNCTIONS, ids=[f"{n}-{f}" for n, f in FUNCTIONS])
def test_a_records_functions_are_attributes_of_robust(name, field):
    # ``ransac_estimate`` calls them through ``robust``'s attributes, where
    # the benchmark's tracer and tests replace them.
    f = getattr(SOLVERS[name], field)
    assert getattr(robust, f.__name__) is f


@pytest.mark.parametrize("name", list(SOLVERS))
def test_a_problems_rays_are_fields_of_its_pair_type(name):
    record = SOLVERS[name]
    fields = [f.name for f in dataclasses.fields(record.pair_type)]
    assert set(record.problem.ray_names) <= set(fields)


def test_the_records_differ_in_every_name():
    # One record per solver, one document type per record.
    assert len({r.document for r in SOLVERS.values()}) == len(SOLVERS)
    assert len({r.pair_type for r in SOLVERS.values()}) == len(SOLVERS)


@pytest.mark.parametrize("command", ["synth-bench", "ransac-bench"])
def test_the_solver_choices_are_the_records(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction))
    option = next(a for a in sub.choices[command]._actions if "--solver" in a.option_strings)
    assert tuple(option.choices) == tuple(SOLVERS)
