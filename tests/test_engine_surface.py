"""Every public top-level name of the template engine, the geometry, the two
solvers, the harnesses and the gyro integration must be used by another
module of the package (an export in ``relpose.__all__`` is no use), and
every toolkit exception must be raised or caught by the package, or
constructed as the error that the package's recording call keeps for the
samples a stacked stage loses: surface that only tests use belongs in
``tests/``."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import relpose
from relpose import gbsolver, solver_gen5, solver_reg4

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relpose"
MODULES = (
    "poly.py", "gbsolver.py", "geom.py", "solver_reg4.py", "solver_gen5.py",
    "synth.py", "robust.py", "imu.py",
)
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


def sees(tree: ast.Module, name: str, module: str) -> bool:
    """Whether a bare ``name`` in ``tree`` can mean the one ``module`` defines:
    ``tree`` is that module, or imports the name from it."""
    return tree is TREES[module] or any(
        isinstance(n, ast.ImportFrom) and n.level == 1 and f"{n.module}.py" == module
        and any(a.name == name for a in n.names)
        for n in ast.walk(tree)
    )


def referenced_outside(module: str, name: str, definition: ast.AST) -> bool:
    """Whether a module of the package other than ``__init__`` uses the
    ``name`` that ``module`` defines, outside ``definition``."""
    inside = {id(n) for n in ast.walk(definition)}
    return any(
        id(n) not in inside
        and (isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
        for fname, tree in TREES.items()
        if fname != "__init__.py" and sees(tree, name, module)
        for n in ast.walk(tree)
    )


CASES = [(module, name, node) for module in MODULES for name, node in public_definitions(TREES[module])]


@pytest.mark.parametrize("module,name,definition", CASES, ids=[f"{m}:{n}" for m, n, _ in CASES])
def test_public_name_is_used_by_the_package(module, name, definition):
    assert referenced_outside(module, name, definition), (
        f"{module} defines {name}, which no other package module uses"
    )


# Names that only tests used, and where what stays lives: the oracles in
# ``tests/reference_geom.py``, the scalar scorers as one row of the array
# scorers, another anchor as a rotated list of pairs.
REMOVED = [
    ("geom", "essential_residual"), ("geom", "epipolar_residual"),
    ("geom", "generalized_residual"), ("geom", "generalized_epipolar_residual"),
    ("geom", "quat_from_rotation"), ("solver_reg4", "sampson_error"),
    ("solver_gen5", "ray_point_error"), ("solver_gen5", "ray_arrays"),
    ("imu", "angle_between_frames"), ("gbsolver", "as_degenerate"),
    ("exceptions", "SkewDegenerate"),
]


@pytest.mark.parametrize("module,name", REMOVED, ids=[f"{m}.py:{n}" for m, n in REMOVED])
def test_surface_only_tests_used_stays_out_of_the_package(module, name):
    assert not hasattr(importlib.import_module(f"relpose.{module}"), name)
    assert name not in relpose.__all__


@pytest.mark.parametrize(
    "entry",
    [
        solver_reg4.solve_4pt_angle, solver_gen5.solve_gen5pt_angle, gbsolver.solve,
        gbsolver.TemplateProblem.sample_stack,
    ],
    ids=lambda f: f.__qualname__,
)
def test_no_entry_point_takes_an_anchor(entry):
    # A sample's first pair is its anchor; another anchor is pairs[k:] + pairs[:k].
    assert "anchor" not in inspect.signature(entry).parameters


# The method of ``gbsolver.Losses`` through which every stage records the
# error that loses a sample of a stack; a single solve raises that error in
# the end.
RECORDING_CALL = "lose"


def handled_names(tree: ast.Module):
    """Bare names in the ``raise`` statements and ``except`` clauses of
    ``tree``, and the classes constructed as arguments of a
    ``RECORDING_CALL`` method call."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Raise):
            exprs = [n.exc]
        elif isinstance(n, ast.ExceptHandler):
            exprs = [n.type]
        elif (
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == RECORDING_CALL
        ):
            exprs = [a.func for a in n.args if isinstance(a, ast.Call)]
        else:
            continue
        yield from (x.id for e in exprs if e is not None for x in ast.walk(e) if isinstance(x, ast.Name))


def raised_or_caught(name: str, trees=TREES) -> bool:
    """Whether a package module of ``trees`` imports the exception ``name``
    and raises, catches or records it."""
    return any(
        name in handled_names(tree)
        for fname, tree in trees.items()
        if fname not in ("__init__.py", "exceptions.py") and sees(tree, name, "exceptions.py")
    )


EXCEPTIONS = [
    node.name for node in TREES["exceptions.py"].body
    if isinstance(node, ast.ClassDef) and node.name != "RelposeError"
]


@pytest.mark.parametrize("name", EXCEPTIONS)
def test_exception_is_raised_or_caught_by_the_package(name):
    assert raised_or_caught(name), (
        f"exceptions.py defines {name}, which no package code raises, catches or records"
    )


SYNTHETIC = """
from .exceptions import Assigned, Caught, Passed, Raised, Recorded, Sent

def stage(losses, lost, report):
    try:
        raise Raised("raised")
    except Caught:
        pass
    losses.lose(lost, Recorded("recorded"))
    error = Assigned("assigned")
    losses.lose(lost, error)
    report(Passed("passed"))
    report.send(lost, Sent("sent"))
"""


@pytest.mark.parametrize(
    "name,used",
    [
        ("Raised", True), ("Caught", True), ("Recorded", True), ("Assigned", False),
        ("Passed", False), ("Sent", False),
    ],
)
def test_only_raising_catching_or_recording_uses_an_exception(name, used):
    # A class only constructed, assigned or handed to another call or
    # method, never raised or recorded, must still fail the rule.
    assert raised_or_caught(name, {"synthetic.py": ast.parse(SYNTHETIC)}) is used


def toolkit_error_handlers(tree: ast.Module):
    """The ``try`` statements of ``tree`` with a handler that catches a
    toolkit exception: bare, or naming one, ``Exception`` or ``BaseException``."""
    catching = {"Exception", "BaseException", "RelposeError", *EXCEPTIONS}
    return [
        n for n in ast.walk(tree) if isinstance(n, ast.Try) and any(
            h.type is None
            or any(isinstance(x, ast.Name) and x.id in catching for x in ast.walk(h.type))
            for h in n.handlers
        )
    ]


def called_names(nodes) -> set[str]:
    """Names of the functions and methods called in the statements ``nodes``."""
    return {
        c.func.attr if isinstance(c.func, ast.Attribute) else c.func.id
        for s in nodes for c in ast.walk(s)
        if isinstance(c, ast.Call) and isinstance(c.func, (ast.Attribute, ast.Name))
    }


def test_the_engine_catches_only_a_samples_eigensolve_failure():
    # A fault of the problem hits every sample alike and raises out of the
    # solve; of the template layers only an eigensolve fails for a sample's
    # data, and is lost for that sample alone.
    tries = toolkit_error_handlers(TREES["gbsolver.py"])
    assert [called_names(t.body) for t in tries] == [{"append", "eigensolve_real"}]
