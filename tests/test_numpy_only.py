"""numpy is the package's only runtime dependency: every module imports, and
both solvers run, in an interpreter where scipy cannot be imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, sys

# Any import of scipy or of one of its submodules now raises ImportError.
sys.modules["scipy"] = None
import relpose

for info in pkgutil.iter_modules(relpose.__path__):
    importlib.import_module(f"relpose.{info.name}")
from relpose import SceneConfig, generate_scene, rotation_angle, solve_4pt_angle, solve_gen5pt_angle

truth, pairs = generate_scene(SceneConfig(seed=7), 4)
assert solve_4pt_angle(pairs, rotation_angle(truth.R))
truth, pairs = generate_scene(SceneConfig(seed=7, generalized=True), 5)
assert solve_gen5pt_angle(pairs, rotation_angle(truth.R))
print(sorted(info.name for info in pkgutil.iter_modules(relpose.__path__)))
"""


def test_every_module_imports_and_both_solvers_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "solver_gen5" in done.stdout and "solver_reg4" in done.stdout
