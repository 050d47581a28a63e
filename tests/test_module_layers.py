"""The estimator does not depend on the benchmark harness: ``robust`` holds
only RANSAC, and the harness that drives it over synthetic scenes lives in
``synth``, which imports ``robust`` and not the other way round.

``import relpose`` loads RANSAC, the gyro integration and the harness on the
first use of one of their names, so that a solve loads none of them.  Each
test runs in a fresh interpreter, where no other test has loaded a module."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_fresh(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


# One noise-free sample of each solver: a turn of 0.3 rad about z and a
# sideways step, seen by central rays and by rays from off-centre origins.
SOLVES = """
import numpy as np
angle = 0.3
c, s = np.cos(angle), np.sin(angle)
R, t = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.array([1.0, 0.2, 0.1])
X = np.array([[0.1, 0.2, 4.0], [-0.5, 0.3, 5.0], [0.4, -0.6, 6.0], [-0.2, -0.1, 3.5],
              [0.7, 0.5, 4.5]])
def unit(v):
    return v / np.linalg.norm(v)
central = [relpose.BearingPair(q1=unit(x), q2=unit(R @ x + t)) for x in X[:4]]
origins = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [-0.1, 0.0, 0.0], [0.0, -0.1, 0.0],
                    [0.1, 0.1, 0.0]])
generalized = []
for x, o in zip(X, origins):
    q1, q2 = unit(x - o), unit(R @ x + t - o)
    generalized.append(relpose.PluckerPair(q1=q1, q2=q2, m1=np.cross(o, q1), m2=np.cross(o, q2)))
"""


def test_importing_robust_leaves_the_harness_unloaded():
    script = "import sys, relpose.robust; print(sorted(m for m in sys.modules if 'synth' in m))"
    assert run_fresh(script) == "[]"


def test_a_solve_of_each_kind_loads_no_ransac_gyro_or_harness():
    script = "import sys, relpose\n" + SOLVES + """
assert relpose.solve_4pt_angle(central, angle)
assert relpose.solve_gen5pt_angle(generalized, angle)
print(sorted(m for m in sys.modules if m.split('.')[-1] in ('robust', 'imu', 'synth')))
"""
    assert run_fresh(script) == "[]"


def test_the_benchmark_tracer_wraps_a_solve_straight_after_import():
    # The tracer reads ``relpose.robust`` as an attribute of the package.
    script = f"import sys, relpose\nsys.path.insert(0, {str(ROOT / 'perfbench')!r})\n" + """
from spans import Tracer
tracer = Tracer(relpose)
""" + SOLVES + """
result, exc, elapsed, layers = tracer.run("solver", relpose.solve_4pt_angle, central, angle)
assert exc is None and result and elapsed > 0.0, exc
assert layers["gbsolver.eig_ms"] > 0.0 and layers["solver.poses"] == len(result)
print(relpose.robust.solve_4pt_angle is relpose.solve_4pt_angle)
"""
    assert run_fresh(script) == "True"


def test_star_import_and_dir_cover_every_export():
    script = """
import relpose
hidden = sorted(set(relpose.__all__) - set(dir(relpose)))
namespace = {}
exec("from relpose import *", namespace)
missing = [name for name in relpose.__all__ if name not in namespace]
print(missing, hidden, namespace["RansacConfig"] is relpose.robust.RansacConfig)
"""
    assert run_fresh(script) == "[] [] True"
