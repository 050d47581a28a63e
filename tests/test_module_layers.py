"""The estimator does not depend on the benchmark harness: ``robust`` holds
only RANSAC, and the harness that drives it over synthetic scenes lives in
``synth``, which imports ``robust`` and not the other way round."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_robust_leaves_the_harness_unloaded():
    script = "import sys, relpose.robust; print(sorted(m for m in sys.modules if 'synth' in m))"
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
