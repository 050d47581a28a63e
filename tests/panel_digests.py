"""SHA-256 digests of what the solvers return on the benchmark panels.

    python3 tests/panel_digests.py [--workload minimal ransac wide-angle]

Builds each workload's fixed panel with ``perfbench/run.py``'s
``make_panel``, runs every operation once and prints one digest per
workload and solver: over every returned R and t for ``minimal`` and
``wide-angle``, and over the inlier mask, iterations, hypotheses, R and t
for ``ransac``.  An input that raises contributes its exception's class
name.  Run it on two checkouts and compare the lines to show that a change
leaves every panel result bit for bit as it was.  Bit identity also rests on
how the BLAS library rounds small products, so compare runs on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_run():
    """``perfbench/run.py`` as a module, read only; it imports its siblings."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def result_bytes(rp, op) -> list[bytes]:
    """The bytes one operation's result contributes to its digest."""
    try:
        result = op.fn(*op.args)
    except rp.RelposeError as exc:
        return [type(exc).__name__.encode()]
    if op.root == "solver":
        return [a.tobytes() for p in result for a in (p.R, p.t)]
    counts = np.array([result.iterations, result.n_hypotheses], dtype=np.int64)
    return [a.tobytes() for a in (result.inlier_mask, counts, result.pose.R, result.pose.t)]


def main(argv=None) -> int:
    run = load_run()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=run.WORKLOADS)
    args = ap.parse_args(argv)
    rp = run.load_relpose()
    for workload in args.workload:
        for solver, ops in run.make_panel(rp, workload).items():
            digest = hashlib.sha256()
            for op in ops:
                for chunk in result_bytes(rp, op):
                    digest.update(chunk)
            print(f"{workload:10s} {solver:4s} {len(ops):4d} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
