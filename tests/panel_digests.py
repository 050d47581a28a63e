"""SHA-256 digests of what the solvers return on the benchmark panels.

    python3 tests/panel_digests.py [--workload minimal ransac wide-angle] [--expect FILE]

Builds each workload's fixed panel with ``perfbench/run.py``'s
``make_panel``, runs every operation once and prints one digest per
workload and solver: over every returned R and t for ``minimal`` and
``wide-angle``, and three for ``ransac``: a winner digest over the inlier
mask, R and t, a work digest over the iterations and hypotheses, so that a
change of scheduling or stopping can show the same winners while the
counts move, a decision digest over the inlier mask and the
iterations alone, so that a change of rounding can show the same
decisions while the winning pose and the hypothesis count move, and a
stacked digest over every array of the ``SamplePoses`` (R, t, u, the
sample bounds and each diagnostic column, by name) of the stacked solver
calls of 1, 8 and 32 samples on each frame pair (``stacked_calls``), so
that bit identity reaches every hypothesis of a RANSAC round, not only
its winner.  An input that raises contributes its exception's class name
to every digest.
Save the lines of one checkout and run another with ``--expect`` that
file to show that a change leaves every panel result bit for bit as it
was: it prints the lines that differ, the saved line first,
and exits 1 if any does.  Bit identity also rests on how the BLAS library
rounds small products, so compare runs on one machine.
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


# The stack sizes of the stacked digest, and of ``tests/stage_costs.py``.
STACK_SIZES = (1, 8, 32)


def stacked_calls(rp, solver: str, ops) -> list[tuple]:
    """``(solve, pairs, theta, samples)`` per ``ransac`` panel operation of
    ``solver``: the first 32 samples that its RANSAC run draws, ``(32,
    size)``, and its pairs as ``ransac_estimate`` hands them over (their
    ``gbsolver.RayTable`` where the package has one)."""
    size = 4 if solver == "reg4" else 5
    fn = rp.solve_4pt_angle if solver == "reg4" else rp.solve_gen5pt_angle
    calls = []
    for op in ops:
        pairs, theta, cfg, _ = op.args
        rng = np.random.default_rng(cfg.seed)
        samples = np.array([rng.choice(len(pairs), size, replace=False) for _ in range(32)])
        if hasattr(rp.gbsolver, "RayTable"):
            problem = rp.gbsolver.REGULAR if solver == "reg4" else rp.gbsolver.GENERAL
            pairs = rp.gbsolver.RayTable(pairs, problem.ray_names)
        calls.append((fn, pairs, theta, samples))
    return calls


def stacked_bytes(rp, call) -> list[bytes]:
    """The bytes of the stacked solves of ``call``, ``(solve, pairs, theta,
    samples)``, of the first 1, 8 and 32 samples."""
    fn, pairs, theta, samples = call
    chunks = []
    for size in STACK_SIZES:
        try:
            answer = fn(pairs, theta, samples=samples[:size])
        except rp.RelposeError as exc:
            chunks.append(type(exc).__name__.encode())
            continue
        arrays = [answer.R, answer.t, answer.u, np.array(answer.bounds, dtype=np.int64)]
        for name, column in answer.columns.items():
            arrays += [name.encode(), np.asarray(column)]
        chunks += [a if isinstance(a, bytes) else a.tobytes() for a in arrays]
    return chunks


def result_bytes(rp, op) -> dict[str, list[bytes]]:
    """The bytes one operation's result contributes to each of its digests."""
    parts = ("poses",) if op.root == "solver" else ("winner", "work", "decision")
    try:
        result = op.fn(*op.args)
    except rp.RelposeError as exc:
        return dict.fromkeys(parts, [type(exc).__name__.encode()])
    if op.root == "solver":
        return {"poses": [a.tobytes() for p in result for a in (p.R, p.t)]}
    counts = np.array([result.iterations, result.n_hypotheses], dtype=np.int64)
    winner = (result.inlier_mask, result.pose.R, result.pose.t)
    return {
        "winner": [a.tobytes() for a in winner],
        "work": [counts.tobytes()],
        "decision": [result.inlier_mask.tobytes(), counts[:1].tobytes()],
    }


def main(argv=None) -> int:
    run = load_run()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=run.WORKLOADS)
    ap.add_argument("--expect", type=Path, help="digest lines saved from another checkout")
    args = ap.parse_args(argv)
    rp = run.load_relpose()
    lines = []
    for workload in args.workload:
        for solver, ops in run.make_panel(rp, workload).items():
            digests: dict = {}
            for op in ops:
                for part, chunks in result_bytes(rp, op).items():
                    digest = digests.setdefault(part, hashlib.sha256())
                    for chunk in chunks:
                        digest.update(chunk)
            if workload == "ransac":
                digest = digests["stacked"] = hashlib.sha256()
                for call in stacked_calls(rp, solver, ops):
                    for chunk in stacked_bytes(rp, call):
                        digest.update(chunk)
            for part, digest in digests.items():
                line = f"{workload:10s} {solver:4s} {len(ops):4d} {part:6s} {digest.hexdigest()}"
                print(line)
                lines.append(line)
    if args.expect is None:
        return 0
    # Lines are matched by what precedes the digest: workload, solver,
    # panel size and digest name.
    saved = {line.rsplit(" ", 1)[0]: line for line in args.expect.read_text().splitlines()}
    differ = [(saved.get(line.rsplit(" ", 1)[0], "(none saved)"), line) for line in lines]
    differ = [pair for pair in differ if pair[0] != pair[1]]
    for want, got in differ:
        print(f"expected {want}\n     got {got}")
    print(f"{len(lines) - len(differ)} of {len(lines)} digests as expected")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
