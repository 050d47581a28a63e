"""The counts that ``perfbench/spans.py`` reads off what a traced layer
takes or returns match what a solve reports itself, for both solvers:
``gbsolver.roots`` the root count of every pose of a single solve that the
first partition settles, ``solver.poses`` the number of poses a single
solve returns, and ``gbsolver.complex_eigs`` the eigenvalues of the action
matrices that ``eigensolve_real`` leaves out.  A refactor that changes
what a traced layer takes or returns then fails here instead of skewing
the per-layer metrics.  (``solver.poses`` counts the samples, not the
poses, of a stacked call, so it is pinned for single solves only.)"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import relpose
from relpose.gbsolver import IMAG_TOL
from relpose.geom import rotation_angle
from relpose.synth import SceneConfig, generate_scene

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SOLVERS = {
    "reg4": (relpose.solver_reg4, relpose.solve_4pt_angle, 4),
    "gen5": (relpose.solver_gen5, relpose.solve_gen5pt_angle, 5),
}
SEEDS = range(6)


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced(kind, seed, n_pairs=None, **kwargs):
    """One traced solve of a noise-free scene: its result, spans and counts."""
    _, solve, size = SOLVERS[kind]
    truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=kind == "gen5"),
                                  n_pairs or size)
    tracer = tracer_module().Tracer(relpose)
    fn = functools.partial(solve, **kwargs)
    result, exc, _, layers = tracer.run("solver", fn, pairs, rotation_angle(truth.R))
    assert exc is None
    return result, tracer.spans, layers


@pytest.mark.parametrize("kind", ["reg4", "gen5"])
def test_roots_is_the_root_count_of_a_first_partition_solve(kind):
    checked = 0
    for seed in SEEDS:
        poses, spans, layers = traced(kind, seed)
        extracts = [span for span in spans if span[3] == "gbsolver.extract"]
        if len(extracts) != 1 or layers["gbsolver.dropped_inconsistent"]:
            continue  # settled by a later partition
        assert poses
        assert {pose.root_count for pose in poses} == {layers["gbsolver.roots"]}
        checked += 1
    assert checked >= len(SEEDS) // 2


@pytest.mark.parametrize("kind", ["reg4", "gen5"])
def test_poses_is_the_number_of_poses_a_single_solve_returns(kind):
    for seed in SEEDS:
        poses, _, layers = traced(kind, seed)
        assert layers["solver.poses"] == len(poses) > 0


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("kind", ["reg4", "gen5"])
def test_complex_eigs_counts_the_eigenvalues_left_out(kind, stacked, monkeypatch):
    module, _, size = SOLVERS[kind]
    built = []
    original = module.build_action_matrix

    def spy(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(module, "build_action_matrix", spy)
    total = 0
    for seed in SEEDS:
        built.clear()
        if stacked:
            samples = np.arange(3 * size).reshape(-1, size).repeat(2, 0)
            _, _, layers = traced(kind, seed, 3 * size, samples=samples)
        else:
            _, _, layers = traced(kind, seed)
        assert built
        complex_eigs = 0
        for M in (M for stack in built for M in stack):
            w = np.linalg.eigvals(M)
            complex_eigs += np.count_nonzero(np.abs(w.imag) > IMAG_TOL * (1.0 + np.abs(w.real)))
        assert layers["gbsolver.complex_eigs"] == complex_eigs
        total += complex_eigs
    assert total
