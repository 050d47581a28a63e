"""Root polishing, the residual gate on returned poses, and the fallback
from the first committed partition to the next, for both solvers."""

from dataclasses import replace

import numpy as np
import pytest

import reference_templates as ref
import relpose.solver_gen5 as solver_gen5
import relpose.solver_reg4 as solver_reg4
from relpose.exceptions import DegenerateConfiguration, EigenFailure
from relpose.gbsolver import (
    GENERAL,
    POSE_RESIDUAL_TOL,
    REGULAR,
    assemble_reduced_template,
    polish_roots,
)
from relpose.geom import (
    epipolar_residual,
    generalized_epipolar_residual,
    rotation_angle,
    sigma_from_angle,
)
from relpose.poly import _ray_stack
from relpose.synth import SceneConfig, generate_scene

SOLVERS = pytest.mark.parametrize("solver", ["reg4", "gen5"])


def truth_and_pairs(solver, seed=0, **cfg):
    """True pose and pairs of a noise-free scene."""
    generalized = solver == "gen5"
    return generate_scene(
        SceneConfig(seed=seed, generalized=generalized, **cfg), 5 if generalized else 4
    )


def instance(solver, seed=0, **cfg):
    """Module, solve function, pairs and angle of a noise-free scene."""
    truth, pairs = truth_and_pairs(solver, seed, **cfg)
    module = solver_gen5 if solver == "gen5" else solver_reg4
    solve = module.solve_gen5pt_angle if solver == "gen5" else module.solve_4pt_angle
    return module, solve, pairs, rotation_angle(truth.R)


def finds(poses, truth) -> bool:
    return min(np.linalg.norm(p.R - truth.R) for p in poses) <= 1e-6


def scaled_residual(pose, pair) -> float:
    """The gate's residual of one pose on one pair, from the scalar formulas."""
    if hasattr(pair, "m1"):
        scale = np.linalg.norm(pose.t) + np.linalg.norm(pair.m1) + np.linalg.norm(pair.m2)
        return abs(generalized_epipolar_residual(pose, pair)) / scale
    return abs(epipolar_residual(pose, pair)) / np.linalg.norm(pose.t)


def generators(module, pairs, theta):
    c = sigma_from_angle(theta)
    if module is solver_gen5:
        return module.build_g_polynomials(*_ray_stack(pairs, "q1", "q2", "m1", "m2"), c), c
    return module.build_f_polynomials(*_ray_stack(pairs, "q1", "q2"), c), c


class TestPolishRoots:
    @SOLVERS
    def test_perturbed_roots_return_to_the_variety(self, solver):
        module, _, pairs, theta = instance(solver, seed=1)
        gens, c = generators(module, pairs, theta)
        roots = ref.rotation_candidates(module, pairs, c)
        rng = np.random.default_rng(0)
        moved = roots + 1e-5 * rng.normal(size=roots.shape)
        assert np.max(np.abs(polish_roots(gens, moved, c) - roots)) < 1e-10

    @SOLVERS
    def test_a_root_is_never_moved_to_a_larger_residual(self, solver):
        module, _, pairs, theta = instance(solver, seed=2)
        gens, c = generators(module, pairs, theta)
        roots = ref.rotation_candidates(module, pairs, c)
        # A polished root is at rounding level and stays where it is.
        assert np.array_equal(polish_roots(gens, roots, c), roots)
        assert polish_roots(gens, roots[:0], c).shape == (0, 3)

    @SOLVERS
    def test_a_stack_polishes_each_sample_as_alone(self, solver):
        # The first sample's generators are pure squares, so at the origin
        # every derivative vanishes and its normal equations are singular:
        # that ends its own polishing, not the second sample's.
        module, _, pairs, theta = instance(solver, seed=1)
        gens, c = generators(module, pairs, theta)
        roots = ref.rotation_candidates(module, pairs, c)
        moved = roots + 1e-5 * np.random.default_rng(0).normal(size=roots.shape)
        squares = np.zeros_like(gens)
        squares[:, 0] = 1.0
        stack = np.stack([squares, gens])
        owner = np.repeat([0, 1], [1, len(moved)])
        both = polish_roots(stack, np.vstack([np.zeros((1, 3)), moved]), c, owner)
        assert np.array_equal(both[0], np.zeros(3))
        assert np.array_equal(both[1:], polish_roots(gens, moved, c))


class TestResidualGate:
    @SOLVERS
    def test_a_root_off_the_variety_is_never_returned(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=3)
        honest = solve(pairs, theta)
        original = module.rotation_roots

        def with_a_stray_root(*args):
            polished, sample = original(*args)
            stray = polished[:1] + np.array([1e-3, -2e-3, 1e-3])
            return np.vstack([polished, stray]), np.append(sample, sample[:1])

        monkeypatch.setattr(module, "rotation_roots", with_a_stray_root)
        poses = solve(pairs, theta)
        assert all(scaled_residual(p, q) <= POSE_RESIDUAL_TOL for p in poses for q in pairs)
        assert len(poses) == len(honest)
        for got, want in zip(poses, honest):
            assert np.array_equal(got.R, want.R) and np.array_equal(got.t, want.t)

    @SOLVERS
    def test_no_pose_left_is_degenerate(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=4)
        original = module.polish_roots
        monkeypatch.setattr(
            module, "polish_roots",
            lambda gens, roots, c, sample: original(gens, roots, c, sample) + 1e-3,
        )
        with pytest.raises(DegenerateConfiguration, match="satisfies its own sample"):
            solve(pairs, theta)


def spy_on_elimination(monkeypatch, module):
    """Record the partition of every ``rref_conditioned`` call."""
    calls = []
    original = module.rref_conditioned

    def spy(B, pivots):
        calls.append(pivots)
        return original(B, pivots)

    monkeypatch.setattr(module, "rref_conditioned", spy)
    return calls


def template_problem(module):
    return ("GENERAL", GENERAL) if module is solver_gen5 else ("REGULAR", REGULAR)


def complete_pivoting_poses(monkeypatch, module, solve, pairs, theta):
    """The poses of a solve whose only elimination is the oracle's complete
    pivoting, with the partition it picks on this input."""
    name, problem = template_problem(module)
    gens, c = generators(module, pairs, theta)
    tpl = assemble_reduced_template(
        gens, problem.multipliers, problem.target_degree, c, extra_rows=problem.extra_rows
    )
    hints = ref.pivot_hints(problem)
    _, pivots = ref.rref_conditioned(tpl.matrix, **hints)
    with monkeypatch.context() as m:
        m.setattr(module, name, replace(problem, partitions=(tuple(pivots),)))
        m.setattr(
            module, "rref_conditioned",
            lambda B, _: np.stack([ref.rref_conditioned(b, **hints)[0] for b in B]),
        )
        return solve(pairs, theta)


def failing_eig(monkeypatch, module, n_failures):
    """Make the first ``n_failures`` eigensolves of ``module`` raise."""
    calls = []
    original = module.eigensolve_real

    def eig(M):
        calls.append(1)
        if len(calls) <= n_failures:
            raise EigenFailure("eigendecomposition did not converge")
        return original(M)

    monkeypatch.setattr(module, "eigensolve_real", eig)
    return calls


class TestFallback:
    @SOLVERS
    def test_typical_input_takes_the_first_partition_only(self, monkeypatch, solver):
        # The fallback runs only after the first partition, and on the
        # default synth scenes (5 to 60 degrees) on at most 2 inputs in 20.
        first_only = 0
        for seed in range(20):
            module, solve, pairs, theta = instance(solver, seed=seed)
            partitions = template_problem(module)[1].partitions
            with monkeypatch.context() as m:
                calls = spy_on_elimination(m, module)
                solve(pairs, theta)
            assert calls == list(partitions[: len(calls)])
            first_only += len(calls) == 1
        assert first_only >= 18

    @SOLVERS
    def test_fallback_agrees_with_complete_pivoting(self, monkeypatch, solver):
        # The first synth seed at 170 degrees on which the first partition
        # drops a root as inconsistent, so the solver tries the fallback, and
        # on which complete pivoting finds the truth (at seed 0 gen5 neither
        # path does).
        for seed in range(200):
            cfg = {"theta_rad": np.radians(170.0)}
            module, solve, pairs, theta = instance(solver, seed, **cfg)
            with monkeypatch.context() as m:
                calls = spy_on_elimination(m, module)
                try:
                    poses = solve(pairs, theta)
                except DegenerateConfiguration:
                    continue
            if len(calls) < 2:
                continue
            truth, _ = truth_and_pairs(solver, seed, **cfg)
            oracle = complete_pivoting_poses(monkeypatch, module, solve, pairs, theta)
            if finds(oracle, truth):
                break
        else:
            pytest.fail("no input in range fell back")
        assert calls == list(template_problem(module)[1].partitions)
        assert finds(poses, truth)
        # Every pose is, to 1e-9, one that complete pivoting returns too, or
        # an exact solution of the sample that complete pivoting lost.
        lost = 0
        for got in poses:
            nearest = min(
                max(np.max(np.abs(got.R - want.R)),
                    np.max(np.abs(got.t - want.t)) / max(1.0, np.linalg.norm(want.t)))
                for want in oracle
            )
            if nearest > 1e-9:
                assert max(scaled_residual(got, q) for q in pairs) <= 1e-12
                lost += 1
        assert lost <= 1

    @SOLVERS
    @pytest.mark.parametrize(
        "dropped, kept_first", [(2, True), (1, True), (0, False), ("raises", True)]
    )
    def test_keeps_the_attempt_that_dropped_fewer(self, monkeypatch, solver, dropped, kept_first):
        # The first partition keeps one root and drops one as inconsistent;
        # the fallback keeps all its roots and drops ``dropped``, or raises.
        # Its roots replace the first's only where it dropped fewer.
        module, _, pairs, theta = instance(solver, seed=6)
        original = module.extract_roots
        extracted = []

        def extract(eigenvalues, action, qb):
            out = original(eigenvalues, action, qb)
            extracted.append(out)
            if len(extracted) == 1:
                return replace(
                    out, roots=out.roots[:1], sample=out.sample[:1], inconsistent=np.array([1])
                )
            if dropped == "raises":
                raise EigenFailure("eigendecomposition did not converge")
            return replace(out, inconsistent=np.array([dropped]))

        monkeypatch.setattr(module, "extract_roots", extract)
        roots = ref.rotation_candidates(module, pairs, sigma_from_angle(theta))
        assert len(extracted) == 2 and len(extracted[1].roots) > 1
        assert len(roots) == (1 if kept_first else len(extracted[1].roots))

    @SOLVERS
    def test_eig_failure_on_every_partition_is_degenerate(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=5)
        n_partitions = len(template_problem(module)[1].partitions)
        calls = failing_eig(monkeypatch, module, n_failures=n_partitions)
        with pytest.raises(DegenerateConfiguration) as info:
            solve(pairs, theta)
        assert isinstance(info.value.__cause__, EigenFailure)
        assert len(calls) == n_partitions

    @SOLVERS
    def test_eig_failure_on_the_first_partition_falls_back(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=5)
        truth, _ = truth_and_pairs(solver, seed=5)
        with monkeypatch.context() as m:
            elimination = spy_on_elimination(m, module)
            failing_eig(m, module, n_failures=1)
            poses = solve(pairs, theta)
        assert elimination == list(template_problem(module)[1].partitions[:2])
        assert finds(poses, truth)
