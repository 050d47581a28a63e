"""Root polishing, the residual gate on returned poses, and the fallback
from the fixed partition to complete pivoting, for both solvers."""

import numpy as np
import pytest

import relpose.solver_gen5 as solver_gen5
import relpose.solver_reg4 as solver_reg4
from relpose.exceptions import DegenerateConfiguration, RankDeficient
from relpose.gbsolver import POSE_RESIDUAL_TOL, polish_roots
from relpose.geom import (
    epipolar_residual,
    generalized_epipolar_residual,
    rotation_angle,
    sigma_from_angle,
)
from relpose.synth import SceneConfig, generate_scene

SOLVERS = pytest.mark.parametrize("solver", ["reg4", "gen5"])


def instance(solver, seed=0, **cfg):
    """Module, solve function, pairs and angle of a noise-free scene."""
    generalized = solver == "gen5"
    truth, pairs = generate_scene(
        SceneConfig(seed=seed, generalized=generalized, **cfg), 5 if generalized else 4
    )
    module = solver_gen5 if generalized else solver_reg4
    solve = module.solve_gen5pt_angle if generalized else module.solve_4pt_angle
    return module, solve, pairs, rotation_angle(truth.R)


def scaled_residual(pose, pair) -> float:
    """The gate's residual of one pose on one pair, from the scalar formulas."""
    if hasattr(pair, "m1"):
        scale = np.linalg.norm(pose.t) + np.linalg.norm(pair.m1) + np.linalg.norm(pair.m2)
        return abs(generalized_epipolar_residual(pose, pair)) / scale
    return abs(epipolar_residual(pose, pair)) / np.linalg.norm(pose.t)


def generators(module, pairs, theta):
    c = sigma_from_angle(theta)
    build = getattr(module, "build_g_polynomials", None) or module.build_f_polynomials
    return build(pairs, c), c


class TestPolishRoots:
    @SOLVERS
    def test_perturbed_roots_return_to_the_variety(self, solver):
        module, _, pairs, theta = instance(solver, seed=1)
        gens, c = generators(module, pairs, theta)
        roots = module._rotation_candidates(pairs, c).roots
        rng = np.random.default_rng(0)
        moved = roots + 1e-5 * rng.normal(size=roots.shape)
        assert np.max(np.abs(polish_roots(gens, moved, c) - roots)) < 1e-10

    @SOLVERS
    def test_a_root_is_never_moved_to_a_larger_residual(self, solver):
        module, _, pairs, theta = instance(solver, seed=2)
        gens, c = generators(module, pairs, theta)
        roots = module._rotation_candidates(pairs, c).roots
        # A polished root is at rounding level and stays where it is.
        assert np.array_equal(polish_roots(gens, roots, c), roots)
        assert polish_roots(gens, roots[:0], c).shape == (0, 3)


class TestResidualGate:
    @SOLVERS
    def test_a_root_off_the_variety_is_never_returned(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=3)
        honest = solve(pairs, theta)
        original = module.polish_roots

        def with_a_stray_root(gens, roots, c):
            polished = original(gens, roots, c)
            return np.vstack([polished, polished[:1] + np.array([1e-3, -2e-3, 1e-3])])

        monkeypatch.setattr(module, "polish_roots", with_a_stray_root)
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
            module, "polish_roots", lambda gens, roots, c: original(gens, roots, c) + 1e-3
        )
        with pytest.raises(DegenerateConfiguration, match="satisfies its own sample"):
            solve(pairs, theta)


def spy_on_elimination(monkeypatch, module, disable_fixed=False):
    """Record the keywords of every ``rref_conditioned`` call; optionally
    make the fixed partition raise, so the solver takes complete pivoting."""
    calls = []
    original = module.rref_conditioned

    def spy(B, **kwargs):
        calls.append(set(kwargs))
        if disable_fixed and "pivots" in kwargs:
            raise RankDeficient("fixed partition disabled")
        return original(B, **kwargs)

    monkeypatch.setattr(module, "rref_conditioned", spy)
    return calls


class TestFallback:
    @SOLVERS
    def test_typical_input_takes_the_fixed_partition_only(self, monkeypatch, solver):
        # Complete pivoting runs only after the fixed partition, and on the
        # default synth scenes (5 to 60 degrees) on at most 2 inputs in 20.
        fixed_only = 0
        for seed in range(20):
            module, solve, pairs, theta = instance(solver, seed=seed)
            with monkeypatch.context() as m:
                calls = spy_on_elimination(m, module)
                solve(pairs, theta)
            assert calls[0] == {"pivots"}
            assert calls[1:] in ([], [{"protected_cols", "eliminate_first"}])
            fixed_only += len(calls) == 1
        assert fixed_only >= 18

    @SOLVERS
    def test_fallback_matches_complete_pivoting(self, monkeypatch, solver):
        # The first synth seed at 170 degrees whose fixed path drops a root
        # as inconsistent, so the solver redoes the template.
        for seed in range(200):
            module, solve, pairs, theta = instance(solver, seed=seed, theta_rad=np.radians(170.0))
            with monkeypatch.context() as m:
                calls = spy_on_elimination(m, module)
                try:
                    poses = solve(pairs, theta)
                except DegenerateConfiguration:
                    continue
            if len(calls) == 2:
                break
        else:
            pytest.fail("no input in range fell back to complete pivoting")
        assert calls == [{"pivots"}, {"protected_cols", "eliminate_first"}]
        with monkeypatch.context() as m:
            spy_on_elimination(m, module, disable_fixed=True)
            conditioned = solve(pairs, theta)
        assert len(poses) == len(conditioned)
        for got, want in zip(poses, conditioned):
            assert np.max(np.abs(got.R - want.R)) <= 1e-9
            assert np.max(np.abs(got.t - want.t)) <= 1e-9 * max(1.0, np.linalg.norm(want.t))
