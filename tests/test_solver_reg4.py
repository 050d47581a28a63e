import math
import warnings

import numpy as np
import pytest

import relpose.solver_reg4 as solver_reg4
from relpose.exceptions import BasisAnomaly, DegenerateConfiguration, RelposeError
from relpose.gbsolver import POSE_RESIDUAL_TOL
from relpose.geom import (
    BearingPair,
    UnitQuaternion,
    cheiral_counts,
    quat_to_rotation,
    rotation_angle,
    skew,
)
from relpose.solver_reg4 import sampson_errors, solve_4pt_angle
from relpose.synth import (
    SceneConfig,
    generate_scene,
    rotation_error,
    translation_errors,
)
from reference_geom import epipolar_residual
from reference_reg4 import loop_solve_4pt_angle, triangulate_and_count_cheiral


def solve_scene(seed, **cfg_kwargs):
    truth, pairs = generate_scene(SceneConfig(seed=seed, **cfg_kwargs), 4)
    theta = rotation_angle(truth.R)
    return truth, pairs, theta, solve_4pt_angle(pairs, theta)


class TestSolve4ptAngle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_noise_free_recovery(self, seed):
        truth, pairs, theta, poses = solve_scene(seed)
        assert rotation_error(poses, truth.R) < 1e-9
        ang_deg, _ = translation_errors(poses, truth.t, with_scale=False)
        assert math.radians(ang_deg) < 1e-7

    @pytest.mark.parametrize("seed", range(6))
    def test_at_most_twenty_poses(self, seed):
        _, _, _, poses = solve_scene(seed)
        assert len(poses) <= 20
        assert all(p.root_count <= 20 for p in poses)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_returned_poses_satisfy_epipolar_constraints(self, seed):
        _, pairs, _, poses = solve_scene(seed)
        for pose in poses:
            for pair in pairs:
                assert abs(epipolar_residual(pose, pair)) < 1e-6

    @pytest.mark.parametrize("seed", [6, 7])
    def test_angle_constraint_exact(self, seed):
        _, _, theta, poses = solve_scene(seed)
        for pose in poses:
            assert abs(rotation_angle(pose.R) - theta) < 1e-9

    def test_unit_translations(self):
        _, _, _, poses = solve_scene(8)
        for pose in poses:
            assert abs(np.linalg.norm(pose.t) - 1.0) < 1e-12

    def test_zero_angle_returns_identity_rotation(self):
        truth, pairs = generate_scene(SceneConfig(seed=9, theta_rad=0.0), 4)
        poses = solve_4pt_angle(pairs, 0.0)
        assert len(poses) >= 1
        best = min(poses, key=lambda p: np.linalg.norm(p.R - np.eye(3)))
        assert np.linalg.norm(best.R - np.eye(3)) < 1e-9
        ang_deg, _ = translation_errors(poses, truth.t, with_scale=False)
        assert math.radians(ang_deg) < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rotated_pairs_give_the_same_solutions(self, k):
        # Another anchor is the pairs in another cyclic order.
        truth, pairs = generate_scene(SceneConfig(seed=10), 4)
        theta = rotation_angle(truth.R)
        base = solve_4pt_angle(pairs, theta)
        alt = solve_4pt_angle(pairs[k:] + pairs[:k], theta)
        us_base = [p.quat.u for p in base]
        us_alt = [p.quat.u for p in alt]
        for u in us_base:
            assert min(np.linalg.norm(u - v) for v in us_alt) < 1e-7
        for v in us_alt:
            assert min(np.linalg.norm(v - u) for u in us_base) < 1e-7

    def test_duplicate_pair_is_degenerate(self):
        truth, pairs = generate_scene(SceneConfig(seed=11), 4)
        theta = rotation_angle(truth.R)
        with pytest.raises(DegenerateConfiguration):
            solve_4pt_angle([pairs[0], pairs[0], pairs[2], pairs[3]], theta)

    def test_wrong_pair_count_rejected(self):
        truth, pairs = generate_scene(SceneConfig(seed=12), 4)
        with pytest.raises(ValueError):
            solve_4pt_angle(pairs[:3], 0.5)

    def test_cheiral_counts_reported(self):
        _, _, _, poses = solve_scene(13)
        assert all(p.cheiral_count is not None and p.cheiral_count > 0 for p in poses)

    def test_bitwise_deterministic(self):
        truth, pairs = generate_scene(SceneConfig(seed=21), 4)
        theta = rotation_angle(truth.R)
        a = solve_4pt_angle(pairs, theta)
        b = solve_4pt_angle(pairs, theta)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.R, pb.R) and np.array_equal(pa.t, pb.t)

    def test_cheirality_tie_reports_both_signs(self, monkeypatch):
        # When triangulated points split evenly between the two translation
        # signs, both poses are returned with the tie flagged.
        import relpose.solver_reg4 as mod

        truth, pairs = generate_scene(SceneConfig(seed=20), 4)
        theta = rotation_angle(truth.R)
        monkeypatch.setattr(mod, "cheiral_counts", lambda Rs, T, q1, q2: np.full((2, len(Rs)), 2))
        poses = solve_4pt_angle(pairs, theta)
        assert all(p.cheirality_tie for p in poses)
        assert len(poses) % 2 == 0
        ts = sorted(tuple(np.round(p.t, 12)) for p in poses)
        flipped = sorted(tuple(np.round(-p.t, 12)) for p in poses)
        assert ts == flipped

    def test_near_zero_baseline_raises_or_satisfies_the_sample(self):
        # Zero-baseline behavior is not characterized; accept either a typed
        # error or poses with unit translation that satisfy their sample.
        for seed in range(14, 20):
            truth, pairs = generate_scene(SceneConfig(seed=seed, baseline=1e-9), 4)
            try:
                poses = solve_4pt_angle(pairs, rotation_angle(truth.R))
            except RelposeError:
                continue
            for p in poses:
                assert abs(np.linalg.norm(p.t) - 1.0) < 1e-12
                assert max(abs(epipolar_residual(p, q)) for q in pairs) < 1e-6


def sampson_error(R, t, pair: BearingPair) -> float:
    """The Sampson error of one correspondence, as a row of ``sampson_errors``."""
    return float(sampson_errors(R, t, pair.q1[None], pair.q2[None])[0])


class TestSampsonError:
    def test_zero_on_exact_correspondence(self):
        truth, pairs = generate_scene(SceneConfig(seed=15), 4)
        for pair in pairs:
            assert sampson_error(truth.R, truth.t, pair) < 1e-20

    def test_formula_structure(self):
        rng = np.random.default_rng(16)
        truth, pairs = generate_scene(SceneConfig(seed=16), 4)
        E = skew(truth.t) @ truth.R
        for _ in range(20):
            q1 = rng.normal(size=3)
            q1 /= np.linalg.norm(q1)
            q2 = rng.normal(size=3)
            q2 /= np.linalg.norm(q2)
            ex, ety = E @ q1, E.T @ q2
            expected = (q2 @ ex) ** 2 / (ex[0] ** 2 + ex[1] ** 2 + ety[0] ** 2 + ety[1] ** 2)
            got = sampson_error(truth.R, truth.t, BearingPair(q1, q2))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_quadratic_in_residual_with_fixed_gradients(self):
        # num/den structure: scaling the algebraic residual at fixed epipolar
        # line gradients scales the error by the square.
        truth, pairs = generate_scene(SceneConfig(seed=17), 4)
        E = skew(truth.t) @ truth.R
        q1, q2 = pairs[0].q1, pairs[1].q2
        ex, ety = E @ q1, E.T @ q2
        den = ex[0] ** 2 + ex[1] ** 2 + ety[0] ** 2 + ety[1] ** 2
        base = (q2 @ ex) ** 2 / den
        for c in (2.0, 5.0):
            assert (c * (q2 @ ex)) ** 2 / den == pytest.approx(c * c * base)

    def test_bounded_by_residual_over_min_gradient(self):
        rng = np.random.default_rng(18)
        truth, pairs = generate_scene(SceneConfig(seed=18), 4)
        E = skew(truth.t) @ truth.R
        for _ in range(50):
            q1 = rng.normal(size=3)
            q1 /= np.linalg.norm(q1)
            q2 = rng.normal(size=3)
            q2 /= np.linalg.norm(q2)
            ex, ety = E @ q1, E.T @ q2
            grads = np.abs([ex[0], ex[1], ety[0], ety[1]])
            if np.min(grads) < 1e-8:
                continue
            res = (q2 @ ex) ** 2
            assert sampson_error(truth.R, truth.t, BearingPair(q1, q2)) <= res / np.min(grads) ** 2 + 1e-15

    def test_each_row_is_the_error_of_its_pair_alone(self):
        rng = np.random.default_rng(19)
        truth, pairs = generate_scene(SceneConfig(seed=19), 4)
        q1s = rng.normal(size=(8, 3))
        q1s /= np.linalg.norm(q1s, axis=1, keepdims=True)
        q2s = rng.normal(size=(8, 3))
        q2s /= np.linalg.norm(q2s, axis=1, keepdims=True)
        vec = sampson_errors(truth.R, truth.t, q1s, q2s)
        for i in range(8):
            scalar = sampson_error(truth.R, truth.t, BearingPair(q1s[i], q2s[i]))
            assert vec[i] == pytest.approx(scalar, rel=1e-12)

    def test_degenerate_gradients_give_infinity(self):
        q = np.array([0.0, 0.0, 1.0])
        # translation along the optical axis, ray through the epipole
        assert sampson_error(np.eye(3), q, BearingPair(q, q)) == math.inf


def _poses_or_error(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except RelposeError as exc:
        return type(exc)


def _assert_identical(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.R, w.R)
        # signbit also tells -0.0 from 0.0
        assert np.array_equal(g.t, w.t) and np.array_equal(np.signbit(g.t), np.signbit(w.t))
        assert np.array_equal(g.quat.u, w.quat.u) and g.quat.sigma == w.quat.sigma
        assert g.cheiral_count == w.cheiral_count
        assert g.cheirality_tie == w.cheirality_tie
        assert g.root_count == w.root_count


def _parallel_pair_scene(seed):
    # The last point lies at infinity: its rays are parallel under the truth.
    truth, pairs = generate_scene(SceneConfig(seed=seed), 4)
    q1 = pairs[3].q1
    q2 = truth.R @ q1
    return truth, pairs[:3] + [BearingPair(q1, q2 / np.linalg.norm(q2))]


def _random_rotation(rng):
    theta = rng.uniform(0.05, 3.0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return quat_to_rotation(UnitQuaternion(math.cos(theta / 2), math.sin(theta / 2) * axis))


class TestBatchedPoseRecovery:
    """The array pose recovery returns exactly what the per-root loop of
    ``reference_reg4`` returns."""

    RANDOM_THETA = float(np.random.default_rng(60).uniform(0.0, math.pi))

    # Each cyclic order of the pairs, ``pairs[k:] + pairs[:k]``, anchors
    # the constraint system on another pair.
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("theta", [1e-3, RANDOM_THETA, math.pi - 1e-3])
    def test_matches_loop_reference(self, theta, k):
        for seed in range(3):
            _, pairs = generate_scene(SceneConfig(seed=seed, theta_rad=theta), 4)
            pairs = pairs[k:] + pairs[:k]
            _assert_identical(
                _poses_or_error(solve_4pt_angle, pairs, theta),
                _poses_or_error(loop_solve_4pt_angle, pairs, theta),
            )

    @pytest.mark.parametrize("k", range(4))
    def test_matches_loop_reference_near_zero_baseline(self, k):
        # At a 1e-8 baseline seed 17 is degenerate.  Seeds 18 and 19 have a
        # root near the truth that is off by about 2.5e-3, whose pose would be
        # flagged low-parallax; the residual gate drops it in both solvers.
        for seed in (17, 18, 19):
            truth, pairs = generate_scene(SceneConfig(seed=seed, baseline=1e-8), 4)
            pairs = pairs[k:] + pairs[:k]
            theta = rotation_angle(truth.R)
            got = _poses_or_error(solve_4pt_angle, pairs, theta)
            want = _poses_or_error(loop_solve_4pt_angle, pairs, theta)
            _assert_identical(got, want)
            if not isinstance(got, type):
                for p in got:
                    assert max(abs(epipolar_residual(p, q)) for q in pairs) <= POSE_RESIDUAL_TOL

    @pytest.mark.parametrize("k", range(4))
    def test_matches_loop_reference_with_parallel_rays(self, k):
        truth, pairs = _parallel_pair_scene(25)
        pairs = pairs[k:] + pairs[:k]
        theta = rotation_angle(truth.R)
        poses = solve_4pt_angle(pairs, theta)
        _assert_identical(poses, loop_solve_4pt_angle(pairs, theta))
        # The parallel pair is skipped, so the truth counts three points.
        best = min(poses, key=lambda p: np.linalg.norm(p.R - truth.R))
        assert best.cheiral_count == 3

    def test_counts_match_loop_reference(self):
        rng = np.random.default_rng(61)
        truth, pairs = _parallel_pair_scene(26)
        q1 = np.array([p.q1 for p in pairs])
        q2 = np.array([p.q2 for p in pairs])
        Rs = np.array([truth.R] + [_random_rotation(rng) for _ in range(30)])
        T = np.array([truth.t] + list(rng.normal(size=(30, 3))))
        n_pos, n_neg = cheiral_counts(Rs, T, q1, q2)
        assert (n_pos[0], n_neg[0]) == (3, 0)
        for k in range(len(Rs)):
            assert n_pos[k] == triangulate_and_count_cheiral(Rs[k], T[k], pairs)[0]
            assert n_neg[k] == triangulate_and_count_cheiral(Rs[k], -T[k], pairs)[0]

    def test_parallel_rays_are_not_counted(self):
        # Rays meeting 1e6 units ahead are parallel within PARALLEL_RAY_EPS;
        # exactly parallel rays give a zero determinant, without a warning.
        q1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        q2 = np.array([[0.1, 0.0, 1e6], [0.0, 0.0, 1.0]])
        q2 /= np.linalg.norm(q2, axis=1, keepdims=True)
        Rs, T = np.array([np.eye(3), np.eye(3)]), np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
        pairs = [BearingPair(a, b) for a, b in zip(q1, q2)]
        for t in (T[0], -T[0]):
            assert triangulate_and_count_cheiral(Rs[0], t, pairs) == (0, [None, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_pos, n_neg = cheiral_counts(Rs, T, q1, q2)
        assert n_pos.tolist() == [0, 0] and n_neg.tolist() == [0, 0]


@pytest.mark.parametrize("stage", ["assemble_reduced_template", "build_action_matrix"])
def test_wrong_shape_raises(monkeypatch, stage):
    # The shape checks raise instead of asserting, so they also run under -O;
    # a wrong shape is a fault of the engine, not of the sample.
    original = getattr(solver_reg4, stage)

    def truncated(*args, **kwargs):
        # The template and the action matrix are both stacks: one sample short.
        return original(*args, **kwargs)[:-1]

    truth, pairs = generate_scene(SceneConfig(seed=24), 4)
    monkeypatch.setattr(solver_reg4, stage, truncated)
    with pytest.raises(BasisAnomaly, match="shape"):
        solve_4pt_angle(pairs, rotation_angle(truth.R))
