import math

import numpy as np
import pytest

import relpose.solver_gen5 as solver_gen5
import relpose.solver_reg4 as solver_reg4
from relpose.exceptions import BasisAnomaly, DegenerateConfiguration, ScaleUnobservable
from relpose.gbsolver import ExtractedRoots
from relpose.geom import PluckerPair, rotation_angle, sigma_from_angle
from relpose.poly import _ray_stack
from relpose.solver_gen5 import point_rays, ray_point_errors, solve_gen5pt_angle
from relpose.solver_reg4 import solve_4pt_angle
from relpose.geom import BearingPair
from relpose.synth import SceneConfig, _corrupt, generate_scene, rotation_error, translation_errors
from reference_geom import generalized_epipolar_residual, quat_from_rotation
from reference_gen5 import loop_depth_poses, loop_ray_point_errors
from reference_templates import rotation_candidates


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.linalg.det(q))


def solve_scene(seed, **cfg_kwargs):
    truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=True, **cfg_kwargs), 5)
    theta = rotation_angle(truth.R)
    return truth, pairs, theta, solve_gen5pt_angle(pairs, theta)


class TestSolveGen5ptAngle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_free_recovery(self, seed):
        truth, pairs, theta, poses = solve_scene(seed)
        assert rotation_error(poses, truth.R) < 1e-6
        best = min(poses, key=lambda p: np.linalg.norm(p.R - truth.R))
        assert np.linalg.norm(best.t - truth.t) / np.linalg.norm(truth.t) < 1e-5

    def test_metric_scale_matches_baseline(self):
        truth, pairs, theta, poses = solve_scene(3)
        best = min(poses, key=lambda p: np.linalg.norm(p.R - truth.R))
        assert abs(np.linalg.norm(best.t) - 0.1) / 0.1 < 1e-5

    @pytest.mark.parametrize("seed", [4, 5])
    def test_at_most_44_poses(self, seed):
        _, _, _, poses = solve_scene(seed)
        assert len(poses) <= 44
        assert all(p.root_count <= 44 for p in poses)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_returned_poses_satisfy_generalized_constraints(self, seed):
        _, pairs, _, poses = solve_scene(seed)
        for pose in poses:
            for pair in pairs:
                assert abs(generalized_epipolar_residual(pose, pair)) < 1e-5

    @pytest.mark.parametrize("seed", [8, 9])
    def test_angle_constraint_exact(self, seed):
        _, _, theta, poses = solve_scene(seed)
        for pose in poses:
            assert abs(rotation_angle(pose.R) - theta) < 1e-8

    def test_depths_reported(self):
        truth, pairs, theta, poses = solve_scene(10)
        best = min(poses, key=lambda p: np.linalg.norm(p.R - truth.R))
        lam, mu = best.depths
        # the anchor point sits in front of both rays at roughly scene distance
        assert 0.5 < lam < 1.6 and 0.5 < mu < 1.6

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rotated_pairs_give_the_same_solutions(self, k):
        # Another anchor is the pairs in another cyclic order.
        truth, pairs = generate_scene(SceneConfig(seed=11, generalized=True), 5)
        theta = rotation_angle(truth.R)
        base = solve_gen5pt_angle(pairs, theta)
        alt = solve_gen5pt_angle(pairs[k:] + pairs[:k], theta)
        us_base = [p.quat.u for p in base]
        us_alt = [p.quat.u for p in alt]
        for u in us_base:
            assert min(np.linalg.norm(u - v) for v in us_alt) < 1e-6
        for v in us_alt:
            assert min(np.linalg.norm(v - u) for u in us_base) < 1e-6

    def test_all_zero_moments_scale_unobservable(self):
        truth, pairs = generate_scene(SceneConfig(seed=12), 5)
        central = [
            PluckerPair(q1=p.q1, q2=p.q2, m1=np.zeros(3), m2=np.zeros(3)) for p in pairs
        ]
        with pytest.raises(ScaleUnobservable):
            solve_gen5pt_angle(central, rotation_angle(truth.R))

    def test_zero_angle_returns_identity_and_metric_translation(self):
        truth, pairs = generate_scene(
            SceneConfig(seed=13, theta_rad=0.0, generalized=True), 5
        )
        poses = solve_gen5pt_angle(pairs, 0.0)
        best = min(poses, key=lambda p: np.linalg.norm(p.R - np.eye(3)))
        assert np.linalg.norm(best.R - np.eye(3)) < 1e-9
        assert np.linalg.norm(best.t - truth.t) / np.linalg.norm(truth.t) < 1e-6

    def test_wrong_pair_count_rejected(self):
        truth, pairs = generate_scene(SceneConfig(seed=14, generalized=True), 5)
        with pytest.raises(ValueError):
            solve_gen5pt_angle(pairs[:4], 0.5)

    def test_bitwise_deterministic(self):
        truth, pairs = generate_scene(SceneConfig(seed=22, generalized=True), 5)
        theta = rotation_angle(truth.R)
        a = solve_gen5pt_angle(pairs, theta)
        b = solve_gen5pt_angle(pairs, theta)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.R, pb.R) and np.array_equal(pa.t, pb.t)

    @pytest.mark.parametrize("seed", [23, 24])
    def test_roots_satisfy_generating_polynomials(self, seed):
        from relpose.geom import sigma_from_angle
        from relpose.poly import _ray_stack, build_g_polynomials
        from reference_templates import as_polynomials, package_generators

        truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=True), 5)
        theta = rotation_angle(truth.R)
        c = sigma_from_angle(theta)
        rays = _ray_stack(pairs, "q1", "q2", "m1", "m2")
        gs = as_polynomials(package_generators(build_g_polynomials, rays, c))
        scale = max(g.max_abs() for g in gs)
        for pose in solve_gen5pt_angle(pairs, theta):
            u = pose.quat.u
            assert max(abs(g(u)) for g in gs) < 1e-8 * scale
            assert abs(u @ u + c.tau) < 1e-8

    def test_five_determinants_generate_all_constraints(self):
        # The remaining fifteen determinant constraints must vanish on every
        # recovered root: the chosen five lose no solutions.
        from itertools import combinations

        from relpose.geom import sigma_from_angle
        from reference_templates import g_determinant

        truth, pairs = generate_scene(SceneConfig(seed=21, generalized=True), 5)
        theta = rotation_angle(truth.R)
        c = sigma_from_angle(theta)
        poses = solve_gen5pt_angle(pairs, theta)
        dets = []
        for i in range(5):
            others = [j for j in range(5) if j != i]
            for jkl in combinations(others, 3):
                dets.append(g_determinant(pairs, i, *jkl, c))
        scale = max(d.max_abs() for d in dets)
        for pose in poses:
            u = pose.quat.u
            worst = max(abs(d(u)) for d in dets)
            assert worst < 1e-6 * scale

    def test_near_central_shares_rotation_with_central_solver(self):
        # With vanishingly small per-ray center offsets, the generalized
        # solver and the central-camera solver on the same directions must
        # both recover the true rotation.
        cfg = SceneConfig(seed=15, generalized=True, multi_center_radius=1e-8)
        truth, pairs = generate_scene(cfg, 5)
        theta = rotation_angle(truth.R)
        u_true = quat_from_rotation(truth.R).u
        gen_poses = solve_gen5pt_angle(pairs, theta)
        assert min(np.linalg.norm(p.quat.u - u_true) for p in gen_poses) < 1e-5
        bearings = [BearingPair(q1=p.q1, q2=p.q2) for p in pairs[:4]]
        reg_poses = solve_4pt_angle(bearings, theta)
        assert min(np.linalg.norm(p.quat.u - u_true) for p in reg_poses) < 1e-5


def ray_arrays(pairs: list[PluckerPair]) -> tuple[np.ndarray, ...]:
    """The rays of the pairs as ``ray_point_errors`` takes them."""
    return point_rays(_ray_stack(pairs, "q1", "q2", "m1", "m2"))


def ray_point_error(pose, pair: PluckerPair) -> float:
    """The point-to-ray error of one correspondence, as a row of ``ray_point_errors``."""
    return float(ray_point_errors(pose.R, pose.t, *ray_arrays([pair]))[0])


class TestRayPointError:
    def test_zero_on_consistent_pair(self):
        truth, pairs, _, poses = solve_scene(16)
        best = min(poses, key=lambda p: np.linalg.norm(p.R - truth.R))
        for pair in pairs:
            assert ray_point_error(truth, pair) < 1e-10
            assert ray_point_error(best, pair) < 1e-8

    def test_displaced_point_error_structure(self):
        # Two originally intersecting perpendicular rays; displacing the
        # generating point of the second ray by delta perpendicular to both
        # leaves a closest-approach gap of delta, so each point-to-ray
        # distance is delta/2 and their RMS is delta/2.
        truth, pairs = generate_scene(SceneConfig(seed=17, generalized=True), 5)
        delta = 1e-3
        d1 = np.array([1.0, 0.0, 0.0])
        d2_world = np.array([0.0, 1.0, 0.0])
        o1 = np.zeros(3)
        o2_world = np.array([0.0, 0.0, delta])
        pose = truth
        # express ray 2 in the second camera frame: x2 = R x1 + t
        d2 = pose.R @ d2_world
        o2 = pose.R @ o2_world + pose.t
        pair = PluckerPair(q1=d1, q2=d2, m1=np.cross(d1, o1), m2=np.cross(d2, o2))
        assert ray_point_error(pose, pair) == pytest.approx(delta / 2, rel=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(18)
        truth, pairs, _, _ = solve_scene(18)
        pair = pairs[0]
        base = ray_point_error(truth, pair)
        # conjugate everything by a random rigid transform of frame 1
        from relpose.geom import RelativePose, UnitQuaternion, quat_to_rotation

        theta = rng.uniform(0.1, 2.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        Q = quat_to_rotation(UnitQuaternion(math.cos(theta / 2), math.sin(theta / 2) * axis))
        s = rng.normal(size=3)
        # frame-1 points x -> Q x + s; ray 1 moves with it, pose absorbs it
        q1 = Q @ pair.q1
        o1 = Q @ np.cross(pair.m1, pair.q1) + s
        moved = PluckerPair(q1=q1, q2=pair.q2, m1=np.cross(q1, o1), m2=pair.m2)
        pose2 = RelativePose(
            R=truth.R @ Q.T,
            t=truth.t - truth.R @ Q.T @ s,
            quat=quat_from_rotation(truth.R @ Q.T),
        )
        assert ray_point_error(pose2, moved) == pytest.approx(base, abs=1e-12)

    def test_parallel_rays_give_infinity(self):
        truth, pairs, _, _ = solve_scene(19)
        d = np.array([0.0, 0.0, 1.0])
        d2 = truth.R @ d
        pair = PluckerPair(
            q1=d, q2=d2, m1=np.cross(d, np.array([0.1, 0.0, 0.0])), m2=np.zeros(3)
        )
        assert ray_point_error(truth, pair) == math.inf

    def test_each_row_is_the_error_of_its_pair_alone(self):
        truth, pairs, _, _ = solve_scene(20)
        vec = ray_point_errors(truth.R, truth.t, *ray_arrays(pairs))
        for i, pair in enumerate(pairs):
            assert vec[i] == pytest.approx(ray_point_error(truth, pair), abs=1e-15)

    def test_array_scorer_matches_loop_reference(self):
        # A contaminated frame pair with one parallel-ray pair: every error,
        # and the position of every +inf, equals the per-pair loop scorer's.
        cfg = SceneConfig(seed=21, generalized=True)
        rng = np.random.default_rng(21)
        truth, pairs = generate_scene(cfg, 100, rng=rng)
        observed, _ = _corrupt(pairs, cfg, 0.3, rng)
        d = np.array([0.0, 0.0, 1.0])
        observed[7] = PluckerPair(
            q1=d, q2=truth.R @ d, m1=np.cross(d, np.array([0.1, 0.0, 0.0])), m2=np.zeros(3)
        )
        errs = ray_point_errors(truth.R, truth.t, *ray_arrays(observed))
        expected = loop_ray_point_errors(truth, observed)
        # The closed form and the oracle's 3x3 solve round differently; they
        # agree to about 2e-13, and where the error is near zero the closed
        # form gives about 1e-17 where the oracle leaves 1e-15 to 1e-11.
        assert np.isinf(errs[7])
        assert np.array_equal(np.isinf(errs), np.isinf(expected))
        finite = np.isfinite(expected)
        np.testing.assert_allclose(errs[finite], expected[finite], rtol=1e-10, atol=1e-11)

    def test_half_the_distance_between_skew_lines(self):
        # Lines through p + a d1 and p + delta n + b d2, with n the unit
        # normal of both directions, are delta apart; every error is delta/2,
        # also after a random rigid motion of the first frame, to rounding:
        # at most 2.7e-14 relative over 1000 draws of gaps of 0.1 to 1
        # between points a few units from the origin.  The last two pairs
        # are parallel.
        rng = np.random.default_rng(31)
        n_pairs = 50
        d1, d2 = rng.normal(size=(2, n_pairs, 3))
        d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
        d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
        d2[-2:] = d1[-2:] * np.array([[1.0], [-1.0]])
        normal = np.cross(d1, d2)
        normal[:-2] /= np.linalg.norm(normal[:-2], axis=1, keepdims=True)
        delta = rng.uniform(0.1, 1.0, n_pairs)
        p = rng.normal(size=(n_pairs, 3))
        o1 = p + rng.uniform(-1, 1, (n_pairs, 1)) * d1
        o2 = p + delta[:, None] * normal + rng.uniform(-1, 1, (n_pairs, 1)) * d2
        R, t = random_rotation(rng), rng.normal(size=3)
        q2, c2 = d2 @ R.T, o2 @ R.T + t
        Q, s = random_rotation(rng), rng.normal(size=3)
        moved = (R @ Q.T, t - R @ Q.T @ s, d1 @ Q.T, o1 @ Q.T + s, q2, c2)
        for errs in (ray_point_errors(R, t, d1, o1, q2, c2), ray_point_errors(*moved)):
            assert np.all(np.isinf(errs[-2:]))
            np.testing.assert_allclose(errs[:-2], delta[:-2] / 2, rtol=1e-13, atol=0)

    def test_stack_rows_equal_single_pose_calls(self):
        # Each row of a 40-pose stack is the single-pose call bit for bit.
        cfg = SceneConfig(seed=22, generalized=True)
        rng = np.random.default_rng(22)
        truth, pairs = generate_scene(cfg, 100, rng=rng)
        observed, _ = _corrupt(pairs, cfg, 0.3, rng)
        rays = ray_arrays(observed)
        Rs = np.array([random_rotation(rng) for _ in range(40)])
        Rs[::2] = truth.R
        ts = truth.t + 0.01 * rng.normal(size=(40, 3))
        errs = ray_point_errors(Rs, ts, *rays)
        assert errs.shape == (40, 100)
        for k in range(40):
            assert np.array_equal(errs[k], ray_point_errors(Rs[k], ts[k], *rays))


class TestDepthRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_batched_depths_match_loop_reference(self, seed):
        truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=True), 5)
        theta = rotation_angle(truth.R)
        c = sigma_from_angle(theta)
        roots = rotation_candidates(solver_gen5, pairs, c)
        expected = loop_depth_poses(pairs, roots, c)
        poses = solve_gen5pt_angle(pairs, theta)
        assert len(poses) == len(expected)
        for got, want in zip(poses, expected):
            assert np.array_equal(got.quat.u, want.quat.u)
            assert np.max(np.abs(got.R - want.R)) <= 1e-12
            assert np.max(np.abs(got.t - want.t)) <= 1e-12 * np.linalg.norm(want.t)

    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    def test_no_rectifiable_root_is_degenerate(self, monkeypatch, solver):
        # Both roots lie below U_DIRECTION_EPS, so neither carries an axis.
        def tiny_roots(eigenvalues, action, qb, steps):
            none = np.zeros(1, dtype=int)
            return ExtractedRoots(np.full((2, 3), 1e-12), np.zeros(2, dtype=int), none, none)

        generalized = solver == "gen5"
        truth, pairs = generate_scene(
            SceneConfig(seed=3, generalized=generalized), 5 if generalized else 4
        )
        solve = solve_gen5pt_angle if generalized else solve_4pt_angle
        module = solver_gen5 if generalized else solver_reg4
        monkeypatch.setattr(module, "extract_roots", tiny_roots)
        # Polishing would carry the tiny roots onto the variety.
        monkeypatch.setattr(module, "polish_roots", lambda generators, roots, c: roots)
        with pytest.raises(DegenerateConfiguration, match="no usable rotation candidates"):
            solve(pairs, rotation_angle(truth.R))


@pytest.mark.parametrize("stage", ["assemble_reduced_template", "build_action_matrix"])
def test_wrong_shape_raises(monkeypatch, stage):
    # The shape checks raise instead of asserting, so they also run under -O;
    # a wrong shape is a fault of the engine, not of the sample.
    original = getattr(solver_gen5, stage)

    def truncated(*args, **kwargs):
        # The template and the action matrix are both stacks: one sample short.
        return original(*args, **kwargs)[:-1]

    truth, pairs = generate_scene(SceneConfig(seed=4, generalized=True), 5)
    monkeypatch.setattr(solver_gen5, stage, truncated)
    with pytest.raises(BasisAnomaly, match="shape"):
        solve_gen5pt_angle(pairs, rotation_angle(truth.R))
