import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relpose.geom import (
    BearingPair,
    PluckerPair,
    RelativePose,
    UnitQuaternion,
    check_unit_quaternions,
    epipolar_residual,
    essential_residual,
    generalized_epipolar_residual,
    generalized_residual,
    quat_from_rotation,
    quat_to_rotation,
    rotation_angle,
    rotation_stack,
    sigma_from_angle,
    skew,
    stacked_cross,
)
from relpose.gbsolver import SamplePoses
from relpose.synth import SceneConfig, generate_scene
from reference_gen5 import inverse_pose
from reference_reg4 import triangulate_and_count_cheiral


def random_quat(rng):
    theta = rng.uniform(0.05, 3.0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return UnitQuaternion(math.cos(theta / 2), math.sin(theta / 2) * axis)


class TestStackedCross:
    """``stacked_cross`` is ``np.cross`` of stacked 3-vectors, bit for bit."""

    @pytest.mark.parametrize("shapes", [((7, 3), (7, 3)), ((7, 3), (5, 7, 3)), ((5, 7, 3),) * 2])
    def test_bit_for_bit_np_cross(self, shapes):
        rng = np.random.default_rng(len(shapes[1]))
        a, b = (rng.normal(size=s) * rng.uniform(1e-3, 1e3, size=s[:-1] + (1,)) for s in shapes)
        got, want = stacked_cross(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_non_finite_entries_land_where_np_cross_puts_them(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(4, 6, 3))
        a[1, 0], a[2, 2], b[0, 3, 1], b[3, 5, 0] = np.nan, np.inf, -np.inf, np.nan
        b[2, 4] = 0.0
        a[4] = [np.inf, 0.0, 0.0]
        with np.errstate(invalid="ignore"):
            got, want = stacked_cross(a, b), np.cross(a, b)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(got, want, equal_nan=True)


class TestQuatToRotation:
    def test_identity(self):
        R = quat_to_rotation(UnitQuaternion(1.0, np.zeros(3)))
        assert np.array_equal(R, np.eye(3))

    def test_half_turn_about_x(self):
        R = quat_to_rotation(UnitQuaternion(0.0, np.array([1.0, 0.0, 0.0])))
        assert np.allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_random_quats_give_proper_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            R = quat_to_rotation(random_quat(rng))
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    @given(st.floats(0.01, 3.1), st.integers(0, 10_000))
    def test_angle_roundtrip(self, theta, seed):
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        q = UnitQuaternion(math.cos(theta / 2), math.sin(theta / 2) * axis)
        assert abs(rotation_angle(quat_to_rotation(q)) - theta) < 1e-12


class TestRotationStack:
    def test_rows_round_as_the_single_quaternion_formula(self):
        rng = np.random.default_rng(44)
        for k in range(1, 45):
            s = sigma_from_angle(rng.uniform(0.0, math.pi)).sigma
            u = rng.normal(size=(k, 3))
            u *= math.sqrt(1.0 - s * s) / np.linalg.norm(u, axis=1, keepdims=True)
            Rs = rotation_stack(s, u)
            assert Rs.shape == (k, 3, 3)
            for R, uk in zip(Rs, u):
                expected = (2.0 * s * s - 1.0) * np.eye(3) + 2.0 * (np.outer(uk, uk) - s * skew(uk))
                assert np.array_equal(R, expected)
                assert np.array_equal(np.signbit(R), np.signbit(expected))


class TestRotationAngle:
    def test_identity_is_zero(self):
        assert rotation_angle(np.eye(3)) == 0.0

    def test_half_turn_is_pi(self):
        assert rotation_angle(np.diag([1.0, -1.0, -1.0])) == pytest.approx(math.pi)


class TestQuatFromRotation:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = random_quat(rng)
            q2 = quat_from_rotation(quat_to_rotation(q))
            assert abs(q2.sigma - q.sigma) < 1e-9
            assert np.max(np.abs(q2.u - q.u)) < 1e-9

    def test_near_half_turn(self):
        q = UnitQuaternion(math.cos(1.570795), math.sin(1.570795) * np.array([0.0, 1.0, 0.0]))
        q2 = quat_from_rotation(quat_to_rotation(q))
        assert np.max(np.abs(quat_to_rotation(q2) - quat_to_rotation(q))) < 1e-9


class TestSigmaFromAngle:
    def test_zero_angle(self):
        c = sigma_from_angle(0.0)
        assert c.sigma == 1.0 and c.tau == 0.0

    def test_right_angle(self):
        c = sigma_from_angle(math.pi / 2)
        assert c.sigma == pytest.approx(math.sqrt(2) / 2)
        assert c.tau == pytest.approx(-0.5)

    def test_two_thirds_pi(self):
        c = sigma_from_angle(2 * math.pi / 3)
        assert c.sigma == pytest.approx(0.5)
        assert c.tau == pytest.approx(-0.75)

    @pytest.mark.parametrize("theta", [-0.1, math.pi, 4.0])
    def test_rejects_out_of_domain(self, theta):
        with pytest.raises(ValueError):
            sigma_from_angle(theta)


class TestEpipolarResidual:
    def test_zero_on_consistent_pair(self):
        rng = np.random.default_rng(1)
        truth, pairs = generate_scene(SceneConfig(seed=1), 8)
        for pair in pairs:
            assert abs(epipolar_residual(truth, pair)) < 1e-12

    def test_explicit_value(self):
        q = quat_from_rotation(np.eye(3))
        pose = RelativePose(np.eye(3), np.array([1.0, 0.0, 0.0]), q)
        pair = BearingPair(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]) / math.sqrt(2))
        assert epipolar_residual(pose, pair) == pytest.approx(1 / math.sqrt(2))

    def test_bilinearity_in_second_ray(self):
        rng = np.random.default_rng(2)
        R = quat_to_rotation(random_quat(rng))
        t = rng.normal(size=3)
        q1, q2 = rng.normal(size=3), rng.normal(size=3)
        assert essential_residual(R, t, q1, 2.0 * q2) == pytest.approx(
            2.0 * essential_residual(R, t, q1, q2)
        )


class TestGeneralizedResidual:
    def test_zero_on_consistent_pair(self):
        truth, pairs = generate_scene(SceneConfig(seed=4, generalized=True), 8)
        for pair in pairs:
            assert abs(generalized_epipolar_residual(truth, pair)) < 1e-10

    def test_zero_moments_reduce_to_central_form(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            R = quat_to_rotation(random_quat(rng))
            t = rng.normal(size=3)
            q1 = rng.normal(size=3)
            q2 = rng.normal(size=3)
            z = np.zeros(3)
            assert generalized_residual(R, z, t, q1, z, q2, z) == pytest.approx(
                essential_residual(R, t, q1, q2), abs=1e-14
            )

    def test_view_swap_symmetry(self):
        truth, pairs = generate_scene(SceneConfig(seed=6, generalized=True), 5)
        rng = np.random.default_rng(7)
        noisy = PluckerPair(
            q1=pairs[0].q1,
            q2=pairs[1].q2,
            m1=pairs[0].m1,
            m2=pairs[1].m2,
        )
        inv = inverse_pose(truth)
        swapped = PluckerPair(q1=noisy.q2, q2=noisy.q1, m1=noisy.m2, m2=noisy.m1)
        a = generalized_epipolar_residual(truth, noisy)
        b = generalized_epipolar_residual(inv, swapped)
        assert abs(abs(a) - abs(b)) < 1e-12


class TestCheirality:
    def test_counts_all_points_for_true_pose(self):
        truth, pairs = generate_scene(SceneConfig(seed=8), 4)
        count, depths = triangulate_and_count_cheiral(truth.R, truth.t, pairs)
        assert count == 4
        assert all(d is not None and d[0] > 0 and d[1] > 0 for d in depths)

    def test_negated_translation_counts_zero(self):
        truth, pairs = generate_scene(SceneConfig(seed=8), 4)
        count, _ = triangulate_and_count_cheiral(truth.R, -truth.t, pairs)
        assert count == 0

    def test_parallel_rays_are_skipped(self):
        q = np.array([0.0, 0.0, 1.0])
        pair = BearingPair(q, q)
        count, depths = triangulate_and_count_cheiral(np.eye(3), np.array([0.0, 0.0, 1.0]), [pair])
        assert count == 0 and depths == [None]

    def test_true_pose_always_wins_monte_carlo(self):
        for seed in range(50):
            truth, pairs = generate_scene(SceneConfig(seed=seed), 4)
            pos, _ = triangulate_and_count_cheiral(truth.R, truth.t, pairs)
            neg, _ = triangulate_and_count_cheiral(truth.R, -truth.t, pairs)
            assert pos > neg


class TestTypes:
    def test_unit_quaternion_validation(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.5, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            UnitQuaternion(-1.0, np.zeros(3))

    def test_bearing_pair_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            BearingPair(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def test_plucker_pair_requires_incidence(self):
        q = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            PluckerPair(q, q, m1=np.array([0.0, 0.0, 0.5]), m2=np.zeros(3))

    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e5, 1e6])
    def test_plucker_pair_incidence_is_relative_to_the_moment(self, scale):
        # m = q x p rounds with an error that grows with |p|: every exactly
        # incident line is accepted, an off-line moment of 1e-6 |m| is not.
        rng = np.random.default_rng(int(scale))
        qs = rng.normal(size=(300, 3))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        ps = rng.normal(size=(300, 3)) * scale
        for q, p in zip(qs, ps):
            m = np.cross(q, p)
            PluckerPair(q, q, m1=m, m2=np.zeros(3))
            with pytest.raises(ValueError, match="incidence"):
                PluckerPair(q, q, m1=m + 1e-6 * np.linalg.norm(m) * q, m2=np.zeros(3))
            with pytest.raises(ValueError, match="incidence"):
                PluckerPair(q, q, m1=m, m2=np.array([scale, math.nan, 0.0]))

    def test_relative_pose_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RelativePose(np.eye(3) * 1.1, np.zeros(3), UnitQuaternion(1.0, np.zeros(3)))


def message(fn, *args, **kwargs):
    """The message of the ValueError a call raises."""
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


class TestBulkConstruction:
    """``check_unit_quaternions`` and ``SamplePoses`` check whole stacks as
    arrays; one bad entry raises the error the constructor raises for it."""

    def stack(self, n=5, seed=3):
        rng = np.random.default_rng(seed)
        c = sigma_from_angle(rng.uniform(0.05, 3.0))
        u = rng.normal(size=(n, 3))
        u *= math.sqrt(1.0 - c.sigma**2) / np.linalg.norm(u, axis=1, keepdims=True)
        return c.sigma, u, rotation_stack(c.sigma, u), rng.normal(size=(n, 3))

    def test_good_stack_matches_the_constructor(self):
        sigma, u, Rs, ts = self.stack()
        columns = {"cheiral_count": np.arange(1, 6), "root_count": np.full(5, 7),
                   "depths": np.arange(10.0).reshape(5, 2)}
        answer = SamplePoses(Rs, ts, sigma, u, [0, 2, 2, 5], columns)
        poses = answer.poses()
        assert len(answer) == 3 and len(poses) == 5
        for k, pose in enumerate(poses):
            quat = UnitQuaternion(sigma, u[k])
            want = RelativePose(R=Rs[k], t=ts[k], quat=quat, depths=(2.0 * k, 2.0 * k + 1),
                                cheiral_count=k + 1, root_count=7)
            assert np.array_equal(pose.R, want.R) and np.array_equal(pose.t, want.t)
            assert pose.quat.sigma == sigma and np.array_equal(pose.quat.u, quat.u)
            assert (pose.cheiral_count, pose.root_count) == (want.cheiral_count, want.root_count)
            assert type(pose.cheiral_count) is int
            assert pose.depths == want.depths and type(pose.depths) is tuple
            assert pose.cheirality_tie is False
            assert np.array_equal(answer.poses(k, k + 1)[0].R, Rs[k])

    def test_a_row_range_is_those_rows_bit_for_bit(self):
        sigma, u, Rs, ts = self.stack()
        answer = SamplePoses(Rs, ts, sigma, u, [0, 5], {"root_count": np.arange(5)})
        rows = answer.poses(1, 3)
        assert [p.root_count for p in rows] == [1, 2]
        assert all(type(p.root_count) is int for p in rows)
        for k, pose in enumerate(rows, 1):
            assert np.array_equal(pose.R, Rs[k]) and np.shares_memory(pose.R, Rs)
            assert np.array_equal(pose.t, ts[k]) and np.array_equal(pose.quat.u, u[k])
        assert answer.poses(5) == [] and len(answer.poses(3)) == 2

    @pytest.mark.parametrize(
        "bad", [np.diag([1.0, 1.0, -1.0]), 1.001 * np.eye(3), np.full((3, 3), np.nan)]
    )
    def test_one_bad_rotation(self, bad):
        sigma, u, Rs, ts = self.stack()
        Rs[3] = bad
        want = message(RelativePose, R=bad, t=ts[3], quat=UnitQuaternion(sigma, u[3]))
        got = message(SamplePoses, Rs, ts, sigma, u, [0, 5], {})
        assert got == want == "R is not a rotation matrix"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_one_bad_translation(self, bad):
        sigma, u, Rs, ts = self.stack()
        ts[2, 1] = bad
        want = message(RelativePose, R=Rs[2], t=ts[2], quat=UnitQuaternion(sigma, u[2]))
        assert message(SamplePoses, Rs, ts, sigma, u, [0, 5], {}) == want

    def test_the_first_bad_pose_is_reported(self):
        sigma, u, Rs, ts = self.stack()
        ts[1, 0] = np.nan
        Rs[3] = 2.0 * np.eye(3)
        assert message(SamplePoses, Rs, ts, sigma, u, [0, 5], {}) == message(
            RelativePose, R=Rs[1], t=ts[1], quat=UnitQuaternion(sigma, u[1])
        )

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, np.nan])
    def test_one_bad_quaternion(self, scale):
        sigma, u, _, _ = self.stack(n=4, seed=4)
        check_unit_quaternions(sigma, u)
        u[2] *= scale
        assert message(check_unit_quaternions, sigma, u) == message(UnitQuaternion, sigma, u[2])

    def test_negative_scalar_part(self):
        u = np.zeros((2, 3))
        assert message(check_unit_quaternions, -1.0, u) == message(UnitQuaternion, -1.0, u[0])
