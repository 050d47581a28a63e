import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from relpose.exceptions import DegenerateConfiguration, EmptyCandidates, RetryExhausted
from relpose.geom import (
    PluckerPair,
    RelativePose,
    UnitQuaternion,
    quat_to_rotation,
    rotation_angle,
)
from relpose.solver_reg4 import solve_4pt_angle
from relpose.synth import (
    SceneConfig,
    TrialRecord,
    _corrupt,
    add_angle_noise,
    add_image_noise,
    generate_scene,
    rotation_error,
    run_trials,
    summarize,
    translation_errors,
    trial_inputs,
)
from reference_geom import epipolar_residual, generalized_epipolar_residual, quat_from_rotation


class TestSceneConfig:
    def test_focal_length(self):
        assert SceneConfig().focal_px == pytest.approx(651.25, abs=0.01)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            SceneConfig(baseline=0.0)

    def test_rejects_unknown_motion(self):
        with pytest.raises(ValueError):
            SceneConfig(motion="diagonal")

    @pytest.mark.parametrize("value", [1.5, 2.0, -1, np.int64(-3), "1", True, False])
    def test_rejects_a_seed_that_numpy_refuses(self, value):
        # These used to construct and then fail in generate_scene; a bool
        # seeded the scene as 0 or 1.
        message = f"^seed must be None or an integer >= 0, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SceneConfig(seed=value)

    @pytest.mark.parametrize("value", [None, 0, 7, np.int32(7), np.uint64(2**63)])
    def test_none_and_non_negative_integer_seeds_draw_a_scene(self, value):
        truth, pairs = generate_scene(SceneConfig(seed=value), 5)
        assert len(pairs) == 5
        if value is not None:
            again, _ = generate_scene(SceneConfig(seed=int(value)), 5)
            assert np.array_equal(truth.R, again.R) and np.array_equal(truth.t, again.t)


class TestGenerateScene:
    def test_regular_correspondences_consistent(self):
        truth, pairs = generate_scene(SceneConfig(seed=0), 10)
        for pair in pairs:
            assert abs(epipolar_residual(truth, pair)) < 1e-12

    def test_plucker_incidence(self):
        truth, pairs = generate_scene(SceneConfig(seed=1, generalized=True), 10)
        for pair in pairs:
            assert abs(pair.q1 @ pair.m1) < 1e-12
            assert abs(pair.q2 @ pair.m2) < 1e-12
            assert abs(generalized_epipolar_residual(truth, pair)) < 1e-10

    def test_per_ray_centers_within_radius(self):
        cfg = SceneConfig(seed=2, generalized=True)
        truth, pairs = generate_scene(cfg, 20)
        for pair in pairs:
            assert np.linalg.norm(np.cross(pair.m1, pair.q1)) <= cfg.multi_center_radius + 1e-12
            assert np.linalg.norm(np.cross(pair.m2, pair.q2)) <= cfg.multi_center_radius + 1e-12

    def test_same_seed_identical(self):
        t1, p1 = generate_scene(SceneConfig(seed=3), 6)
        t2, p2 = generate_scene(SceneConfig(seed=3), 6)
        assert np.array_equal(t1.R, t2.R) and np.array_equal(t1.t, t2.t)
        for a, b in zip(p1, p2):
            assert np.array_equal(a.q1, b.q1) and np.array_equal(a.q2, b.q2)

    def test_baseline_norm(self):
        for motion in ("forward", "sideways"):
            truth, _ = generate_scene(SceneConfig(seed=4, motion=motion), 4)
            assert np.linalg.norm(truth.t) == pytest.approx(0.1, abs=1e-12)

    def test_fixed_theta(self):
        from relpose.geom import rotation_angle

        truth, _ = generate_scene(SceneConfig(seed=5, theta_rad=0.4), 4)
        assert rotation_angle(truth.R) == pytest.approx(0.4, abs=1e-12)

    def test_impossible_visibility_raises(self):
        # camera 2 far ahead of the scene slab: nothing is visible in view 2
        with pytest.raises(RetryExhausted):
            generate_scene(SceneConfig(seed=6, baseline=5.0, theta_rad=0.1), 4)


class TestAddImageNoise:
    def test_zero_sigma_unchanged(self):
        rng = np.random.default_rng(7)
        truth, pairs = generate_scene(SceneConfig(seed=7), 5)
        out = add_image_noise(pairs, 0.0, SceneConfig(seed=7), rng)
        for a, b in zip(out, pairs):
            assert np.array_equal(a.q1, b.q1) and np.array_equal(a.q2, b.q2)

    def test_injected_pixel_std(self):
        cfg = SceneConfig(seed=8)
        rng = np.random.default_rng(8)
        truth, pairs = generate_scene(cfg, 4)
        f = cfg.focal_px
        deltas = []
        base = pairs[0]
        px0 = np.array([f * base.q1[0] / base.q1[2], f * base.q1[1] / base.q1[2]])
        for _ in range(50_000):
            noisy = add_image_noise([base], 1.0, cfg, rng)[0]
            px = np.array([f * noisy.q1[0] / noisy.q1[2], f * noisy.q1[1] / noisy.q1[2]])
            deltas.extend(px - px0)
        assert 0.97 <= np.std(deltas) <= 1.03

    def test_directions_stay_unit(self):
        cfg = SceneConfig(seed=9)
        rng = np.random.default_rng(9)
        truth, pairs = generate_scene(cfg, 10)
        for pair in add_image_noise(pairs, 2.0, cfg, rng):
            assert abs(pair.q1 @ pair.q1 - 1.0) < 1e-15
            assert abs(pair.q2 @ pair.q2 - 1.0) < 1e-15

    def test_plucker_incidence_preserved_exactly(self):
        cfg = SceneConfig(seed=10, generalized=True)
        rng = np.random.default_rng(10)
        truth, pairs = generate_scene(cfg, 10)
        for pair in add_image_noise(pairs, 1.5, cfg, rng):
            assert abs(pair.q1 @ pair.m1) < 1e-15
            assert abs(pair.q2 @ pair.m2) < 1e-15

    def test_anchor_point_held_fixed(self):
        cfg = SceneConfig(seed=11, generalized=True)
        rng = np.random.default_rng(11)
        truth, pairs = generate_scene(cfg, 5)
        noisy = add_image_noise(pairs, 1.0, cfg, rng)
        for a, b in zip(pairs, noisy):
            o_before = np.cross(a.m1, a.q1)
            o_after = np.cross(b.m1, b.q1)
            # the new closest point is the projection of the old anchor
            assert np.linalg.norm(o_after - (o_before - (b.q1 @ o_before) * b.q1)) < 1e-12


class TestAddAngleNoise:
    def test_zero_sigma(self):
        rng = np.random.default_rng(12)
        assert add_angle_noise(0.7, 0.0, rng) == 0.7

    def test_zero_theta(self):
        rng = np.random.default_rng(13)
        assert add_angle_noise(0.0, 0.5, rng) == 0.0

    def test_relative_std(self):
        rng = np.random.default_rng(14)
        theta = 0.6
        draws = np.array([add_angle_noise(theta, 0.05, rng) for _ in range(100_000)])
        rel = (draws - theta) / theta
        assert 0.049 <= np.std(rel) <= 0.051

    def test_clamped_to_domain(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            v = add_angle_noise(3.0, 0.5, rng)
            assert 0.0 <= v < math.pi


def pose_of(R, t):
    return RelativePose(R=R, t=np.asarray(t, dtype=float), quat=quat_from_rotation(R))


class TestErrorMetrics:
    def test_exact_candidate_gives_zero(self):
        truth, _ = generate_scene(SceneConfig(seed=16), 4)
        assert rotation_error([truth], truth.R) == 0.0
        ang, scale = translation_errors([truth], truth.t)
        assert ang == 0.0 and scale == 0.0

    def test_small_rotation_frobenius_relation(self):
        delta = 1e-3
        axis = np.array([0.0, 0.0, 1.0])
        R = quat_to_rotation(UnitQuaternion(math.cos(delta / 2), math.sin(delta / 2) * axis))
        err = rotation_error([pose_of(R, [0, 0, 1.0])], np.eye(3))
        assert err == pytest.approx(2 * math.sqrt(2) * math.sin(delta / 2), rel=1e-9)

    def test_min_is_monotone_in_candidates(self):
        truth, _ = generate_scene(SceneConfig(seed=17), 4)
        far = pose_of(np.eye(3), [1.0, 0, 0])
        base = rotation_error([truth], truth.R)
        assert rotation_error([truth, far], truth.R) == base

    def test_opposite_translation_is_180(self):
        truth, _ = generate_scene(SceneConfig(seed=18), 4)
        flipped = pose_of(truth.R, -truth.t)
        ang, _ = translation_errors([flipped], truth.t)
        assert ang == pytest.approx(180.0)

    def test_double_translation_scale_error(self):
        truth, _ = generate_scene(SceneConfig(seed=19), 4)
        doubled = pose_of(truth.R, 2.0 * truth.t)
        ang, scale = translation_errors([doubled], truth.t)
        assert ang == pytest.approx(0.0, abs=1e-12)
        assert scale == pytest.approx(1.0)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            rotation_error([], np.eye(3))
        with pytest.raises(EmptyCandidates):
            translation_errors([], np.array([0.0, 0, 1]))


class TestCorrupt:
    @pytest.mark.parametrize("generalized", [False, True])
    @pytest.mark.parametrize("fraction", [0.0, 0.01])
    def test_no_outlier_draws_nothing(self, generalized, fraction):
        # 1% of 30 rounds to no outlier.  The benchmark harnesses share one
        # trial loop, which contaminates at fraction 0 for minimal trials.
        cfg = SceneConfig(seed=2, generalized=generalized)
        _, pairs = generate_scene(cfg, 30)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        out, inliers = _corrupt(pairs, cfg, fraction, rng)
        assert out is not pairs and len(out) == 30
        assert all(a is b for a, b in zip(out, pairs))
        assert inliers.dtype == bool and inliers.shape == (30,) and inliers.all()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("generalized", [False, True])
    def test_outliers_replace_only_second_view_rays(self, generalized):
        cfg = SceneConfig(seed=3, generalized=generalized)
        _, pairs = generate_scene(cfg, 40)
        out, inliers = _corrupt(pairs, cfg, 0.3, np.random.default_rng(3))
        assert np.count_nonzero(~inliers) == 12
        for a, b, kept in zip(pairs, out, inliers):
            assert (a is b) == kept and np.array_equal(a.q1, b.q1)
            if generalized:
                assert np.array_equal(a.m1, b.m1)
            assert kept or not np.array_equal(a.q2, b.q2)


class TestTrialInputs:
    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    def test_draw_order(self, solver):
        # Per trial: scene, image noise, outliers, angle noise, then the
        # caller's own draws.
        cfg = SceneConfig(seed=4)
        got = list(trial_inputs(solver, cfg, 3, 30, 0.5, 0.01, 0.3))
        base = replace(cfg, generalized=solver == "gen5")
        assert len(got) == 3
        for child, (rng, truth, observed, inliers, theta_in) in zip(
            np.random.SeedSequence(4).spawn(3), got
        ):
            mine = np.random.default_rng(child)
            want, pairs = generate_scene(base, 30, rng=mine)
            noisy = add_image_noise(pairs, 0.5, base, mine)
            want_observed, want_inliers = _corrupt(noisy, base, 0.3, mine)
            assert np.array_equal(truth.R, want.R) and np.array_equal(truth.t, want.t)
            assert all(np.array_equal(a.q2, b.q2) for a, b in zip(observed, want_observed))
            assert np.array_equal(inliers, want_inliers)
            assert theta_in == add_angle_noise(rotation_angle(want.R), 0.01, mine)
            assert rng.integers(0, 2**63 - 1) == mine.integers(0, 2**63 - 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("sfm", 3, 0.0), "unknown solver 'sfm'"),
            (("reg4", 0, 0.0), "n_trials must be at least 1, got 0"),
            (("reg4", 3, 1.0), "outlier_frac must lie in [0, 1), got 1.0"),
        ],
        ids=["solver", "n_trials", "outlier_frac"],
    )
    def test_rejects_bad_arguments(self, args, message):
        solver, n_trials, outlier_frac = args
        with pytest.raises(ValueError) as info:
            next(trial_inputs(solver, SceneConfig(), n_trials, 30, 0.0, 0.0, outlier_frac))
        assert str(info.value) == message


class TestHarness:
    def test_records_and_summary(self):
        recs = run_trials("reg4", SceneConfig(seed=20), 20)
        assert len(recs) == 20
        assert all(r.rot_err >= 0 and r.t_ang_err_deg >= 0 for r in recs)
        summary = summarize(recs)
        assert summary["rot_err"]["median"] < 1e-8
        assert summary["rot_err"]["lq"] <= summary["rot_err"]["median"] <= summary["rot_err"]["uq"]

    def test_summary_ranks_only_finite_errors(self):
        # Failed trials carry +inf errors: they are counted by reason and
        # kept out of the quartiles and means, which then raise no warning.
        inf = math.inf
        recs = [
            TrialRecord(0, 0.5, 1e-9, 0.1, math.nan, 1.0, root_count=4, n_poses=2),
            TrialRecord(1, 0.5, 3e-9, 0.3, math.nan, 1.0, root_count=4, n_poses=2),
            TrialRecord(2, 0.5, inf, inf, inf, 1.0, "DegenerateConfiguration"),
            TrialRecord(3, 0.5, inf, inf, inf, 1.0, "DegenerateConfiguration"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize(recs)
        assert summary["rot_err"] == pytest.approx(
            {"lq": 1.5e-9, "median": 2e-9, "uq": 2.5e-9, "mean": 2e-9})
        assert summary["t_ang_err_deg"]["median"] == pytest.approx(0.2)
        assert all(math.isnan(v) for v in summary["scale_rel_err"].values())
        assert all(math.isnan(v) for v in summary["recall"].values())
        assert summary["failures"] == {"DegenerateConfiguration": 2}

    def test_a_failing_trial_records_its_class_name(self):
        # Trials 6 and 9 of this seed raise DegenerateConfiguration.
        cfg = SceneConfig(seed=5)
        recs = run_trials("reg4", cfg, 10, noise_px=0.5)
        assert [r.trial for r in recs if r.failure] == [6, 9]
        inputs = list(trial_inputs("reg4", cfg, 10, 4, 0.5, 0.0))
        for r in recs:
            _, _, observed, _, theta_in = inputs[r.trial]
            if r.failure:
                with pytest.raises(DegenerateConfiguration):
                    solve_4pt_angle(observed, theta_in)
                assert r.failure == "DegenerateConfiguration"
                assert r.rot_err == r.t_ang_err_deg == math.inf
                assert math.isnan(r.root_count) and math.isnan(r.n_poses)
            else:
                assert r.n_poses == len(solve_4pt_angle(observed, theta_in)) >= 1
        assert summarize(recs)["failures"] == {"DegenerateConfiguration": 2}

    def test_deterministic_given_seed(self):
        a = run_trials("reg4", SceneConfig(seed=21), 5)
        b = run_trials("reg4", SceneConfig(seed=21), 5)
        assert [r.rot_err for r in a] == [r.rot_err for r in b]

    def test_gen5_records_scale(self):
        recs = run_trials("gen5", SceneConfig(seed=22), 5)
        assert all(math.isfinite(r.scale_rel_err) for r in recs)

    def test_reg4_scale_is_nan(self):
        recs = run_trials("reg4", SceneConfig(seed=23), 3)
        assert all(math.isnan(r.scale_rel_err) for r in recs)
