import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import relpose.robust as robust
from relpose.exceptions import NoHypothesis
from relpose.gbsolver import SamplePoses
from relpose.geom import rotation_angle
from relpose.robust import (
    DEFAULT_POINT_RAY_THRESHOLD,
    RansacConfig,
    ransac_estimate,
    sampson_threshold_from_pixels,
)
from relpose.solver_reg4 import sampson_errors
from relpose.synth import (
    SceneConfig,
    _corrupt,
    add_image_noise,
    generate_scene,
    rotation_error,
    run_ransac_trials,
    run_trials,
    summarize,
)
from reference_gen5 import loop_ray_point_errors


def one_pose_each(pose, samples):
    """A stacked solve's answer with the one ``pose`` for every sample."""
    k = len(samples)
    return SamplePoses(np.repeat(pose.R[None], k, 0), np.repeat(pose.t[None], k, 0),
                       pose.quat.sigma, np.repeat(pose.quat.u[None], k, 0),
                       list(range(k + 1)), {})


def gen5_frame_pair(seed, n_obs=100):
    """A generalized frame pair with 0.5 px noise and 30% outliers."""
    cfg = SceneConfig(seed=seed, generalized=True)
    rng = np.random.default_rng(seed)
    truth, pairs = generate_scene(cfg, n_obs, rng=rng)
    observed, _ = _corrupt(add_image_noise(pairs, 0.5, cfg, rng), cfg, 0.3, rng)
    return observed, rotation_angle(truth.R)


def gen5_cfg(seed):
    return RansacConfig(max_iterations=200, inlier_threshold=DEFAULT_POINT_RAY_THRESHOLD, seed=seed)


def assert_same_result(r1, r2):
    assert np.array_equal(r1.pose.R, r2.pose.R)
    assert np.array_equal(r1.pose.t, r2.pose.t)
    assert np.array_equal(r1.inlier_mask, r2.inlier_mask)
    assert r1.iterations == r2.iterations
    assert r1.n_hypotheses == r2.n_hypotheses


def default_cfg(seed=0, **kw):
    scene = SceneConfig(seed=seed)
    kw.setdefault("inlier_threshold", sampson_threshold_from_pixels(1.5, scene.focal_px))
    kw.setdefault("max_iterations", 500)
    return RansacConfig(seed=seed, **kw)


class TestRansacConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=1.0, confidence=1.0)
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=1.0, max_iterations=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(4.0), "5", None, True])
    def test_rejects_non_integer_iterations(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            RansacConfig(inlier_threshold=1.0, max_iterations=value)

    @pytest.mark.parametrize("value", [1, 7, np.int32(7), np.int64(7)])
    def test_accepts_integer_iterations(self, value):
        assert RansacConfig(inlier_threshold=1.0, max_iterations=value).max_iterations == value

    @pytest.mark.parametrize("value", [1.5, 2.0, -1, np.int64(-3), "1", True, False])
    def test_rejects_a_seed_that_numpy_refuses(self, value):
        # These used to construct and then fail in the run, or in SeedSequence;
        # a bool seeded the run as 0 or 1.
        message = f"^seed must be None or an integer >= 0, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            RansacConfig(inlier_threshold=1.0, seed=value)

    @pytest.mark.parametrize("value", [None, 0, 7, np.int32(7), np.uint64(2**63)])
    def test_none_and_non_negative_integer_seeds_run(self, value):
        truth, pairs = generate_scene(SceneConfig(seed=1), 30)
        cfg = default_cfg(seed=value, max_iterations=3)
        result = ransac_estimate(pairs, rotation_angle(truth.R), cfg, "reg4")
        assert 1 <= result.iterations <= 3

    def test_numpy_integer_iterations_run(self):
        truth, pairs = generate_scene(SceneConfig(seed=1), 30)
        cfg = default_cfg(seed=1, max_iterations=np.int64(3))
        result = ransac_estimate(pairs, rotation_angle(truth.R), cfg, "reg4")
        assert 1 <= result.iterations <= 3


class TestRansacEstimate:
    def test_all_inliers_zero_noise(self):
        truth, pairs = generate_scene(SceneConfig(seed=1), 100)
        theta = rotation_angle(truth.R)
        result = ransac_estimate(pairs, theta, default_cfg(seed=1), "reg4")
        assert result.inlier_count == 100
        assert rotation_error([result.pose], truth.R) < 1e-6

    def test_winning_pose_scores_every_observation(self):
        truth, pairs = generate_scene(SceneConfig(seed=2), 60)
        theta = rotation_angle(truth.R)
        cfg = default_cfg(seed=2)
        result = ransac_estimate(pairs, theta, cfg, "reg4")
        q1s = np.array([p.q1 for p in pairs])
        q2s = np.array([p.q2 for p in pairs])
        errs = sampson_errors(result.pose.R, result.pose.t, q1s, q2s)
        assert np.all(errs < cfg.inlier_threshold)

    def test_too_few_observations(self):
        truth, pairs = generate_scene(SceneConfig(seed=3), 4)
        with pytest.raises(ValueError):
            ransac_estimate(pairs[:3], 0.5, default_cfg(), "reg4")

    def test_deterministic(self):
        truth, pairs = generate_scene(SceneConfig(seed=4), 50)
        theta = rotation_angle(truth.R)
        r1 = ransac_estimate(pairs, theta, default_cfg(seed=4), "reg4")
        r2 = ransac_estimate(pairs, theta, default_cfg(seed=4), "reg4")
        assert np.array_equal(r1.pose.R, r2.pose.R)
        assert np.array_equal(r1.inlier_mask, r2.inlier_mask)
        assert r1.iterations == r2.iterations

    def test_deterministic_gen5(self):
        observed, theta = gen5_frame_pair(11)
        r1 = ransac_estimate(observed, theta, gen5_cfg(11), "gen5")
        r2 = ransac_estimate(observed, theta, gen5_cfg(11), "gen5")
        assert_same_result(r1, r2)

    @pytest.mark.parametrize("seed", range(12, 24))
    def test_gen5_loop_scorer_gives_same_result(self, monkeypatch, seed):
        # RANSAC scored by the per-pair loop reference, which gathers its rays
        # from the observations on every call and triangulates with a 3x3
        # solve, picks the same consensus as the closed-form scorer.
        observed, theta = gen5_frame_pair(seed)
        fast = ransac_estimate(observed, theta, gen5_cfg(seed), "gen5")
        monkeypatch.setattr(
            robust,
            "ray_point_errors",
            lambda Rs, ts, *rays: np.array(
                [loop_ray_point_errors(SimpleNamespace(R=R, t=t), observed) for R, t in zip(Rs, ts)]
            ),
        )
        slow = ransac_estimate(observed, theta, gen5_cfg(seed), "gen5")
        assert_same_result(fast, slow)

    def test_tiny_inlier_ratio_runs_to_the_iteration_cap(self, monkeypatch):
        # With 1 inlier in 20 000, w**4 = 6.25e-18 and 1 - w**4 rounds to 1,
        # so the stopping bound must not divide by log(1 - w**4) = 0.
        n = 20_000
        truth, pairs = generate_scene(SceneConfig(seed=7), 4)
        errors = np.ones(n)
        errors[17] = 0.0
        monkeypatch.setattr(
            robust, "solve_4pt_angle", lambda pairs, theta, samples: one_pose_each(truth, samples)
        )
        monkeypatch.setattr(
            robust, "sampson_errors", lambda Rs, ts, q1, q2: np.tile(errors, (len(Rs), 1))
        )
        cfg = RansacConfig(max_iterations=5, inlier_threshold=0.5, seed=0)
        result = ransac_estimate(pairs[:1] * n, 0.5, cfg, "reg4")
        assert result.iterations == 5
        assert np.flatnonzero(result.inlier_mask).tolist() == [17]

    def test_trace_monotone(self):
        truth, pairs = generate_scene(SceneConfig(seed=5), 60)
        theta = rotation_angle(truth.R)
        cfg = default_cfg(seed=5)
        result = ransac_estimate(pairs, theta, cfg, "reg4")
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) >= 0)
        assert result.inlier_count == trace[-1]

    def test_unknown_kind(self):
        truth, pairs = generate_scene(SceneConfig(seed=6), 10)
        with pytest.raises(ValueError):
            ransac_estimate(pairs, 0.5, default_cfg(), "pnp")


class TestContaminatedProtocol:
    def test_moderate_noise_recall(self):
        # 100 observations, 30% outliers, moderate image noise: at least 65 of
        # the 70 true inliers recovered in at least 95% of 100 runs.
        scene = SceneConfig(seed=7)
        cfg = RansacConfig(
            max_iterations=500,
            inlier_threshold=sampson_threshold_from_pixels(1.5, scene.focal_px),
            seed=7,
        )
        records = run_ransac_trials("reg4", scene, cfg, 100, 100, 0.3, noise_px=0.25)
        good = sum(1 for r in records if not r.failure and r.recall * 70 >= 65)
        assert good >= 95

    def test_high_outlier_rate_reports_failures_without_crash(self):
        scene = SceneConfig(seed=8)
        cfg = RansacConfig(
            max_iterations=3,
            inlier_threshold=sampson_threshold_from_pixels(1.5, scene.focal_px),
            seed=8,
        )
        records = run_ransac_trials("reg4", scene, cfg, 10, 20, 0.9)
        summary = summarize(records)
        assert 0 <= sum(summary["failures"].values()) <= len(records)

    def test_a_failing_trial_records_its_class_name(self):
        # One sample per run: trial 4 of this seed draws one that yields no pose.
        cfg = RansacConfig(max_iterations=1, inlier_threshold=1e-4, seed=0)
        records = run_ransac_trials("reg4", SceneConfig(seed=2), cfg, 5, 20, 0.9)
        assert [r.failure for r in records] == ["", "", "", "", "NoHypothesis"]
        failed = records[4]
        assert failed.rot_err == failed.t_ang_err_deg == math.inf
        assert all(math.isnan(getattr(failed, f))
                   for f in ("inlier_count", "recall", "precision", "iterations"))
        assert all(r.iterations == 1 and math.isnan(r.n_poses) for r in records[:4])
        assert summarize(records)["failures"] == {"NoHypothesis": 1}

    def test_zero_outlier_fraction_matches_minimal_solving(self):
        scene = SceneConfig(seed=10)
        cfg = default_cfg(seed=10)
        ransac = summarize(run_ransac_trials("reg4", scene, cfg, 15, 30, 0.0))
        minimal = summarize(run_trials("reg4", scene, 15))
        # both pipelines recover noise-free poses to solver accuracy
        assert ransac["rot_err"]["mean"] < 1e-6
        assert minimal["rot_err"]["median"] < 1e-6

    @pytest.mark.parametrize("n_trials", [2.5, 3.0, "3", True])
    def test_trial_count_must_be_an_integer(self, n_trials):
        cfg = default_cfg(seed=11)
        with pytest.raises(ValueError, match="n_trials must be an integer"):
            run_trials("reg4", SceneConfig(), n_trials)
        with pytest.raises(ValueError, match="n_trials must be an integer"):
            run_ransac_trials("reg4", SceneConfig(), cfg, n_trials, 30, 0.3)

    def test_gen5_zero_noise(self):
        scene = SceneConfig(seed=9)
        cfg = RansacConfig(max_iterations=200, inlier_threshold=1e-4, seed=9)
        records = run_ransac_trials("gen5", scene, cfg, 3, 60, 0.3)
        summary = summarize(records)
        assert summary["failures"] == {}
        assert summary["recall"]["mean"] > 0.95
        assert summary["rot_err"]["mean"] < 1e-5
