"""``solver_reg4.epipolar_step``, the Gauss-Newton step that a reg4 RANSAC
round takes on its best hypothesis, and what it does to a RANSAC run."""

import math
import warnings

import numpy as np
import pytest

import relpose.robust as robust
from relpose.gbsolver import SamplePoses
from relpose.geom import check_unit_quaternions, rotation_angle, rotation_stack, sigma_from_angle
from relpose.robust import RansacConfig, ransac_estimate, sampson_threshold_from_pixels
from relpose.solver_reg4 import epipolar_step
from relpose.synth import SceneConfig, _corrupt, add_image_noise, generate_scene

SEEDS = range(8)


def noise_free(seed, n_obs=40):
    """The true pose, unit translation, and noise-free bearing rows."""
    truth, pairs = generate_scene(SceneConfig(seed=seed), n_obs)
    q1s, q2s = (np.array([getattr(p, name) for p in pairs]) for name in ("q1", "q2"))
    return truth.R, truth.t / np.linalg.norm(truth.t), truth.quat, q1s, q2s


def cost(R, t, q1s, q2s):
    """Sum of the squared algebraic residuals ``t . (R q1 x q2)``."""
    return float(np.sum((np.cross(q1s @ R.T, q2s) @ t) ** 2))


def tilted(u, degrees):
    """``u`` turned by ``degrees`` about an axis perpendicular to it: the
    same rotation angle, another axis."""
    axis = np.cross(u, [1.0, 0.0, 0.0])
    axis /= np.linalg.norm(axis)
    a = math.radians(degrees)
    return u * math.cos(a) + np.cross(axis, u) * math.sin(a)


@pytest.mark.parametrize("seed", SEEDS)
def test_from_the_true_pose_the_step_stays(seed):
    R, t, quat, q1s, q2s = noise_free(seed)
    R1, t1, _ = epipolar_step(R, t, quat.sigma, quat.u, q1s, q2s)
    assert np.max(np.abs(R1 - R)) <= 1e-12
    assert np.max(np.abs(t1 - t)) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_from_a_tilted_pose_the_step_lowers_the_cost(seed):
    R, t, quat, q1s, q2s = noise_free(seed)
    u0 = tilted(quat.u, 0.5)
    R0 = rotation_stack(quat.sigma, u0[None])[0]
    R1, t1, u1 = epipolar_step(R0, t, quat.sigma, u0, q1s, q2s)
    assert cost(R1, t1, q1s, q2s) < cost(R0, t, q1s, q2s)
    assert np.max(np.abs(R1 - R)) < np.max(np.abs(R0 - R))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_step_keeps_the_angle_and_a_unit_translation(seed):
    R, t, quat, q1s, q2s = noise_free(seed)
    u0 = tilted(quat.u, 0.5)
    R1, t1, u1 = epipolar_step(rotation_stack(quat.sigma, u0[None])[0], t, quat.sigma, u0, q1s, q2s)
    check_unit_quaternions(quat.sigma, u1[None])
    assert abs(t1 @ t1 - 1.0) <= 1e-15
    assert np.array_equal(R1, rotation_stack(quat.sigma, u1[None])[0])
    assert rotation_angle(R1) == pytest.approx(rotation_angle(R), abs=1e-7)


def test_a_consensus_no_larger_than_a_sample_takes_no_step():
    R, t, quat, q1s, q2s = noise_free(0)
    for n in range(5):
        assert epipolar_step(R, t, quat.sigma, quat.u, q1s[:n], q2s[:n]) is None
    assert epipolar_step(R, t, quat.sigma, quat.u, q1s[:5], q2s[:5]) is not None


@pytest.mark.parametrize(
    "spoil", ["zero-rays", "nan-ray", "inf-ray", "zero-angle", *(f"one-pair-{s}" for s in range(10))]
)
def test_a_singular_or_non_finite_system_takes_no_step_silently(spoil):
    R, t, quat, q1s, q2s = noise_free(1)
    sigma, u = quat.sigma, quat.u
    rays = [(q1s, q2s)]
    if spoil == "zero-rays":
        # Every residual and derivative is 0: the normal system is 0.
        q1s[:] = 0.0
    elif spoil == "nan-ray":
        q1s[3] = np.nan
    elif spoil == "inf-ray":
        q2s[7, 1] = np.inf
    elif spoil == "zero-angle":
        # At a zero angle u = 0 has no tangent directions.
        R, sigma, u = np.eye(3), sigma_from_angle(0.0).sigma, np.zeros(3)
    else:
        # Ten copies of one pair fix one direction of four: the system is
        # singular only up to rounding, and a solve of it is finite but
        # turns R by up to 27 degrees and t by up to 89 degrees.  Each of
        # the first ten pairs of a scene, from a pose 0.57 degrees off.
        _, t, quat, q1s, q2s = noise_free(int(spoil[-1]), n_obs=12)
        u = tilted(quat.u, 0.57)
        R = rotation_stack(sigma, u[None])[0]
        rays = [(np.tile(q1, (10, 1)), np.tile(q2, (10, 1))) for q1, q2 in zip(q1s[:10], q2s[:10])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q1s, q2s in rays:
            assert epipolar_step(R, t, sigma, u, q1s, q2s) is None


def frame_pair(seed, n_obs=100):
    """Central observations with 0.5 px noise and 30% outliers, the
    angle, and a RANSAC configuration."""
    cfg = SceneConfig(seed=seed)
    rng = np.random.default_rng(seed)
    truth, pairs = generate_scene(cfg, n_obs, rng=rng)
    observed, _ = _corrupt(add_image_noise(pairs, 0.5, cfg, rng), cfg, 0.3, rng)
    threshold = sampson_threshold_from_pixels(1.5, cfg.focal_px)
    return observed, rotation_angle(truth.R), RansacConfig(inlier_threshold=threshold, seed=seed)


def test_the_step_finds_more_inliers_in_fewer_iterations(monkeypatch):
    # Over 20 frame pairs, against the same runs without the step.
    stepped = [ransac_estimate(*frame_pair(seed), "reg4") for seed in range(20)]
    monkeypatch.setattr(robust, "epipolar_step", lambda *args: None)
    plain = [ransac_estimate(*frame_pair(seed), "reg4") for seed in range(20)]
    assert sum(r.inlier_count for r in stepped) > sum(r.inlier_count for r in plain)
    assert sum(r.iterations for r in stepped) < sum(r.iterations for r in plain)


def test_a_round_steps_once_at_most_after_its_solve(monkeypatch):
    steps, rounds = [], []
    original_step, original_solve = robust.epipolar_step, robust.solve_4pt_angle

    def step(*args):
        steps.append(len(rounds))
        return original_step(*args)

    def solve(pairs, theta, *, samples):
        rounds.append(len(samples))
        return original_solve(pairs, theta, samples=samples)

    monkeypatch.setattr(robust, "epipolar_step", step)
    monkeypatch.setattr(robust, "solve_4pt_angle", solve)
    for seed in range(10):
        steps.clear()
        rounds.clear()
        observed, theta, cfg = frame_pair(seed)
        result = ransac_estimate(observed, theta, cfg, "reg4")
        # The first round raises the count from nothing.
        assert steps[0] == 1 and steps == sorted(set(steps))
        assert len(steps) <= len(rounds)
        # A stepped winner keeps the angle and its hypothesis's diagnostics.
        assert rotation_angle(result.pose.R) == pytest.approx(theta, abs=1e-9)
        assert result.pose.quat.sigma == sigma_from_angle(theta).sigma
        assert result.pose.root_count > 0 and result.pose.cheiral_count > 0


def test_gen5_takes_no_step(monkeypatch):
    def step(*args):
        raise AssertionError("gen5 RANSAC called the reg4 step")

    monkeypatch.setattr(robust, "epipolar_step", step)
    cfg = SceneConfig(seed=3, generalized=True)
    rng = np.random.default_rng(3)
    truth, pairs = generate_scene(cfg, 60, rng=rng)
    observed, _ = _corrupt(add_image_noise(pairs, 0.5, cfg, rng), cfg, 0.3, rng)
    cfg = RansacConfig(inlier_threshold=robust.DEFAULT_POINT_RAY_THRESHOLD, seed=3)
    ransac_estimate(observed, rotation_angle(truth.R), cfg, "gen5")


def test_a_stepped_count_sizes_the_next_round(monkeypatch):
    # Every hypothesis counts 50 of 100 inliers, for which the bound asks
    # for 71.4 samples; the step of the first round reaches all 100, for
    # which it asks for none, so the run ends with that round.
    truth, pairs = generate_scene(SceneConfig(seed=7), 4)
    half = np.r_[np.zeros(50), np.ones(50)]
    solves = []

    def solve(pairs, theta, *, samples):
        solves.append(len(samples))
        k = len(samples)
        return SamplePoses(np.repeat(truth.R[None], k, 0), np.repeat(truth.t[None], k, 0),
                           truth.quat.sigma, np.repeat(truth.quat.u[None], k, 0),
                           list(range(k + 1)), {})

    def score(R, t, q1, q2):
        # The stack of hypotheses, or the one stepped pose.
        return np.tile(half, (len(R), 1)) if R.ndim == 3 else np.zeros(100)

    monkeypatch.setattr(robust, "solve_4pt_angle", solve)
    monkeypatch.setattr(robust, "sampson_errors", score)
    monkeypatch.setattr(robust, "epipolar_step", lambda *args: (truth.R, truth.t, truth.quat.u))
    result = ransac_estimate(pairs[:1] * 100, 0.5, RansacConfig(inlier_threshold=0.5, seed=0), "reg4")
    assert solves == [8] and result.iterations == 8 and result.n_hypotheses == 8
    assert result.inlier_count == 100
