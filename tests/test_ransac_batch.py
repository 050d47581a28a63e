"""RANSAC solves the samples of a round as one stack and scores all their
poses in one call.  Against the one-sample-at-a-time loop of
``reference_robust`` it must return the same inlier mask, trace, iteration
and hypothesis counts, and the same pose to ``POSE_TOL``."""

import numpy as np
import pytest

import relpose.robust as robust
from reference_robust import loop_ransac_estimate
from relpose import solver_gen5, solver_reg4
from relpose.exceptions import NoHypothesis, ScaleUnobservable
from relpose.gbsolver import GENERAL
from relpose.geom import BearingPair, PluckerPair, rotation_angle
from relpose.robust import (
    BATCH_LIMIT,
    DEFAULT_POINT_RAY_THRESHOLD,
    RansacConfig,
    _corrupt,
    ransac_estimate,
    sampson_threshold_from_pixels,
)
from relpose.synth import SceneConfig, add_image_noise, generate_scene

KINDS = ["reg4", "gen5"]
SEEDS = range(20)
POSE_TOL = 1e-12


def frame_pair(kind, seed, n_obs=100):
    """Observations with 0.5 px noise and 30% outliers, and the angle."""
    cfg = SceneConfig(seed=seed, generalized=kind == "gen5")
    rng = np.random.default_rng(seed)
    truth, pairs = generate_scene(cfg, n_obs, rng=rng)
    observed, _ = _corrupt(add_image_noise(pairs, 0.5, cfg, rng), truth, cfg, 0.3, rng)
    return observed, rotation_angle(truth.R)


def config(kind, seed, **kw):
    if kind == "reg4":
        threshold = sampson_threshold_from_pixels(1.5, SceneConfig().focal_px)
    else:
        threshold = DEFAULT_POINT_RAY_THRESHOLD
    return RansacConfig(inlier_threshold=threshold, seed=seed, **kw)


def assert_same(result, oracle):
    assert np.array_equal(result.inlier_mask, oracle.inlier_mask)
    assert np.array_equal(np.asarray(result.trace), np.asarray(oracle.trace))
    assert result.iterations == oracle.iterations
    assert result.n_hypotheses == oracle.n_hypotheses
    assert np.max(np.abs(result.pose.R - oracle.pose.R)) <= POSE_TOL
    assert np.max(np.abs(result.pose.t - oracle.pose.t)) <= POSE_TOL


def spy_on_rounds(monkeypatch, kind):
    """Record the samples and the pose lists of every stacked solve."""
    name = "solve_4pt_angle" if kind == "reg4" else "solve_gen5pt_angle"
    original = getattr(robust, name)
    rounds = []

    def solve(pairs, theta, *, samples):
        out = original(pairs, theta, samples=samples)
        rounds.append((samples, out))
        return out

    monkeypatch.setattr(robust, name, solve)
    return rounds


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_the_sequential_loop(kind, seed):
    observed, theta = frame_pair(kind, seed)
    cfg = config(kind, seed, keep_trace=True)
    result = ransac_estimate(observed, theta, cfg, kind)
    assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))
    assert len(result.trace) == result.n_hypotheses


@pytest.mark.parametrize("kind", KINDS)
def test_stop_in_the_middle_of_a_round(monkeypatch, kind):
    # Samples drawn past the stop are solved but discarded.
    cut = 0
    for seed in SEEDS:
        observed, theta = frame_pair(kind, seed)
        cfg = config(kind, seed, keep_trace=True)
        with monkeypatch.context() as m:
            rounds = spy_on_rounds(m, kind)
            result = ransac_estimate(observed, theta, cfg, kind)
        assert all(len(samples) <= BATCH_LIMIT for samples, _ in rounds)
        drawn = sum(len(samples) for samples, _ in rounds)
        assert drawn - len(rounds[-1][0]) < result.iterations <= drawn
        cut += result.iterations < drawn
        assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))
    assert cut > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("max_iterations", [1, 3])
def test_fewer_iterations_than_one_round(kind, max_iterations):
    for seed in range(5):
        observed, theta = frame_pair(kind, seed)
        cfg = config(kind, seed, max_iterations=max_iterations, keep_trace=True)
        try:
            oracle = loop_ransac_estimate(observed, theta, cfg, kind)
        except NoHypothesis:
            with pytest.raises(NoHypothesis):
                ransac_estimate(observed, theta, cfg, kind)
            continue
        result = ransac_estimate(observed, theta, cfg, kind)
        assert result.iterations == max_iterations
        assert_same(result, oracle)


@pytest.mark.parametrize("kind", KINDS)
def test_without_trace(kind):
    observed, theta = frame_pair(kind, 3)
    cfg = config(kind, 3)
    result = ransac_estimate(observed, theta, cfg, kind)
    assert result.trace is None
    oracle = loop_ransac_estimate(observed, theta, cfg, kind)
    assert np.array_equal(result.inlier_mask, oracle.inlier_mask)
    assert (result.iterations, result.n_hypotheses) == (oracle.iterations, oracle.n_hypotheses)


@pytest.mark.parametrize("kind", KINDS)
def test_a_degenerate_sample_fails_alone(monkeypatch, kind):
    # Every observation appears five times, so many samples hold coincident
    # rays and raise DegenerateInput inside a round of good samples.
    observed, theta = frame_pair(kind, 7, n_obs=20)
    observed = observed * 5
    cfg = config(kind, 7, keep_trace=True, max_iterations=40)
    with monkeypatch.context() as m:
        rounds = spy_on_rounds(m, kind)
        result = ransac_estimate(observed, theta, cfg, kind)
    assert any(
        any(not poses for poses in out) and any(poses for poses in out) for _, out in rounds
    )
    assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))
    # Each sample of a stack gets the poses it gets alone.
    solve = solver_reg4.solve_4pt_angle if kind == "reg4" else solver_gen5.solve_gen5pt_angle
    samples, out = rounds[0]
    for row, poses in zip(samples, out):
        try:
            alone = solve([observed[i] for i in row], theta)
        except robust.RelposeError:
            assert poses == []
            continue
        assert len(poses) == len(alone)
        for got, want in zip(poses, alone):
            assert np.max(np.abs(got.R - want.R)) <= POSE_TOL
            assert np.max(np.abs(got.t - want.t)) <= POSE_TOL


def test_a_gen5_sample_falls_back_to_the_second_partition(monkeypatch):
    first, second = GENERAL.partitions
    original = solver_gen5.rref_conditioned
    fallbacks = 0
    for seed in SEEDS:
        observed, theta = frame_pair("gen5", seed)
        cfg = config("gen5", seed, keep_trace=True)
        calls = []

        def spy(B, pivots):
            calls.append((len(B), pivots))
            return original(B, pivots)

        with monkeypatch.context() as m:
            m.setattr(solver_gen5, "rref_conditioned", spy)
            result = ransac_estimate(observed, theta, cfg, "gen5")
        fallbacks += sum(1 for _, pivots in calls if pivots == second)
        assert_same(result, loop_ransac_estimate(observed, theta, cfg, "gen5"))
    assert fallbacks > 0


@pytest.mark.parametrize("kind", KINDS)
def test_every_sample_failing_raises_no_hypothesis(kind):
    observed, theta = frame_pair(kind, 2, n_obs=8)
    cfg = config(kind, 2, max_iterations=12)
    same = [observed[0]] * 10
    for estimate in (ransac_estimate, loop_ransac_estimate):
        with pytest.raises(NoHypothesis):
            estimate(same, theta, cfg, kind)


class TestObservationTypes:
    def test_gen5_rejects_bearing_pairs(self):
        observed, theta = frame_pair("reg4", 1, n_obs=20)
        with pytest.raises(ValueError, match="gen5 RANSAC takes PluckerPair observations"):
            ransac_estimate(observed, theta, config("gen5", 1), "gen5")

    def test_reg4_rejects_plucker_pairs(self):
        observed, theta = frame_pair("gen5", 1, n_obs=20)
        with pytest.raises(ValueError, match="reg4 RANSAC takes BearingPair observations"):
            ransac_estimate(observed, theta, config("reg4", 1), "reg4")

    def test_a_mixed_list_is_rejected(self):
        observed, theta = frame_pair("gen5", 1, n_obs=20)
        mixed = observed[:10] + [BearingPair(q1=p.q1, q2=p.q2) for p in observed[10:]]
        with pytest.raises(ValueError, match="PluckerPair"):
            ransac_estimate(mixed, theta, config("gen5", 1), "gen5")


def test_central_observations_raise_before_any_solve(monkeypatch):
    # Without moments no sample carries a translation scale.
    observed, theta = frame_pair("gen5", 4, n_obs=30)
    central = [PluckerPair(q1=p.q1, q2=p.q2, m1=np.zeros(3), m2=np.zeros(3)) for p in observed]
    rounds = spy_on_rounds(monkeypatch, "gen5")
    with pytest.raises(ScaleUnobservable, match="all ray moments vanish"):
        ransac_estimate(central, theta, config("gen5", 4), "gen5")
    assert rounds == []
