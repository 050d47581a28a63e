"""RANSAC solves the samples of a round as one stack and scores all their
poses in one call; the round cap starts at ``BATCH_LIMIT`` and doubles
after every round, up to ``ROUND_LIMIT``.  A stack takes one
inverse-iteration step per root and does not polish, so against the
one-sample-at-a-time loop of ``reference_robust``, its single solves
refined alike (``unrefined``), in the same rounds and with the same reg4
step at a round's end, it must return the same inlier mask, iteration and
hypothesis counts, and the same pose to ``POSE_TOL``.  What differs
between the solvers is read off their records in ``robust.SOLVERS``."""

import sys
from contextlib import contextmanager

import numpy as np
import pytest

import reference_robust
import relpose.robust as robust
from reference_templates import spoil_template
from relpose import gbsolver, solver_gen5, solver_reg4
from relpose.exceptions import (
    DegenerateConfiguration,
    DegenerateInput,
    NoCheiralSolution,
    NoHypothesis,
    RankDeficient,
    RelposeError,
    ScaleUnobservable,
)
from relpose.gbsolver import GENERAL, RayTable, SamplePoses
from relpose.geom import BearingPair, PluckerPair, rotation_angle, sigma_from_angle
from relpose.poly import _ray_stack
from relpose.robust import (
    BATCH_LIMIT,
    DEFAULT_POINT_RAY_THRESHOLD,
    ROUND_LIMIT,
    SOLVERS,
    RansacConfig,
    ransac_estimate,
    sampson_threshold_from_pixels,
)
from relpose.synth import SceneConfig, _corrupt, add_image_noise, generate_scene

KINDS = ["reg4", "gen5"]
SEEDS = range(20)
POSE_TOL = 1e-12
# The inlier threshold of each solver's score, in its own units.
THRESHOLDS = {
    "reg4": sampson_threshold_from_pixels(1.5, SceneConfig().focal_px),
    "gen5": DEFAULT_POINT_RAY_THRESHOLD,
}


def generalized(kind) -> bool:
    """Whether the solver ``kind`` takes generalized-camera scenes."""
    return SOLVERS[kind].pair_type is PluckerPair


def solver_module(kind):
    """The module that defines the solver ``kind`` and holds its layers."""
    return sys.modules[SOLVERS[kind].solve.__module__]


def frame_pair(kind, seed, n_obs=100):
    """Observations with 0.5 px noise and 30% outliers, and the angle."""
    cfg = SceneConfig(seed=seed, generalized=generalized(kind))
    rng = np.random.default_rng(seed)
    truth, pairs = generate_scene(cfg, n_obs, rng=rng)
    observed, _ = _corrupt(add_image_noise(pairs, 0.5, cfg, rng), cfg, 0.3, rng)
    return observed, rotation_angle(truth.R)


def config(kind, seed, **kw):
    return RansacConfig(inlier_threshold=THRESHOLDS[kind], seed=seed, **kw)


@contextmanager
def chain_steps(n):
    """Every solve's eigenvectors from ``n`` inverse-iteration steps per
    root, the solver modules' ``extract_roots`` held to ``n`` meanwhile."""

    def extract(eigenvalues, action, qb, steps):
        return gbsolver.extract_roots(eigenvalues, action, qb, n)

    with pytest.MonkeyPatch.context() as m:
        for module in (solver_reg4, solver_gen5):
            m.setattr(module, "extract_roots", extract)
        yield


@contextmanager
def unrefined():
    """Single solves as a stack solves each of its samples: one
    inverse-iteration step per root and no polishing, the solver modules'
    ``polish_roots`` the identity meanwhile."""
    with chain_steps(1), pytest.MonkeyPatch.context() as m:
        for module in (solver_reg4, solver_gen5):
            m.setattr(module, "polish_roots", lambda generators, roots, c: roots)
        yield


def loop_ransac_estimate(observations, theta, cfg, kind):
    """The oracle, ``reference_robust.loop_ransac_estimate``, ``unrefined``."""
    with unrefined():
        return reference_robust.loop_ransac_estimate(observations, theta, cfg, kind)


def assert_same(result, oracle):
    assert np.array_equal(result.inlier_mask, oracle.inlier_mask)
    assert result.iterations == oracle.iterations
    assert result.n_hypotheses == oracle.n_hypotheses
    assert np.max(np.abs(result.pose.R - oracle.pose.R)) <= POSE_TOL
    assert np.max(np.abs(result.pose.t - oracle.pose.t)) <= POSE_TOL


def spy_on_rounds(monkeypatch, kind):
    """Record the samples and the ``SamplePoses`` of every stacked solve."""
    name = SOLVERS[kind].solve.__name__
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
    cfg = config(kind, seed)
    result = ransac_estimate(observed, theta, cfg, kind)
    assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))


@pytest.mark.parametrize("kind", KINDS)
def test_one_chain_step_keeps_every_decision(kind):
    # A hypothesis takes one inverse-iteration step per root where a single
    # solve takes two; on 30 frame pairs the inlier mask and the iteration
    # count equal those of a run whose hypotheses take two.
    for seed in range(30):
        observed, theta = frame_pair(kind, seed)
        cfg = config(kind, seed)
        result = ransac_estimate(observed, theta, cfg, kind)
        with chain_steps(2):
            two = ransac_estimate(observed, theta, cfg, kind)
        assert np.array_equal(result.inlier_mask, two.inlier_mask)
        assert result.iterations == two.iterations


@pytest.mark.parametrize("kind", KINDS)
def test_stop_in_the_middle_of_a_round(monkeypatch, kind):
    # Samples drawn past the stop are solved but discarded.
    cut = 0
    for seed in SEEDS:
        observed, theta = frame_pair(kind, seed)
        cfg = config(kind, seed)
        with monkeypatch.context() as m:
            rounds = spy_on_rounds(m, kind)
            result = ransac_estimate(observed, theta, cfg, kind)
        caps = [min(BATCH_LIMIT << r, ROUND_LIMIT) for r in range(len(rounds))]
        assert all(len(samples) <= cap for (samples, _), cap in zip(rounds, caps))
        drawn = sum(len(samples) for samples, _ in rounds)
        assert drawn - len(rounds[-1][0]) < result.iterations <= drawn
        cut += result.iterations < drawn
        assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))
    assert cut > 0


@pytest.mark.parametrize("kind", KINDS)
def test_the_round_cap_doubles(monkeypatch, kind):
    # At this threshold at most a sample's own rays count as inliers, so the
    # stopping bound asks for millions of samples and only the cap and
    # max_iterations size the rounds.
    observed, theta = frame_pair(kind, 5)
    cfg = RansacConfig(inlier_threshold=1e-300, seed=5, max_iterations=200)
    rounds = spy_on_rounds(monkeypatch, kind)
    result = ransac_estimate(observed, theta, cfg, kind)
    assert (BATCH_LIMIT, ROUND_LIMIT) == (8, 64)
    assert [len(samples) for samples, _ in rounds] == [8, 16, 32, 64, 64, 16]
    assert result.iterations == 200 and result.inlier_count <= 5
    monkeypatch.undo()
    assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))


def test_the_bound_is_checked_after_a_failed_sample(monkeypatch):
    # With 80 of 100 inliers the bound asks for 8.7 samples.  The ninth
    # sample, where it is met, fails; the run still stops there.
    truth, pairs = generate_scene(SceneConfig(seed=7), 4)
    errors = np.r_[np.zeros(80), np.ones(20)]
    failing = 8
    drawn = []

    def solve(pairs, theta, *, samples=None):
        if samples is None:
            drawn.append(1)
            if len(drawn) == failing + 1:
                raise DegenerateConfiguration("stub")
            return [truth]
        first = len(drawn)
        drawn.extend([1] * len(samples))
        k = np.array([first + s != failing for s in range(len(samples))])
        bounds = np.r_[0, np.cumsum(k)].tolist()
        return SamplePoses(np.repeat(truth.R[None], bounds[-1], 0),
                           np.repeat(truth.t[None], bounds[-1], 0), truth.quat.sigma,
                           np.repeat(truth.quat.u[None], bounds[-1], 0), bounds, {})

    def score(R, t, q1, q2):
        return errors if R.ndim == 2 else np.tile(errors, (len(R), 1))

    for module in (robust, reference_robust):
        monkeypatch.setattr(module, "solve_4pt_angle", solve)
        monkeypatch.setattr(module, "sampson_errors", score)
    cfg = RansacConfig(inlier_threshold=0.5, seed=0)
    result = ransac_estimate(pairs[:1] * 100, 0.5, cfg, "reg4")
    assert len(drawn) == result.iterations == failing + 1
    assert result.n_hypotheses == failing
    drawn.clear()
    assert_same(result, reference_robust.loop_ransac_estimate(pairs[:1] * 100, 0.5, cfg, "reg4"))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("max_iterations", [1, 3])
def test_fewer_iterations_than_one_round(kind, max_iterations):
    for seed in range(5):
        observed, theta = frame_pair(kind, seed)
        cfg = config(kind, seed, max_iterations=max_iterations)
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
    oracle = loop_ransac_estimate(observed, theta, cfg, kind)
    assert np.array_equal(result.inlier_mask, oracle.inlier_mask)
    assert (result.iterations, result.n_hypotheses) == (oracle.iterations, oracle.n_hypotheses)


@pytest.mark.parametrize("kind", KINDS)
def test_a_degenerate_sample_fails_alone(monkeypatch, kind):
    # Every observation appears five times, so many samples hold coincident
    # rays and raise DegenerateInput inside a round of good samples.
    observed, theta = frame_pair(kind, 7, n_obs=20)
    observed = observed * 5
    cfg = config(kind, 7, max_iterations=40)
    with monkeypatch.context() as m:
        rounds = spy_on_rounds(m, kind)
        result = ransac_estimate(observed, theta, cfg, kind)
    assert any(not all(solved(out)) and any(solved(out)) for _, out in rounds)
    assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))
    # Each sample of a stack gets the poses it gets alone.
    samples, out = rounds[0]
    assert_each_solved_as_alone(kind, observed, theta, samples, out)


def assert_bits(got, want):
    """Equal arrays of one shape and type, the signs of zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


def solved(out: SamplePoses) -> list[bool]:
    """Whether each sample of a stacked solve's answer has poses."""
    return [a < b for a, b in zip(out.bounds, out.bounds[1:])]


def assert_each_solved_as_alone(kind, observed, theta, samples, out: SamplePoses, which=None):
    """The poses of each sample ``which`` (all by default) of a stacked
    solve, its rows of ``out``, are, bit for bit, those of the ``unrefined``
    single solve of that sample, or it has none and that solve raises."""
    for s in range(len(samples)) if which is None else which:
        rows = slice(out.bounds[s], out.bounds[s + 1])
        try:
            with unrefined():
                alone = SOLVERS[kind].solve([observed[i] for i in samples[s]], theta)
        except RelposeError:
            assert rows.start == rows.stop
            continue
        assert_bits(out.R[rows], np.array([p.R for p in alone]))
        assert_bits(out.t[rows], np.array([p.t for p in alone]))
        assert_bits(out.u[rows], np.array([p.quat.u for p in alone]))
        for name, column in out.columns.items():
            assert_bits(column[rows], np.array([getattr(p, name) for p in alone]))


# Frame pairs and the sample, among 300 drawn as below, that falls back to
# the second partition.
FALLBACK_SAMPLES = {"reg4": (4, 220), "gen5": (0, 22)}


@pytest.mark.parametrize("kind", KINDS)
def test_a_stack_solves_each_sample_bit_for_bit_as_alone(monkeypatch, kind):
    # A window of samples around one that falls back to the second
    # partition, and one that raises: a repeated correspondence.
    seed, fallback = FALLBACK_SAMPLES[kind]
    observed, theta = frame_pair(kind, seed)
    rng = np.random.default_rng(seed)
    size = SOLVERS[kind].problem.sample_size
    drawn = np.array([rng.choice(len(observed), size, replace=False) for _ in range(300)])
    repeated = drawn[fallback - 1].copy()
    repeated[1] = repeated[0]
    before, after = drawn[fallback - 8 : fallback], drawn[fallback : fallback + 8]
    samples = np.vstack([before, [repeated], after])
    module = solver_module(kind)
    second = SOLVERS[kind].problem.partitions[1]
    original = module.rref_conditioned
    calls = []

    def spy(B, qb):
        calls.append((len(B), qb.pivots == second))
        return original(B, qb)

    with monkeypatch.context() as m:
        m.setattr(module, "rref_conditioned", spy)
        out = SOLVERS[kind].solve(observed, theta, samples=samples)
        assert (1, True) in calls
        calls.clear()
        SOLVERS[kind].solve([observed[i] for i in drawn[fallback]], theta)
        assert (1, True) in calls
    assert len(out) == len(samples) and not solved(out)[8]
    assert_each_solved_as_alone(kind, observed, theta, samples, out)


def force_loss(monkeypatch, kind, target):
    """Stub the stage that decides the loss reason no panel reaches so that
    it loses every candidate of the sample whose anchor ray ``q1`` is
    ``target``: reg4 counts no point in front of both cameras, gen5 gets
    zero depth rows.  Returns the error class and message of that loss."""
    if kind == "reg4":
        counts = solver_reg4.cheiral_counts

        def no_votes(Rs, T, q1, q2):
            votes = counts(Rs, T, q1, q2)
            votes[:, (q1[:, 0] == target).all(-1)] = 0
            return votes

        monkeypatch.setattr(solver_reg4, "cheiral_counts", no_votes)
        return NoCheiralSolution, "no candidate places any point in front of both cameras"
    depth_rows = solver_gen5._depth_rows

    def zero_rows(own, Rs):
        rows = depth_rows(own, Rs)
        rows[(own[0, :, 0] == target).all(-1)] = 0.0
        return rows

    monkeypatch.setattr(solver_gen5, "_depth_rows", zero_rows)
    return ScaleUnobservable, "translation scale is unobservable for every rotation candidate"


@pytest.mark.parametrize("kind", KINDS)
def test_a_lost_sample_raises_its_reason_and_fails_alone(monkeypatch, kind):
    size = SOLVERS[kind].problem.sample_size
    truth, observed = generate_scene(SceneConfig(seed=6, generalized=generalized(kind)), 3 * size)
    theta = rotation_angle(truth.R)
    samples = np.arange(3 * size).reshape(3, size)
    error, message = force_loss(monkeypatch, kind, observed[size].q1)
    with pytest.raises(error, match=message):
        SOLVERS[kind].solve(observed[size : 2 * size], theta)
    out = SOLVERS[kind].solve(observed, theta, samples=samples)
    assert solved(out) == [True, False, True]
    assert_each_solved_as_alone(kind, observed, theta, samples, out)


@pytest.mark.parametrize("kind", KINDS)
def test_an_answer_with_a_lost_sample_counts_samples_and_partitions_its_rows(monkeypatch, kind):
    # Its length is the sample count, which the benchmark's tracer reads,
    # and its bounds cut its rows into one block per sample, the lost
    # sample's empty.
    size = SOLVERS[kind].problem.sample_size
    truth, observed = generate_scene(SceneConfig(seed=6, generalized=generalized(kind)), 3 * size)
    samples = np.arange(3 * size).reshape(3, size)
    force_loss(monkeypatch, kind, observed[size].q1)
    out = SOLVERS[kind].solve(observed, rotation_angle(truth.R), samples=samples)
    bounds = out.bounds
    assert len(out) == len(samples) == len(bounds) - 1
    assert bounds[0] == 0 and bounds[1] == bounds[2] and bounds == sorted(bounds)
    assert bounds[-1] == len(out.R) == len(out.t) == len(out.u) > bounds[2] > 0
    assert all(len(column) == bounds[-1] for column in out.columns.values())
    whole = out.poses()
    blocks = [out.poses(a, b) for a, b in zip(bounds, bounds[1:])]
    assert [len(block) for block in blocks] == np.diff(bounds).tolist()
    for pose, part in zip(whole, [pose for block in blocks for pose in block]):
        assert np.array_equal(pose.R, part.R) and np.array_equal(pose.t, part.t)
        assert pose.root_count == part.root_count


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "first, message",
    [
        (-1, "sample indices must lie in [0, 12), got -1 to {last}"),
        (12, "sample indices must lie in [0, 12), got 1 to 12"),
        (0.0, "samples must hold integer indices, got dtype float64"),
    ],
    ids=["negative", "past-the-end", "float"],
)
def test_a_bad_sample_index_raises_value_error(kind, first, message):
    # A negative index used to wrap around to a pair from the end, one past
    # the end raised a bare IndexError and a float one a TypeError.
    size = SOLVERS[kind].problem.sample_size
    truth, observed = generate_scene(SceneConfig(seed=6, generalized=generalized(kind)), 12)
    samples = np.array([[first, *range(1, size)]])
    table = RayTable(observed, SOLVERS[kind].problem.ray_names)
    for pairs in (observed, table):
        with pytest.raises(ValueError) as info:
            SOLVERS[kind].solve(pairs, rotation_angle(truth.R), samples=samples)
        assert str(info.value) == message.format(last=size - 1)


@pytest.mark.parametrize(
    "kind,k", [("reg4", k) for k in range(4)] + [("gen5", k) for k in range(5)]
)
def test_rotated_index_rows_solve_as_the_rotated_pairs_alone(kind, k):
    # A sample's first pair is its anchor, so another anchor is another
    # cyclic order of its pairs: a stack whose index rows are rotated by k
    # solves each row bit for bit as the single solve of pairs[k:] +
    # pairs[:k].
    size = SOLVERS[kind].problem.sample_size
    truth, observed = generate_scene(SceneConfig(seed=6, generalized=generalized(kind)), 3 * size)
    theta = rotation_angle(truth.R)
    rotated = np.roll(np.arange(3 * size).reshape(3, size), -k, axis=1)
    out = SOLVERS[kind].solve(observed, theta, samples=rotated)
    assert all(solved(out))
    assert_each_solved_as_alone(kind, observed, theta, rotated, out)


# What a sample whose every translation (reg4) or depth (gen5) SVD does not
# converge is lost for: the residual gate, and the scale test.
SVD_LOSS = {
    "reg4": (DegenerateConfiguration, "no candidate pose satisfies its own sample"),
    "gen5": (ScaleUnobservable, "translation scale is unobservable for every rotation candidate"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_svd_that_does_not_converge_loses_only_its_own_sample(monkeypatch, kind):
    # LAPACK's SVD gufunc marks a matrix that does not converge NaN, where
    # np.linalg.svd raises an untyped LinAlgError; stub that for every
    # matrix of the sample ``lost`` as the pose rule sees it.
    size = SOLVERS[kind].problem.sample_size
    truth, observed = generate_scene(SceneConfig(seed=6, generalized=generalized(kind)), 3 * size)
    theta = rotation_angle(truth.R)
    samples = np.arange(3 * size).reshape(3, size)
    module = solver_module(kind)
    poses, svd, seen = module._poses, module._svd_or_nan, {}

    def spy(rays, sample, *rest):
        seen["sample"] = sample
        return poses(rays, sample, *rest)

    def no_convergence(A):
        out = svd(A)
        for part in out:
            part[seen["sample"] == seen["lost"]] = np.nan
        return out

    monkeypatch.setattr(module, "_poses", spy)
    monkeypatch.setattr(module, "_svd_or_nan", no_convergence)
    error, message = SVD_LOSS[kind]
    seen["lost"] = 0
    with pytest.raises(error, match=message):
        SOLVERS[kind].solve(observed[size : 2 * size], theta)
    seen["lost"] = 1
    out = SOLVERS[kind].solve(observed, theta, samples=samples)
    assert solved(out) == [True, False, True]
    seen["lost"] = -1
    assert_each_solved_as_alone(kind, observed, theta, samples, out, which=(0, 2))


GENERATORS = {"reg4": (solver_reg4, "build_f_polynomials"), "gen5": (solver_gen5, "build_g_polynomials")}


@pytest.mark.parametrize("kind", KINDS)
def test_a_degenerate_sample_costs_one_generator_call(monkeypatch, kind):
    # One repeated correspondence in a stack of 32: the generators name that
    # sample, and the stack is solved in one call, every other sample as
    # it is solved alone.
    observed, theta = frame_pair(kind, 4)
    rng = np.random.default_rng(4)
    size = SOLVERS[kind].problem.sample_size
    samples = np.array([rng.choice(len(observed), size, replace=False) for _ in range(32)])
    samples[13, 2] = samples[13, 0]
    module, name = GENERATORS[kind]
    original, calls = getattr(module, name), []

    def spy(*args):
        calls.append(len(args[0]))
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(module, name, spy)
        out = SOLVERS[kind].solve(observed, theta, samples=samples)
    assert calls == [32]
    assert len(out) == 32 and not solved(out)[13]
    assert_each_solved_as_alone(kind, observed, theta, samples, out)
    # Alone, the sample raises the DegenerateInput, a DegenerateConfiguration,
    # that a direct call of the generators records for it.
    pairs = [observed[i] for i in samples[13]]
    with pytest.raises(DegenerateInput) as alone:
        SOLVERS[kind].solve(pairs, theta)
    names = SOLVERS[kind].problem.ray_names
    losses = gbsolver.Losses(1)
    original(*_ray_stack(pairs, *names), sigma_from_angle(theta), losses)
    [direct] = losses.errors
    assert type(alone.value) is DegenerateInput
    assert isinstance(alone.value, DegenerateConfiguration)
    assert str(alone.value) == str(direct)
    if kind == "reg4":
        # Rays 0 and 2 are one correspondence: view 1 is named first.
        assert str(direct).startswith("rays 0 and 2 coincide in view 1;")


@pytest.mark.parametrize("kind", KINDS)
def test_a_template_no_partition_reduces_fails_alone(monkeypatch, kind):
    # Two samples of a stack get templates that no partition can reduce:
    # one with an exactly singular pivot block, one with a non-finite entry.
    observed, theta = frame_pair(kind, 5)
    rng = np.random.default_rng(5)
    size = SOLVERS[kind].problem.sample_size
    samples = np.array([rng.choice(len(observed), size, replace=False) for _ in range(6)])
    module, name = GENERATORS[kind]
    problem = SOLVERS[kind].problem
    generators, c = getattr(module, name), sigma_from_angle(theta)
    # The generators of a sample, as bytes, name it in the template stack.
    spoiled = {}
    for k, how in ((1, "singular"), (4, "non-finite")):
        rays = _ray_stack([observed[i] for i in samples[k]], *problem.ray_names)
        spoiled[generators(*rays, c, gbsolver.Losses(1)).tobytes()] = how
    assemble = module.assemble_reduced_template

    def spoiling(gens, *args, **kwargs):
        template = assemble(gens, *args, **kwargs)
        for s, sample_gens in enumerate(gens):
            how = spoiled.get(sample_gens.tobytes())
            if how:
                spoil_template(template[s], problem.partitions[0], how)
        return template

    monkeypatch.setattr(module, "assemble_reduced_template", spoiling)
    out = SOLVERS[kind].solve(observed, theta, samples=samples)
    assert solved(out) == [True, False, True, True, False, True]
    assert_each_solved_as_alone(kind, observed, theta, samples, out)
    for k, message in (
        (1, "the fixed pivot block is singular: Singular matrix"),
        (4, "the fixed pivot block reduced to non-finite rows"),
    ):
        with pytest.raises(RankDeficient) as alone:
            SOLVERS[kind].solve([observed[i] for i in samples[k]], theta)
        assert type(alone.value) is RankDeficient
        assert isinstance(alone.value, DegenerateConfiguration)
        assert str(alone.value) == message


@pytest.mark.parametrize("kind", KINDS)
def test_a_duplicated_observation_matches_the_loop(monkeypatch, kind):
    # The last observation repeats the first; some samples hold both.
    twins = 0
    for seed in range(12):
        observed, theta = frame_pair(kind, seed, n_obs=12)
        observed = observed + observed[:1]
        cfg = config(kind, seed, max_iterations=60)
        with monkeypatch.context() as m:
            rounds = spy_on_rounds(m, kind)
            result = ransac_estimate(observed, theta, cfg, kind)
        twins += sum(np.isin([0, 12], row).all() for samples, _ in rounds for row in samples)
        assert_same(result, loop_ransac_estimate(observed, theta, cfg, kind))
    assert twins > 0


def test_a_gen5_sample_falls_back_to_the_second_partition(monkeypatch):
    first, second = GENERAL.partitions
    original = solver_gen5.rref_conditioned
    fallbacks = 0
    for seed in SEEDS:
        observed, theta = frame_pair("gen5", seed)
        cfg = config("gen5", seed)
        calls = []

        def spy(B, qb):
            calls.append((len(B), qb.pivots))
            return original(B, qb)

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
