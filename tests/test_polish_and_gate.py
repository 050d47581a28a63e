"""Root polishing, the residual gate on returned poses, and the fallback
from the first committed partition to the next, for both solvers."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import reference_templates as ref
import relpose
import relpose.gbsolver as gbsolver
import relpose.solver_gen5 as solver_gen5
import relpose.solver_reg4 as solver_reg4
from panel_digests import load_run
from relpose.exceptions import DegenerateConfiguration, EigenFailure, RelposeError
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
from relpose.poly import _ray_stack, grevlex_basis
from relpose.synth import SceneConfig, add_image_noise, generate_scene

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

    def test_a_singular_system_ends_only_its_own_roots_polishing(self):
        # Quadratic forms without constant or linear terms, like the sphere
        # constraint, have a vanishing Jacobian at the origin, so there the
        # normal equations are exactly singular; on the sphere at the
        # diagonal they are regular.
        basis = grevlex_basis(2)
        gens = np.zeros((2, basis.size))
        gens[0, [basis.index[(2, 0, 0)], basis.index[(0, 2, 0)]]] = 1.0, -1.0
        gens[1, [basis.index[(0, 2, 0)], basis.index[(0, 0, 2)]]] = 1.0, -1.0
        c = sigma_from_angle(1.0)
        root = np.sqrt(-c.tau / 3.0) * np.ones(3)
        moved = root + 1e-4 * np.random.default_rng(0).normal(size=3)
        alone = polish_roots(gens, moved[None], c)
        assert np.max(np.abs(alone - root)) < 1e-14
        # Under the error state that a solve holds for its kernels.
        with np.errstate(all="ignore"):
            both = polish_roots(gens, np.vstack([np.zeros(3), moved]), c)
        assert np.array_equal(both[0], np.zeros(3))
        assert np.array_equal(both[1:], alone)


# SHA-256 of every R and t that single solves return on the scenes of
# ``single_solve_scenes``, as they have since before stacked solves stopped
# polishing.  Bit identity rests on how the BLAS library rounds small
# products, as for ``tests/panel_digests.py``.
SINGLE_SOLVE_DIGESTS = {
    "reg4": "3921850aafad76ccae92535c64b4bd0594fd534fd004fe7d39484869843f74a6",
    "gen5": "b70c31ec50dd75b66b8428caddc9fcc189f9669fa53876e82954183cc22254b2",
}


def single_solve_scenes(solver):
    """Pairs and angle of minimal samples: noise-free at 5-60 degrees and
    at 2.5 rad, and with 0.5 px noise."""
    generalized = solver == "gen5"
    for seed in range(6):
        for theta_rad, noise_px in ((None, 0.0), (2.5, 0.0), (None, 0.5)):
            cfg = SceneConfig(seed=seed, generalized=generalized, theta_rad=theta_rad)
            truth, pairs = generate_scene(cfg, 5 if generalized else 4)
            if noise_px:
                pairs = add_image_noise(pairs, noise_px, cfg, np.random.default_rng(seed))
            yield pairs, rotation_angle(truth.R)


def spy_on_extraction(monkeypatch, module):
    """Per ``extract_roots`` call of the solver ``module``: its steps, its
    eigenvalue count, the stack size of each solve it makes, its arguments
    and its result."""
    calls, kernel, extract = [], gbsolver._solve_or_nan, module.extract_roots
    solves = None

    def spy_kernel(A, b):
        if solves is not None:
            solves.append(len(A))
        return kernel(A, b)

    def spy(eigenvalues, action, qb, steps):
        nonlocal solves
        solves = []
        out = extract(eigenvalues, action, qb, steps)
        calls.append((steps, sum(map(len, eigenvalues)), solves, (eigenvalues, action, qb), out))
        solves = None
        return out

    monkeypatch.setattr(gbsolver, "_solve_or_nan", spy_kernel)
    monkeypatch.setattr(module, "extract_roots", spy)
    return calls


class TestOnlyASingleSolvePolishes:
    @SOLVERS
    def test_a_single_solve_takes_two_chain_steps_and_a_stack_one(self, monkeypatch, solver):
        # On minimal panel problems each extraction of a single solve makes
        # two chain solves over all its roots, and its roots are those of
        # the two-step chains that direct callers get, bit for bit; the same
        # samples as a stack make one.
        module, solve, _, _ = instance(solver)
        problems = [op.args for op in load_run().make_panel(relpose, "minimal")[solver][:20]]
        calls = spy_on_extraction(monkeypatch, module)
        for samples in (None, np.arange(len(problems[0][0]))[None]):
            calls.clear()
            for pairs, theta in problems:
                try:
                    solve(pairs, theta, samples=samples)
                except RelposeError:
                    pass
            assert len(calls) >= len(problems)
            for steps, n_roots, solves, args, out in calls:
                if samples is not None:
                    assert steps == 1 and solves == [n_roots]
                    continue
                assert steps == 2 and solves == [n_roots, n_roots]
                two = gbsolver.extract_roots(*args)
                assert np.array_equal(out.roots, two.roots)
                assert np.array_equal(out.sample, two.sample)

    @SOLVERS
    def test_a_stack_never_polishes_and_a_single_solve_once(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=5)
        original, calls = module.polish_roots, []

        def spy(gens, roots, c):
            calls.append(len(roots))
            return original(gens, roots, c)

        monkeypatch.setattr(module, "polish_roots", spy)
        assert solve(pairs, theta)
        assert len(calls) == 1 and calls[0] > 0
        calls.clear()
        for n_samples in (1, 3):
            out = solve(pairs, theta, samples=np.arange(len(pairs))[None].repeat(n_samples, 0))
            assert len(out) == n_samples and out.bounds[-1] > 0
        assert calls == []

    @SOLVERS
    def test_a_single_solve_returns_the_poses_it_always_has(self, solver):
        _, solve, _, _ = instance(solver)
        digest = hashlib.sha256()
        for pairs, theta in single_solve_scenes(solver):
            try:
                poses = solve(pairs, theta)
            except RelposeError as exc:
                digest.update(type(exc).__name__.encode())
                continue
            for pose in poses:
                digest.update(pose.R.tobytes())
                digest.update(pose.t.tobytes())
        assert digest.hexdigest() == SINGLE_SOLVE_DIGESTS[solver]


class TestResidualGate:
    @SOLVERS
    def test_a_root_off_the_variety_is_never_returned(self, monkeypatch, solver):
        module, solve, pairs, theta = instance(solver, seed=3)
        honest = solve(pairs, theta)
        original = gbsolver.rotation_roots

        def with_a_stray_root(*args):
            polished, sample = original(*args)
            stray = polished[:1] + np.array([1e-3, -2e-3, 1e-3])
            return np.vstack([polished, stray]), np.append(sample, sample[:1])

        monkeypatch.setattr(gbsolver, "rotation_roots", with_a_stray_root)
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
            lambda gens, roots, c: original(gens, roots, c) + 1e-3,
        )
        with pytest.raises(DegenerateConfiguration, match="satisfies its own sample"):
            solve(pairs, theta)


def spy_on_elimination(monkeypatch, module):
    """Record the partition of every ``rref_conditioned`` call."""
    calls = []
    original = module.rref_conditioned

    def spy(B, qb):
        calls.append(qb.pivots)
        return original(B, qb)

    monkeypatch.setattr(module, "rref_conditioned", spy)
    return calls


def template_problem(module):
    return ("GENERAL", GENERAL) if module is solver_gen5 else ("REGULAR", REGULAR)


def complete_pivoting_poses(monkeypatch, module, solve, pairs, theta):
    """The poses of a solve whose only elimination is the oracle's complete
    pivoting, with the partition it picks on this input."""
    name, problem = template_problem(module)
    gens, c = generators(module, pairs, theta)
    tpl = assemble_reduced_template(gens, problem, c)
    hints = ref.pivot_hints(problem)
    _, pivots = ref.rref_conditioned(tpl, **hints)
    basis = grevlex_basis(problem.target_degree)
    with monkeypatch.context() as m:
        m.setattr(module, name, replace(problem, partitions=(tuple(pivots),)))
        m.setattr(
            module, "rref_conditioned",
            lambda B, _: np.stack([
                ref.standard_block(*ref.rref_conditioned(b, **hints), basis) for b in B
            ]),
        )
        return solve(pairs, theta)


def failing_eig(monkeypatch, module, n_failures, after=0):
    """Make the ``n_failures`` eigensolves of ``module`` after the first
    ``after`` raise."""
    calls = []
    original = module.eigensolve_real

    def eig(M):
        calls.append(1)
        if after < len(calls) <= after + n_failures:
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
        # the fallback keeps all its roots and drops ``dropped``, or its
        # eigensolve raises.  Its roots replace the first's only where it
        # dropped fewer.
        module, _, pairs, theta = instance(solver, seed=6)
        original = module.extract_roots
        extracted = []

        def extract(eigenvalues, action, qb, steps):
            out = original(eigenvalues, action, qb, steps)
            extracted.append(out)
            if len(extracted) == 1:
                return replace(
                    out, roots=out.roots[:1], sample=out.sample[:1], inconsistent=np.array([1])
                )
            return replace(out, inconsistent=np.array([dropped]))

        monkeypatch.setattr(module, "extract_roots", extract)
        if dropped == "raises":
            calls = failing_eig(monkeypatch, module, n_failures=1, after=1)
        roots = ref.rotation_candidates(module, pairs, sigma_from_angle(theta))
        if dropped == "raises":
            assert len(calls) == 2 and len(extracted) == 1 and len(roots) == 1
        else:
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
