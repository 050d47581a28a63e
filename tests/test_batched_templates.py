"""The batched generator and template kernels, and the back end of every
elimination (quotient basis, action matrix, eigenvalue filter, eigenvectors,
roots) on the committed partitions and on complete pivoting, against the
scalar oracles in ``reference_templates``: every coefficient must match bit
for bit, except the eigenvectors, which the package rebuilds from the gamma
chains and which match the ``np.linalg.eig`` oracle to a tolerance."""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import reference_templates as ref
from reference_templates import candidate_rotations
from reference_gen5 import loop_solve_gen5pt_angle
from reference_reg4 import loop_solve_4pt_angle
from relpose import gbsolver, solver_gen5, solver_reg4
from relpose.exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegenerateInput,
    DegreeOverflow,
    RankDeficient,
    RelposeError,
    ScaleUnobservable,
    UnreachableMonomial,
)
from relpose.gbsolver import (
    GENERAL,
    REGULAR,
    ROOT_TOL,
    U_DIRECTION_EPS,
    Losses,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    quotient_basis_from_pivots,
    rref_conditioned,
)
from relpose.geom import BearingPair, PluckerPair, RelativePose, quat_to_rotation, sigma_from_angle
from relpose.poly import (
    _bilinear_coeffs,
    _f_dets,
    _f_rays,
    _g_dets,
    _g_rows,
    _mul_stack,
    _ray_stack,
    build_f_polynomials,
    build_g_polynomials,
    grevlex_basis,
    reduce_columns_mod_h,
)
from relpose.robust import RansacConfig, ransac_estimate
from relpose.solver_gen5 import solve_gen5pt_angle
from relpose.solver_reg4 import solve_4pt_angle
from relpose.synth import SceneConfig, generate_scene

F_TRIPLES = [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)]
G_QUADRUPLES = [(1, 2, 3, 4), (2, 3, 4, 0), (3, 4, 0, 1), (4, 0, 1, 2), (0, 1, 2, 3)]
PLUCKER = ("q1", "q2", "m1", "m2")
THETAS = [1e-3, float(np.random.default_rng(2024).uniform(0.0, math.pi)), math.pi - 1e-3]


def assert_bits(new: np.ndarray, old: np.ndarray) -> None:
    """Equal values, shapes and signs of zero."""
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def problem(solver: str, rays: str, motion: str, theta: float, seed: int):
    """Input pairs of one solver: reg4 takes the ray directions, gen5 the
    Pluecker lines; central rays have no moments."""
    cfg = SceneConfig(seed=seed, theta_rad=theta, motion=motion, generalized=rays == "generalized")
    _, pairs = generate_scene(cfg, 5)
    if solver == "reg4":
        return [BearingPair(q1=p.q1, q2=p.q2) for p in pairs[:4]]
    if rays == "central":
        return [PluckerPair(q1=p.q1, q2=p.q2, m1=np.zeros(3), m2=np.zeros(3)) for p in pairs]
    return pairs


def generators_and_template(module, solver: str, pairs, c):
    """The generators and template of one sample: the package's layers take
    the problem and give the matrix, the oracle's take its row plan and give
    a ``LabelledTemplate``."""
    tp = REGULAR if solver == "reg4" else GENERAL
    build = module.build_f_polynomials if solver == "reg4" else module.build_g_polynomials
    gens = build(pairs, c)
    if module is ref:
        return gens, ref.assemble_reduced_template(
            gens, tp.multipliers, tp.target_degree, c, extra_rows=tp.extra_rows
        )
    return gens, module.assemble_reduced_template(gens, tp, c)


BATCHED = SimpleNamespace(
    build_f_polynomials=lambda pairs, c: ref.package_generators(
        build_f_polynomials, _ray_stack(pairs, "q1", "q2"), c
    ),
    build_g_polynomials=lambda pairs, c: ref.package_generators(
        build_g_polynomials, _ray_stack(pairs, *PLUCKER), c
    ),
    assemble_reduced_template=assemble_reduced_template,
)


class TestTemplatesMatchOracle:
    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    @pytest.mark.parametrize("rays", ["central", "generalized"])
    @pytest.mark.parametrize("motion", ["forward", "sideways"])
    @pytest.mark.parametrize("theta", THETAS)
    def test_bit_identical(self, solver, rays, motion, theta):
        c = sigma_from_angle(theta)
        for seed in range(3):
            pairs = problem(solver, rays, motion, theta, seed)
            if solver == "gen5" and rays == "central":
                # Without moments the last column of every 3x3 matrix vanishes.
                for module in (BATCHED, ref):
                    with pytest.raises(DegenerateInput):
                        generators_and_template(module, solver, pairs, c)
                continue
            gens, tpl = generators_and_template(BATCHED, solver, pairs, c)
            ref_gens, ref_tpl = generators_and_template(ref, solver, pairs, c)
            assert gens.dtype == np.float64
            assert gens.shape == ((4, 35) if solver == "reg4" else (5, 84))
            for g, r in zip(ref.as_polynomials(gens), ref_gens, strict=True):
                assert g.basis is r.basis
                assert_bits(g.coeffs, r.coeffs)
            # Row by row, the oracle's labelled rows in the oracle's order.
            tp = REGULAR if solver == "reg4" else GENERAL
            assert ref_tpl.basis is grevlex_basis(tp.target_degree)
            assert len(tpl) == len(ref_tpl.row_labels) == tp.template_shape[0]
            for row, ref_row in zip(tpl, ref_tpl.matrix, strict=True):
                assert_bits(row, ref_row)
            assert tpl.flags.c_contiguous


class TestGeneratorsMatchSpecs:
    @pytest.mark.parametrize("seed", range(4))
    def test_f_generators_are_spec_determinants(self, seed):
        theta = float(np.random.default_rng(seed).uniform(0.05, 3.1))
        pairs = problem("reg4", "central", "forward", theta, seed)
        c = sigma_from_angle(theta)
        q1, q2 = _ray_stack(pairs, "q1", "q2")
        gens = build_f_polynomials(q1, q2, c, Losses(1))
        for f, (i, j, k) in zip(gens, F_TRIPLES, strict=True):
            rays = _f_rays(q1, q2, np.array([i, i]), np.array([j, k]))
            assert_bits(f, _f_dets(rays, c.sigma))
            assert_bits(f, ref.f_determinant(pairs, i, j, k, c).coeffs)

    @pytest.mark.parametrize("seed", range(4))
    def test_g_generators_are_spec_determinants(self, seed):
        theta = float(np.random.default_rng(seed).uniform(0.05, 3.1))
        pairs = problem("gen5", "generalized", "sideways", theta, seed)
        c = sigma_from_angle(theta)
        rays = _ray_stack(pairs, *PLUCKER)
        gens = build_g_polynomials(*rays, c, Losses(1))
        for g, (i, j, k, l) in zip(gens, G_QUADRUPLES, strict=True):
            rows = _g_rows(*rays, np.array([i, i, i]), np.array([j, k, l]), c.sigma)
            assert_bits(g, _g_dets(rows))
            assert_bits(g, ref.g_determinant(pairs, i, j, k, l, c).coeffs)

    def test_spec_entries_match_scalar_rows(self):
        pairs = problem("gen5", "generalized", "forward", 0.7, 5)
        c = sigma_from_angle(0.7)
        rays = _ray_stack(pairs, *PLUCKER)
        rows = _g_rows(*rays, np.array([2, 2, 2]), np.array([0, 3, 4]), c.sigma)
        for row, j in zip(rows, (0, 3, 4), strict=True):
            for e, r in zip(row, ref.g_constraint_row(pairs, 2, j, c), strict=True):
                assert_bits(e, r.coeffs)


class TestScalarWrappers:
    def test_rotation_bilinear_form(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.normal(size=(2, 3))
            c = sigma_from_angle(rng.uniform(0.0, math.pi))
            expected = ref.rotation_bilinear_form(a, b, c).coeffs
            assert_bits(_bilinear_coeffs(a, b, c.sigma), expected)

    @pytest.mark.parametrize("d1,d2,dout", [(2, 2, 4), (2, 4, 6), (1, 3, 5), (0, 2, 3)])
    def test_poly_mul(self, d1, d2, dout):
        rng = np.random.default_rng(d1 * 10 + d2)
        b1, b2, bout = grevlex_basis(d1), grevlex_basis(d2), grevlex_basis(dout)
        for _ in range(20):
            p = ref.DensePolynomial(b1, rng.normal(size=b1.size))
            q = ref.DensePolynomial(b2, rng.normal(size=b2.size))
            prod = _mul_stack(p.coeffs, q.coeffs, d1, d2, dout)
            assert_bits(prod, ref.poly_mul(p, q, bout).coeffs)

    @pytest.mark.parametrize("degree", range(9))
    def test_reduce_mod_h(self, degree):
        # Dense random coefficients exercise every substitution step, so the
        # batched rounds must replay the sequential order on every basis.
        rng = np.random.default_rng(degree)
        basis = grevlex_basis(degree)
        for _ in range(20):
            p = ref.DensePolynomial(basis, rng.normal(size=basis.size))
            c = sigma_from_angle(rng.uniform(0.0, math.pi))
            reduced = p.coeffs[:, None].copy()
            reduce_columns_mod_h(reduced, basis, c.tau)
            assert_bits(reduced[:, 0], ref.reduce_mod_h(p, c).coeffs)


def assert_same_eigenvalues(M: np.ndarray) -> None:
    """The near-real eigenvalues against the per-eigenvalue loop, bit for bit."""
    values = eigensolve_real(M)
    assert type(values) is np.ndarray and values.dtype == np.float64
    assert_bits(values, ref.real_eigenvalues(M))


def chain_eigenvectors(M: np.ndarray, qb) -> tuple[np.ndarray, np.ndarray]:
    """The near-real eigenvalues of ``M`` and their eigenvectors rebuilt from
    the gamma chains, normalized at the monomial 1, one per row."""
    values = eigensolve_real(M)
    V, sample = gbsolver._chain_eigenvectors(values, [len(values)], M[None], qb)
    assert not np.isnan(V).any() and not sample.any()
    return values, V


# A chain eigenvector's backward error, max |M v - lambda v| over
# |M|_inf max |v|, is at most 6e-14 on these templates, as is that of the
# np.linalg.eig oracle's eigenvectors (9e-14).
EIGENVECTOR_RESIDUAL = 1e-12
# Normalized at the monomial 1, a chain eigenvector and the oracle's differ
# by at most 1.4e-12 |M|_inf / gap (relative to the largest entry, or
# absolutely below 1), where gap is the distance from the eigenvalue to the
# nearest other one, complex ones included.  Within a degree of a half turn
# the action matrices are nearly defective and both eigenvectors are off by
# up to 30 there: only the residual is checked, and the poses are checked
# against the loop solvers and, in test_angle_domain.py, against the truth.
EIGENVECTOR_GAP = 1e-10


def assert_chain_eigenvectors(M: np.ndarray, qb, near_half_turn: bool) -> None:
    values, V = chain_eigenvectors(M, qb)
    scale = np.linalg.norm(M, np.inf)
    residual = np.max(np.abs(V @ M.T - values[:, None] * V), axis=1)
    assert np.all(residual <= EIGENVECTOR_RESIDUAL * scale * np.max(np.abs(V), axis=1))
    oracle = ref.eigensolve_real(M)
    assert len(oracle) == len(values)
    every = np.linalg.eigvals(M)
    for lam, v in oracle:
        k = int(np.argmin(np.abs(values - lam)))
        assert abs(values[k] - lam) <= 1e-14 * scale
        if near_half_turn or abs(v[qb.pos_one]) <= 1e-10 * np.max(np.abs(v)):
            continue
        gap = np.sort(np.abs(every - lam))[1]
        want, got = v / v[qb.pos_one], V[k]
        tol = EIGENVECTOR_GAP * scale / gap * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= tol


ELIMINATION_THETAS = [1e-3, *np.random.default_rng(2024).uniform(0.0, math.pi, 3), math.pi - 1e-3]


def reductions(tp, tpl):
    """``(reduced, pivots)`` of the template on every committed partition,
    then by complete pivoting with and without the pivot hints, each on
    its standard columns."""
    out = [
        (rref_conditioned(tpl, quotient_basis_from_pivots(tp, pivots)), pivots)
        for pivots in tp.partitions
    ]
    for hints in (ref.pivot_hints(tp), {}):
        red, piv = ref.rref_conditioned(tpl, **hints)
        out.append((ref.standard_block(red, piv, grevlex_basis(tp.target_degree)), piv))
    return out


class TestEliminationMatchesOracle:
    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    @pytest.mark.parametrize("motion", ["forward", "sideways"])
    @pytest.mark.parametrize("theta", ELIMINATION_THETAS)
    def test_matches_the_oracle(self, solver, motion, theta):
        # The eigenvalues of the action matrix of every committed partition
        # and of complete pivoting with the hints, bit for bit, and their
        # chain eigenvectors to the tolerances above.
        tp = REGULAR if solver == "reg4" else GENERAL
        rays = "central" if solver == "reg4" else "generalized"
        for seed in range(2):
            pairs = problem(solver, rays, motion, theta, seed)
            # Each cyclic order of the pairs anchors the system on another pair.
            for k in range(tp.sample_size):
                ordered, c = ref.prepare(tp, pairs[k:] + pairs[:k], theta)
                _, tpl = generators_and_template(BATCHED, solver, ordered, c)
                for red, piv in reductions(tp, tpl)[:-1]:
                    qb = quotient_basis_from_pivots(tp, piv)
                    M = build_action_matrix(red, qb)
                    assert_same_eigenvalues(M)
                    assert_chain_eigenvectors(M, qb, near_half_turn=theta > math.pi - 0.01)

    def test_ties_go_to_the_first_maximum_in_row_major_order(self):
        # Complete pivoting, the oracle of the fallback, must be deterministic.
        # Four entries of magnitude 3: at (0, 1), (0, 3), (1, 0) and (2, 2).
        B = np.array([[1.0, -3.0, 0.0, 3.0], [3.0, 1.0, 2.0, 0.0], [0.0, 2.0, 3.0, 1.0]])
        for hints, first in (
            ({}, 1),
            ({"eliminate_first": (2, 3)}, 3),
            ({"protected_cols": frozenset({1})}, 3),
            ({"eliminate_first": (0, 2)}, 0),
        ):
            _, piv = ref.rref_conditioned(B, **hints)
            assert piv[0] == first

    def test_rank_deficient_raises(self):
        # Complete pivoting; the committed partitions' LU solve is checked
        # in test_gbsolver.py.
        pairs = problem("reg4", "central", "forward", 0.5, 1)
        c = sigma_from_angle(0.5)
        _, tpl = generators_and_template(BATCHED, "reg4", pairs, c)
        bad = tpl.copy()
        bad[5] = bad[2]
        for B, hints in (
            (bad, ref.pivot_hints(REGULAR)),
            (bad, {}),
            (np.array([[1.0, 2.0], [2.0, 4.0]]), {}),
            (np.zeros((2, 3)), {}),
            # The last pivot candidate sits exactly at PIVOT_TOL times its
            # row's scale.
            (np.array([[1.0, 0.0], [1.0, 1e-10]]), {}),
            # Two swaps move the scales with their rows; the residue of the
            # first row is then judged against its own scale 1, not 0.01.
            (np.array([[1.0, 0.0, 0.0], [4.0, 1e-11, 0.0], [0.0, 0.0, 0.01]]), {}),
        ):
            with pytest.raises(RankDeficient, match="pivots found"):
                ref.rref_conditioned(B, **hints)

    def test_eigenpairs_near_the_imaginary_tolerance(self):
        # Blocks [[a, -b], [b, a]] have eigenvalues a +- ib; with a = 1 the
        # filter drops b above 2e-6.
        for b in (0.0, 1.9e-6, 2.0e-6, 2.1e-6, 1.0):
            M = np.zeros((5, 5))
            M[:2, :2] = [[1.0, -b], [b, 1.0]]
            M[2:, 2:] = [[-2.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -0.0]]
            assert_same_eigenvalues(M)
            # What the tracer counts as complex eigenvalues.
            assert len(M) - len(eigensolve_real(M)) == (2 if b > 2.0e-6 else 0)


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (RelposeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_basis(qb, ref_qb) -> None:
    if isinstance(ref_qb, tuple):
        assert qb == ref_qb
        return
    assert (qb.pivots, qb.degree) == (ref_qb.pivots, ref_qb.degree)
    assert qb.monomials == ref_qb.monomials and qb.index == ref_qb.index
    assert np.array_equal(qb.template_cols, ref_qb.template_cols)
    assert qb.template_cols.dtype == ref_qb.template_cols.dtype
    assert np.array_equal(qb.successor, ref_qb.successor)
    assert (qb.pos_one, qb.pos_alpha, qb.pos_beta, qb.pos_gamma) == (
        ref_qb.pos_one, ref_qb.pos_alpha, ref_qb.pos_beta, ref_qb.pos_gamma
    )


def assert_same_roots(M: np.ndarray, qb) -> None:
    """``extract_roots`` against the per-eigenpair filter on the chain
    eigenpairs: the same drops, and the same roots bit for bit."""
    values, V = chain_eigenvectors(M, qb)
    ext = extract_roots([values], M[None], qb)
    ref_ext = ref.extract_roots(list(zip(values.tolist(), V)), qb)
    assert ext.n_dropped_at_infinity == ref_ext.n_dropped_at_infinity
    assert ext.n_dropped_inconsistent == ref_ext.n_dropped_inconsistent
    assert ext.roots.shape == (len(ref_ext.roots), 3)
    for root, ref_root in zip(ext.roots, ref_ext.roots):
        assert_bits(root, ref_root)


def assert_same_poses(poses, ref_poses) -> None:
    if isinstance(ref_poses, tuple):
        assert poses == ref_poses
        return
    assert len(poses) == len(ref_poses)
    for pose, ref_pose in zip(poses, ref_poses):
        for f in fields(RelativePose):
            got, want = getattr(pose, f.name), getattr(ref_pose, f.name)
            if f.name == "quat":
                assert got.sigma == want.sigma
                got, want = got.u, want.u
            if f.name in ("R", "t", "quat") or (f.name == "depths" and want is not None):
                assert_bits(np.asarray(got), np.asarray(want))
                assert type(got) is type(want)
            else:
                assert got == want


LOOP_SOLVERS = {
    "reg4": (solve_4pt_angle, loop_solve_4pt_angle),
    "gen5": (solve_gen5pt_angle, loop_solve_gen5pt_angle),
}


class TestBackEndMatchesOracle:
    """Quotient basis, action matrix, eigenvalues, root filter and poses
    against the loops of ``reference_templates``, ``reference_reg4`` and
    ``reference_gen5``."""

    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    @pytest.mark.parametrize("motion", ["forward", "sideways"])
    @pytest.mark.parametrize("theta", ELIMINATION_THETAS)
    def test_bit_identical(self, solver, motion, theta):
        tp = REGULAR if solver == "reg4" else GENERAL
        rays = "central" if solver == "reg4" else "generalized"
        solve, loop_solve = LOOP_SOLVERS[solver]
        basis = grevlex_basis(tp.target_degree)
        for seed in range(2):
            pairs = problem(solver, rays, motion, theta, seed)
            # Each cyclic order of the pairs anchors the system on another pair.
            for k in range(tp.sample_size):
                ordered, c = ref.prepare(tp, pairs[k:] + pairs[:k], theta)
                _, tpl = generators_and_template(BATCHED, solver, ordered, c)
                for red, piv in reductions(tp, tpl):
                    # Without hints a top-degree column stays standard on these
                    # templates, and both must raise UnreachableMonomial alike.
                    qb = outcome(quotient_basis_from_pivots, tp, piv)
                    ref_qb = outcome(ref.quotient_basis_from_pivots, basis, piv, tp.basis_size)
                    assert_same_basis(qb, ref_qb)
                    if isinstance(qb, tuple):
                        continue
                    M = outcome(build_action_matrix, red, qb)
                    ref_M = outcome(ref.build_action_matrix, red, piv, basis, qb)
                    if isinstance(ref_M, tuple):
                        assert M == ref_M
                        continue
                    assert_bits(M, ref_M)
                    assert_same_eigenvalues(M)
                    assert_same_roots(M, qb)
                assert_same_poses(
                    outcome(solve, ordered, theta), outcome(loop_solve, ordered, theta)
                )

    @pytest.mark.parametrize("motion", ["forward", "sideways"])
    def test_central_rays_raise_as_the_loop_solver(self, motion):
        pairs = problem("gen5", "central", motion, 0.5, 0)
        got = outcome(solve_gen5pt_angle, pairs, 0.5)
        assert got[0] is ScaleUnobservable
        assert got == outcome(loop_solve_gen5pt_angle, pairs, 0.5)


def assert_same_rotations(roots, c) -> None:
    """``candidate_rotations`` against one ``rectify_quaternion`` and one
    ``quat_to_rotation`` per root: every quaternion and rotation bit for bit,
    or the same error."""
    got = outcome(candidate_rotations, roots, c)
    want = outcome(ref.rectified_quaternions, roots, c)
    if isinstance(want, tuple):
        assert got == want
        return
    quats, Rs = got
    assert len(quats) == len(want) and Rs.shape == (len(want), 3, 3)
    for q, R, ref_q in zip(quats, Rs, want):
        assert q.sigma == ref_q.sigma
        assert_bits(q.u, ref_q.u)
        assert_bits(R, quat_to_rotation(ref_q))


class TestCandidateRotationsMatchOracle:
    """Rescaling and rotations of every root against the per-root loop."""

    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    @pytest.mark.parametrize("theta", ELIMINATION_THETAS)
    def test_bit_identical(self, solver, theta):
        module, rays = (solver_reg4, "central") if solver == "reg4" else (solver_gen5, "generalized")
        c = sigma_from_angle(theta)
        for seed in range(3):
            roots = ref.rotation_candidates(module, problem(solver, rays, "forward", theta, seed), c)
            assert len(roots) > 1
            assert_same_rotations(roots, c)
            # The zero angle pins any roots to the identity.
            assert_same_rotations(roots, sigma_from_angle(0.0))
            # A root below the direction threshold, or on it, is dropped.
            eps = U_DIRECTION_EPS
            for row, n_kept in (
                (roots[0] * (0.5 * eps / np.linalg.norm(roots[0])), len(roots) - 1),
                ([0.0, -eps, 0.0], len(roots) - 1),
                ([0.0, 0.0, math.nextafter(eps, 1.0)], len(roots)),
            ):
                short = roots.copy()
                short[0] = row
                assert len(candidate_rotations(short, c)[0]) == n_kept
                assert_same_rotations(short, c)
            # No root above it: both raise DegenerateConfiguration.
            assert_same_rotations(roots * (0.5 * eps / np.max(np.abs(roots))), c)
            assert outcome(candidate_rotations, roots[:0], c)[0] is DegenerateConfiguration
            # A NaN root is kept and fails the unit-quaternion check in both.
            nan_root = roots.copy()
            nan_root[1, 2] = math.nan
            assert outcome(candidate_rotations, nan_root, c)[0] is ValueError
            assert_same_rotations(nan_root, c)

    @pytest.mark.parametrize("solver", ["reg4", "gen5"])
    def test_zero_angle_solve(self, solver):
        pairs = problem(solver, "generalized", "sideways", 0.0, 1)
        solve, loop_solve = LOOP_SOLVERS[solver]
        poses = solve(pairs, 0.0)
        assert all(np.array_equal(p.R, np.eye(3)) and p.root_count == 1 for p in poses)
        assert_same_poses(poses, loop_solve(pairs, 0.0))


def regular_basis(seed: int = 0):
    pairs = problem("reg4", "central", "forward", 0.8, seed)
    ordered, c = ref.prepare(REGULAR, pairs, 0.8)
    _, tpl = generators_and_template(BATCHED, "reg4", ordered, c)
    piv = REGULAR.partitions[0]
    qb = quotient_basis_from_pivots(REGULAR, piv)
    return tpl, rref_conditioned(tpl, qb), piv, qb


class TestHandBuiltEigenpairs:
    """Each drop rule of ``extract_roots`` on an action matrix built by hand
    with known eigenvectors."""

    @pytest.fixture(autouse=True)
    def solve_error_state(self):
        # The chain system of the eigenvalue 0 is singular; the kernels run
        # under the error state that a solve holds for them.
        with np.errstate(all="ignore"):
            yield

    def test_every_drop_rule(self):
        _, _, _, qb = regular_basis()
        M, values, points = ref.hand_built_action(qb)
        assert np.allclose(np.sort(eigensolve_real(M)), np.sort(values), atol=1e-9)
        ext = extract_roots([np.array(values)], M[None], qb)
        assert ext.n_dropped_at_infinity == 2 and ext.n_dropped_inconsistent == 1
        assert np.max(np.abs(ext.roots - points)) < 1e-9
        for case, dropped in (([0.7], (1, 0)), ([-0.6], (0, 1)), ([0.0], (1, 0)), ([], (0, 0))):
            got = extract_roots([np.array(case)], M[None], qb)
            assert (got.n_dropped_at_infinity, got.n_dropped_inconsistent) == dropped
            assert got.roots.shape == (0, 3)

    def test_filters_on_given_vectors(self, monkeypatch):
        # The filters on eigenvectors as the chains return them, normalized
        # at the monomial 1, against the per-eigenpair oracle: one at a
        # time, all together and reversed.  Eigenvalue k stands for vector k.
        _, _, _, qb = regular_basis()
        u = np.array([0.1, -0.2, 0.3])
        root = np.array([np.prod(u ** np.array(m)) for m in qb.monomials])
        cubic = next(i for i, m in enumerate(qb.monomials) if sum(m) == 3)
        square = next(i for i, m in enumerate(qb.monomials) if m in ((2, 0, 0), (1, 1, 0)))
        # The largest entry exactly on the at-infinity bound, 1e10 times the
        # entry at 1, is dropped; one step below it is kept.
        on_bound, below_bound, bad_product = root.copy(), root.copy(), root.copy()
        on_bound[cubic], below_bound[cubic] = 1e10, math.nextafter(1e10, 0.0)
        bad_product[square] += 1e-5
        bad_on_bound = on_bound.copy()
        bad_on_bound[square] += 1e-5
        vectors = np.array([root, on_bound, below_bound, bad_product, bad_on_bound])
        monkeypatch.setattr(
            gbsolver, "_chain_eigenvectors",
            lambda lam, sizes, action, qb, steps: (
                vectors[lam.astype(int)], np.zeros(len(lam), dtype=int)
            ),
        )
        M = np.zeros((qb.size, qb.size))
        n = len(vectors)
        for order in [[k] for k in range(n)] + [list(range(n)), list(range(n))[::-1], []]:
            ext = extract_roots([np.array(order, dtype=float)], M[None], qb)
            ref_ext = ref.extract_roots([(v[qb.pos_gamma], v) for v in vectors[order]], qb)
            assert ext.n_dropped_at_infinity == ref_ext.n_dropped_at_infinity
            assert ext.n_dropped_inconsistent == ref_ext.n_dropped_inconsistent
            assert ext.roots.shape == (len(ref_ext.roots), 3)
            for got, want in zip(ext.roots, ref_ext.roots):
                assert_bits(got, want)
        ext = extract_roots([np.arange(float(n))], M[None], qb)
        assert (ext.n_dropped_at_infinity, ext.n_dropped_inconsistent) == (2, 1)
        assert_bits(ext.roots, np.array([u, u]))
        # A NaN row, the mark of a singular chain system, is at infinity.
        vectors = np.full((1, qb.size), math.nan)
        ext = extract_roots([np.zeros(1)], M[None], qb)
        assert (ext.n_dropped_at_infinity, ext.n_dropped_inconsistent) == (1, 0)

    def test_a_singular_chain_system_fails_alone(self):
        _, _, _, qb = regular_basis()
        M, values, _ = ref.hand_built_action(qb)
        V, _ = gbsolver._chain_eigenvectors(np.array(values), [len(values)], M[None], qb)
        assert np.isnan(V).any(axis=1).tolist() == [False] * (len(values) - 1) + [True]
        # Beside the same matrix without the eigenvalue 0, in one stack, the
        # other roots come out as without it, and as alone.
        alone = extract_roots([np.array(values[:-1])], M[None], qb)
        both = extract_roots([np.array(values), np.array(values[:-1])], np.stack([M, M]), qb)
        assert both.at_infinity.tolist() == [2, 1] and both.inconsistent.tolist() == [1, 1]
        assert_bits(both.roots[both.sample == 0], both.roots[both.sample == 1])
        assert_bits(both.roots[both.sample == 1], alone.roots)

    def test_solves_pass_a_right_hand_side_of_the_matrix_rank(self, monkeypatch):
        # numpy 1.x reads a 1-D right-hand side beside a stack of matrices
        # as too few dimensions and raises ValueError; a right-hand side of
        # the matrix's own rank reads alike in every numpy.  The eigenvalue 0
        # also takes the per-root solves.
        _, _, _, qb = regular_basis()
        M, values, _ = ref.hand_built_action(qb)
        solve = np.linalg.solve

        def same_rank_solve(a, b):
            assert np.ndim(b) == np.ndim(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", same_rank_solve)
        ext = extract_roots([np.array(values)], M[None], qb)
        assert ext.n_dropped_at_infinity == 2 and ext.n_dropped_inconsistent == 1

    def test_alpha_beta_products_drop_a_wrong_null_vector(self):
        # The chains hold the gamma entry and every product with a gamma
        # factor whatever the heads; a wrong null vector fails on alpha^2,
        # alpha beta or beta^2 only.
        _, _, _, qb = regular_basis()
        M, _, _ = ref.hand_built_action(qb)
        v = gbsolver._chain_eigenvectors(np.array([-0.6]), [1], M[None], qb)[0][0]
        assert abs(v[qb.pos_gamma] + 0.6) <= 1e-12
        failed = set()
        for m, x, y in ref.product_checks(qb):
            if qb.pos_gamma in (x, y):
                assert abs(v[m] - v[x] * v[y]) <= 1e-12
            elif abs(v[m] - v[x] * v[y]) > ROOT_TOL:
                failed.add(qb.monomials[m])
        assert failed and failed <= {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
        ext = extract_roots([np.array([-0.6])], M[None], qb)
        assert ext.n_dropped_inconsistent == 1 and ext.n_dropped_at_infinity == 0


def leave_top_degree_standard(piv: tuple[int, ...], n_cols: int) -> tuple[int, ...]:
    """A REGULAR partition with its first top-degree pivot swapped for the
    highest standard column that reads no root."""
    hints = ref.pivot_hints(REGULAR)
    assert piv[0] in hints["eliminate_first"]
    free = [j for j in range(n_cols) if j not in piv and j not in hints["protected_cols"]]
    return (free[0], *piv[1:])


class TestUnreachableMonomial:
    def test_raises_the_oracle_message(self):
        tpl, red, piv, _ = regular_basis(1)
        bad = leave_top_degree_standard(piv, tpl.shape[1])
        basis = grevlex_basis(REGULAR.target_degree)
        qb = quotient_basis_from_pivots(REGULAR, bad)
        assert_same_basis(qb, ref.quotient_basis_from_pivots(basis, bad, REGULAR.basis_size))
        with pytest.raises(UnreachableMonomial) as new:
            build_action_matrix(red, qb)
        with pytest.raises(UnreachableMonomial) as old:
            ref.build_action_matrix(red, bad, basis, qb)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith("gamma * ")

    def test_solve_and_ransac_raise_it_unwrapped(self, monkeypatch):
        # A leaky partition is a fault of the problem, not of a sample.
        _, red, _, _ = regular_basis(1)
        n_cols = REGULAR.template_shape[1]
        leaky = tuple(leave_top_degree_standard(p, n_cols) for p in REGULAR.partitions)
        with pytest.raises(UnreachableMonomial) as direct:
            build_action_matrix(red, quotient_basis_from_pivots(REGULAR, leaky[0]))
        monkeypatch.setattr(solver_reg4, "REGULAR", replace(REGULAR, partitions=leaky))
        for solved in raised_by_solve_and_ransac(UnreachableMonomial):
            assert str(solved.value) == str(direct.value)


def raised_by_solve_and_ransac(error):
    """The ``error`` that a single reg4 solve and a RANSAC run on the same
    four pairs each raise, unwrapped."""
    pairs = problem("reg4", "central", "forward", 0.8, 1)
    with pytest.raises(error) as solved:
        solve_4pt_angle(pairs, 0.8)
    with pytest.raises(error) as robust:
        ransac_estimate(pairs, 0.8, RansacConfig(inlier_threshold=1e-6), "reg4")
    for info in (solved, robust):
        assert type(info.value) is error and info.value.__cause__ is None
    return solved, robust


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"basis_size": 21}, BasisAnomaly, "quotient basis has size 20, expected 21"),
        (
            {"multipliers": ((0, 0, 2),)}, DegreeOverflow,
            "multiplier (0, 0, 2) on a degree-4 generator exceeds degree 5",
        ),
    ],
    ids=["basis_size", "multipliers"],
)
def test_a_problem_fault_raises_at_once(monkeypatch, change, error, message):
    # It hits every sample alike, so RANSAC does not draw on to NoHypothesis.
    monkeypatch.setattr(solver_reg4, "REGULAR", replace(REGULAR, **change))
    for info in raised_by_solve_and_ransac(error):
        assert str(info.value) == message


class TestDegenerateInputs:
    @pytest.mark.parametrize("views", ["1", "2", "12"])
    @pytest.mark.parametrize("first,second", [(i, j) for i in range(4) for j in range(i + 1, 4)])
    def test_coincident_rays_raise_the_same_message(self, first, second, views):
        # Ray ``second`` is ray ``first`` in ``views`` only, so that pair is
        # the first and only coincident one; in both views, view 1 is named.
        pairs = problem("reg4", "central", "forward", 0.5, 1)
        c = sigma_from_angle(0.5)
        bad = list(pairs)
        names = [f"q{v}" for v in views]
        bad[second] = replace(pairs[second], **{name: getattr(pairs[first], name) for name in names})
        losses = Losses(1)
        build_f_polynomials(*_ray_stack(bad, "q1", "q2"), c, losses)
        [batched] = losses.errors
        assert type(batched) is DegenerateInput and losses.status.tolist() == [1]
        with pytest.raises(DegenerateInput) as scalar:
            ref.build_f_polynomials(bad, c)
        assert str(batched) == str(scalar.value)
        named = f"rays {first} and {second} coincide in view {views[0]};"
        assert str(batched).startswith(named)
        with pytest.raises(DegenerateInput) as solved:
            solve_4pt_angle(bad, 0.5)
        assert type(solved.value) is DegenerateInput
        assert isinstance(solved.value, DegenerateConfiguration)
        assert str(solved.value) == str(scalar.value)

    def test_collapsed_determinant(self):
        pairs = problem("gen5", "generalized", "forward", 0.5, 2)
        c = sigma_from_angle(0.5)
        losses = Losses(1)
        build_g_polynomials(*_ray_stack([pairs[0]] * 5, *PLUCKER), c, losses)
        [error] = losses.errors
        assert type(error) is DegenerateInput and losses.status.tolist() == [1]
        assert str(error).startswith("a determinant constraint collapsed to zero")
        with pytest.raises(DegenerateConfiguration):
            solve_gen5pt_angle([pairs[0]] * 5, 0.5)

    def test_degree_overflow(self):
        pairs = problem("reg4", "central", "forward", 0.5, 3)
        c = sigma_from_angle(0.5)
        fs = ref.package_generators(build_f_polynomials, _ray_stack(pairs, "q1", "q2"), c)
        message = "^multiplier {} on a degree-4 generator exceeds degree 5$"
        with pytest.raises(DegreeOverflow, match=message.format(r"\(0, 0, 2\)")):
            assemble_reduced_template(fs, replace(REGULAR, multipliers=((0, 0, 2),)), c)
        with pytest.raises(DegreeOverflow, match=message.format(r"\(1, 1, 0\)")):
            assemble_reduced_template(fs, replace(REGULAR, extra_rows=(((1, 1, 0), 0),)), c)
