import math
from dataclasses import replace

import numpy as np
import pytest

from relpose import gbsolver, geom, solver_gen5, solver_reg4
from relpose.exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegenerateInput,
    EigenFailure,
    RankDeficient,
    UnreachableMonomial,
)
from relpose.gbsolver import (
    GENERAL,
    REGULAR,
    Losses,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    quotient_basis_from_pivots,
    rref_conditioned,
)
from relpose.geom import rotation_angle, sigma_from_angle
from relpose.poly import (
    _ray_stack,
    build_f_polynomials,
    build_g_polynomials,
    grevlex_basis,
    grevlex_key,
)
from relpose.synth import SceneConfig, generate_scene
import reference_templates as ref
from reference_geom import quat_from_rotation
from reference_templates import (
    DensePolynomial,
    as_polynomials,
    candidate_rotations,
    package_generators,
    reduce_mod_h,
    rref,
    schur_equivalence_check,
    spoil_template,
)

# Leading exponents of the ten reduced generating polynomials of the regular
# problem; the expected quotient basis is everything they do not divide.
REGULAR_LEADING_EXPONENTS = [
    (0, 2, 3), (1, 0, 4), (0, 1, 4), (0, 0, 5), (1, 3, 0),
    (0, 4, 0), (1, 2, 1), (0, 3, 1), (1, 1, 2), (2, 0, 0),
]


def regular_instance(seed):
    truth, pairs = generate_scene(SceneConfig(seed=seed), 4)
    theta = rotation_angle(truth.R)
    c = sigma_from_angle(theta)
    gens = package_generators(build_f_polynomials, _ray_stack(pairs, "q1", "q2"), c)
    return gens, c, quat_from_rotation(truth.R).u


def general_instance(seed):
    truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=True), 5)
    theta = rotation_angle(truth.R)
    c = sigma_from_angle(theta)
    gens = package_generators(build_g_polynomials, _ray_stack(pairs, "q1", "q2", "m1", "m2"), c)
    return gens, c, quat_from_rotation(truth.R).u


def regular_template(seed):
    fs, c, u = regular_instance(seed)
    return assemble_reduced_template(fs, REGULAR, c), c, u


def general_template(seed):
    gs, c, u = general_instance(seed)
    return assemble_reduced_template(gs, GENERAL, c), c, u


class TestAssemble:
    def test_regular_shape(self):
        tpl, _, _ = regular_template(0)
        assert tpl.shape == (16, 36)

    def test_general_shape(self):
        tpl, _, _ = general_template(0)
        assert tpl.shape == (37, 81)

    def test_unit_multiplier_row_is_reduced_generator(self):
        fs, c, _ = regular_instance(1)
        tpl = assemble_reduced_template(fs, REGULAR, c)
        b5 = grevlex_basis(5)
        embedded = np.zeros(b5.size)
        f0 = as_polynomials(fs)[0]
        for m, v in zip(f0.basis.monomials, f0.coeffs):
            embedded[b5.index[m]] = v
        reduced = reduce_mod_h(DensePolynomial(b5, embedded), c)
        assert np.allclose(tpl[0], reduced.coeffs[b5.alpha2_size :], atol=1e-15)
        oracle = ref.assemble_reduced_template(as_polynomials(fs), REGULAR.multipliers, 5, c)
        assert oracle.row_labels[0] == ((0, 0, 0), 0)
        assert np.array_equal(tpl[0], oracle.matrix[0])

    def test_determinism(self):
        a, _, _ = regular_template(2)
        b, _, _ = regular_template(2)
        assert np.array_equal(a, b)


class TestSchurEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_routes_agree(self, seed):
        fs, c, _ = regular_instance(seed)
        assert schur_equivalence_check(fs, c) < 1e-11

    def test_right_angle_instance(self):
        truth, pairs = generate_scene(SceneConfig(seed=6, theta_rad=math.pi / 2), 4)
        c = sigma_from_angle(math.pi / 2)
        fs = package_generators(build_f_polynomials, _ray_stack(pairs, "q1", "q2"), c)
        assert schur_equivalence_check(fs, c) < 1e-11

    def test_spot_entry_formula(self):
        # The entry of a reduced multiplier row at the (multiplier * c^2)
        # column is a fixed four-term combination of the generator's raw
        # coefficients: 2*tau*A[a^4] - tau*A[a^2 c^2] - A[a^2] + A[c^2].
        fs, c, _ = regular_instance(7)
        tpl = assemble_reduced_template(fs, REGULAR, c)
        b4 = grevlex_basis(4)
        plain = sorted(b4.monomials, key=grevlex_key, reverse=True)
        A = np.zeros((4, 35))
        for r, f in enumerate(as_polynomials(fs)):
            for m, v in zip(f.basis.monomials, f.coeffs):
                A[r, plain.index(m)] = v
        # 1-indexed positions in the plain descending-grevlex coefficient
        # vector: 1 = a^4, 10 = a^2 c^2, 26 = a^2, 31 = c^2.
        assert plain[0] == (4, 0, 0)
        assert plain[9] == (2, 0, 2)
        assert plain[25] == (2, 0, 0)
        assert plain[30] == (0, 0, 2)
        rem = grevlex_basis(5).remainder_monomials
        for mi, mult in enumerate(REGULAR.multipliers):
            for gi in range(4):
                row = mi * 4 + gi
                col = rem.index((mult[0], mult[1], mult[2] + 2))
                expected = (
                    2 * c.tau * A[gi, 0] - c.tau * A[gi, 9] - A[gi, 25] + A[gi, 30]
                )
                assert tpl[row, col] == pytest.approx(expected, abs=1e-11)
        # The template row for the third multiplier applied to the last
        # generator is row 16 in 1-based counting, as published.
        oracle = ref.assemble_reduced_template(as_polynomials(fs), REGULAR.multipliers, 5, c)
        assert oracle.row_labels[15] == ((0, 0, 1), 3)
        assert np.array_equal(tpl[15], oracle.matrix[15])


class TestRref:
    def test_identity(self):
        red, piv = rref(np.eye(4))
        assert np.array_equal(red, np.eye(4)) and piv == [0, 1, 2, 3]

    def test_generic_regular_instance_pivots_lead(self):
        tpl, _, _ = regular_template(3)
        red, piv = rref(tpl)
        assert piv == list(range(16))
        assert np.allclose(red[:, :16], np.eye(16), atol=1e-9)

    def test_duplicated_row_is_rank_deficient(self):
        tpl, _, _ = regular_template(4)
        bad = tpl.copy()
        bad[7] = bad[3]
        with pytest.raises(RankDeficient):
            rref(bad)

    def test_determinism(self):
        tpl, _, _ = regular_template(5)
        r1, p1 = rref(tpl)
        r2, p2 = rref(tpl)
        assert np.array_equal(r1, r2) and p1 == p2


class TestRrefConditioned:
    @pytest.mark.parametrize(
        "problem, template",
        [(REGULAR, regular_template), (GENERAL, general_template)],
        ids=["regular", "general"],
    )
    def test_every_committed_partition_reduces_the_template(self, problem, template):
        tpl, _, _ = template(1)
        for pivots in problem.partitions:
            qb = quotient_basis_from_pivots(problem, pivots)
            red, cols = rref_conditioned(tpl, qb), qb.template_cols
            assert red.shape == (len(pivots), len(cols))
            # the reduced rows reproduce the template's standard columns
            # through the pivot block
            assert np.max(np.abs(tpl[:, pivots] @ red - tpl[:, cols])) < 1e-8
            # and are, bit for bit, those columns of the full-width solve
            full = np.linalg.solve(tpl[:, pivots], tpl)
            assert np.array_equal(red, full[:, cols])

    @pytest.mark.parametrize("problem", [REGULAR, GENERAL], ids=["regular", "general"])
    def test_a_singular_or_non_finite_template_reduces_to_nan_rows_alone(self, problem):
        template = regular_template if problem is REGULAR else general_template
        stack = np.array([template(seed)[0] for seed in range(4, 9)])
        pivots = problem.partitions[0]
        spoil_template(stack[1], pivots, "singular")
        spoil_template(stack[3], pivots, "non-finite")
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(stack[1][:, pivots], stack[1])
        qb = quotient_basis_from_pivots(problem, pivots)
        # Under the error state that a solve holds for its kernels.
        with np.errstate(all="ignore"):
            red, cols = rref_conditioned(stack, qb), qb.template_cols
        assert np.isnan(red[[1, 3]]).all()
        for k in (0, 2, 4):
            assert np.array_equal(red[k], np.linalg.solve(stack[k][:, pivots], stack[k][:, cols]))

    def test_row_space_preserved(self):
        # Complete pivoting, the oracle of the solvers' fallback.
        tpl, _, _ = general_template(1)
        rem = grevlex_basis(8).remainder_monomials
        top = tuple(j for j, m in enumerate(rem) if sum(m) == 8)
        keep = frozenset(
            j for j, m in enumerate(rem)
            if m in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        red, piv = ref.rref_conditioned(tpl, protected_cols=keep, eliminate_first=top)
        assert len(piv) == 37
        assert set(piv).isdisjoint(keep)
        assert set(top) <= set(piv)
        # the reduced rows reproduce the template through the pivot block
        assert np.max(np.abs(tpl[:, piv] @ red - tpl)) < 1e-8

    @pytest.mark.parametrize(
        "problem, template",
        [(REGULAR, regular_template), (GENERAL, general_template)],
        ids=["regular", "general"],
    )
    def test_determinism(self, problem, template):
        tpl, _, _ = template(2)
        qb = quotient_basis_from_pivots(problem, problem.partitions[0])
        r1 = rref_conditioned(tpl, qb)
        r2 = rref_conditioned(tpl, qb)
        assert np.array_equal(r1, r2)
        r1, p1 = ref.rref_conditioned(tpl, **ref.pivot_hints(problem))
        r2, p2 = ref.rref_conditioned(tpl, **ref.pivot_hints(problem))
        assert np.array_equal(r1, r2) and p1 == p2


class TestQuotientBasis:
    def test_regular_monomials_match_leading_ideal(self):
        tpl, _, _ = regular_template(8)
        _, piv = rref(tpl)
        qb = quotient_basis_from_pivots(REGULAR, piv)
        b5 = grevlex_basis(5)
        divisible = {
            m
            for m in b5.monomials
            if any(all(m[k] >= lm[k] for k in range(3)) for lm in REGULAR_LEADING_EXPONENTS)
        }
        expected = {m for m in b5.monomials if m not in divisible}
        assert set(qb.monomials) == expected
        assert qb.size == 20

    def test_ascending_order_and_positions(self):
        tpl, _, _ = regular_template(9)
        _, piv = rref(tpl)
        qb = quotient_basis_from_pivots(REGULAR, piv)
        keys = [grevlex_key(m) for m in qb.monomials]
        assert keys == sorted(keys)
        assert qb.monomials[qb.pos_one] == (0, 0, 0)
        assert qb.monomials[qb.pos_alpha] == (1, 0, 0)
        assert qb.monomials[qb.pos_beta] == (0, 1, 0)
        assert qb.monomials[qb.pos_gamma] == (0, 0, 1)

    def test_general_size_44(self):
        tpl, _, _ = general_template(3)
        _, piv = rref(tpl)
        qb = quotient_basis_from_pivots(GENERAL, piv)
        assert qb.size == 44
        assert qb.pivots == tuple(piv) and qb.degree == 8

    @pytest.mark.parametrize("problem", [REGULAR, GENERAL], ids=["regular", "general"])
    def test_no_array_can_be_written(self, problem):
        # Every later solve on the partition shares these tables.
        qb = quotient_basis_from_pivots(problem, problem.partitions[0])
        arrays = {name: v for name, v in vars(qb).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {
            "template_cols", "rref_columns", "successor", "units", "pivot_rows", "pivot_polys",
            "chain", "depth", "chain_gather", "chain_constants", "products", "root_cols",
        }
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_unexpected_size_raises(self):
        tpl, _, _ = regular_template(10)
        _, piv = rref(tpl)
        with pytest.raises(BasisAnomaly, match="^quotient basis has size 20, expected 44$"):
            quotient_basis_from_pivots(replace(REGULAR, basis_size=44), piv)


class TestActionMatrix:
    def build(self, seed):
        tpl, c, u = regular_template(seed)
        red, piv = rref(tpl)
        qb = quotient_basis_from_pivots(REGULAR, piv)
        M = build_action_matrix(red[:, qb.template_cols], qb)
        return tpl, red, piv, qb, M, u

    def test_shape(self):
        *_, M, _ = self.build(11)
        assert M.shape == (20, 20)

    def test_unit_entry_pattern(self):
        # Published pattern in descending-grevlex indexing; our basis is
        # ascending, so published (i, j) maps to (21 - i, 21 - j), 1-based.
        published = [
            (8, 1), (9, 2), (10, 3), (11, 4), (12, 7), (13, 8), (14, 9),
            (15, 10), (16, 11), (17, 14), (18, 15), (19, 16), (20, 19),
        ]
        *_, M, _ = self.build(12)
        for i, j in published:
            assert M[20 - i, 20 - j] == 1.0

    def test_rows_are_unit_or_copied(self):
        tpl, red, piv, qb, M, _ = self.build(13)
        rem = grevlex_basis(5).remainder_monomials
        pivot_row = {rem[col]: r for r, col in enumerate(piv)}
        n_unit = 0
        for i, m in enumerate(qb.monomials):
            lifted = (m[0], m[1], m[2] + 1)
            if lifted in qb.index:
                n_unit += 1
                assert M[i, qb.index[lifted]] == 1.0
                assert np.count_nonzero(M[i]) == 1
            else:
                r = pivot_row[lifted]
                assert np.allclose(M[i], -red[r, qb.template_cols])
        assert n_unit == 13  # 20 basis monomials, 7 hit pivot leading monomials


class TestEigensolve:
    def test_diagonal(self):
        values = eigensolve_real(np.diag([1.0, 2.0, 3.0]))
        assert sorted(values.tolist()) == [1.0, 2.0, 3.0]

    def test_pure_rotation_has_no_real_eigenvalues(self):
        assert len(eigensolve_real(np.array([[0.0, -1.0], [1.0, 0.0]]))) == 0

    def test_matrix_size_less_output_counts_complex_eigenvalues(self):
        # perfbench's tracer counts complex eigenvalues as len(M) - len(out)
        # of each call: two complex pairs, one near-real pair kept, and
        # three real eigenvalues.
        M = np.zeros((9, 9))
        for k, (a, b) in enumerate(((1.0, 2.0), (-0.5, 1e-3), (0.3, 1e-8))):
            M[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[a, -b], [b, a]]
        M[6:, 6:] = [[2.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
        values = eigensolve_real(M)
        assert len(M) - len(values) == 4
        assert sorted(values.tolist()) == pytest.approx([-1.0, 0.0, 0.3, 0.3, 2.0])

    def test_ground_truth_gamma_among_eigenvalues(self):
        tpl, c, u = regular_template(7)
        red, piv = rref(tpl)
        qb = quotient_basis_from_pivots(REGULAR, piv)
        M = build_action_matrix(red[:, qb.template_cols], qb)
        assert np.min(np.abs(eigensolve_real(M) - u[2])) < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_matrix_raises_eigen_failure_with_numpys_message(self, bad):
        M = np.diag([1.0, 2.0, 3.0])
        M[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError) as numpy_info:
            np.linalg.eigvals(M)
        with pytest.raises(EigenFailure) as info:
            eigensolve_real(M)
        assert str(info.value) == str(numpy_info.value) == "Array must not contain infs or NaNs"
        assert type(info.value.__cause__) is np.linalg.LinAlgError
        assert str(info.value.__cause__) == str(info.value)

    def test_a_matrix_that_does_not_converge_raises_eigen_failure(self, monkeypatch):
        # LAPACK's eigenvalue gufunc marks a matrix whose eigenvalues do not
        # converge NaN, where np.linalg.eigvals raises with this message.
        monkeypatch.setattr(
            gbsolver._umath_linalg, "eigvals", lambda M, signature: np.full(len(M), np.nan + 0j)
        )
        with pytest.raises(EigenFailure, match="^Eigenvalues did not converge$") as info:
            eigensolve_real(np.diag([1.0, 2.0, 3.0]))
        assert type(info.value.__cause__) is np.linalg.LinAlgError
        # A single solve raises it, a configuration it could not solve.
        truth, pairs = generate_scene(SceneConfig(seed=3), 4)
        with pytest.raises(EigenFailure, match="^Eigenvalues did not converge$") as info:
            solver_reg4.solve_4pt_angle(pairs, rotation_angle(truth.R))
        assert type(info.value) is EigenFailure
        assert isinstance(info.value, DegenerateConfiguration)


@pytest.mark.parametrize(
    "error,of_the_data",
    [
        (DegenerateInput, True), (RankDeficient, True), (EigenFailure, True),
        (BasisAnomaly, False), (UnreachableMonomial, False),
    ],
)
def test_only_a_failure_of_the_data_is_a_degenerate_configuration(error, of_the_data):
    # A single solve raises the error its sample recorded as it is, so
    # ``except DegenerateConfiguration`` catches the failures that a sample's
    # data cause and none of the engine faults.
    assert issubclass(error, DegenerateConfiguration) is of_the_data


class TestLosses:
    """``Losses.lose`` is the one call through which a stage loses samples."""

    @pytest.mark.parametrize(
        "where",
        [np.array([False, True, False, True]), np.array([1, 3]), slice(1, None, 2)],
        ids=["mask", "indices", "slice"],
    )
    def test_where_may_be_a_mask_indices_or_a_slice(self, where):
        losses, error = Losses(4), RankDeficient("lost")
        losses.lose(where, error)
        assert losses.status.tolist() == [0, 1, 0, 1] and losses.errors == [error]

    def test_a_single_index_loses_one_sample(self):
        losses, error = Losses(3), RankDeficient("lost")
        losses.lose(np.arange(3)[2], error)
        assert losses.status.tolist() == [0, 0, 1] and losses.errors == [error]

    def test_the_first_loss_of_a_sample_wins(self):
        losses = Losses(3)
        first, second = DegenerateConfiguration("first"), RankDeficient("second")
        losses.lose(np.array([0, 1]), first)
        losses.lose(slice(None), second)
        assert losses.status.tolist() == [1, 1, 2] and losses.errors == [first, second]

    @pytest.mark.parametrize(
        "where",
        [np.array([0]), np.zeros(3, dtype=bool), slice(0, 1), np.array([], dtype=np.int64)],
        ids=["lost-index", "empty-mask", "lost-slice", "no-index"],
    )
    def test_a_call_that_hits_no_live_sample_appends_no_error(self, where):
        losses, first = Losses(3), DegenerateConfiguration("first")
        losses.lose(np.array([True, False, False]), first)
        losses.lose(where, RankDeficient("again"))
        assert losses.status.tolist() == [1, 0, 0] and losses.errors == [first]

    def test_none_picks_no_sample(self):
        losses = Losses(2)
        losses.lose(None, RankDeficient("none"))
        assert losses.status.tolist() == [0, 0] and losses.errors == []

    def test_unowned_picks_the_live_samples_without_rows(self):
        losses = Losses(4)
        losses.lose(np.array([2]), DegenerateConfiguration("lost"))
        losses.lose(losses.unowned(np.array([0, 0, 3])), RankDeficient("rowless"))
        assert losses.status.tolist() == [0, 2, 1, 0]
        single = Losses(1)
        assert single.unowned(np.array([0, 0])) is None
        single.lose(single.unowned(np.array([], dtype=np.int64)), RankDeficient("rowless"))
        assert single.status.tolist() == [1]


# Each public tolerance, and the private copy that no kernel may read in its
# place: setting the public name must set what the kernels compare against.
TOLERANCES = [
    (gbsolver, "IMAG_TOL", "_IMAG"), (gbsolver, "ROOT_TOL", "_ROOT"),
    (gbsolver, "POSE_RESIDUAL_TOL", "_GATE"), (gbsolver, "U_DIRECTION_EPS", "_AXIS"),
    (gbsolver, "POLISH_ROUNDING", "_POLISHED"), (solver_gen5, "CENTRAL_MOMENT_EPS", "_MOMENT"),
    (solver_gen5, "SCALE_RANK_EPS", "_RANK"), (solver_gen5, "SCALE_COMPONENT_EPS", "_COMPONENT"),
    (geom, "PARALLEL_RAY_EPS", "_PARALLEL"),
]


@pytest.mark.parametrize("module, name, twin", TOLERANCES, ids=[t[1] for t in TOLERANCES])
def test_a_tolerance_is_the_one_read_only_array_its_kernels_read(module, name, twin):
    value = getattr(module, name)
    assert type(value) is np.ndarray and value.shape == () and value.dtype == np.float64
    assert not value.flags.writeable
    assert not hasattr(module, twin)


def test_the_kernels_read_the_public_tolerance(monkeypatch):
    # A generous root tolerance keeps a root that the committed one drops.
    qb = quotient_basis_from_pivots(REGULAR, REGULAR.partitions[0])
    M, values, _ = ref.hand_built_action(qb)
    # As ``solve`` holds it: the eigenvalue 0 has a singular chain system.
    with np.errstate(all="ignore"):
        dropped = extract_roots([np.array(values)], M[None], qb).n_dropped_inconsistent
        monkeypatch.setattr(gbsolver, "ROOT_TOL", np.array(np.inf))
        kept = extract_roots([np.array(values)], M[None], qb).n_dropped_inconsistent
    assert kept < dropped


class TestGammaChains:
    @pytest.mark.parametrize(
        "problem, n_heads", [(REGULAR, 11), (GENERAL, 22)], ids=["regular", "general"]
    )
    def test_every_index_lies_in_one_chain(self, problem, n_heads):
        for k, pivots in enumerate(problem.partitions):
            qb = quotient_basis_from_pivots(problem, pivots)
            chain, depth = qb.chain, qb.depth
            members = {}
            for i, (cn, d) in enumerate(zip(chain.tolist(), depth.tolist())):
                assert (cn, d) not in members
                members[(cn, d)] = qb.monomials[i]
            heads = [members[(cn, 0)] for cn in range(chain.max() + 1)]
            for (cn, d), (a, b, g) in members.items():
                # gamma times a member is the next member, or leaves the basis
                # at the tail; a head has no gamma quotient in the basis.
                following = members.get((cn, d + 1))
                if following is None:
                    assert (a, b, g + 1) not in qb.index
                else:
                    assert following == (a, b, g + 1)
            for a, b, g in heads:
                assert g == 0 or (a, b, g - 1) not in qb.index
            assert len(heads) == len(qb.pivot_rows)
            if k == 0:
                assert len(heads) == n_heads


class TestExtractRoots:
    def full_pipeline(self, seed):
        tpl, c, u = regular_template(seed)
        red, piv = rref(tpl)
        qb = quotient_basis_from_pivots(REGULAR, piv)
        M = build_action_matrix(red[:, qb.template_cols], qb)
        return qb, M, u

    def test_recovers_ground_truth(self):
        qb, M, u = self.full_pipeline(11)
        ext = extract_roots([eigensolve_real(M)], M[None], qb)
        assert min(np.linalg.norm(r - u) for r in ext.roots) < 1e-9

    def test_at_most_matrix_size_roots(self):
        qb, M, _ = self.full_pipeline(16)
        ext = extract_roots([eigensolve_real(M)], M[None], qb)
        assert len(ext.roots) <= 20

    def test_drops_solutions_at_infinity(self):
        qb, _, _ = self.full_pipeline(17)
        M, _, _ = ref.hand_built_action(qb)
        ext = extract_roots([np.array([0.7])], M[None], qb)
        assert ext.roots.shape == (0, 3) and ext.n_dropped_at_infinity == 1

    def test_drops_inconsistent_products(self):
        qb, _, _ = self.full_pipeline(18)
        M, _, _ = ref.hand_built_action(qb)
        # random degree-two entries contradict the degree-one entries
        ext = extract_roots([np.array([-0.6])], M[None], qb)
        assert ext.roots.shape == (0, 3) and ext.n_dropped_inconsistent == 1


class TestRootResiduals:
    @pytest.mark.parametrize("seed", range(4))
    def test_regular_roots_satisfy_system(self, seed):
        truth, pairs = generate_scene(SceneConfig(seed=seed), 4)
        theta = rotation_angle(truth.R)
        c = sigma_from_angle(theta)
        rays = _ray_stack(pairs, "q1", "q2")
        fs = as_polynomials(package_generators(build_f_polynomials, rays, c))
        roots = ref.rotation_candidates(solver_reg4, pairs, c)
        scale = max(f.max_abs() for f in fs)
        quats, _ = candidate_rotations(roots, c)
        for q in quats:
            assert max(abs(f(q.u)) for f in fs) < 1e-8 * scale
            assert abs(q.u @ q.u + c.tau) < 1e-8


class TestCandidateRotations:
    def test_scaling(self):
        c = sigma_from_angle(math.pi / 2)
        (q,), Rs = candidate_rotations(np.array([[0.3, 0.0, 0.0]]), c)
        assert np.allclose(q.u, [math.sqrt(2) / 2, 0.0, 0.0])
        assert np.allclose(Rs[0], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])

    def test_fixed_point(self):
        c = sigma_from_angle(1.1)
        target = math.sqrt(1 - c.sigma**2)
        u = target * np.array([0.6, 0.0, 0.8])
        (q,), _ = candidate_rotations(u[None], c)
        assert np.max(np.abs(q.u - u)) < 1e-15

    def test_zero_angle_forces_zero_vector(self):
        c = sigma_from_angle(0.0)
        quats, Rs = candidate_rotations(np.array([[0.5, -0.2, 0.1], [0.0, 0.0, 0.0]]), c)
        assert [q.sigma for q in quats] == [1.0, 1.0]
        assert all(np.array_equal(q.u, np.zeros(3)) for q in quats)
        assert np.array_equal(Rs, np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_drops_degenerate_directions(self):
        c = sigma_from_angle(1.0)
        roots = np.array([[0.0, 1e-12, 0.0], [0.1, 0.2, 0.3], [0.0, 0.0, 1e-10]])
        quats, Rs = candidate_rotations(roots, c)
        assert len(quats) == 1 and Rs.shape == (1, 3, 3)
        assert np.allclose(quats[0].u / np.linalg.norm(quats[0].u), roots[1] / np.linalg.norm(roots[1]))
        with pytest.raises(DegenerateConfiguration):
            candidate_rotations(roots[[0, 2]], c)
        with pytest.raises(DegenerateConfiguration):
            candidate_rotations(np.empty((0, 3)), c)
