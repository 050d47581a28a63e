"""The batched generator and template kernels against the scalar oracles in
``reference_templates``: every coefficient must match bit for bit."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import reference_templates as ref
from relpose.exceptions import DegenerateConfiguration, DegenerateInput, DegreeOverflow
from relpose.gbsolver import GENERAL, REGULAR, assemble_reduced_template
from relpose.geom import BearingPair, PluckerPair, sigma_from_angle
from relpose.poly import (
    DensePolynomial,
    build_f_polynomials,
    build_g_polynomials,
    f_matrix_spec,
    g_matrix_spec,
    grevlex_basis,
    poly_mul,
    reduce_mod_h,
    rotation_bilinear_form,
)
from relpose.solver_gen5 import solve_gen5pt_angle
from relpose.solver_reg4 import solve_4pt_angle
from relpose.synth import SceneConfig, generate_scene

F_TRIPLES = [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)]
G_QUADRUPLES = [(1, 2, 3, 4), (2, 3, 4, 0), (3, 4, 0, 1), (4, 0, 1, 2), (0, 1, 2, 3)]
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
    if solver == "reg4":
        gens = module.build_f_polynomials(pairs, c)
        tpl = module.assemble_reduced_template(gens, REGULAR.multipliers, REGULAR.target_degree, c)
        return gens, tpl
    gens = module.build_g_polynomials(pairs, c)
    return gens, module.assemble_reduced_template(
        gens, GENERAL.multipliers, GENERAL.target_degree, c, extra_rows=GENERAL.extra_rows
    )


BATCHED = SimpleNamespace(
    build_f_polynomials=build_f_polynomials,
    build_g_polynomials=build_g_polynomials,
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
            for g, r in zip(gens, ref_gens, strict=True):
                assert g.basis is r.basis
                assert_bits(g.coeffs, r.coeffs)
            assert tpl.basis is ref_tpl.basis
            assert tpl.row_labels == ref_tpl.row_labels
            assert_bits(tpl.matrix, ref_tpl.matrix)
            assert tpl.matrix.flags.c_contiguous


class TestGeneratorsMatchSpecs:
    @pytest.mark.parametrize("seed", range(4))
    def test_f_generators_are_spec_determinants(self, seed):
        theta = float(np.random.default_rng(seed).uniform(0.05, 3.1))
        pairs = problem("reg4", "central", "forward", theta, seed)
        c = sigma_from_angle(theta)
        for f, (i, j, k) in zip(build_f_polynomials(pairs, c), F_TRIPLES, strict=True):
            assert_bits(f.coeffs, f_matrix_spec(pairs, i, j, k, c).det().coeffs)
            assert_bits(f.coeffs, ref.f_determinant(pairs, i, j, k, c).coeffs)

    @pytest.mark.parametrize("seed", range(4))
    def test_g_generators_are_spec_determinants(self, seed):
        theta = float(np.random.default_rng(seed).uniform(0.05, 3.1))
        pairs = problem("gen5", "generalized", "sideways", theta, seed)
        c = sigma_from_angle(theta)
        for g, (i, j, k, l) in zip(build_g_polynomials(pairs, c), G_QUADRUPLES, strict=True):
            assert_bits(g.coeffs, g_matrix_spec(pairs, i, j, k, l, c).det().coeffs)
            assert_bits(g.coeffs, ref.g_determinant(pairs, i, j, k, l, c).coeffs)

    def test_spec_entries_match_scalar_rows(self):
        pairs = problem("gen5", "generalized", "forward", 0.7, 5)
        c = sigma_from_angle(0.7)
        spec = g_matrix_spec(pairs, 2, 0, 3, 4, c)
        for row, j in zip(spec.rows, (0, 3, 4), strict=True):
            for e, r in zip(row, ref.g_constraint_row(pairs, 2, j, c), strict=True):
                assert_bits(e.coeffs, r.coeffs)


class TestScalarWrappers:
    def test_rotation_bilinear_form(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.normal(size=(2, 3))
            c = sigma_from_angle(rng.uniform(0.0, math.pi))
            expected = ref.rotation_bilinear_form(a, b, c).coeffs
            assert_bits(rotation_bilinear_form(a, b, c).coeffs, expected)

    @pytest.mark.parametrize("d1,d2,dout", [(2, 2, 4), (2, 4, 6), (1, 3, 5), (0, 2, 3)])
    def test_poly_mul(self, d1, d2, dout):
        rng = np.random.default_rng(d1 * 10 + d2)
        b1, b2, bout = grevlex_basis(d1), grevlex_basis(d2), grevlex_basis(dout)
        for _ in range(20):
            p = DensePolynomial(b1, rng.normal(size=b1.size))
            q = DensePolynomial(b2, rng.normal(size=b2.size))
            assert_bits(poly_mul(p, q, bout).coeffs, ref.poly_mul(p, q, bout).coeffs)

    @pytest.mark.parametrize("degree", range(9))
    def test_reduce_mod_h(self, degree):
        # Dense random coefficients exercise every substitution step, so the
        # batched rounds must replay the sequential order on every basis.
        rng = np.random.default_rng(degree)
        basis = grevlex_basis(degree)
        for _ in range(20):
            p = DensePolynomial(basis, rng.normal(size=basis.size))
            c = sigma_from_angle(rng.uniform(0.0, math.pi))
            assert_bits(reduce_mod_h(p, c).coeffs, ref.reduce_mod_h(p, c).coeffs)


class TestDegenerateInputs:
    def test_coincident_rays_raise_the_same_message(self):
        pairs = problem("reg4", "central", "forward", 0.5, 1)
        c = sigma_from_angle(0.5)
        for bad, view in (
            ([pairs[0], pairs[1], pairs[1], pairs[3]], "view 1"),
            ([pairs[0], pairs[1], BearingPair(q1=pairs[2].q1, q2=pairs[0].q2), pairs[3]], "view 2"),
        ):
            with pytest.raises(DegenerateInput) as batched:
                build_f_polynomials(bad, c)
            with pytest.raises(DegenerateInput) as scalar:
                ref.build_f_polynomials(bad, c)
            assert str(batched.value) == str(scalar.value)
            assert view in str(batched.value)
            with pytest.raises(DegenerateConfiguration):
                solve_4pt_angle(bad, 0.5)

    def test_collapsed_determinant(self):
        pairs = problem("gen5", "generalized", "forward", 0.5, 2)
        c = sigma_from_angle(0.5)
        with pytest.raises(DegenerateInput):
            build_g_polynomials([pairs[0]] * 5, c)
        with pytest.raises(DegenerateConfiguration):
            solve_gen5pt_angle([pairs[0]] * 5, 0.5)

    def test_degree_overflow(self):
        pairs = problem("reg4", "central", "forward", 0.5, 3)
        c = sigma_from_angle(0.5)
        fs = build_f_polynomials(pairs, c)
        with pytest.raises(DegreeOverflow):
            assemble_reduced_template(fs, ((0, 0, 2),), REGULAR.target_degree, c)
        with pytest.raises(DegreeOverflow):
            assemble_reduced_template(fs, REGULAR.multipliers, REGULAR.target_degree, c,
                                      extra_rows=(((1, 1, 0), 0),))
