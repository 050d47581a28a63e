import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relpose.exceptions import DegenerateInput, DegreeOverflow
from relpose.gbsolver import Losses
from relpose.geom import quat_to_rotation, rotation_angle, sigma_from_angle
from relpose.poly import (
    _ray_stack,
    build_f_polynomials,
    build_g_polynomials,
    grevlex_basis,
    grevlex_key,
)
from relpose.synth import SceneConfig, generate_scene
from reference_geom import generalized_residual, quat_from_rotation
from reference_reg4 import triangulate_midpoint
from reference_templates import (
    DensePolynomial,
    as_polynomials,
    f_constraint_row,
    f_determinant,
    g_constraint_row,
    grevlex_compare,
    monomial_poly,
    package_generators,
    poly_mul,
    reduce_mod_h,
    rotation_bilinear_form,
)

monomials = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


class TestGrevlexOrder:
    def test_tie_break_at_degree_two(self):
        assert grevlex_compare((2, 0, 0), (1, 1, 0)) > 0  # a^2 > ab

    def test_degree_dominates(self):
        assert grevlex_compare((0, 0, 3), (2, 0, 0)) > 0  # c^3 > a^2

    def test_full_degree_two_ordering(self):
        expected = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        ordered = sorted(expected, key=grevlex_key, reverse=True)
        assert ordered == expected

    @given(monomials, monomials, monomials)
    def test_total_order_transitive(self, m1, m2, m3):
        if grevlex_compare(m1, m2) >= 0 and grevlex_compare(m2, m3) >= 0:
            assert grevlex_compare(m1, m3) >= 0

    @given(monomials, monomials, monomials)
    def test_multiplication_compatible(self, m1, m2, m):
        prod1 = tuple(a + b for a, b in zip(m1, m))
        prod2 = tuple(a + b for a, b in zip(m2, m))
        assert grevlex_compare(prod1, prod2) == grevlex_compare(m1, m2)


class TestBasis:
    @pytest.mark.parametrize("degree,size", [(4, 35), (5, 56), (8, 165), (6, 84), (2, 10)])
    def test_sizes(self, degree, size):
        assert grevlex_basis(degree).size == size

    @pytest.mark.parametrize("degree,size", [(5, 20), (8, 84)])
    def test_alpha2_block_sizes(self, degree, size):
        assert grevlex_basis(degree).alpha2_size == size

    def test_alpha2_block_first(self):
        b = grevlex_basis(5)
        assert all(m[0] >= 2 for m in b.monomials[: b.alpha2_size])
        assert all(m[0] < 2 for m in b.monomials[b.alpha2_size :])


class TestPolyMul:
    def test_monomials(self):
        b2 = grevlex_basis(2)
        out = poly_mul(monomial_poly((1, 0, 0)), monomial_poly((0, 1, 0)), b2)
        assert out.coefficient((1, 1, 0)) == 1.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_identity(self):
        rng = np.random.default_rng(0)
        b2 = grevlex_basis(2)
        q = DensePolynomial(b2, rng.normal(size=b2.size))
        out = poly_mul(monomial_poly((0, 0, 0)), q, b2)
        assert np.allclose(out.coeffs, q.coeffs)

    def test_difference_of_squares(self):
        b1, b2 = grevlex_basis(1), grevlex_basis(2)
        a = np.zeros(b1.size)
        a[b1.index[(1, 0, 0)]] = 1.0
        a[b1.index[(0, 1, 0)]] = 1.0
        s = np.zeros(b1.size)
        s[b1.index[(1, 0, 0)]] = 1.0
        s[b1.index[(0, 1, 0)]] = -1.0
        out = poly_mul(DensePolynomial(b1, a), DensePolynomial(b1, s), b2)
        assert out.coefficient((2, 0, 0)) == 1.0
        assert out.coefficient((0, 2, 0)) == -1.0
        assert np.count_nonzero(out.coeffs) == 2

    def test_degree_overflow(self):
        b2 = grevlex_basis(2)
        p = monomial_poly((0, 2, 0))
        with pytest.raises(DegreeOverflow):
            poly_mul(p, p, b2)


class TestRotationBilinearForm:
    def test_zero_angle_diagonal(self):
        c = sigma_from_angle(0.0)
        e1 = np.array([1.0, 0.0, 0.0])
        p = rotation_bilinear_form(e1, e1, c)
        assert p.coefficient((0, 0, 0)) == 1.0

    def test_zero_angle_off_diagonal_is_zero_at_origin(self):
        c = sigma_from_angle(0.0)
        p = rotation_bilinear_form(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), c)
        assert p(np.zeros(3)) == 0.0

    def test_matches_numeric_rotation(self):
        from relpose.geom import UnitQuaternion

        rng = np.random.default_rng(1)
        for _ in range(50):
            theta = rng.uniform(0.05, 3.0)
            c = sigma_from_angle(theta)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            u = math.sin(theta / 2) * axis
            R = quat_to_rotation(UnitQuaternion(math.cos(theta / 2), u))
            a, b = rng.normal(size=3), rng.normal(size=3)
            p = rotation_bilinear_form(a, b, c)
            assert abs(p(u) - b @ R @ a) < 1e-13


class TestReduceModH:
    def test_single_substitution(self):
        c = sigma_from_angle(1.3)
        b2 = grevlex_basis(2)
        out = reduce_mod_h(monomial_poly((2, 0, 0)), c)
        assert out.coefficient((0, 2, 0)) == -1.0
        assert out.coefficient((0, 0, 2)) == -1.0
        assert out.coefficient((0, 0, 0)) == -c.tau

    def test_cubic_substitution(self):
        c = sigma_from_angle(0.9)
        out = reduce_mod_h(monomial_poly((3, 1, 0)), c)  # a^3 b
        assert out.coefficient((1, 3, 0)) == -1.0  # -a b^3
        assert out.coefficient((1, 1, 2)) == -1.0  # -a b c^2
        assert out.coefficient((1, 1, 0)) == -c.tau  # -tau a b

    def test_fixed_point_for_low_alpha_degree(self):
        rng = np.random.default_rng(2)
        c = sigma_from_angle(0.7)
        b5 = grevlex_basis(5)
        coeffs = rng.normal(size=b5.size)
        coeffs[: b5.alpha2_size] = 0.0
        p = DensePolynomial(b5, coeffs)
        assert np.array_equal(reduce_mod_h(p, c).coeffs, coeffs)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000), st.floats(0.1, 3.0))
    def test_agrees_on_constraint_sphere(self, seed, theta):
        rng = np.random.default_rng(seed)
        c = sigma_from_angle(theta)
        b5 = grevlex_basis(5)
        p = DensePolynomial(b5, rng.normal(size=b5.size))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = math.sqrt(1 - c.sigma**2) * axis
        v1, v2 = p(u), reduce_mod_h(p, c)(u)
        assert abs(v1 - v2) <= 1e-11 * max(1.0, abs(v1))


def scene_with_truth(seed, generalized=False, n=None):
    cfg = SceneConfig(seed=seed, generalized=generalized)
    truth, pairs = generate_scene(cfg, n or (5 if generalized else 4))
    theta = rotation_angle(truth.R)
    return truth, pairs, sigma_from_angle(theta), quat_from_rotation(truth.R).u


class TestBuildF:
    def test_vanishes_at_ground_truth(self):
        truth, pairs, c, u = scene_with_truth(11)
        for f in as_polynomials(package_generators(build_f_polynomials, _ray_stack(pairs, "q1", "q2"), c)):
            assert abs(f(u)) < 1e-12

    def test_cyclic_determinant_identity(self):
        # det of the depth-elimination matrix is invariant under cyclic
        # rotation of its three indices.  The identity relies on the rotation
        # property R(x cross y) = Rx cross Ry, which the quadratic rotation
        # parametrization satisfies only on the constraint sphere, so the
        # quartics are compared in normal form modulo the sphere constraint.
        truth, pairs, c, _ = scene_with_truth(12)
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        for base in [(0, 1, 2), (0, 2, 3), (1, 2, 3), (3, 1, 0)]:
            dets = []
            for p in perms:
                i, j, k = base[p[0]], base[p[1]], base[p[2]]
                det = f_determinant(pairs, i, j, k, c)
                dets.append(reduce_mod_h(det, c).coeffs)
            scale = np.max(np.abs(dets[0]))
            assert np.max(np.abs(dets[0] - dets[1])) < 1e-12 * scale
            assert np.max(np.abs(dets[0] - dets[2])) < 1e-12 * scale

    def test_depth_pair_in_nullspace(self):
        truth, pairs, c, u = scene_with_truth(13)
        origin2 = -truth.R.T @ truth.t
        for i in range(4):
            sr = triangulate_midpoint(pairs[i].q1, origin2, truth.R.T @ pairs[i].q2)
            lam, mu = sr
            others = [j for j in range(4) if j != i]
            for a in range(3):
                for b in range(a + 1, 3):
                    F = np.array(
                        [[e(u) for e in f_constraint_row(pairs, i, j, c)] for j in (others[a], others[b])]
                    )
                    assert np.max(np.abs(F @ np.array([lam, mu]))) < 1e-10

    def test_duplicate_pair_rejected(self):
        # The sample is lost for a DegenerateInput naming the pair.
        truth, pairs, c, _ = scene_with_truth(14)
        bad = [pairs[0], pairs[0], pairs[2], pairs[3]]
        losses = Losses(1)
        build_f_polynomials(_ray_stack(bad, "q1", "q2"), c, losses)
        [error] = losses.errors
        assert type(error) is DegenerateInput and losses.status.tolist() == [1]
        assert str(error) == "rays 0 and 1 coincide in view 1; correspondences must be distinct"


class TestAuxiliaryDeterminantIdentity:
    def test_random_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            x1, y1, z1, x2, y2, z2 = rng.normal(size=(6, 3))
            lhs = (z1 @ np.cross(x1, y1)) * (z2 @ np.cross(x2, y2))
            rhs = np.linalg.det(np.array([x1, y1, z1]) @ np.stack([x2, y2, z2], axis=1))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestBuildG:
    def test_vanishes_at_ground_truth(self):
        truth, pairs, c, u = scene_with_truth(16, generalized=True)
        for g in as_polynomials(package_generators(build_g_polynomials, _ray_stack(pairs, "q1", "q2", "m1", "m2"), c)):
            assert abs(g(u)) < 1e-10

    def test_total_degree_is_six(self):
        truth, pairs, c, _ = scene_with_truth(17, generalized=True)
        b6 = grevlex_basis(6)
        deg6 = np.array([sum(m) == 6 for m in b6.monomials])
        for g in as_polynomials(package_generators(build_g_polynomials, _ray_stack(pairs, "q1", "q2", "m1", "m2"), c)):
            assert np.max(np.abs(g.coeffs[deg6])) > 1e-10 * g.max_abs()

    def test_constraint_row_matches_residual(self):
        # The row polynomials evaluated at the true rotation, contracted with
        # (lambda, mu, 1), reproduce the generalized epipolar residual.
        truth, pairs, c, u = scene_with_truth(18, generalized=True)
        rng = np.random.default_rng(18)
        R = quat_to_rotation(quat_from_rotation(truth.R))
        i = 0
        pi = pairs[i]
        e1 = np.cross(pi.m1, pi.q1)
        e2 = np.cross(pi.m2, pi.q2)
        for lam, mu in rng.normal(size=(5, 2)):
            t1 = e1 + lam * pi.q1
            t2 = e2 + mu * pi.q2
            for j in range(1, 5):
                a, b, w = g_constraint_row(pairs, i, j, c)
                expected = generalized_residual(
                    R, t1, t2, pairs[j].q1, pairs[j].m1, pairs[j].q2, pairs[j].m2
                )
                assert abs(lam * a(u) + mu * b(u) + w(u) - expected) < 1e-12

    def test_zero_rows_rejected(self):
        truth, pairs, c, _ = scene_with_truth(19, generalized=True)
        losses = Losses(1)
        build_g_polynomials(_ray_stack([pairs[0]] * 5, "q1", "q2", "m1", "m2"), c, losses)
        [error] = losses.errors
        assert type(error) is DegenerateInput and losses.status.tolist() == [1]
        assert str(error) == (
            "a determinant constraint collapsed to zero; the ray configuration is degenerate"
        )
