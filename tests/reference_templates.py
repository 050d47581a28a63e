"""Scalar versions of the template layers, kept as oracles for the batched
kernels in ``relpose.poly`` and ``relpose.gbsolver``.

Everything here builds one ``DensePolynomial`` at a time: the bilinear
rotation form of one vector pair, the ``np.add.at`` coefficient convolution,
the row-by-row reduction modulo the sphere constraint, the generators as
per-matrix determinants, and the template as one reduced row per
multiplier-generator product.  The batched path must reproduce these bit
for bit.  The left-to-right Gauss-Jordan reduction ``rref``, the
``grevlex_compare`` order predicate and the Schur-complement cross-check of
the template also live here; the package uses none of them.
"""

from __future__ import annotations

import numpy as np

from relpose.exceptions import DegenerateInput, DegreeOverflow, RankDeficient
from relpose import gbsolver
from relpose.gbsolver import PIVOT_TOL, REGULAR, EliminationTemplate
from relpose.poly import (
    COINCIDENT_RAY_EPS,
    DensePolynomial,
    GrevlexBasis,
    _mul_table,
    grevlex_basis,
    grevlex_key,
    monomial_poly,
)


def grevlex_compare(m1, m2) -> int:
    """+1 if ``m1`` is grevlex-greater than ``m2``, -1 if smaller, 0 if equal."""
    k1, k2 = grevlex_key(m1), grevlex_key(m2)
    return (k1 > k2) - (k1 < k2)


def poly_mul(p: DensePolynomial, q: DensePolynomial, out_basis: GrevlexBasis) -> DensePolynomial:
    """Exact coefficient convolution of ``p * q`` on ``out_basis``."""
    if p.basis.max_degree + q.basis.max_degree > out_basis.max_degree:
        raise DegreeOverflow(
            f"degree {p.basis.max_degree} * degree {q.basis.max_degree} exceeds basis degree "
            f"{out_basis.max_degree}"
        )
    table = _mul_table(p.basis.max_degree, q.basis.max_degree, out_basis.max_degree)
    out = np.zeros(out_basis.size)
    np.add.at(out, table.ravel(), np.outer(p.coeffs, q.coeffs).ravel())
    return DensePolynomial(out_basis, out)


def reduce_mod_h(p: DensePolynomial, c) -> DensePolynomial:
    """Normal form of ``p`` modulo the sphere constraint, one step at a time."""
    out = p.coeffs.copy()
    tau = c.tau
    for src, ib, ic, it in p.basis._reduction_steps:
        v = out[src]
        if v != 0.0:
            out[ib] -= v
            out[ic] -= v
            out[it] -= tau * v
            out[src] = 0.0
    return DensePolynomial(p.basis, out)


def rotation_bilinear_form(a, b, c) -> DensePolynomial:
    """The quadratic polynomial ``b^T R a`` in (alpha, beta, gamma)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    basis = grevlex_basis(2)
    coeffs = np.zeros(basis.size)
    coeffs[basis.index[(0, 0, 0)]] = (2.0 * c.sigma * c.sigma - 1.0) * float(a @ b)
    lin = -2.0 * c.sigma * np.cross(a, b)
    coeffs[basis.index[(1, 0, 0)]] = lin[0]
    coeffs[basis.index[(0, 1, 0)]] = lin[1]
    coeffs[basis.index[(0, 0, 1)]] = lin[2]
    coeffs[basis.index[(2, 0, 0)]] = 2.0 * b[0] * a[0]
    coeffs[basis.index[(0, 2, 0)]] = 2.0 * b[1] * a[1]
    coeffs[basis.index[(0, 0, 2)]] = 2.0 * b[2] * a[2]
    coeffs[basis.index[(1, 1, 0)]] = 2.0 * (b[0] * a[1] + b[1] * a[0])
    coeffs[basis.index[(1, 0, 1)]] = 2.0 * (b[0] * a[2] + b[2] * a[0])
    coeffs[basis.index[(0, 1, 1)]] = 2.0 * (b[1] * a[2] + b[2] * a[1])
    return DensePolynomial(basis, coeffs)


def f_determinant(pairs, i: int, j: int, k: int, c) -> DensePolynomial:
    """Quartic determinant of the 2x2 depth-elimination matrix, entry by entry."""

    def row(jj):
        p1 = np.cross(pairs[i].q1, pairs[jj].q1)
        p2 = np.cross(pairs[i].q2, pairs[jj].q2)
        return (
            rotation_bilinear_form(p1, pairs[jj].q2, c),
            rotation_bilinear_form(pairs[jj].q1, p2, c),
        )

    b4 = grevlex_basis(4)
    (f11, f12), (f21, f22) = row(j), row(k)
    return poly_mul(f11, f22, b4) - poly_mul(f12, f21, b4)


def build_f_polynomials(pairs, c) -> list[DensePolynomial]:
    """The four quartic generators of the 4-point problem."""
    if len(pairs) != 4:
        raise ValueError("exactly 4 bearing pairs required")
    for i in range(4):
        for j in range(i + 1, 4):
            for qa, qb, view in (
                (pairs[i].q1, pairs[j].q1, "view 1"),
                (pairs[i].q2, pairs[j].q2, "view 2"),
            ):
                if np.linalg.norm(np.cross(qa, qb)) < COINCIDENT_RAY_EPS:
                    raise DegenerateInput(
                        f"rays {i} and {j} coincide in {view}; correspondences must be distinct"
                    )
    triples = [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)]
    return [f_determinant(pairs, i, j, k, c) for i, j, k in triples]


def g_constraint_row(pairs, i: int, j: int, c):
    """Generalized epipolar row of correspondence ``j`` under anchor ``i``."""
    pi, pj = pairs[i], pairs[j]
    p1 = np.cross(pi.q1, pj.q1)
    p2 = np.cross(pi.q2, pj.q2)
    a = rotation_bilinear_form(p1, pj.q2, c)
    b = rotation_bilinear_form(pj.q1, p2, c)
    e1 = np.cross(pi.m1, pi.q1)
    e2 = np.cross(pi.m2, pi.q2)
    w = (
        rotation_bilinear_form(np.cross(e1, pj.q1), pj.q2, c)
        + rotation_bilinear_form(pj.q1, np.cross(e2, pj.q2), c)
        + rotation_bilinear_form(pj.m1, pj.q2, c)
        + rotation_bilinear_form(pj.q1, pj.m2, c)
    )
    return a, b, w


def g_determinant(pairs, i: int, j: int, k: int, l: int, c) -> DensePolynomial:
    """Sextic determinant of the 3x3 generalized constraint matrix, by cofactors."""
    b4 = grevlex_basis(4)
    b6 = grevlex_basis(6)
    (a1, b1, w1), (a2, b2, w2), (a3, b3, w3) = (
        g_constraint_row(pairs, i, jj, c) for jj in (j, k, l)
    )
    m1 = poly_mul(b2, w3, b4) - poly_mul(w2, b3, b4)
    m2 = poly_mul(a2, w3, b4) - poly_mul(w2, a3, b4)
    m3 = poly_mul(a2, b3, b4) - poly_mul(b2, a3, b4)
    return poly_mul(a1, m1, b6) - poly_mul(b1, m2, b6) + poly_mul(w1, m3, b6)


def build_g_polynomials(pairs, c) -> list[DensePolynomial]:
    """The five sextic generators of the generalized 5-point problem."""
    if len(pairs) != 5:
        raise ValueError("exactly 5 Pluecker pairs required")
    quadruples = [(1, 2, 3, 4), (2, 3, 4, 0), (3, 4, 0, 1), (4, 0, 1, 2), (0, 1, 2, 3)]
    out = []
    for i, j, k, l in quadruples:
        g = g_determinant(pairs, i, j, k, l, c)
        if g.max_abs() < 1e-12:
            raise DegenerateInput(
                "a determinant constraint collapsed to zero; the ray configuration is degenerate"
            )
        out.append(g)
    return out


def assemble_reduced_template(generators, multipliers, target_degree, c, extra_rows=()):
    """Stack reduced multiplier-times-generator rows, one row at a time."""
    basis = grevlex_basis(target_degree)
    plan = [(m, gi) for m in multipliers for gi in range(len(generators))]
    plan.extend(extra_rows)
    rows = []
    for m, gi in plan:
        g = generators[gi]
        if sum(m) + g.basis.max_degree > target_degree:
            raise DegreeOverflow(
                f"multiplier {m} on a degree-{g.basis.max_degree} generator exceeds degree {target_degree}"
            )
        prod = poly_mul(monomial_poly(m), g, basis)
        rows.append(reduce_mod_h(prod, c).coeffs[basis.alpha2_size :])
    return EliminationTemplate(basis=basis, matrix=np.array(rows), row_labels=tuple(plan))


def rref(B: np.ndarray, pivot_tol: float = PIVOT_TOL) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan reduction with partial pivoting, columns left to right.

    A pivot is accepted only when its magnitude exceeds ``pivot_tol`` times the
    max-norm of its row.  Raises when fewer pivots than rows are found.
    """
    A = np.array(B, dtype=float)
    n_rows, n_cols = A.shape
    # Pivot magnitudes are judged against each row's incoming scale so that
    # rows annihilated by the elimination cannot supply pivots.
    scales = np.max(np.abs(A), axis=1)
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        sub = np.abs(A[r:, col])
        cand = int(np.argmax(sub)) + r
        if scales[cand] == 0.0 or abs(A[cand, col]) <= pivot_tol * scales[cand]:
            continue
        if cand != r:
            A[[r, cand]] = A[[cand, r]]
            scales[[r, cand]] = scales[[cand, r]]
        A[r] /= A[r, col]
        others = np.concatenate([np.arange(r), np.arange(r + 1, n_rows)])
        A[others] -= np.outer(A[others, col], A[r])
        pivots.append(col)
        r += 1
    if r < n_rows:
        raise RankDeficient(f"only {r} pivots found for {n_rows} rows")
    return A, pivots


def sphere_constraint_poly(c) -> DensePolynomial:
    """The quadratic ``alpha^2 + beta^2 + gamma^2 + tau``."""
    basis = grevlex_basis(2)
    coeffs = np.zeros(basis.size)
    coeffs[basis.index[(2, 0, 0)]] = 1.0
    coeffs[basis.index[(0, 2, 0)]] = 1.0
    coeffs[basis.index[(0, 0, 2)]] = 1.0
    coeffs[basis.index[(0, 0, 0)]] = c.tau
    return DensePolynomial(basis, coeffs)


def schur_equivalence_check(generators: list[DensePolynomial], c) -> float:
    """Maximum deviation between the two elimination routes of the 16x36 template.

    The explicit route builds the full 36x56 coefficient matrix (twenty rows of
    sphere-constraint multiples on top of the sixteen generator rows),
    partitions it against the alpha^2-divisible block and forms the Schur
    complement X - W U^{-1} V.  The modular route is the package's
    ``assemble_reduced_template``.  The two are algebraically identical.
    """
    if len(generators) != 4:
        raise ValueError("the explicit block elimination is defined for the 4-generator problem")
    b5 = grevlex_basis(REGULAR.target_degree)
    h = sphere_constraint_poly(c)
    cube_monomials = sorted(
        ((a, b, cc) for a in range(4) for b in range(4 - a) for cc in range(4 - a - b)),
        key=grevlex_key,
        reverse=True,
    )
    h_rows = [poly_mul(monomial_poly(m), h, b5).coeffs for m in cube_monomials]
    f_rows = [
        poly_mul(monomial_poly(m), g, b5).coeffs for m in REGULAR.multipliers for g in generators
    ]
    ahat = np.array(h_rows + f_rows)
    k = b5.alpha2_size
    U, V = ahat[:k, :k], ahat[:k, k:]
    W, X = ahat[k:, :k], ahat[k:, k:]
    if np.max(np.abs(np.tril(U, -1))) != 0.0 or np.max(np.abs(np.diag(U) - 1.0)) != 0.0:
        raise AssertionError("constraint-multiple block is not unit upper triangular")
    b_schur = X - W @ np.linalg.solve(U, V)
    b_mod = gbsolver.assemble_reduced_template(
        generators, REGULAR.multipliers, REGULAR.target_degree, c
    ).matrix
    return float(np.max(np.abs(b_schur - b_mod)))
