"""Scalar versions of the template layers, kept as oracles for the batched
kernels in ``relpose.poly`` and ``relpose.gbsolver``.

The package passes generators as ``(n_gen, n_coeffs)`` coefficient arrays
and has no polynomial type; ``DensePolynomial``, one coefficient vector with
its basis, lives here, and ``as_polynomials`` turns a generator array into a
list of them.  Everything else here builds one ``DensePolynomial`` at a
time: the bilinear rotation form of one vector pair, the ``np.add.at``
coefficient convolution, the row-by-row reduction modulo the sphere
constraint, the generators as per-matrix determinants, and the template as
one reduced row per multiplier-generator product, a ``LabelledTemplate``
that names each row's product, where the package returns the bare matrix.
The batched path must reproduce these bit for bit.  ``rref_conditioned`` is
complete pivoting, which the package no longer has: it is the oracle of the
solvers' fallback and the candidate generator of ``derive_partitions.py``.
``real_eigenvalues`` tests every eigenvalue of ``np.linalg.eigvals`` in the
loop.  ``eigensolve_real`` tests and normalizes every eigenpair of
``np.linalg.eig`` in the loop; the package's eigenvectors, rebuilt from the
gamma chains, are checked against it to a tolerance, and
``hand_built_action`` builds an action matrix with known eigenvectors.
``quotient_basis_from_pivots`` sorts the standard monomials by key,
``build_action_matrix`` looks every row up in dictionaries on the standard
columns of a reduction, which ``standard_block`` cuts out of a full-width
one, ``extract_roots`` filters one eigenpair at a time against the checks
``product_checks`` finds by walking the basis, and ``rectified_quaternions``
rescales the roots one ``rectify_quaternion`` at a time, with the zero
angle's one root in ``ZERO_ANGLE_ROOTS``; the package's versions must
reproduce them bit for bit too.  ``prepare`` and ``rotation_candidates``
give one sample's pairs and polished roots as the solvers find them, and
``package_generators`` the package's generators of one sample.  The
left-to-right Gauss-Jordan reduction ``rref``, the ``grevlex_compare`` order
predicate and the Schur-complement cross-check of the template also live
here; the package uses none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relpose.exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegenerateInput,
    DegreeOverflow,
    EigenFailure,
    RankDeficient,
    RelposeError,
    UnreachableMonomial,
)
from relpose import gbsolver, solver_reg4
from relpose.gbsolver import (
    GENERAL,
    IMAG_TOL,
    REGULAR,
    ROOT_MONOMIALS,
    ROOT_TOL,
    U_DIRECTION_EPS,
    Losses,
    QuotientBasis,
    rotation_roots,
    usable_rotations,
)
from relpose.geom import UnitQuaternion, _as_vec3, sigma_from_angle
from relpose.poly import (
    COINCIDENT_RAY_EPS,
    GrevlexBasis,
    _mul_table,
    _ray_stack,
    grevlex_basis,
    grevlex_key,
)

# A pivot is accepted only above this fraction of its row's incoming scale.
PIVOT_TOL = 1e-10


def prepare(problem, pairs: list, theta: float):
    """The pairs of one sample of ``problem``, checked for size, and the
    sphere constraint."""
    n = problem.sample_size
    if len(pairs) != n:
        raise ValueError(f"exactly {n} correspondences required, got {len(pairs)}")
    return list(pairs), sigma_from_angle(theta)


def package_generators(build, rays: np.ndarray, c) -> np.ndarray:
    """The generators that the package's ``build``, ``build_f_polynomials``
    or ``build_g_polynomials``, makes of the ray rows of one sample, or the
    ``DegenerateInput`` that it records for the sample in a
    ``gbsolver.Losses``, raised."""
    losses = Losses(1)
    generators = build(*rays, c, losses)
    if losses.errors:
        raise losses.errors[0]
    return generators


def rotation_candidates(module, pairs: list, c) -> np.ndarray:
    """Polished candidate roots of one sample, as the solver of ``module``
    (``solver_reg4`` or ``solver_gen5``) finds them; raises the template
    failure where it finds none."""
    losses = Losses(1)
    if module is solver_reg4:
        problem, generators, names = REGULAR, module.build_f_polynomials, ("q1", "q2")
    else:
        problem, generators, names = GENERAL, module.build_g_polynomials, ("q1", "q2", "m1", "m2")
    rays = _ray_stack(pairs, *names)[:, None]
    # Under the error state that ``gbsolver.solve`` holds for its kernels.
    with np.errstate(all="ignore"):
        roots, _ = rotation_roots(module, problem, generators, rays, c, losses, True)
    if losses.status[0]:
        raise losses.errors[losses.status[0] - 1]
    return roots


def candidate_rotations(roots: np.ndarray, c) -> tuple[list[UnitQuaternion], np.ndarray]:
    """Quaternions and ``(K, 3, 3)`` rotation stack of the ``(K, 3)`` roots
    that carry a usable rotation axis, from the kernels the solvers run;
    raises ``DegenerateConfiguration`` when none does."""
    losses = Losses(1)
    _, _, u, Rs = usable_rotations(roots, np.zeros(len(roots), dtype=np.int64), c, losses)
    if losses.status[0]:
        raise losses.errors[0]
    return [UnitQuaternion(c.sigma, v) for v in u], Rs


def spoil_template(matrix: np.ndarray, pivots, how: str) -> None:
    """Make the pivot block of the ``(rows, columns)`` template ``matrix``
    on ``pivots`` exactly singular, by zeroing a row, or non-finite, in
    place."""
    if how == "singular":
        matrix[7] = 0.0
    else:
        matrix[2, pivots[5]] = math.inf


@dataclass(frozen=True, eq=False)
class LoopRoots:
    """Roots and drop counts of one sample, as ``extract_roots`` reports them."""

    roots: tuple
    n_dropped_at_infinity: int
    n_dropped_inconsistent: int


@dataclass(frozen=True, eq=False)
class LabelledTemplate:
    """The oracle template: its matrix, the basis of the products it
    reduces, and the (multiplier, generator index) label of each row."""

    basis: GrevlexBasis
    matrix: np.ndarray
    row_labels: tuple[tuple[tuple[int, int, int], int], ...]


@dataclass(frozen=True, eq=False)
class DensePolynomial:
    """Coefficient vector aligned to a ``GrevlexBasis``."""

    basis: GrevlexBasis
    coeffs: np.ndarray

    def __call__(self, u) -> float:
        powers = np.prod(np.asarray(u, dtype=float)[None, :] ** self.basis.exponents, axis=1)
        return float(powers @ self.coeffs)

    def __add__(self, other: DensePolynomial) -> DensePolynomial:
        return DensePolynomial(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: DensePolynomial) -> DensePolynomial:
        return DensePolynomial(self.basis, self.coeffs - other.coeffs)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def coefficient(self, m) -> float:
        return float(self.coeffs[self.basis.index[m]])


def as_polynomials(generators: np.ndarray) -> list[DensePolynomial]:
    """The rows of an ``(n_gen, n_coeffs)`` generator array as polynomials."""
    basis = next(grevlex_basis(d) for d in range(9) if grevlex_basis(d).size == generators.shape[1])
    return [DensePolynomial(basis, row) for row in generators]


def monomial_poly(m) -> DensePolynomial:
    """The monomial ``m`` as a one-hot polynomial on the basis of its degree."""
    basis = grevlex_basis(sum(m))
    coeffs = np.zeros(basis.size)
    coeffs[basis.index[m]] = 1.0
    return DensePolynomial(basis, coeffs)


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


def f_constraint_row(pairs, i: int, j: int, c):
    """Depth-elimination row of correspondence ``j`` under anchor ``i``."""
    p1 = np.cross(pairs[i].q1, pairs[j].q1)
    p2 = np.cross(pairs[i].q2, pairs[j].q2)
    return rotation_bilinear_form(p1, pairs[j].q2, c), rotation_bilinear_form(pairs[j].q1, p2, c)


def f_determinant(pairs, i: int, j: int, k: int, c) -> DensePolynomial:
    """Quartic determinant of the 2x2 depth-elimination matrix, entry by entry."""
    b4 = grevlex_basis(4)
    (f11, f12), (f21, f22) = f_constraint_row(pairs, i, j, c), f_constraint_row(pairs, i, k, c)
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
    return LabelledTemplate(basis=basis, matrix=np.array(rows), row_labels=tuple(plan))


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


def rref_conditioned(
    B: np.ndarray,
    protected_cols: frozenset[int] = frozenset(),
    eliminate_first: tuple[int, ...] = (),
) -> tuple[np.ndarray, list[int]]:
    """Complete-pivoting Gauss-Jordan reduction, one list search per step.

    Each step picks the remaining entry of largest magnitude over the
    remaining rows and the group's columns, the first maximum in row-major
    order with the group's columns in the group's order, then swaps rows
    and updates every other row by fancy indexing.  ``eliminate_first``
    columns are pivoted before all others and ``protected_cols`` are never
    pivoted; ``pivot_hints`` gives the two that keep a minimal problem's
    quotient basis usable.  The package eliminates only on committed
    partitions; this is the oracle its fallback is checked against and the
    candidate generator of ``derive_partitions.py``.
    """
    A = np.array(B, dtype=float)
    n_rows, n_cols = A.shape
    scales = np.max(np.abs(A), axis=1)
    pivots: list[int] = []
    r = 0

    def eliminate(col: int) -> bool:
        nonlocal r
        sub = np.abs(A[r:, col])
        cand = int(np.argmax(sub)) + r
        if scales[cand] == 0.0 or abs(A[cand, col]) <= PIVOT_TOL * scales[cand]:
            return False
        if cand != r:
            A[[r, cand]] = A[[cand, r]]
            scales[[r, cand]] = scales[[cand, r]]
        A[r] /= A[r, col]
        others = np.concatenate([np.arange(r), np.arange(r + 1, n_rows)])
        A[others] -= np.outer(A[others, col], A[r])
        pivots.append(col)
        r += 1
        return True

    first = list(eliminate_first)
    rest = [c for c in range(n_cols) if c not in protected_cols and c not in eliminate_first]
    for group in (first, rest):
        while group and r < n_rows:
            sub = np.abs(A[r:, :][:, group])
            col = group[int(np.unravel_index(np.argmax(sub), sub.shape)[1])]
            if not eliminate(col):
                break
            group.remove(col)
    if r < n_rows:
        raise RankDeficient(f"only {r} pivots found for {n_rows} rows")
    return A, pivots


def pivot_hints(problem) -> dict:
    """``rref_conditioned`` keywords for a ``TemplateProblem``: the
    top-degree columns must be pivots, or multiplying by gamma would leave
    the template, and the root-reading columns must never be."""
    rem = grevlex_basis(problem.target_degree).remainder_monomials
    return {
        "protected_cols": frozenset(j for j, m in enumerate(rem) if m in ROOT_MONOMIALS),
        "eliminate_first": tuple(j for j, m in enumerate(rem) if sum(m) == problem.target_degree),
    }


def eigensolve_real(M: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Near-real eigenpairs of ``M``, testing each eigenvalue in the loop."""
    M = np.asarray(M, dtype=float)
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    out: list[tuple[float, np.ndarray]] = []
    for k in range(len(w)):
        if abs(w[k].imag) > IMAG_TOL * (1.0 + abs(w[k].real)):
            continue
        v = V[:, k]
        v = v / v[int(np.argmax(np.abs(v)))]
        vr = np.real(v)
        out.append((float(w[k].real), vr / np.linalg.norm(vr)))
    return out


def real_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Near-real eigenvalues of ``M`` from ``np.linalg.eigvals``, testing
    each eigenvalue in the loop."""
    M = np.asarray(M, dtype=float)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    kept = [float(x.real) for x in w if not abs(x.imag) > IMAG_TOL * (1.0 + abs(x.real))]
    return np.array(kept, dtype=float)


def hand_built_action(qb):
    """A matrix with the unit rows of an action matrix on ``qb`` and known
    eigenvectors: ``size - 3`` roots at random points, then an eigenvector
    that is zero at the monomial 1 (eigenvalue 0.7), a wrong null vector with
    random entries at the chain heads (-0.6), and a column that is zero
    (0.0), at a head other than 1, so that the bordered chain system of the
    eigenvalue 0 has a zero column.  Returns the matrix, its eigenvalues and
    the points."""
    chain, depth, _, _ = gbsolver._gamma_chains(qb)
    rng = np.random.default_rng(3)
    exponents = np.array(qb.monomials)
    points = rng.uniform(-0.5, 0.5, size=(qb.size - 3, 3))
    vectors = [np.prod(u**exponents, axis=1) for u in points]
    heads = rng.normal(size=chain.max() + 1)
    heads[chain[qb.pos_one]] = 0.0
    vectors.append(heads[chain] * 0.7**depth)
    heads[chain[qb.pos_one]] = 1.0
    vectors.append(heads[chain] * (-0.6) ** depth)
    free = next(i for i, m in enumerate(qb.monomials) if m[2] == 0 and sum(m) > 1)
    vectors.append(np.eye(qb.size)[free])
    values = [*points[:, 2].tolist(), 0.7, -0.6, 0.0]
    V = np.array(vectors).T
    M = V @ np.diag(values) @ np.linalg.inv(V)
    for i, (a, b, c) in enumerate(qb.monomials):
        if (a, b, c + 1) in qb.index:
            M[i] = 0.0
            M[i, qb.index[(a, b, c + 1)]] = 1.0
    M[:, free] = 0.0
    return M, values, points


def quotient_basis_from_pivots(basis: GrevlexBasis, pivots: list[int], expected_size: int):
    """Non-pivot template columns as standard monomials, sorted by grevlex key."""
    remainder = basis.remainder_monomials
    pivot_set = set(pivots)
    standard = [(remainder[j], j) for j in range(len(remainder)) if j not in pivot_set]
    standard.sort(key=lambda mc: grevlex_key(mc[0]))
    monomials = tuple(m for m, _ in standard)
    index = {m: i for i, m in enumerate(monomials)}
    if len(monomials) != expected_size:
        raise BasisAnomaly(f"quotient basis has size {len(monomials)}, expected {expected_size}")
    for needed in ROOT_MONOMIALS:
        if needed not in index:
            raise BasisAnomaly(f"quotient basis is missing monomial {needed}")
    return QuotientBasis(
        pivots=tuple(pivots),
        degree=basis.max_degree,
        monomials=monomials,
        template_cols=np.array([col for _, col in standard], dtype=np.int64),
        index=index,
        successor=np.array([index.get((a, b, c + 1), -1) for a, b, c in monomials], dtype=np.int64),
        pos_one=index[(0, 0, 0)],
        pos_alpha=index[(1, 0, 0)],
        pos_beta=index[(0, 1, 0)],
        pos_gamma=index[(0, 0, 1)],
    )


def standard_block(reduced: np.ndarray, pivots, basis) -> np.ndarray:
    """The standard (non-pivot) columns of a full-width reduction, sorted by
    key as ``quotient_basis_from_pivots`` sorts them: the reduction as the
    package's ``rref_conditioned`` returns it."""
    remainder = basis.remainder_monomials
    pivot_set = set(pivots)
    standard = sorted((grevlex_key(m), j) for j, m in enumerate(remainder) if j not in pivot_set)
    return reduced[..., [j for _, j in standard]]


def build_action_matrix(reduced, pivots, basis, qb) -> np.ndarray:
    """Multiplication-by-gamma matrix, one dictionary lookup per row, from
    a reduction on the standard columns (``standard_block``)."""
    remainder = basis.remainder_monomials
    pivot_row = {remainder[col]: r for r, col in enumerate(pivots)}
    n = qb.size
    M = np.zeros((n, n))
    for i, (a, b, c) in enumerate(qb.monomials):
        m = (a, b, c + 1)
        if m in qb.index:
            M[i, qb.index[m]] = 1.0
        elif m in pivot_row:
            M[i, :] = -reduced[pivot_row[m]]
        else:
            raise UnreachableMonomial(f"gamma * {qb.monomials[i]} = {m} is outside the template")
    return M


def product_checks(qb) -> list[tuple[int, int, int]]:
    """Indices (m, x, y) with basis monomial m equal to the product of the
    degree-one basis monomials x and y, found by walking the basis."""
    ones = {m: qb.index[m] for m in ROOT_MONOMIALS[1:]}
    checks = []
    for m, i in qb.index.items():
        if sum(m) != 2:
            continue
        first = next(k for k in range(3) if m[k] > 0)
        x = tuple(1 if k == first else 0 for k in range(3))
        y = (m[0] - x[0], m[1] - x[1], m[2] - x[2])
        if y in ones:
            checks.append((i, ones[x], ones[y]))
    return checks


def extract_roots(pairs, qb) -> ExtractedRoots:
    """Root vectors read off the eigenpairs one at a time."""
    checks = product_checks(qb)
    roots: list[np.ndarray] = []
    n_inf = 0
    n_incons = 0
    for lam, v in pairs:
        v1 = v[qb.pos_one]
        if abs(v1) <= 1e-10 * float(np.max(np.abs(v))):
            n_inf += 1
            continue
        v = v / v1
        if abs(lam - v[qb.pos_gamma]) > ROOT_TOL:
            n_incons += 1
            continue
        if any(abs(v[m] - v[x] * v[y]) > ROOT_TOL for m, x, y in checks):
            n_incons += 1
            continue
        roots.append(np.array([v[qb.pos_alpha], v[qb.pos_beta], v[qb.pos_gamma]]))
    return LoopRoots(roots=tuple(roots), n_dropped_at_infinity=n_inf, n_dropped_inconsistent=n_incons)


class NearZeroVector(RelposeError):
    """A root too short to define a rotation axis; the package drops such
    roots without raising."""


# A zero rotation angle pins the quaternion to the identity.
ZERO_ANGLE_ROOTS = (np.zeros(3),)


def rectify_quaternion(u_raw: np.ndarray, c) -> UnitQuaternion:
    """Rescale an estimated vector part onto the constraint sphere.

    The direction of ``u_raw`` is kept and its norm is set to
    ``sqrt(1 - sigma^2)`` so the quaternion invariant holds exactly up to
    rounding.  A zero angle forces ``u = 0`` regardless of direction.
    """
    u_raw = _as_vec3(u_raw, "u_raw")
    if c.tau == 0.0:
        return UnitQuaternion(1.0, np.zeros(3))
    n = float(np.linalg.norm(u_raw))
    if n <= U_DIRECTION_EPS:
        raise NearZeroVector(f"|u| = {n!r} gives no usable direction for theta = {c.theta!r}")
    target = math.sqrt(1.0 - c.sigma * c.sigma)
    return UnitQuaternion(c.sigma, (target / n) * u_raw)


def rectified_quaternions(roots, c) -> list[UnitQuaternion]:
    """Quaternions of the roots that carry a usable rotation axis; raises
    ``DegenerateConfiguration`` when none does."""
    quats = []
    for u in roots:
        try:
            quats.append(rectify_quaternion(u, c))
        except NearZeroVector:
            continue
    if not quats:
        raise DegenerateConfiguration("no usable rotation candidates survived filtering")
    return quats


def sphere_constraint_poly(c) -> DensePolynomial:
    """The quadratic ``alpha^2 + beta^2 + gamma^2 + tau``."""
    basis = grevlex_basis(2)
    coeffs = np.zeros(basis.size)
    coeffs[basis.index[(2, 0, 0)]] = 1.0
    coeffs[basis.index[(0, 2, 0)]] = 1.0
    coeffs[basis.index[(0, 0, 2)]] = 1.0
    coeffs[basis.index[(0, 0, 0)]] = c.tau
    return DensePolynomial(basis, coeffs)


def schur_equivalence_check(generators: np.ndarray, c) -> float:
    """Maximum deviation between the two elimination routes of the 16x36
    template, for a ``(4, 35)`` generator array.

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
        poly_mul(monomial_poly(m), g, b5).coeffs
        for m in REGULAR.multipliers
        for g in as_polynomials(generators)
    ]
    ahat = np.array(h_rows + f_rows)
    k = b5.alpha2_size
    U, V = ahat[:k, :k], ahat[:k, k:]
    W, X = ahat[k:, :k], ahat[k:, k:]
    if np.max(np.abs(np.tril(U, -1))) != 0.0 or np.max(np.abs(np.diag(U) - 1.0)) != 0.0:
        raise AssertionError("constraint-multiple block is not unit upper triangular")
    b_schur = X - W @ np.linalg.solve(U, V)
    b_mod = gbsolver.assemble_reduced_template(generators, REGULAR, c)
    return float(np.max(np.abs(b_schur - b_mod)))
