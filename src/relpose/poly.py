"""Polynomial arithmetic over the quaternion unknowns (alpha, beta, gamma).

Coefficient vectors are dense and aligned to a fixed monomial basis.  A basis
of maximal total degree d lists every monomial of degree <= d in descending
graded reverse lexicographic order (alpha > beta > gamma), with the monomials
divisible by alpha^2 placed first.  That partition is what the elimination
step operates on: reducing a polynomial modulo the sphere constraint

    h = alpha^2 + beta^2 + gamma^2 + tau,   tau = sigma^2 - 1

repeatedly substitutes alpha^2 <- -(beta^2 + gamma^2 + tau) until only the
non-divisible remainder block carries coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateInput, DegreeOverflow
from .geom import BearingPair, PluckerPair, RotationConstraint, stacked_cross as _cross, stacked_dot as _dot

Monomial = tuple[int, int, int]

# Coincident rays are detected on cross-product norms below this.
COINCIDENT_RAY_EPS = 1e-12


def grevlex_key(m: Monomial) -> tuple[int, int, int, int]:
    """Sort key that increases with the graded reverse lexicographic order."""
    a, b, c = m
    return (a + b + c, -c, -b, -a)


class GrevlexBasis:
    """Monomials of total degree <= ``max_degree``, alpha^2-divisible block first."""

    def __init__(self, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        self.max_degree = max_degree
        mons = [
            (a, b, c)
            for a in range(max_degree + 1)
            for b in range(max_degree + 1 - a)
            for c in range(max_degree + 1 - a - b)
        ]
        mons.sort(key=grevlex_key, reverse=True)
        alpha2 = [m for m in mons if m[0] >= 2]
        remainder = [m for m in mons if m[0] < 2]
        self.monomials: tuple[Monomial, ...] = tuple(alpha2 + remainder)
        self.alpha2_size = len(alpha2)
        self.size = len(self.monomials)
        self.index: dict[Monomial, int] = {m: i for i, m in enumerate(self.monomials)}
        self.exponents = np.array(self.monomials, dtype=np.int64).reshape(self.size, 3)
        # Substitution plan: higher alpha-degree first so every write lands on
        # a monomial that has not been processed yet.
        ix = self.index
        self._reduction_steps = tuple(
            (ix[(a, b, c)], ix[(a - 2, b + 2, c)], ix[(a - 2, b, c + 2)], ix[(a - 2, b, c)])
            for a, b, c in sorted(alpha2, key=lambda m: -m[0])
        )
        # The steps as array updates in rounds on alpha^a and alpha^(a-1): a
        # round writes only below alpha^(a-1), each write kind hits a target at
        # most once, and the steps give each target its tau, gamma, beta writes in that order.
        rounds: dict[int, list] = {}
        for step in self._reduction_steps:
            rounds.setdefault((max_degree - self.monomials[step[0]][0]) // 2, []).append(step)
        self._reduction_rounds = tuple(np.array(r).T for r in rounds.values())

    @property
    def remainder_monomials(self) -> tuple[Monomial, ...]:
        return self.monomials[self.alpha2_size :]

    def __repr__(self) -> str:  # pragma: no cover
        return f"GrevlexBasis(max_degree={self.max_degree}, size={self.size})"


@lru_cache(maxsize=None)
def grevlex_basis(max_degree: int) -> GrevlexBasis:
    return GrevlexBasis(max_degree)


@dataclass(frozen=True, eq=False)
class DensePolynomial:
    """Coefficient vector aligned to a :class:`GrevlexBasis`."""

    basis: GrevlexBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector length {coeffs.shape} does not match basis size {self.basis.size}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, u) -> float:
        u = np.asarray(u, dtype=float)
        powers = np.prod(u[None, :] ** self.basis.exponents, axis=1)
        return float(powers @ self.coeffs)

    def __add__(self, other: "DensePolynomial") -> "DensePolynomial":
        self._check_same_basis(other)
        return DensePolynomial(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "DensePolynomial") -> "DensePolynomial":
        self._check_same_basis(other)
        return DensePolynomial(self.basis, self.coeffs - other.coeffs)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def coefficient(self, m: Monomial) -> float:
        return float(self.coeffs[self.basis.index[m]])

    def _check_same_basis(self, other: "DensePolynomial") -> None:
        if other.basis is not self.basis:
            raise ValueError("polynomials live on different bases")


def monomial_poly(m: Monomial) -> DensePolynomial:
    """The monomial ``m`` as a one-hot polynomial on the basis of its degree."""
    basis = grevlex_basis(sum(m))
    coeffs = np.zeros(basis.size)
    coeffs[basis.index[m]] = 1.0
    return DensePolynomial(basis, coeffs)


@lru_cache(maxsize=None)
def _mul_table(d1: int, d2: int, dout: int) -> np.ndarray:
    """Output index of every product of a degree-``d1`` and a degree-``d2`` monomial."""
    index = grevlex_basis(dout).index
    rows = [
        [index[(a + x, b + y, c + z)] for x, y, z in grevlex_basis(d2).monomials]
        for a, b, c in grevlex_basis(d1).monomials
    ]
    return np.array(rows, dtype=np.int64)


def _mul_stack(p: np.ndarray, q: np.ndarray, d1: int, d2: int, dout: int) -> np.ndarray:
    """Coefficient convolutions ``p[k] * q[k]`` of stacked degree-``d1`` and
    degree-``d2`` rows on the degree-``dout`` basis, by one ``bincount`` over
    :func:`_mul_table`; it adds in order, exactly as a sequential scatter."""
    table = _mul_table(d1, d2, dout)
    n_out = grevlex_basis(dout).size
    lead = p.shape[:-1]
    k = int(np.prod(lead))
    idx = (np.arange(k)[:, None] * n_out + table.ravel()).ravel()
    weights = (p.reshape(k, -1, 1) * q.reshape(k, 1, -1)).ravel()
    return np.bincount(idx, weights=weights, minlength=k * n_out).reshape(*lead, n_out)


def poly_mul(p: DensePolynomial, q: DensePolynomial, out_basis: GrevlexBasis) -> DensePolynomial:
    """Exact coefficient convolution of ``p * q`` on ``out_basis``."""
    if p.basis.max_degree + q.basis.max_degree > out_basis.max_degree:
        raise DegreeOverflow(
            f"degree {p.basis.max_degree} * degree {q.basis.max_degree} exceeds basis degree "
            f"{out_basis.max_degree}"
        )
    coeffs = _mul_stack(
        p.coeffs, q.coeffs, p.basis.max_degree, q.basis.max_degree, out_basis.max_degree
    )
    return DensePolynomial(out_basis, coeffs)


def reduce_columns_mod_h(stack: np.ndarray, basis: GrevlexBasis, tau: float) -> None:
    """Normal form modulo the sphere constraint of every column of the
    monomial-major ``(basis.size, n)`` array ``stack``, in place.

    Each entry gets the subtractions of a sequential run of the basis's
    ``_reduction_steps``, in the same order (see ``GrevlexBasis``).
    """
    for sources, ib, ic, it in basis._reduction_rounds:
        v = stack[sources]
        stack[it] -= tau * v
        stack[ic] -= v
        stack[ib] -= v
    stack[: basis.alpha2_size] = 0.0


def reduce_mod_h(p: DensePolynomial, c: RotationConstraint) -> DensePolynomial:
    """Normal form of ``p`` modulo the sphere constraint.

    Substitutes ``alpha^2 <- -(beta^2 + gamma^2 + tau)`` until no monomial is
    divisible by ``alpha^2``; the result is supported on the remainder block
    and agrees with ``p`` on the constraint sphere.
    """
    out = p.coeffs.copy()
    reduce_columns_mod_h(out[:, None], p.basis, c.tau)
    return DensePolynomial(p.basis, out)


# Flat indices into the outer product ``b_k a_l`` (at ``3 k + l``): the
# minuends and subtrahends of ``a x b``, then the pairs summed into ab, ac, bc.
_PICK, _OTHER = [7, 2, 3, 1, 2, 5], [5, 6, 1, 3, 6, 7]
# From the blocks (a^2, b^2, c^2), (ab, ac, bc), (a, b, c), (1) to the
# degree-2 basis order a^2, ab, b^2, ac, bc, c^2, a, b, c, 1.
_BILINEAR_ORDER = [0, 3, 1, 4, 5, 2, 6, 7, 8, 9]


def _bilinear_coeffs(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Degree-2 coefficient rows of ``b^T R a`` for stacked ``(..., 3)`` vectors.

    Every coefficient is rounded as in the single-pair formula: the constant
    from ``a @ b``, the linear terms from ``np.cross(a, b)``.
    """
    outer = (b[..., :, None] * a[..., None, :]).reshape(a.shape[:-1] + (9,))
    pick, other = outer[..., _PICK], outer[..., _OTHER]
    const = (2.0 * sigma * sigma - 1.0) * _dot(a, b)
    parts = (
        2.0 * b * a,
        2.0 * (pick[..., 3:] + other[..., 3:]),
        -2.0 * sigma * (pick[..., :3] - other[..., :3]),
        const[..., None],
    )
    return np.concatenate(parts, axis=-1)[..., _BILINEAR_ORDER]


def rotation_bilinear_form(a, b, c: RotationConstraint) -> DensePolynomial:
    """The quadratic polynomial ``b^T R a`` in (alpha, beta, gamma).

    With the rotation written as ``(2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)``
    the coefficients are: constant ``(2 sigma^2 - 1)(a.b)``, linear
    ``-2 sigma (a x b)``, and quadratic terms from ``2 (b.u)(u.a)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return DensePolynomial(grevlex_basis(2), _bilinear_coeffs(a, b, c.sigma))


def _ray_stack(pairs, *names: str) -> list[np.ndarray]:
    """``(N, 3)`` arrays of the named ray attributes of ``pairs``."""
    return [np.array([getattr(p, name) for p in pairs], dtype=float) for name in names]


def _polys(coeffs: np.ndarray, degree: int) -> list[DensePolynomial]:
    basis = grevlex_basis(degree)
    return [DensePolynomial(basis, row) for row in coeffs]


def _f_rows(pairs: list[BearingPair], i, j, sigma: float) -> np.ndarray:
    """Depth-elimination rows ``(..., 2, 10)`` for anchors ``i`` and
    correspondences ``j`` (index arrays of one shape)."""
    q1, q2 = _ray_stack(pairs, "q1", "q2")
    p1, p2 = _cross(np.stack([q1[i], q2[i]]), np.stack([q1[j], q2[j]]))
    entries = _bilinear_coeffs(np.stack([p1, q1[j]]), np.stack([q2[j], p2]), sigma)
    return np.moveaxis(entries, 0, -2)


def _f_dets(entries: np.ndarray) -> np.ndarray:
    """Quartic determinants of stacked ``(..., 2, 2, 10)`` quadratic matrices."""
    prods = _mul_stack(entries[..., [0, 0], [0, 1], :], entries[..., [1, 1], [1, 0], :], 2, 2, 4)
    return prods[..., 0, :] - prods[..., 1, :]


@dataclass(frozen=True, eq=False)
class FMatrixSpec:
    """2x2 matrix of quadratics tying the anchor depth pair to two other
    correspondences of a central-camera problem."""

    anchor: int
    j: int
    k: int
    entries: tuple[tuple[DensePolynomial, DensePolynomial], tuple[DensePolynomial, DensePolynomial]]

    def evaluate(self, u) -> np.ndarray:
        return np.array([[e(u) for e in row] for row in self.entries])

    def det(self) -> DensePolynomial:
        entries = np.array([[e.coeffs for e in row] for row in self.entries])
        return DensePolynomial(grevlex_basis(4), _f_dets(entries))


def f_matrix_spec(pairs: list[BearingPair], i: int, j: int, k: int, c: RotationConstraint) -> FMatrixSpec:
    """Depth-elimination matrix for anchor ``i`` and free correspondences ``j, k``."""
    rows = _f_rows(pairs, np.array([i, i]), np.array([j, k]), c.sigma)
    return FMatrixSpec(anchor=i, j=j, k=k, entries=tuple(tuple(_polys(r, 2)) for r in rows))


# Anchor and free correspondences of each generator: cyclic patterns that
# make each generator set symmetric under relabelling of the correspondences.
_F_TRIPLES = np.array([(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)])
_G_QUADRUPLES = np.array([(1, 2, 3, 4), (2, 3, 4, 0), (3, 4, 0, 1), (4, 0, 1, 2), (0, 1, 2, 3)])


def build_f_polynomials(pairs: list[BearingPair], c: RotationConstraint) -> list[DensePolynomial]:
    """The four quartic determinant constraints of the 4-point problem.

    The cyclic anchor pattern (2,3,4), (3,4,1), (4,1,2), (1,2,3) makes the set
    symmetric under relabelling of the four correspondences.  All four
    determinants are formed in one batch.
    """
    if len(pairs) != 4:
        raise ValueError("exactly 4 bearing pairs required")
    q1, q2 = _ray_stack(pairs, "q1", "q2")
    first, second = np.triu_indices(4, 1)
    crosses = _cross(np.stack([q1[first], q2[first]], 1), np.stack([q1[second], q2[second]], 1))
    coincident = np.flatnonzero(np.sqrt(_dot(crosses, crosses)) < COINCIDENT_RAY_EPS)
    if coincident.size:
        pair, view = divmod(int(coincident[0]), 2)
        raise DegenerateInput(
            f"rays {first[pair]} and {second[pair]} coincide in view {view + 1}; "
            "correspondences must be distinct"
        )
    anchors = np.repeat(_F_TRIPLES[:, :1], 2, axis=1)
    return _polys(_f_dets(_f_rows(pairs, anchors, _F_TRIPLES[:, 1:], c.sigma)), 4)


def _g_rows(pairs: list[PluckerPair], i, j, sigma: float) -> np.ndarray:
    """Generalized constraint rows ``(..., 3, 10)``, the quadratics ``(a, b, w)``
    acting on (lambda, mu, 1), for anchors ``i`` and correspondences ``j``."""
    q1, q2, m1, m2 = _ray_stack(pairs, "q1", "q2", "m1", "m2")
    e1, e2 = _cross(np.stack([m1[i], m2[i]]), np.stack([q1[i], q2[i]]))
    qj1, qj2 = q1[j], q2[j]
    p1, p2, c1, c2 = _cross(np.stack([q1[i], q2[i], e1, e2]), np.stack([qj1, qj2, qj1, qj2]))
    left = np.stack([p1, qj1, c1, qj1, m1[j], qj1])
    right = np.stack([qj2, p2, qj2, c2, qj2, m2[j]])
    f = _bilinear_coeffs(left, right, sigma)
    w = f[2] + f[3] + f[4] + f[5]
    return np.stack([f[0], f[1], w], axis=-2)


def _g_dets(rows: np.ndarray) -> np.ndarray:
    """Sextic determinants of stacked ``(..., 3, 3, 10)`` quadratic matrices,
    expanded along the first row."""
    second, third = rows[..., 1, [1, 2, 0, 2, 0, 1], :], rows[..., 2, [2, 1, 2, 0, 1, 0], :]
    minors = _mul_stack(second, third, 2, 2, 4)
    cofactors = minors[..., 0::2, :] - minors[..., 1::2, :]
    terms = _mul_stack(rows[..., 0, :, :], cofactors, 2, 4, 6)
    return terms[..., 0, :] - terms[..., 1, :] + terms[..., 2, :]


@dataclass(frozen=True, eq=False)
class GMatrixSpec:
    """3x3 matrix of quadratics tying the anchor depth pair of a generalized
    problem to three other correspondences; rows act on (lambda, mu, 1)."""

    anchor: int
    j: int
    k: int
    l: int
    rows: tuple[tuple[DensePolynomial, DensePolynomial, DensePolynomial], ...]

    def det(self) -> DensePolynomial:
        rows = np.array([[e.coeffs for e in row] for row in self.rows])
        return DensePolynomial(grevlex_basis(6), _g_dets(rows))


def g_constraint_row(
    pairs: list[PluckerPair], i: int, j: int, c: RotationConstraint
) -> tuple[DensePolynomial, DensePolynomial, DensePolynomial]:
    """Generalized epipolar constraint of correspondence ``j`` under the
    anchor-``i`` translation parametrization, collected against (lambda, mu, 1)."""
    return tuple(_polys(_g_rows(pairs, i, j, c.sigma), 2))


def g_matrix_spec(
    pairs: list[PluckerPair], i: int, j: int, k: int, l: int, c: RotationConstraint
) -> GMatrixSpec:
    rows = _g_rows(pairs, np.array([i, i, i]), np.array([j, k, l]), c.sigma)
    return GMatrixSpec(anchor=i, j=j, k=k, l=l, rows=tuple(tuple(_polys(r, 2)) for r in rows))


def build_g_polynomials(pairs: list[PluckerPair], c: RotationConstraint) -> list[DensePolynomial]:
    """The five sextic determinant constraints of the generalized 5-point
    problem, formed in one batch."""
    if len(pairs) != 5:
        raise ValueError("exactly 5 Pluecker pairs required")
    anchors = np.repeat(_G_QUADRUPLES[:, :1], 3, axis=1)
    dets = _g_dets(_g_rows(pairs, anchors, _G_QUADRUPLES[:, 1:], c.sigma))
    if np.any(np.max(np.abs(dets), axis=1) < 1e-12):
        raise DegenerateInput(
            "a determinant constraint collapsed to zero; the ray configuration is degenerate"
        )
    return _polys(dets, 6)
