"""Polynomial arithmetic over the quaternion unknowns (alpha, beta, gamma).

Coefficient vectors are dense and aligned to a fixed monomial basis, and a
set of generators is one ``(n_gen, basis.size)`` float array, a row per
polynomial.  A basis of maximal total degree d lists every monomial of degree
<= d in descending graded reverse lexicographic order (alpha > beta > gamma),
with the monomials divisible by alpha^2 placed first.  That partition is
what the elimination step operates on: reducing a polynomial modulo the
sphere constraint

    h = alpha^2 + beta^2 + gamma^2 + tau,   tau = sigma^2 - 1

repeatedly substitutes alpha^2 <- -(beta^2 + gamma^2 + tau) until only the
non-divisible remainder block carries coefficients.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import DegenerateInput
from .geom import RotationConstraint, count_nonzero, line_points
from .geom import stacked_cross as _cross, stacked_dot as _dot

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


@lru_cache(maxsize=None)
def _mul_table(d1: int, d2: int, dout: int) -> np.ndarray:
    """Output index of every product of a degree-``d1`` and a degree-``d2`` monomial."""
    index = grevlex_basis(dout).index
    rows = [
        [index[(a + x, b + y, c + z)] for x, y, z in grevlex_basis(d2).monomials]
        for a, b, c in grevlex_basis(d1).monomials
    ]
    return np.array(rows, dtype=np.int64)


# The index of the largest stack of each product kind so far; a smaller
# stack uses a prefix of it.
_MUL_INDEX: dict[tuple[int, int, int], np.ndarray] = {}


def _mul_index(d1: int, d2: int, dout: int, size: int) -> np.ndarray:
    """Flat output index of the first ``size`` products of :func:`_mul_table`
    stacked product after product, product ``j`` owning outputs ``j * n_out``
    onwards."""
    index = _MUL_INDEX.get((d1, d2, dout))
    if index is None or index.size < size:
        table = _mul_table(d1, d2, dout)
        index = np.arange(size // table.size)[:, None] * grevlex_basis(dout).size + table.ravel()
        index = _MUL_INDEX[(d1, d2, dout)] = index.ravel()
    return index[:size]


def _mul_stack(p: np.ndarray, q: np.ndarray, d1: int, d2: int, dout: int) -> np.ndarray:
    """Coefficient convolutions ``p[k] * q[k]`` of stacked degree-``d1`` and
    degree-``d2`` rows on the degree-``dout`` basis, by one ``bincount`` over
    :func:`_mul_table`; it adds in order, exactly as a sequential scatter."""
    n_out = grevlex_basis(dout).size
    weights = (p[..., :, None] * q[..., None, :]).ravel()
    index = _mul_index(d1, d2, dout, weights.size)
    sums = np.bincount(index, weights=weights, minlength=p.size // p.shape[-1] * n_out)
    return sums.reshape(p.shape[:-1] + (n_out,))


def reduce_columns_mod_h(stack: np.ndarray, basis: GrevlexBasis, tau: float) -> None:
    """Normal form modulo the sphere constraint of every column of the
    monomial-major ``(basis.size, n)`` array ``stack``, in place.

    Each entry gets the subtractions of a sequential run of the basis's
    ``_reduction_steps``, in the same order (see ``GrevlexBasis``).
    """
    # ``take`` gathers rows at a fraction of the cost of fancy indexing.
    for sources, ib, ic, it in basis._reduction_rounds:
        v = stack.take(sources, 0)
        stack[it] = stack.take(it, 0) - tau * v
        stack[ic] = stack.take(ic, 0) - v
        stack[ib] = stack.take(ib, 0) - v
    stack[: basis.alpha2_size] = 0.0


# The factors ``(b_k, a_l)`` of 18 products: the degree-2 coefficients in
# basis order, a^2, ab, b^2, ac, bc, c^2 (squares once), the minuends of
# ``a x b``, the same coefficients' other terms (squares again) and the
# subtrahends of ``a x b``.
_B_FACTOR = np.array([0, 0, 1, 0, 1, 2, 2, 0, 1, 0, 1, 1, 2, 2, 2, 1, 2, 0])
_A_FACTOR = np.array([0, 1, 1, 2, 2, 2, 1, 2, 0, 0, 0, 1, 0, 1, 2, 2, 0, 1])
# A square sums one product with itself, a cross term its two products.
_DOUBLE = np.array([1.0, 2.0, 1.0, 2.0, 2.0, 1.0])[:, None]
# Index arrays of ``_f_dets``, ``_g_rows`` and ``_g_dets``: the rays paired
# in bilinear forms, and the entries multiplied in determinants.
_F_LEFT, _F_RIGHT, _G_VIEWS = np.array([0, 2]), np.array([3, 1]), np.array([0, 1, 0, 1])
_G_LEFT, _G_RIGHT = np.array([0, 4, 2, 4, 6, 4]), np.array([5, 1, 5, 3, 5, 7])
_MINOR_SECOND, _MINOR_THIRD = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 1, 2, 0, 1, 0])


def _bilinear_coeffs(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Degree-2 coefficient rows of ``b^T R a`` for stacked ``(..., 3)`` vectors.

    Every coefficient is rounded as in the single-pair formula: the constant
    from ``a @ b``, the linear terms from ``np.cross(a, b)``, each square
    as ``2 b_k a_k`` and each cross term as ``2 (b_k a_l + b_l a_k)``.  The
    products are formed coefficient after coefficient, so that every step
    runs over all the rows at once.
    """
    prods = b.reshape(-1, 3).T.take(_B_FACTOR, 0) * a.reshape(-1, 3).T.take(_A_FACTOR, 0)
    quadratic = (prods[:6] + prods[9:15]) * _DOUBLE
    linear = -2.0 * sigma * (prods[6:9] - prods[15:])
    constant = (2.0 * sigma * sigma - 1.0) * _dot(a, b).reshape(1, -1)
    return np.concatenate([quadratic, linear, constant]).T.copy().reshape(a.shape[:-1] + (10,))


def _ray_stack(pairs, *names: str) -> np.ndarray:
    """The named ray attributes of ``pairs``, one ``(N, 3)`` row each, as
    the generator builders take them."""
    rows = np.array([getattr(p, name) for name in names for p in pairs], dtype=float)
    return rows.reshape(len(names), len(pairs), *rows.shape[1:])


def _f_rays(rays: np.ndarray, i, j) -> np.ndarray:
    """``[q1_i x q1_j, q2_i x q2_j, q1_j, q2_j]`` of the ``(2, ..., N, 3)``
    bearing rows ``q1``, ``q2`` for anchors ``i`` and correspondences ``j``
    of one shape."""
    qj = rays.take(j, -2)
    return np.concatenate([_cross(rays.take(i, -2), qj), qj])


def _f_dets(rays: np.ndarray, sigma: float) -> np.ndarray:
    """Quartic determinants of the 2 x 2 depth-elimination matrices of the
    ``_f_rays``, whose entry ``(j, i)`` is ``entries[i, ..., j, :]``."""
    entries = _bilinear_coeffs(rays.take(_F_LEFT, 0), rays.take(_F_RIGHT, 0), sigma)
    prods = _mul_stack(entries[:, ..., 0, :], entries[::-1, ..., 1, :], 2, 2, 4)
    return prods[0] - prods[1]


# Anchor and free correspondences of each generator: cyclic patterns that
# make each generator set symmetric under relabelling of the correspondences.
_F_TRIPLES = np.array([(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)])
_G_QUADRUPLES = np.array([(1, 2, 3, 4), (2, 3, 4, 0), (3, 4, 0, 1), (4, 0, 1, 2), (0, 1, 2, 3)])
# The anchor and free correspondences of every entry of each generator's matrix.
_F_ANCHORS, _F_FREE = np.repeat(_F_TRIPLES[:, :1], 2, axis=1), _F_TRIPLES[:, 1:]
_G_ANCHORS, _G_FREE = np.repeat(_G_QUADRUPLES[:, :1], 3, axis=1), _G_QUADRUPLES[:, 1:]
# Every pair of the four bearing correspondences, for the coincident-ray test,
# and the _F_ANCHORS x _F_FREE cross that holds it up to an exact sign.
_F_RAY_PAIRS = np.triu_indices(4, 1)
_F_PAIR_CROSSES = np.array([6, 7, 4, 0, 1, 2])


def build_f_polynomials(rays: np.ndarray, c: RotationConstraint, losses) -> np.ndarray:
    """The four quartic determinant constraints of the 4-point problem, as a
    ``(..., 4, 35)`` coefficient array on the degree-4 basis.

    ``rays`` holds the ``(..., 4, 3)`` bearing rows ``q1`` and ``q2`` of one
    sample per leading index, ``(2, ..., 4, 3)``.  The cyclic anchor pattern
    (2,3,4), (3,4,1), (4,1,2), (1,2,3) makes each set symmetric under
    relabelling of the four correspondences.  All determinants are formed
    in one batch.  A sample with coincident rays is lost in ``losses``, the
    solve's ``gbsolver.Losses`` over the flat leading index, for a
    ``DegenerateInput`` naming its first such pair, view 1 before view 2
    (its rows are left as they come out), so that a solver drops it alone.
    """
    if rays.shape[-2:] != (4, 3):
        raise ValueError("exactly 4 bearing pairs required")
    rays = _f_rays(rays, _F_ANCHORS, _F_FREE)
    coincident = np.sqrt(_dot(rays[:2], rays[:2])) < COINCIDENT_RAY_EPS
    if count_nonzero(coincident):
        # Per sample, the first coincident pair, view 1 before view 2.
        found = coincident.reshape(2, -1, 8).take(_F_PAIR_CROSSES, -1).transpose(1, 2, 0)
        first, second = _F_RAY_PAIRS
        for s in found.reshape(-1, 12).any(-1).nonzero()[0].tolist():
            k = int(found[s].argmax())
            message = f"rays {first[k // 2]} and {second[k // 2]} coincide in view {k % 2 + 1}; "
            losses.lose(s, DegenerateInput(message + "correspondences must be distinct"))
    return _f_dets(rays, c.sigma)


def _g_rows(rays: np.ndarray, i, j, sigma: float) -> np.ndarray:
    """Generalized constraint rows ``(..., 3, 10)``, the quadratics ``(a, b, w)``
    acting on (lambda, mu, 1), of the ``(4, ..., N, 3)`` Pluecker rows ``q1,
    q2, m1, m2`` for anchors ``i`` and correspondences ``j``."""
    # x = [q1, q2, e1, e2, q1, q2, m1, m2] with e = m x q, the points nearest
    # the origin on the lines: an anchor's factors are its first four rows,
    # a correspondence's its last four.
    x = np.concatenate([rays[:2], line_points(rays), rays])
    xi, xj = x[:4].take(i, -2), x[4:].take(j, -2)
    # [q1_i x q1_j, q2_i x q2_j, e1_i x q1_j, e2_i x q2_j, q1_j, q2_j, m1_j, m2_j].
    rows = np.concatenate([_cross(xi, xj.take(_G_VIEWS, 0)), xj])
    f = _bilinear_coeffs(rows.take(_G_LEFT, 0), rows.take(_G_RIGHT, 0), sigma)
    # w sums the last four forms in order, in place.
    for k in (3, 4, 5):
        f[2] += f[k]
    return f[:3].transpose(*range(1, f.ndim - 1), 0, -1)


def _g_dets(rows: np.ndarray) -> np.ndarray:
    """Sextic determinants of stacked ``(..., 3, 3, 10)`` quadratic matrices,
    expanded along the first row."""
    second = rows[..., 1, :, :].take(_MINOR_SECOND, -2)
    third = rows[..., 2, :, :].take(_MINOR_THIRD, -2)
    minors = _mul_stack(second, third, 2, 2, 4)
    cofactors = minors[..., 0::2, :] - minors[..., 1::2, :]
    terms = _mul_stack(rows[..., 0, :, :], cofactors, 2, 4, 6)
    return terms[..., 0, :] - terms[..., 1, :] + terms[..., 2, :]


def build_g_polynomials(rays: np.ndarray, c: RotationConstraint, losses) -> np.ndarray:
    """The five sextic determinant constraints of the generalized 5-point
    problem, formed in one batch, as a ``(..., 5, 84)`` coefficient array on
    the degree-6 basis, from the ``(..., 5, 3)`` Pluecker rows ``q1, q2, m1,
    m2`` of one sample per leading index, ``(4, ..., 5, 3)``.  A sample with
    a collapsed determinant is lost for a ``DegenerateInput``, as
    ``build_f_polynomials`` reports it."""
    if rays.shape[-2:] != (5, 3):
        raise ValueError("exactly 5 Pluecker pairs required")
    dets = _g_dets(_g_rows(rays, _G_ANCHORS, _G_FREE, c.sigma))
    collapsed = np.maximum.reduce(np.abs(dets), -1) < 1e-12
    if count_nonzero(collapsed):
        message = "a determinant constraint collapsed to zero; the ray configuration is degenerate"
        losses.lose(collapsed.reshape(-1, 5).any(-1), DegenerateInput(message))
    return dets
