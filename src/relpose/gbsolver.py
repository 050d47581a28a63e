"""Elimination-template engine for the two polynomial systems.

The pipeline is generic over the generators: multiply them by a fixed set of
monomials, reduce every product modulo the sphere constraint, stack the
remainder-block coefficients into a template matrix, row-reduce it, read the
quotient-ring basis off the non-pivot columns, build the multiplication
matrix for gamma, recover candidate roots from its eigenvectors, and polish
every root with Gauss-Newton steps on the generators.

Each minimal problem is one ``TemplateProblem``.  It carries a short
chain of committed pivot partitions, so there is one elimination
algorithm, an LU solve on fixed data: a solver tries the next partition
only where one raises or drops a root as inconsistent, and keeps the roots
of the attempt that dropped the fewest.  Polishing supplies the accuracy
that per-instance pivoting used to buy, and ``residual_gate`` keeps only
poses that satisfy their own sample.  Each solver module keeps its own call
sequence through these layers; the steps both run around it live here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegenerateInput,
    DegreeOverflow,
    EigenFailure,
    RankDeficient,
    UnreachableMonomial,
)
from .geom import (
    RotationConstraint,
    UnitQuaternion,
    rotation_stack,
    sigma_from_angle,
    stacked_dot,
)
from .poly import GrevlexBasis, Monomial, grevlex_basis, reduce_columns_mod_h

IMAG_TOL = 1e-6
ROOT_TOL = 1e-6

# A pose is returned only if every scaled residual it leaves on its own
# sample (see ``residual_gate``) is at most this.  A rotation off by d
# radians leaves residuals of about d, and a polished root about 1e-15.
POSE_RESIDUAL_TOL = 1e-6

# Below this norm a root carries no usable rotation axis.
U_DIRECTION_EPS = 1e-10

# Roots are read off the eigenvector entries at 1, alpha, beta and gamma, so
# these monomials must stay in the quotient basis.
ROOT_MONOMIALS: tuple[Monomial, ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class TemplateProblem:
    """One minimal problem as the template engine sees it.

    The template holds every generator times every monomial of
    ``multipliers``, plus the ``extra_rows`` (multiplier, generator index),
    reduced over the remainder block of degree ``target_degree``.
    ``partitions`` are the committed pivot partitions, each one template
    column per row, in the order the solvers try them; they are derived
    offline by ``tests/derive_partitions.py``.
    """

    sample_size: int
    multipliers: tuple[Monomial, ...]
    extra_rows: tuple[tuple[Monomial, int], ...]
    target_degree: int
    template_shape: tuple[int, int]
    basis_size: int
    partitions: tuple[tuple[int, ...], ...]

    def prepare(self, pairs: list, theta: float, anchor: int) -> tuple[list, RotationConstraint]:
        """Check the sample size, relabel the pairs cyclically so that
        ``pairs[anchor]`` comes first, and fix the sphere constraint."""
        n = self.sample_size
        if len(pairs) != n:
            raise ValueError(f"exactly {n} correspondences required, got {len(pairs)}")
        c = sigma_from_angle(theta)
        return list(pairs[anchor % n :]) + list(pairs[: anchor % n]), c


# Central cameras, four bearing pairs: 20 solutions.
REGULAR = TemplateProblem(
    sample_size=4,
    multipliers=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    extra_rows=(),
    target_degree=5,
    template_shape=(16, 36),
    basis_size=20,
    partitions=(
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18, 20, 21, 26, 30),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 19),
    ),
)

# Generalized cameras, five Pluecker pairs: 44 solutions.
GENERAL = TemplateProblem(
    sample_size=5,
    multipliers=((0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    extra_rows=(((0, 0, 0), 0), ((0, 0, 0), 1)),
    target_degree=8,
    template_shape=(37, 81),
    basis_size=44,
    partitions=(
        (
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 23, 24, 26, 34, 35, 36,
            38, 39, 41, 42, 43, 44, 45, 47, 49, 51, 52, 53, 54,
        ),
        (
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 24, 25, 26, 36, 37, 38, 39,
            42, 45, 46, 47, 48, 49, 50, 51, 52, 53, 58, 61, 63,
        ),
    ),
)


def check_shape(what: str, shape: tuple[int, ...], expected: tuple[int, ...]) -> None:
    """Raise ``BasisAnomaly`` on a wrong shape; unlike ``assert``, this survives ``-O``."""
    if shape != expected:
        raise BasisAnomaly(f"{what} has shape {shape}, expected {expected}")


@contextmanager
def degenerate_configuration():
    """Re-raise template failures as ``DegenerateConfiguration``."""
    try:
        yield
    except (
        DegenerateInput, RankDeficient, BasisAnomaly, UnreachableMonomial, EigenFailure
    ) as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def candidate_rotations(
    roots: np.ndarray, c: RotationConstraint
) -> tuple[list[UnitQuaternion], np.ndarray]:
    """Quaternions and ``(K, 3, 3)`` rotation stack of the ``(K, 3)`` roots
    that carry a usable rotation axis, each rescaled onto the sphere
    ``|u| = sqrt(1 - sigma^2)``; raises ``DegenerateConfiguration`` when
    none does.  A zero angle pins every root to the identity."""
    if c.tau == 0.0:
        u = np.zeros_like(roots)
    else:
        # The stacked dot rounds as ``np.linalg.norm`` of each row does.  A
        # NaN norm passes the drop test, so a NaN root fails the
        # ``UnitQuaternion`` check instead of vanishing.
        n = np.sqrt(stacked_dot(roots, roots))
        keep = ~(n <= U_DIRECTION_EPS)
        u = (math.sqrt(1.0 - c.sigma * c.sigma) / n[keep])[:, None] * roots[keep]
    if not len(u):
        raise DegenerateConfiguration("no usable rotation candidates survived filtering")
    return [UnitQuaternion(c.sigma, v) for v in u], rotation_stack(c.sigma, u)


def residual_gate(residuals: np.ndarray) -> np.ndarray:
    """Indices of the poses whose ``(K, N)`` scaled residuals on their own
    sample are all at most ``POSE_RESIDUAL_TOL``; raises
    ``DegenerateConfiguration`` when there is none.  A NaN residual fails."""
    keep = np.flatnonzero(np.max(np.abs(residuals), axis=1) <= POSE_RESIDUAL_TOL)
    if not keep.size:
        raise DegenerateConfiguration("no candidate pose satisfies its own sample")
    return keep


@dataclass(frozen=True, eq=False)
class EliminationTemplate:
    """Reduced coefficient matrix over the remainder-block monomials."""

    basis: GrevlexBasis
    matrix: np.ndarray
    row_labels: tuple[tuple[Monomial, int], ...]


@lru_cache(maxsize=None)
def _basis_of_width(width: int) -> GrevlexBasis:
    """The monomial basis with ``width`` monomials: the basis of the
    generators' degree."""
    degree = 0
    while grevlex_basis(degree).size < width:
        degree += 1
    if grevlex_basis(degree).size != width:
        raise ValueError(f"{width} coefficients fit no monomial basis")
    return grevlex_basis(degree)


@lru_cache(maxsize=None)
def _assembly_plan(multipliers, extra_rows, n_generators: int, degree: int, target_degree: int):
    """Row labels and the gather of every multiplier-times-generator row.

    Entry ``dest[k]`` of the flat monomial-major ``(basis.size, n_rows)``
    stack receives entry ``src[k]`` of the flattened ``(n_generators,
    n_coeffs)`` array of degree-``degree`` generators.
    """
    basis = grevlex_basis(target_degree)
    labels = tuple((m, gi) for m in multipliers for gi in range(n_generators)) + extra_rows
    monomials = grevlex_basis(degree).monomials
    dest, src = [], []
    for row, (m, gi) in enumerate(labels):
        if sum(m) + degree > target_degree:
            raise DegreeOverflow(
                f"multiplier {m} on a degree-{degree} generator exceeds degree {target_degree}"
            )
        for k, e in enumerate(monomials):
            dest.append(basis.index[(m[0] + e[0], m[1] + e[1], m[2] + e[2])] * len(labels) + row)
            src.append(gi * len(monomials) + k)
    return labels, np.array(dest, dtype=np.int64), np.array(src, dtype=np.int64)


def assemble_reduced_template(
    generators: np.ndarray,
    multipliers: tuple[Monomial, ...],
    target_degree: int,
    c: RotationConstraint,
    extra_rows: tuple[tuple[Monomial, int], ...] = (),
) -> EliminationTemplate:
    """Stack reduced multiplier-times-generator rows over the remainder block.

    ``generators`` is an ``(n_gen, n_coeffs)`` coefficient array; its width
    fixes the generator degree.  Every product is gathered into a column of
    one monomial-major stack by a cached index plan, and the whole stack is
    reduced modulo the sphere constraint at once.
    """
    basis = grevlex_basis(target_degree)
    n_generators, width = generators.shape
    labels, dest, src = _assembly_plan(
        tuple(multipliers), tuple(extra_rows), n_generators, _basis_of_width(width).max_degree,
        target_degree,
    )
    stack = np.zeros(basis.size * len(labels))
    stack[dest] = generators.ravel()[src]
    stack = stack.reshape(basis.size, len(labels))
    reduce_columns_mod_h(stack, basis, c.tau)
    matrix = np.ascontiguousarray(stack[basis.alpha2_size :].T)
    return EliminationTemplate(basis=basis, matrix=matrix, row_labels=labels)


def rref_conditioned(B: np.ndarray, pivots: tuple[int, ...]) -> np.ndarray:
    """Gauss-Jordan reduction of the template on a committed partition.

    ``pivots`` holds one template column per row; the reduction is one LU
    solve with that pivot block, so row ``i`` of the result has a 1 in
    column ``pivots[i]`` and 0 in the other pivot columns.  A singular or
    non-finite solve raises ``RankDeficient``; a poorly conditioned one goes
    unnoticed here, and the solvers catch it downstream.  The name is what
    ``perfbench/spans.py`` traces as the ``gbsolver.rref`` layer.
    """
    try:
        A = np.linalg.solve(B[:, pivots], B)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"the fixed pivot block is singular: {exc}") from exc
    if not np.isfinite(A).all():
        raise RankDeficient("the fixed pivot block reduced to non-finite rows")
    return A


@dataclass(frozen=True, eq=False)
class QuotientBasis:
    """Standard monomials of the quotient ring, ascending grevlex."""

    monomials: tuple[Monomial, ...]
    template_cols: np.ndarray
    index: dict[Monomial, int]
    pos_one: int
    pos_alpha: int
    pos_beta: int
    pos_gamma: int

    @property
    def size(self) -> int:
        return len(self.monomials)


def quotient_basis_from_pivots(
    basis: GrevlexBasis, pivots: tuple[int, ...], expected_size: int
) -> QuotientBasis:
    """Non-pivot template columns as standard monomials, ascending grevlex.

    Bases are cached by partition; the solvers pass only committed ones.
    """
    return _quotient_basis(basis.max_degree, tuple(pivots), expected_size)


@lru_cache(maxsize=None)
def _quotient_basis(degree: int, pivots: tuple[int, ...], expected_size: int) -> QuotientBasis:
    remainder = grevlex_basis(degree).remainder_monomials
    standard = np.ones(len(remainder), dtype=bool)
    standard[list(pivots)] = False
    # The remainder block descends in grevlex, so its reverse ascends.
    cols = np.flatnonzero(standard)[::-1]
    cols.setflags(write=False)
    monomials = tuple(remainder[j] for j in cols.tolist())
    index = {m: i for i, m in enumerate(monomials)}
    if len(monomials) != expected_size:
        raise BasisAnomaly(f"quotient basis has size {len(monomials)}, expected {expected_size}")
    for needed in ROOT_MONOMIALS:
        if needed not in index:
            raise BasisAnomaly(f"quotient basis is missing monomial {needed}")
    return QuotientBasis(
        monomials=monomials,
        template_cols=cols,
        index=index,
        pos_one=index[(0, 0, 0)],
        pos_alpha=index[(1, 0, 0)],
        pos_beta=index[(0, 1, 0)],
        pos_gamma=index[(0, 0, 1)],
    )


@lru_cache(maxsize=None)
def _gamma_shift(degree: int) -> np.ndarray:
    """For each remainder column of the degree-``degree`` basis, the
    remainder column of gamma times its monomial, or -1 where that product
    exceeds the degree and so leaves the template."""
    remainder = grevlex_basis(degree).remainder_monomials
    col = {m: j for j, m in enumerate(remainder)}
    return np.array([col.get((a, b, c + 1), -1) for a, b, c in remainder], dtype=np.int64)


def build_action_matrix(
    reduced: np.ndarray, pivots: tuple[int, ...], basis: GrevlexBasis, qb: QuotientBasis
) -> np.ndarray:
    """Multiplication-by-gamma matrix on the quotient-ring basis.

    Each row is either a unit row (gamma times the monomial stays standard) or
    the negated coefficient row of the pivot polynomial whose leading monomial
    it hits.
    """
    n = qb.size
    # Standard position and pivot row of every remainder column.  The extra
    # last slot stays -1, so a product outside the template (column -1)
    # finds neither.
    n_cols = basis.size - basis.alpha2_size
    position = np.full(n_cols + 1, -1)
    position[qb.template_cols] = np.arange(n)
    pivot_row = np.full(n_cols + 1, -1)
    pivot_row[list(pivots)] = np.arange(len(pivots))
    shifted = _gamma_shift(basis.max_degree)[qb.template_cols]
    unit, rows = position[shifted], pivot_row[shifted]
    bad = np.flatnonzero((unit < 0) & (rows < 0))
    if bad.size:
        a, b, c = m = qb.monomials[int(bad[0])]
        raise UnreachableMonomial(f"gamma * {m} = {(a, b, c + 1)} is outside the template")
    M = np.zeros((n, n))
    is_unit = unit >= 0
    M[is_unit, unit[is_unit]] = 1.0
    M[~is_unit] = -reduced[rows[~is_unit]][:, qb.template_cols]
    return M


def eigensolve_real(M: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a real square matrix whose eigenvalue is (near-)real.

    Eigenvectors are returned as real unit vectors; the complex phase is fixed
    by the largest-magnitude entry before the real part is taken.
    """
    M = np.asarray(M, dtype=float)
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    # A negated ">" keeps NaN eigenvalues, as the scalar test always has.
    keep = np.flatnonzero(~(np.abs(w.imag) > IMAG_TOL * (1.0 + np.abs(w.real))))
    V = V[:, keep]
    V = V / V[np.argmax(np.abs(V), axis=0), np.arange(keep.size)]
    # Contiguous rows make each stacked dot round as ``np.linalg.norm`` does.
    vr = np.ascontiguousarray(V.real.T)
    vr /= np.sqrt(stacked_dot(vr, vr))[:, None]
    return list(zip(w.real[keep].tolist(), vr))


@dataclass(frozen=True, eq=False)
class ExtractedRoots:
    """Recovered ``(K, 3)`` root rows and counts of candidates dropped by the filters."""

    roots: np.ndarray
    n_dropped_at_infinity: int
    n_dropped_inconsistent: int


_ALPHA, _BETA, _GAMMA = ROOT_MONOMIALS[1:]

# Every degree-two monomial m with degree-one factors x, y (x the first
# variable of m): a true root's eigenvector entry at m is the product of its
# entries at x and y.  The list holds for quotient bases of every degree.
_DEGREE_TWO_PRODUCTS = (
    ((0, 0, 2), _GAMMA, _GAMMA),
    ((0, 1, 1), _BETA, _GAMMA),
    ((1, 0, 1), _ALPHA, _GAMMA),
    ((0, 2, 0), _BETA, _BETA),
    ((1, 1, 0), _ALPHA, _BETA),
    ((2, 0, 0), _ALPHA, _ALPHA),
)


def extract_roots(pairs: list[tuple[float, np.ndarray]], qb: QuotientBasis) -> ExtractedRoots:
    """Read candidate (alpha, beta, gamma) rows off near-real eigenvectors.

    Candidates whose eigenvector cannot be normalized at the monomial 1, whose
    gamma entry disagrees with the eigenvalue, or whose degree-two entries are
    not products of the degree-one entries are dropped.
    """
    ix = qb.index
    checks = [(ix[m], ix[x], ix[y]) for m, x, y in _DEGREE_TWO_PRODUCTS if m in ix]
    m, x, y = np.array(checks, dtype=np.int64).reshape(-1, 3).T
    lam = np.array([w for w, _ in pairs])
    V = np.array([v for _, v in pairs]).reshape(-1, qb.size)
    at_infinity = np.abs(V[:, qb.pos_one]) <= 1e-10 * np.max(np.abs(V), axis=1)
    lam, V = lam[~at_infinity], V[~at_infinity]
    V = V / V[:, qb.pos_one, None]
    inconsistent = (np.abs(lam - V[:, qb.pos_gamma]) > ROOT_TOL) | np.any(
        np.abs(V[:, m] - V[:, x] * V[:, y]) > ROOT_TOL, axis=1
    )
    roots = V[~inconsistent][:, [qb.pos_alpha, qb.pos_beta, qb.pos_gamma]]
    return ExtractedRoots(
        roots=roots,
        n_dropped_at_infinity=int(at_infinity.sum()),
        n_dropped_inconsistent=int(inconsistent.sum()),
    )


# Most Gauss-Newton steps of ``polish_roots``.  A root stops once its
# squared residual is at rounding level or a step fails to lower it.
POLISH_STEPS = 8
POLISH_ROUNDING = 1e-28


@lru_cache(maxsize=None)
def _polish_tables(width: int) -> tuple[int, np.ndarray, ...]:
    """Degree, power gather and differentiation tables of the basis with
    ``width`` monomials.

    Row ``v`` of ``powers`` picks the power of variable ``v`` of every
    monomial out of a flat ``(3, degree + 1)`` table of powers.  The
    coefficient at monomial ``m`` of the derivative by variable ``v`` is
    ``factor[v, m]`` times the coefficient at ``source[v, m]``, which is ``m``
    times that variable, or the zero column ``width`` beyond the basis.
    ``sphere`` and ``one`` are the coefficient rows of ``alpha^2 + beta^2 +
    gamma^2`` and of the monomial 1.
    """
    basis = _basis_of_width(width)
    degree = basis.max_degree
    powers = (basis.exponents + (degree + 1) * np.arange(3)).T.copy()
    source = np.full((3, width), width)
    factor = np.zeros((3, width))
    for j, m in enumerate(basis.monomials):
        for v in range(3):
            up = m[:v] + (m[v] + 1,) + m[v + 1 :]
            if up in basis.index:
                source[v, j], factor[v, j] = basis.index[up], up[v]
    sphere, one = np.zeros(width), np.zeros(width)
    sphere[[basis.index[m] for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]] = 1.0
    one[basis.index[(0, 0, 0)]] = 1.0
    return degree, powers, source, factor, sphere, one


def polish_roots(generators: np.ndarray, roots: np.ndarray, c: RotationConstraint) -> np.ndarray:
    """Gauss-Newton refinement of the ``(K, 3)`` roots, batched over K.

    The equations are the generators, each row scaled by its largest
    coefficient, plus the sphere constraint ``|u|^2 + tau = 0``.  One
    coefficient matrix holds them and their partial derivatives, so each
    step is one power table, one matmul for values and Jacobians and one
    batched 3 x 3 solve of the normal equations.  A root takes a step only
    where its squared residual falls, so polishing never moves a root away
    from the variety.
    """
    if not len(roots):
        return roots
    degree, powers, source, factor, sphere, one = _polish_tables(generators.shape[1])
    scaled = generators / np.max(np.abs(generators), axis=1, keepdims=True)
    eqs = np.vstack([scaled, sphere + c.tau * one])
    n_eq, width = eqs.shape
    padded = np.hstack([eqs, np.zeros((n_eq, 1))])
    coeffs = np.vstack([eqs, (padded[:, source] * factor).reshape(3 * n_eq, width)]).T
    exponents = np.arange(degree + 1)

    def evaluate(x):
        table = (x[:, :, None] ** exponents).reshape(len(x), -1)[:, powers]
        out = (table[:, 0] * table[:, 1] * table[:, 2]) @ coeffs
        f = out[:, :n_eq]
        return f, out[:, n_eq:].reshape(-1, n_eq, 3), stacked_dot(f, f)

    x = roots.copy()
    f, jac, cost = evaluate(x)
    # Roots still moving: not yet at rounding level, and their last step helped.
    live = np.flatnonzero(cost > POLISH_ROUNDING)
    f, jac, cost = f[live], jac[live], cost[live]
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        jt = jac.transpose(0, 2, 1)
        try:
            step = np.linalg.solve(jt @ jac, jt @ f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            break
        x_new = x[live] - step
        f_new, jac_new, cost_new = evaluate(x_new)
        better = cost_new < cost
        x[live[better]] = x_new[better]
        go = better & (cost_new > POLISH_ROUNDING)
        live, f, jac, cost = live[go], f_new[go], jac_new[go], cost_new[go]
    return x
