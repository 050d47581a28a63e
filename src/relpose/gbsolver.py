"""Elimination-template engine for the two polynomial systems.

The pipeline is generic over the generators: multiply them by a fixed set of
monomials, reduce every product modulo the sphere constraint, stack the
remainder-block coefficients into a template matrix, row-reduce it, read the
quotient-ring basis off the non-pivot columns, build the multiplication
matrix for gamma, take its eigenvalues, recover candidate roots from the
eigenvectors of the near-real ones, and polish every root with Gauss-Newton
steps on the generators.

Eigenvalues come from ``np.linalg.eigvals`` (``eigensolve_real``).  The
eigenvectors are rebuilt from the gamma chains of the quotient basis
(``_gamma_chains``) by two batched steps of inverse iteration over every real
eigenvalue of a partition attempt (``extract_roots``), so their cost is
traced in the ``gbsolver.extract`` layer, not in ``gbsolver.eig``.  The
chains make the gamma entry and every product with a gamma factor hold by
construction; the alpha^2, alpha beta and beta^2 products carry the
consistency test.

Each minimal problem is one ``TemplateProblem``.  It carries a short
chain of committed pivot partitions, so there is one elimination
algorithm, an LU solve on fixed data: a solver tries the next partition
only where one raises or drops a root as inconsistent, and keeps the roots
of the attempt that dropped the fewest.  Polishing supplies the accuracy
that per-instance pivoting used to buy, and ``residual_gate`` keeps only
poses that satisfy their own sample.

Every layer takes a stack of samples, one per leading index, so that RANSAC
solves the samples of a round at once; a single solve is the stack of one.
A sample that fails fails alone: ``rotation_roots`` records its error and
solves the rest.  The solvers call every layer through their own module
attributes, where ``perfbench/spans.py`` traces them.
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
    RelposeError,
    UnreachableMonomial,
)
from .geom import RotationConstraint, sigma_from_angle, stacked_dot
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

    def sample_stack(
        self, pairs: list, theta: float, anchor: int, samples
    ) -> tuple[list, int, RotationConstraint]:
        """The pairs of every sample, sample after sample, the number of
        samples, and the sphere constraint.

        Without ``samples`` the pairs are one sample and must number exactly
        ``sample_size``; otherwise ``samples`` is a ``(B, sample_size)``
        index array into them.  Each sample is relabelled cyclically so that
        its ``anchor``-th pair comes first.
        """
        n = self.sample_size
        if samples is None:
            if len(pairs) != n:
                raise ValueError(f"exactly {n} correspondences required, got {len(pairs)}")
            c = sigma_from_angle(theta)
            return list(pairs[anchor % n :]) + list(pairs[: anchor % n]), 1, c
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[1] != n:
            raise ValueError(f"samples must be a (B, {n}) index array, got shape {samples.shape}")
        c = sigma_from_angle(theta)
        order = (np.arange(n) + anchor) % n
        return [pairs[i] for i in samples[:, order].ravel().tolist()], len(samples), c


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


_TEMPLATE_FAILURES = (
    DegenerateInput, RankDeficient, BasisAnomaly, UnreachableMonomial, EigenFailure
)


def as_degenerate(exc: RelposeError) -> RelposeError:
    """A template failure as the ``DegenerateConfiguration`` it causes; any
    other error as it is."""
    if not isinstance(exc, _TEMPLATE_FAILURES):
        return exc
    out = DegenerateConfiguration(str(exc))
    out.__cause__ = exc
    return out


def rescaled_roots(roots: np.ndarray, c: RotationConstraint) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the ``(K, 3)`` roots that carry a usable rotation axis, and
    their quaternion vector parts: each such root rescaled onto the sphere
    ``|u| = sqrt(1 - sigma^2)``.  A zero angle pins every root to the
    identity."""
    if c.tau == 0.0:
        return np.arange(len(roots)), np.zeros_like(roots)
    # The stacked dot rounds as ``np.linalg.norm`` of each row does.  A NaN
    # norm passes the drop test, so a NaN root fails the unit-quaternion
    # check instead of vanishing.
    n = np.sqrt(stacked_dot(roots, roots))
    keep = np.flatnonzero(~(n <= U_DIRECTION_EPS))
    return keep, (math.sqrt(1.0 - c.sigma * c.sigma) / n[keep])[:, None] * roots[keep]


def residual_gate(residuals: np.ndarray) -> np.ndarray:
    """Which poses have ``(K, N)`` scaled residuals on their own sample that
    are all at most ``POSE_RESIDUAL_TOL``.  A NaN residual fails."""
    return np.max(np.abs(residuals), axis=1) <= POSE_RESIDUAL_TOL


def unsolved(n: int, sample: np.ndarray, errors: dict) -> list[int]:
    """The samples of ``range(n)`` with no error yet and no candidate row
    left in ``sample``."""
    return sorted(set(range(n)).difference(sample.tolist(), errors))


@contextmanager
def recorded(errors: dict, samples: list[int]):
    """Record the error raised in the block as the error of each of ``samples``."""
    try:
        yield
    except RelposeError as exc:
        errors.update(dict.fromkeys(samples, exc))


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
    for m, _ in labels:
        if sum(m) + degree > target_degree:
            raise DegreeOverflow(
                f"multiplier {m} on a degree-{degree} generator exceeds degree {target_degree}"
            )
    # Basis position of every exponent triple, and every product's triple.
    position = np.zeros((target_degree + 1,) * 3, dtype=np.int64)
    position[tuple(basis.exponents.T)] = np.arange(basis.size)
    exponents = grevlex_basis(degree).exponents
    products = np.array([m for m, _ in labels])[:, None, :] + exponents
    rows = np.arange(len(labels))[:, None]
    dest = position[tuple(np.moveaxis(products, -1, 0))] * len(labels) + rows
    src = np.array([gi for _, gi in labels])[:, None] * len(exponents) + np.arange(len(exponents))
    return labels, dest.ravel(), src.ravel()


def assemble_reduced_template(
    generators: np.ndarray,
    multipliers: tuple[Monomial, ...],
    target_degree: int,
    c: RotationConstraint,
    extra_rows: tuple[tuple[Monomial, int], ...] = (),
) -> EliminationTemplate:
    """Stack reduced multiplier-times-generator rows over the remainder block.

    ``generators`` is an ``(..., n_gen, n_coeffs)`` coefficient array, one
    set per leading index; its width fixes the generator degree.  Every
    product is gathered into a column of one monomial-major stack by a
    cached index plan, the samples side by side, and the whole stack is
    reduced modulo the sphere constraint at once.  The matrix has the
    leading shape of ``generators``.
    """
    basis = grevlex_basis(target_degree)
    *lead, n_generators, width = generators.shape
    labels, dest, src = _assembly_plan(
        tuple(multipliers), tuple(extra_rows), n_generators, _basis_of_width(width).max_degree,
        target_degree,
    )
    n_samples = math.prod(lead)
    stack = np.zeros((basis.size * len(labels), n_samples))
    stack[dest] = generators.reshape(n_samples, -1)[:, src].T
    stack = stack.reshape(basis.size, len(labels) * n_samples)
    reduce_columns_mod_h(stack, basis, c.tau)
    remainder = stack[basis.alpha2_size :].reshape(-1, len(labels), n_samples)
    matrix = np.ascontiguousarray(remainder.transpose(2, 1, 0)).reshape(*lead, len(labels), -1)
    return EliminationTemplate(basis=basis, matrix=matrix, row_labels=labels)


def rref_conditioned(B: np.ndarray, pivots: tuple[int, ...]) -> np.ndarray:
    """Gauss-Jordan reduction of a stack of templates on a committed partition.

    ``pivots`` holds one template column per row; the reduction is one LU
    solve with that pivot block, so row ``i`` of each result has a 1 in
    column ``pivots[i]`` and 0 in the other pivot columns.  A singular or
    non-finite solve anywhere in the stack raises ``RankDeficient``; a
    poorly conditioned one goes unnoticed here, and the solvers catch it
    downstream.  The name is what ``perfbench/spans.py`` traces as the
    ``gbsolver.rref`` layer.
    """
    try:
        A = np.linalg.solve(B[..., list(pivots)], B)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"the fixed pivot block is singular: {exc}") from exc
    if not np.isfinite(A).all():
        raise RankDeficient("the fixed pivot block reduced to non-finite rows")
    return A


@dataclass(frozen=True, eq=False)
class QuotientBasis:
    """Standard monomials of the quotient ring, ascending grevlex.

    ``successor[i]`` is the index of gamma times monomial ``i``, or -1 where
    that product is not standard: the unit rows of the action matrix.
    """

    monomials: tuple[Monomial, ...]
    template_cols: np.ndarray
    index: dict[Monomial, int]
    successor: np.ndarray
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
    # Standard position of every remainder column.  The extra last slot
    # stays -1, so a product outside the template (column -1) finds none.
    position = np.full(len(remainder) + 1, -1)
    position[cols] = np.arange(len(cols))
    successor = position[_gamma_shift(degree)[cols]]
    successor.setflags(write=False)
    if len(monomials) != expected_size:
        raise BasisAnomaly(f"quotient basis has size {len(monomials)}, expected {expected_size}")
    for needed in ROOT_MONOMIALS:
        if needed not in index:
            raise BasisAnomaly(f"quotient basis is missing monomial {needed}")
    return QuotientBasis(
        monomials=monomials,
        template_cols=cols,
        index=index,
        successor=successor,
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
    """Multiplication-by-gamma matrices on the quotient-ring basis, one per
    leading index of the ``reduced`` stack.

    Each row is either a unit row (gamma times the monomial stays standard) or
    the negated coefficient row of the pivot polynomial whose leading monomial
    it hits.
    """
    n = qb.size
    plan = _action_plan(basis.max_degree, tuple(pivots), qb)
    unit_rows, unit_cols, pivot_rows, pivot_polys = plan
    M = np.zeros(reduced.shape[:-2] + (n, n))
    M[..., unit_rows, unit_cols] = 1.0
    M[..., pivot_rows, :] = -reduced[..., pivot_polys, :][..., qb.template_cols]
    return M


@lru_cache(maxsize=None)
def _action_plan(degree: int, pivots: tuple[int, ...], qb: QuotientBasis):
    """Where ``build_action_matrix`` puts its unit entries, ``(rows,
    columns)``, and which rows are negated pivot polynomials, ``(rows,
    polynomials)``."""
    # Pivot row of every remainder column.  The extra last slot stays -1, so
    # a product outside the template (column -1) finds none.
    basis = grevlex_basis(degree)
    pivot_row = np.full(basis.size - basis.alpha2_size + 1, -1)
    pivot_row[list(pivots)] = np.arange(len(pivots))
    unit, rows = qb.successor, pivot_row[_gamma_shift(degree)[qb.template_cols]]
    bad = np.flatnonzero((unit < 0) & (rows < 0))
    if bad.size:
        a, b, c = m = qb.monomials[int(bad[0])]
        raise UnreachableMonomial(f"gamma * {m} = {(a, b, c + 1)} is outside the template")
    is_unit = unit >= 0
    return np.flatnonzero(is_unit), unit[is_unit], np.flatnonzero(~is_unit), rows[~is_unit]


def eigensolve_real(M: np.ndarray) -> np.ndarray:
    """The real parts of the (near-)real eigenvalues of a real square matrix.

    Only eigenvalues are computed; ``extract_roots`` rebuilds the
    eigenvectors of the ones it needs from the gamma chains.
    """
    M = np.asarray(M, dtype=float)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    # A negated ">" keeps NaN eigenvalues, as the scalar test always has.
    return w.real[~(np.abs(w.imag) > IMAG_TOL * (1.0 + np.abs(w.real)))]


@lru_cache(maxsize=None)
def _gamma_chains(qb: QuotientBasis):
    """The gamma chains of the quotient basis, and how ``extract_roots``
    builds its chain systems from them.

    A unit row ``i -> j`` of the action matrix (gamma times monomial ``i`` is
    monomial ``j``) means ``v[j] = lambda * v[i]`` for every eigenvector, so
    the basis splits into chains ``m, gamma m, gamma^2 m, ...``, each ending
    at a non-unit row, its tail, and an eigenvector is fixed by its entries
    ``h`` at the chain heads.  The tail rows then read ``A(lambda) h = 0``
    with ``A(lambda) = sum_d lambda^d C_d``: ``C_d`` holds each tail row's
    entries at depth ``d`` of every chain, less 1 on the diagonal of each
    chain of length ``d``.  Each system is bordered by a fixed column and
    the row ``h[1] = 1`` in ``C_0``, the monomial 1 being a head.

    Returns the chain and depth (power of gamma) of every basis index, and a
    gather that builds every ``C_d`` of an action matrix at once from its
    flattened entries followed by ``constants``.
    """
    n = qb.size
    successor = qb.successor.tolist()
    chain, depth = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    tails = []
    for c, head in enumerate(sorted(set(range(n)).difference(successor))):
        k, d = head, 0
        while k >= 0:
            chain[k], depth[k] = c, d
            tail, k, d = k, successor[k], d + 1
        tails.append(tail)
    n_heads, lengths, diagonal = len(tails), np.bincount(chain), np.arange(len(tails))
    cols = np.full((lengths.max() + 1, n_heads), -1)
    cols[depth, chain] = np.arange(n)
    # Past the end of the matrix: 0, -1, 1, then the border, a fixed column
    # without structure.
    constants = np.concatenate([[0.0, -1.0, 1.0], np.cos(math.e * np.arange(1, n_heads + 1))])
    zero, minus_one, one, border = n * n, n * n + 1, n * n + 2, n * n + 3
    gather = np.full((len(cols), n_heads + 1, n_heads + 1), zero)
    gather[:, :n_heads, :n_heads] = np.where(
        cols[:, None, :] >= 0, np.array(tails)[:, None] * n + cols[:, None, :], zero
    )
    gather[lengths, diagonal, diagonal] = minus_one
    gather[0, :n_heads, n_heads] = border + diagonal
    gather[0, n_heads, chain[qb.pos_one]] = one
    return chain, depth, gather, constants


@dataclass(frozen=True, eq=False)
class ExtractedRoots:
    """Recovered ``(K, 3)`` root rows, the sample of each, and per sample the
    counts of candidates dropped by the filters."""

    roots: np.ndarray
    sample: np.ndarray
    at_infinity: np.ndarray
    inconsistent: np.ndarray

    @property
    def n_dropped_at_infinity(self) -> int:
        return int(self.at_infinity.sum())

    @property
    def n_dropped_inconsistent(self) -> int:
        return int(self.inconsistent.sum())


_ALPHA, _BETA = ROOT_MONOMIALS[1:3]

# The degree-two monomials m without gamma and their degree-one factors x, y:
# a true root's eigenvector entry at m is the product of its entries at x and
# y.  The chains make every product with a gamma factor hold by
# construction, so only these can fail.
_DEGREE_TWO_PRODUCTS = (
    ((0, 2, 0), _BETA, _BETA),
    ((1, 1, 0), _ALPHA, _BETA),
    ((2, 0, 0), _ALPHA, _ALPHA),
)


@lru_cache(maxsize=None)
def _product_checks(qb: QuotientBasis) -> np.ndarray:
    """Positions ``(m, x, y)`` in ``qb`` of the degree-two monomials of
    ``_DEGREE_TWO_PRODUCTS`` it holds and of their degree-one factors."""
    ix = qb.index
    checks = [(ix[m], ix[x], ix[y]) for m, x, y in _DEGREE_TWO_PRODUCTS if m in ix]
    return np.array(checks, dtype=np.int64).reshape(-1, 3).T


def extract_roots(eigenvalues, action: np.ndarray, qb: QuotientBasis) -> ExtractedRoots:
    """Candidate (alpha, beta, gamma) rows of the near-real eigenvalues of a
    stack of action matrices.

    ``eigenvalues[b]`` are eigenvalues of ``action[b]``, one array per matrix
    of the ``(B, n, n)`` stack; for one ``(n, n)`` matrix they are one array.
    Each eigenvector is rebuilt from the gamma chains (see
    ``_gamma_chains``): two bordered chain systems per root, each stack
    solved at once.  A root whose bordered system is singular has no
    eigenvector, unique up to scale, that is non-zero at 1; it is dropped as
    at infinity, alone.

    Candidates whose eigenvector cannot be normalized at the monomial 1, or
    whose alpha^2, alpha beta or beta^2 entries are not products of the
    degree-one entries, are dropped.  The chains make the gamma entry and
    every product with a gamma factor hold, so those are not tested.
    """
    if action.ndim == 2:
        eigenvalues, action = [eigenvalues], action[None]
    sizes = [len(w) for w in eigenvalues]
    sample = np.repeat(np.arange(len(action)), sizes)
    V = _chain_eigenvectors(np.concatenate(eigenvalues), sizes, action, qb)
    # Normalized at 1, an eigenvector whose entry there is at most 1e-10 of
    # its largest one is at infinity, and so is a NaN one.
    at_infinity = ~(np.max(np.abs(V), axis=1) < 1e10)
    m, x, y = _product_checks(qb)
    inconsistent = np.any(np.abs(V[:, m] - V[:, x] * V[:, y]) > ROOT_TOL, axis=1) & ~at_infinity
    keep = ~(at_infinity | inconsistent)
    return ExtractedRoots(
        roots=V[keep][:, [qb.pos_alpha, qb.pos_beta, qb.pos_gamma]],
        sample=sample[keep],
        at_infinity=np.bincount(sample[at_infinity], minlength=len(sizes)),
        inconsistent=np.bincount(sample[inconsistent], minlength=len(sizes)),
    )


def _chain_eigenvectors(lam: np.ndarray, sizes: list[int], action: np.ndarray, qb: QuotientBasis):
    """The ``(K, n)`` eigenvectors of the eigenvalues ``lam``, ``sizes[b]``
    of them for ``action[b]`` in turn, rebuilt from the gamma chains and
    normalized at the monomial 1.  A row is NaN where a bordered chain
    system is exactly singular.

    Each root takes two steps of inverse iteration: the first bordered by
    the fixed column, the second by the first's head entries.  Near a
    cluster of eigenvalues one step leaves some of the neighbours'
    eigenvectors in a root's; the second squares their share.
    """
    chain, depth, gather, constants = _gamma_chains(qb)
    n_samples, n_powers, size = len(action), len(gather), len(gather[0])
    table = np.concatenate(
        [action.reshape(n_samples, -1), np.broadcast_to(constants, (n_samples, len(constants)))],
        axis=1,
    )
    C = table[:, gather.reshape(n_powers, -1)]
    sample = np.repeat(np.arange(n_samples), sizes)
    powers = np.vander(lam, n_powers, increasing=True)
    # Every root's system from one matmul per sample, its roots padded to
    # the largest count.
    slot = np.arange(len(lam)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    padded = np.zeros((n_samples, max(sizes), n_powers))
    padded[sample, slot] = powers
    K = (padded @ C)[sample, slot].reshape(-1, size, size)
    K[:, :-1, -1] = _bordered_solve(K)
    V = _bordered_solve(K)[:, chain] * powers[:, depth]
    V /= V[:, qb.pos_one, None]
    return V


def _bordered_solve(K: np.ndarray) -> np.ndarray:
    """The head entries solving each bordered chain system of the stack,
    NaN where it is exactly singular."""
    # A column right-hand side of the stack's rank reads alike in every
    # numpy: a 1-D one is one vector per matrix only from numpy 2.0 on.
    rhs = np.zeros((K.shape[-1], 1))
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(K, np.broadcast_to(rhs, (len(K), *rhs.shape)))[:, :-1, 0]
    except np.linalg.LinAlgError:
        pass
    out = np.full(K.shape[:-1], math.nan)
    for k in range(len(K)):
        try:
            out[k] = np.linalg.solve(K[k], rhs)[:, 0]
        except np.linalg.LinAlgError:
            continue
    return out[:, :-1]


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


def polish_roots(
    generators: np.ndarray, roots: np.ndarray, c: RotationConstraint, sample=None
) -> np.ndarray:
    """Gauss-Newton refinement of the ``(K, 3)`` roots, batched over K.

    Root ``k`` solves the generators ``generators[sample[k]]`` of an
    ``(n_samples, n_gen, n_coeffs)`` stack, or, without ``sample``, the one
    ``(n_gen, n_coeffs)`` set; the roots of a sample must be consecutive.
    The equations are the generators, each row scaled by its largest
    coefficient, plus the sphere constraint ``|u|^2 + tau = 0``.  One
    coefficient matrix per sample holds them and their partial derivatives,
    so each step is one power table, one matmul per sample for values and
    Jacobians and one batched 3 x 3 solve of the normal equations.  A root
    takes a step only where its squared residual falls, so polishing never
    moves a root away from the variety.
    """
    if not len(roots):
        return roots
    if sample is None:
        generators, sample = generators[None], np.zeros(len(roots), dtype=np.int64)
    n_samples, n_gen, width = generators.shape
    degree, powers, source, factor, sphere, one = _polish_tables(width)
    n_eq = n_gen + 1
    # The equations, then their derivatives by each variable.
    coeffs = np.empty((n_samples, 4 * n_eq, width))
    eqs = coeffs[:, :n_eq]
    eqs[:, :n_gen] = generators / np.max(np.abs(generators), axis=-1, keepdims=True)
    eqs[:, n_gen] = sphere + c.tau * one
    padded = np.concatenate([eqs, np.zeros((n_samples, n_eq, 1))], axis=-1)
    coeffs[:, n_eq:] = (padded[..., source] * factor).reshape(n_samples, 3 * n_eq, width)
    coeffs = coeffs.transpose(0, 2, 1)
    exponents = np.arange(degree + 1)

    def evaluate(x, owner):
        table = (x[:, :, None] ** exponents).reshape(len(x), -1)[:, powers]
        monomials = table[:, 0] * table[:, 1] * table[:, 2]
        # One matmul per sample on its own rows, so that a sample's values
        # round as in a solve of that sample alone: the small-matrix BLAS
        # kernels round by the shape of their operands.
        if n_samples == 1:
            out = monomials @ coeffs[0]
        else:
            ends = np.cumsum(np.bincount(owner, minlength=n_samples)).tolist()
            out = np.concatenate([
                monomials[start:end] @ coeffs[s]
                for s, (start, end) in enumerate(zip([0, *ends], ends)) if end > start
            ])
        f = out[:, :n_eq]
        return f, out[:, n_eq:].reshape(-1, n_eq, 3), stacked_dot(f, f)

    x = roots.copy()
    f, jac, cost = evaluate(x, sample)
    # Roots still moving: not yet at rounding level, and their last step helped.
    live = np.flatnonzero(cost > POLISH_ROUNDING)
    f, jac, cost = f[live], jac[live], cost[live]
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        jt = jac.transpose(0, 2, 1)
        normal, rhs = jt @ jac, jt @ f[:, :, None]
        try:
            step = np.linalg.solve(normal, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # A singular system ends the polishing of its own sample only.
            go = np.ones(live.size, dtype=bool)
            for s in np.unique(sample[live]).tolist():
                mine = sample[live] == s
                try:
                    np.linalg.solve(normal[mine], rhs[mine])
                except np.linalg.LinAlgError:
                    go &= ~mine
            live, f, jac, cost = live[go], f[go], jac[go], cost[go]
            if not live.size:
                break
            step = np.linalg.solve(normal[go], rhs[go])[:, :, 0]
        x_new = x[live] - step
        f_new, jac_new, cost_new = evaluate(x_new, sample[live])
        better = cost_new < cost
        x[live[better]] = x_new[better]
        go = better & (cost_new > POLISH_ROUNDING)
        live, f, jac, cost = live[go], f_new[go], jac_new[go], cost_new[go]
    return x


def each_sample(stage, ids: np.ndarray, errors: dict):
    """``stage(ids)`` for the samples ``ids`` at once, or, where that raises,
    for one sample at a time.

    Returns the stacked outputs and the samples that passed, and records in
    ``errors`` the error of every other sample.
    """
    if not ids.size:
        return None, ids
    try:
        return stage(ids), ids
    except RelposeError as exc:
        if len(ids) == 1:
            errors[int(ids[0])] = exc
            return None, ids[:0]
    outs, passed = [], []
    for i in ids.tolist():
        try:
            outs.append(stage(np.array([i])))
        except RelposeError as exc:
            errors[i] = exc
            continue
        passed.append(i)
    return (np.concatenate(outs) if outs else None), np.array(passed, dtype=np.int64)


def rotation_roots(layers, problem: TemplateProblem, build, ids: np.ndarray, c, errors: dict):
    """Polished rotation roots of the samples ``ids``, solved as one stack.

    ``build(ids)`` returns the generators of those samples, and ``layers`` is
    the solver module through whose attributes every layer is called.  A
    sample left without roots has its error recorded in ``errors``.  Returns
    the ``(K, 3)`` roots, grouped by sample in ascending order, and the
    sample of each.
    """
    gens, ok = each_sample(build, ids, errors)
    lost: dict[int, RelposeError] = {}
    kept = _eliminate(layers, problem, gens, c, lost) if ok.size else {}
    errors.update((int(ok[p]), exc) for p, exc in lost.items())
    done = sorted(kept)
    if not done:
        return np.empty((0, 3)), ok[:0]
    counts = [len(kept[p]) for p in done]
    roots = np.concatenate([kept[p] for p in done])
    return layers.polish_roots(gens, roots, c, np.repeat(done, counts)), np.repeat(ok[done], counts)


def _eliminate(layers, problem: TemplateProblem, generators: np.ndarray, c, lost: dict) -> dict:
    """Unpolished roots of each sample of the generator stack, by position.

    Each sample reduces its template on the committed partitions in turn
    until one neither raises nor drops a root as inconsistent, and keeps the
    roots of the attempt that dropped the fewest.  A sample that no
    partition solves has its last error recorded in ``lost``.
    """
    n_samples = len(generators)
    try:
        template = layers.assemble_reduced_template(
            generators, problem.multipliers, problem.target_degree, c, extra_rows=problem.extra_rows
        )
        check_shape("template", template.matrix.shape, (n_samples, *problem.template_shape))
    except RelposeError as exc:
        lost.update(dict.fromkeys(range(n_samples), exc))
        return {}
    kept: dict[int, tuple[int, np.ndarray]] = {}
    last_error: dict[int, RelposeError] = {}
    pending = np.arange(n_samples)
    for pivots in problem.partitions:
        if not pending.size:
            break
        extracted, failed = _attempt(layers, problem, template, pivots, pending)
        last_error.update(failed)
        for p, (dropped, roots) in extracted.items():
            if p not in kept or dropped < kept[p][0]:
                kept[p] = dropped, roots
        pending = np.array([p for p in pending.tolist() if kept.get(p, (1,))[0]], dtype=np.int64)
    lost.update((p, exc) for p, exc in last_error.items() if p not in kept)
    return {p: roots for p, (_, roots) in kept.items()}


def _attempt(layers, problem: TemplateProblem, template, pivots, pending: np.ndarray):
    """The samples ``pending`` of the template stack reduced on one
    partition: for each sample that it solves, the count of roots dropped as
    inconsistent and the roots; for each other sample, the error."""
    n = problem.basis_size
    failed: dict[int, RelposeError] = {}
    try:
        reduced, solved = each_sample(
            lambda p: layers.rref_conditioned(template.matrix[p], pivots), pending, failed
        )
        if not solved.size:
            return {}, failed
        qb = layers.quotient_basis_from_pivots(template.basis, pivots, n)
        action = layers.build_action_matrix(reduced, pivots, template.basis, qb)
        check_shape("action matrix", action.shape, (solved.size, n, n))
    except RelposeError as exc:
        return {}, dict.fromkeys(pending.tolist(), exc)
    values, found = [], []
    for j, (p, M) in enumerate(zip(solved.tolist(), action)):
        try:
            values.append(layers.eigensolve_real(M))
        except RelposeError as exc:
            failed[p] = exc
            continue
        found.append(j)
    if not found:
        return {}, failed
    found_ids = solved[found].tolist()
    try:
        extracted = layers.extract_roots(values, action[found], qb)
    except RelposeError as exc:
        return {}, {**failed, **dict.fromkeys(found_ids, exc)}
    return {
        p: (int(extracted.inconsistent[j]), extracted.roots[extracted.sample == j])
        for j, p in enumerate(found_ids)
    }, failed


def by_sample(poses: list, sample: np.ndarray, n: int, errors: dict) -> list:
    """One pose list per sample of ``range(n)``, or for a sample in
    ``errors`` the error the solver raises for it."""
    out: list = [[] for _ in range(n)]
    for pose, s in zip(poses, sample.tolist()):
        out[s].append(pose)
    for s, exc in errors.items():
        out[s] = as_degenerate(exc)
    return out


def unstack(results: list, samples) -> list:
    """A solver's answer from ``by_sample``: with ``samples``, every
    sample's poses, empty where it failed; without, the one sample's poses,
    or its error raised."""
    if samples is not None:
        return [[] if isinstance(r, RelposeError) else r for r in results]
    if isinstance(results[0], RelposeError):
        raise results[0]
    return results[0]
