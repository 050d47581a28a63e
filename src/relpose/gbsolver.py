"""Elimination-template engine for the two polynomial systems.

The pipeline is generic over the generators: multiply them by a fixed set of
monomials, reduce every product modulo the sphere constraint, stack the
remainder-block coefficients into a template matrix, and row-reduce it on a
pivot partition and on the non-pivot (standard) columns only: these are the
quotient-ring basis, and each pivot row is a row of the multiplication
matrix for gamma as it is.  Take its eigenvalues and recover candidate
roots from the eigenvectors of the near-real ones.  Only a single solve
refines its roots to the last bit: a second inverse-iteration step per
eigenvector, then Gauss-Newton steps on the generators (``polish_roots``);
a stack of samples, RANSAC's hypotheses, takes one step and returns its
roots unpolished, since a hypothesis is only scored.

Eigenvalues (``eigensolve_real``), SVDs (``_svd_or_nan``) and solves
(``_solve_or_nan``) call the LAPACK gufuncs behind ``np.linalg.eigvals``,
``svd`` and ``solve``: bit for bit those functions, at a fraction of the
overhead, and NaN for a matrix they cannot solve.  No kernel sets the
error state: ``solve`` holds one ignoring state for all of them, so a
kernel called alone warns where it marks NaN.  The eigenvectors are
rebuilt from the gamma chains of the quotient basis (``QuotientBasis``) by
batched steps of inverse iteration over every real eigenvalue of a
partition attempt (``extract_roots``), so their cost is traced in the
``gbsolver.extract`` layer, not in ``gbsolver.eig``.  The chains make the
gamma entry and every product with a gamma factor hold by construction; the
alpha^2, alpha beta and beta^2 products carry the consistency test.

Each minimal problem is one ``TemplateProblem``.  It carries a short
chain of committed pivot partitions, so there is one elimination
algorithm, an LU solve on fixed data: a solver tries the next partition
only where one raises or drops a root as inconsistent, and keeps the roots
of the attempt that dropped the fewest.  In a single solve polishing
supplies the accuracy that per-instance pivoting used to buy, and
``residual_gate`` keeps only poses that satisfy their own sample.

Every layer but ``polish_roots`` takes a stack of samples, one per leading
index, so that RANSAC solves the samples of a round at once; a single solve
is the stack of one.
Both solvers run one sequence, ``solve``, and supply only their generators,
screen and pose rule; every layer is called through the solver's module
attributes, where ``perfbench/spans.py`` traces it.  A sample that fails
fails alone, by one idiom: every stage records its loss in the solve's
``Losses`` by one call, ``Losses.lose``, the first loss of a sample wins,
later stages pass lost samples by, and only the end of ``solve`` raises a
loss, that of a single solve.  A stage reads a sample, or root, that a kernel
cannot solve off its NaN output.  A fault of the problem itself, which its
cached plans meet alike for every sample (``DegreeOverflow``,
``BasisAnomaly``, ``UnreachableMonomial``), is no sample's loss: it raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegreeOverflow,
    EigenFailure,
    RankDeficient,
    RelposeError,
    UnreachableMonomial,
)
from .geom import (
    _ONE,
    RelativePose,
    RotationConstraint,
    UnitQuaternion,
    _constant,
    _frozen,
    bincount,
    check_poses,
    check_unit_quaternions,
    concatenate,
    count_nonzero,
    rotation_stack,
    sigma_from_angle,
    stacked_dot,
)
from .poly import GrevlexBasis, Monomial, _ray_stack, grevlex_basis, reduce_columns_mod_h

# Every tolerance is a read-only 0-d array (``_constant``), the very operand
# of the kernels' tests.
IMAG_TOL = _constant(1e-6)
ROOT_TOL = _constant(1e-6)

# numpy 1 names the gufunc by shape: ``svd_n_f`` for the pose rules' tall matrices.
_SVD_F = getattr(_umath_linalg, "svd_f", None) or _umath_linalg.svd_n_f

# A pose is returned only if every scaled residual it leaves on its own
# sample (see ``residual_gate``) is at most this.  A rotation off by d
# radians leaves residuals of about d, and a polished root about 1e-15.
POSE_RESIDUAL_TOL = _constant(1e-6)

# Below this norm a root carries no usable rotation axis.
U_DIRECTION_EPS = _constant(1e-10)
_NO_AXIS = "no usable rotation candidates survived filtering"

# Most Gauss-Newton steps of ``polish_roots``.  A root stops once its
# squared residual is at rounding level or a step fails to lower it.
POLISH_STEPS = 8
POLISH_ROUNDING = _constant(1e-28)

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
    offline by ``tests/derive_partitions.py``.  A sample's rays are the
    pair attributes ``ray_names``.
    """

    sample_size: int
    ray_names: tuple[str, ...]
    multipliers: tuple[Monomial, ...]
    extra_rows: tuple[tuple[Monomial, int], ...]
    target_degree: int
    template_shape: tuple[int, int]
    basis_size: int
    partitions: tuple[tuple[int, ...], ...]

    def sample_stack(self, pairs, theta: float, samples):
        """The ``(len(ray_names), B, sample_size, 3)`` ray rows of the B
        samples of ``pairs`` (a list, or its ``RayTable``), B and the sphere
        constraint.  Without ``samples`` the pairs are one sample of exactly
        ``sample_size``; otherwise ``samples`` indexes the N pairs, ``(B,
        sample_size)`` integers in ``[0, N)``.  A sample's first pair is its
        anchor."""
        n = self.sample_size
        table = pairs if isinstance(pairs, RayTable) else RayTable(pairs, self.ray_names)
        if table.names != self.ray_names:
            raise ValueError(f"a table of {table.names} rays, not {self.ray_names}")
        n_pairs = table.rays.shape[1]
        if samples is None:
            if n_pairs != n:
                raise ValueError(f"exactly {n} correspondences required, got {n_pairs}")
            # The table's rows as they stand: the one sample's own.
            return table.rays[:, None], 1, sigma_from_angle(theta)
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[1] != n:
            raise ValueError(f"samples must be a (B, {n}) index array, got shape {samples.shape}")
        if samples.dtype.kind not in "iu":
            raise ValueError(f"samples must hold integer indices, got dtype {samples.dtype}")
        # A negative index would wrap around to a pair from the end.
        if samples.size and not 0 <= samples.min() <= samples.max() < n_pairs:
            lo, hi = samples.min(), samples.max()
            raise ValueError(f"sample indices must lie in [0, {n_pairs}), got {lo} to {hi}")
        return table.rays.take(samples, 1), len(samples), sigma_from_angle(theta)


class RayTable:
    """The attributes ``names`` of a list of pairs as one ``(len(names), N,
    3)`` array ``rays``, which a solve indexes with its samples; built only
    from the pairs, it holds what their constructors checked."""

    def __init__(self, pairs, names: tuple[str, ...]):
        self.names, self.rays = names, _ray_stack(pairs, *names)


# Central cameras, four bearing pairs: 20 solutions.
REGULAR = TemplateProblem(
    sample_size=4,
    ray_names=("q1", "q2"),
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
    ray_names=("q1", "q2", "m1", "m2"),
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


class Losses:
    """Which samples of a stack a solve has lost, and why: ``status[s]`` is 0
    while sample ``s`` is alive and ``k`` once ``errors[k - 1]`` lost it.
    Every stage records a loss by the one call ``lose``; the first loss of a
    sample wins."""

    def __init__(self, n: int):
        self.status = np.zeros(n, dtype=np.int64)
        self.errors: list[RelposeError] = []

    def lose(self, where, error: RelposeError) -> None:
        """Lose for ``error`` each live sample that the mask, indices or slice
        ``where`` picks, if any; ``None`` picks none."""
        if where is None or not count_nonzero(self.status[where] == 0):
            return
        hit = np.zeros(len(self.status), dtype=bool)
        hit[where] = True
        hit &= self.status == 0
        self.errors.append(error)
        self.status[hit] = len(self.errors)

    def unowned(self, sample: np.ndarray):
        """``where`` for ``lose`` of the live samples owning none of the rows ``sample``."""
        if self.status.size == 1:
            return None if sample.size else slice(None)
        return bincount(sample, minlength=self.status.size) == 0


def usable_rotations(roots: np.ndarray, sample: np.ndarray, c, losses: Losses):
    """The root count of each sample, and the sample, vector part and
    rotation of each of the ``(K, 3)`` roots that carries a usable rotation
    axis, rescaled onto the sphere ``|u| = sqrt(1 - sigma^2)``; a zero angle
    pins every root to the identity.  A sample left without one is lost."""
    root_count = bincount(sample, minlength=len(losses.status))
    if c.tau == 0.0:
        u = np.zeros_like(roots)
    else:
        # The stacked dot, a column, rounds as ``np.linalg.norm`` of each row does.  A NaN
        # norm passes the drop test, so a NaN root fails the unit-quaternion check instead.
        n = np.sqrt(roots[:, None] @ roots[:, :, None])[:, 0]
        if count_nonzero(n <= U_DIRECTION_EPS):
            keep = (~(n <= U_DIRECTION_EPS)).nonzero()[0]
            sample, n, roots = sample.take(keep), n.take(keep, 0), roots.take(keep, 0)
        u = math.sqrt(1.0 - c.sigma * c.sigma) / n * roots
    losses.lose(losses.unowned(sample), DegenerateConfiguration(_NO_AXIS))
    check_unit_quaternions(c.sigma, u)
    return root_count, sample, u, rotation_stack(c.sigma, u)


def residual_gate(residuals: np.ndarray, sample: np.ndarray, c, losses: Losses):
    """The poses whose ``(K, N)`` scaled residuals on their own ``sample``
    are all at most ``POSE_RESIDUAL_TOL`` (a NaN fails), as indices or, if
    all pass, a whole slice; a sample left without one is lost.  A zero
    angle fixes the rotation, so there the sample over-determines the pose
    and every pose passes."""
    passed = np.maximum.reduce(np.abs(residuals), 1) <= POSE_RESIDUAL_TOL
    if c.tau == 0.0 or count_nonzero(passed) == len(passed):
        return slice(None)
    keep = passed.nonzero()[0]
    losses.lose(
        losses.unowned(sample[keep]),
        DegenerateConfiguration("no candidate pose satisfies its own sample"),
    )
    return keep


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
    """The row count and the gather of every multiplier-times-generator row.

    Entry ``k`` of the flat monomial-major ``(basis.size, n_rows)`` stack is
    entry ``gather[k]`` of the flattened ``(n_generators, n_coeffs)`` array
    of degree-``degree`` generators, or 0 where ``gather[k]`` is past its end.
    """
    basis = grevlex_basis(target_degree)
    labels = tuple((m, gi) for m in multipliers for gi in range(n_generators)) + extra_rows
    for m, _ in labels:
        if sum(m) + degree > target_degree:
            raise DegreeOverflow(
                f"multiplier {m} on a degree-{degree} generator exceeds degree {target_degree}"
            )
    # Basis position of every exponent triple, and every product's triple.
    pos = np.zeros((target_degree + 1,) * 3, dtype=np.int64)
    pos[tuple(basis.exponents.T)] = np.arange(basis.size)
    exponents = grevlex_basis(degree).exponents
    products = np.array([m for m, _ in labels])[:, None, :] + exponents
    dest = pos[tuple(np.moveaxis(products, -1, 0))] * len(labels) + np.arange(len(labels))[:, None]
    src = np.array([gi for _, gi in labels])[:, None] * len(exponents) + np.arange(len(exponents))
    gather = np.full(basis.size * len(labels), n_generators * len(exponents))
    gather[dest] = src
    return len(labels), gather


def assemble_reduced_template(generators: np.ndarray, problem: TemplateProblem, c) -> np.ndarray:
    """The template matrices of ``problem``: its reduced multiplier-times-
    generator rows over the remainder block, in the order of its
    ``multipliers`` and then its ``extra_rows``.

    ``generators`` is an ``(..., n_gen, n_coeffs)`` coefficient array, one
    set per leading index; its width fixes the generator degree.  Every
    product is gathered into a column of one monomial-major stack by a
    cached index plan, the samples side by side, and the whole stack is
    reduced modulo the sphere constraint at once.  The matrix has the
    leading shape of ``generators``.
    """
    basis = grevlex_basis(problem.target_degree)
    *lead, n_generators, width = generators.shape
    n_rows, gather = _assembly_plan(
        problem.multipliers, problem.extra_rows, n_generators, _basis_of_width(width).max_degree,
        problem.target_degree,
    )
    n_samples = math.prod(lead)
    coeffs = concatenate([generators.reshape(n_samples, -1).T, np.zeros((1, n_samples))])
    stack = coeffs.take(gather, 0).reshape(basis.size, n_rows * n_samples)
    reduce_columns_mod_h(stack, basis, c.tau)
    remainder = stack[basis.alpha2_size :].reshape(-1, n_rows, n_samples)
    return np.ascontiguousarray(remainder.transpose(2, 1, 0)).reshape(*lead, n_rows, -1)


def rref_conditioned(B: np.ndarray, qb: QuotientBasis) -> np.ndarray:
    """Gauss-Jordan reduction of a stack of templates on the partition of ``qb``.

    ``qb.pivots`` holds one template column per row; the reduction is one LU
    solve of that pivot block against the standard (non-pivot) columns, in
    the order of ``qb.template_cols``: row ``i`` of each result is the pivot
    polynomial led by column ``qb.pivots[i]``, less its pivot columns (1 at
    its own, 0 at the others).  A template whose pivot block is exactly
    singular or not finite, or whose rows come out non-finite, gets NaN
    rows, alone; a poorly conditioned one goes unnoticed here, and the
    solvers catch it downstream.  The name is what ``perfbench/spans.py``
    traces as the ``gbsolver.rref`` layer.
    """
    columns = B.take(qb.rref_columns, -1)
    block, standard = columns[..., : len(qb.pivots)], columns[..., len(qb.pivots) :]
    A = _solve_or_nan(block, standard)
    # A non-finite block reduces to non-finite pivot columns, which are not
    # computed, even where the standard ones come out finite.
    n_finite = count_nonzero(np.isfinite(A)) + count_nonzero(np.isfinite(block))
    if n_finite < A.size + block.size:
        A[~(np.isfinite(A).all((-2, -1)) & np.isfinite(block).all((-2, -1)))] = np.nan
    return A


class QuotientBasis:
    """The fixed data of one pivot partition, every index table that a
    stage reads, built once (``_quotient_basis``); neither its arrays nor
    its ``index`` mapping can be written.

    ``monomials`` are the standard monomials of the quotient ring, ascending
    grevlex: the columns ``template_cols`` of the degree-``degree``
    remainder block outside ``pivots``, each at ``index[m]``; ``pos_one``,
    ``pos_alpha``, ``pos_beta`` and ``pos_gamma`` are the positions of
    ``ROOT_MONOMIALS``.  ``rref_conditioned`` takes the template columns
    ``rref_columns``: the pivots, then the standard ones.

    ``successor[i]`` is the index of gamma times monomial ``i``, or -1 where
    that product is not standard: the unit rows of the action matrix, as
    the matrix ``units`` that is zero elsewhere.  Its other rows,
    ``pivot_rows``, are the negated pivot polynomials ``pivot_polys`` whose
    leading monomials they hit; ``unreachable`` is the first monomial whose
    product with gamma leaves the template, or None.

    A unit row ``i -> j`` means ``v[j] = lambda * v[i]`` for every
    eigenvector, so the basis splits into chains ``m, gamma m, gamma^2 m,
    ...``, each ending at a non-unit row, its tail; ``chain`` and ``depth``
    (power of gamma) place every index.  An eigenvector is fixed by its
    entries ``h`` at the chain heads, and the tail rows read ``A(lambda) h =
    0`` with ``A(lambda) = sum_d lambda^d C_d``: ``C_d`` holds each tail
    row's entries at depth ``d`` of every chain, less 1 on the diagonal of
    each chain of length ``d``.  Each system is bordered by a fixed column
    and the row ``h[1] = 1`` in ``C_0``, the monomial 1 being a head.
    ``chain_gather`` builds every ``C_d`` of an action matrix at once from
    its flattened entries followed by ``chain_constants``.

    ``products`` holds the positions ``(m, x, y)`` of the degree-two
    monomials of ``_DEGREE_TWO_PRODUCTS`` in the basis and of their
    degree-one factors, and ``root_cols`` those of alpha, beta and gamma.
    """

    def __init__(self, degree: int, pivots: tuple[int, ...], expected_size: int):
        remainder = grevlex_basis(degree).remainder_monomials
        standard = np.ones(len(remainder), dtype=bool)
        standard[list(pivots)] = False
        # The remainder block descends in grevlex, so its reverse ascends.
        cols = np.flatnonzero(standard)[::-1]
        monomials = tuple(remainder[j] for j in cols.tolist())
        index = {m: i for i, m in enumerate(monomials)}
        n = len(monomials)
        if n != expected_size:
            raise BasisAnomaly(f"quotient basis has size {n}, expected {expected_size}")
        for needed in ROOT_MONOMIALS:
            if needed not in index:
                raise BasisAnomaly(f"quotient basis is missing monomial {needed}")
        self.pivots, self.degree, self.size = pivots, degree, n
        self.monomials, self.template_cols, self.index = monomials, cols, MappingProxyType(index)
        self.pos_one, self.pos_alpha, self.pos_beta, self.pos_gamma = map(index.get, ROOT_MONOMIALS)
        self.rref_columns = np.concatenate([pivots, cols])
        # The remainder column of gamma times each standard monomial, or -1
        # where that product exceeds the degree and so leaves the template.
        column = {m: j for j, m in enumerate(remainder)}
        shift = np.array([column.get((a, b, c + 1), -1) for a, b, c in monomials], dtype=np.int64)
        # Standard position and pivot row of every remainder column.  The extra
        # last slot stays -1, so a product outside the template finds neither.
        position, pivot_row = np.full((2, len(remainder) + 1), -1)
        position[cols] = np.arange(n)
        pivot_row[list(pivots)] = np.arange(len(pivots))
        self.successor = successor = position[shift]
        rows = pivot_row[shift]
        is_unit = successor >= 0
        bad = np.flatnonzero(~is_unit & (rows < 0))
        self.unreachable = monomials[bad[0]] if bad.size else None
        self.units = np.zeros((n, n))
        self.units[is_unit, successor[is_unit]] = 1.0
        self.pivot_rows, self.pivot_polys = np.flatnonzero(~is_unit), rows[~is_unit]
        # Each gamma chain, walked from its head: a monomial no unit row reaches.
        self.chain, self.depth = chain, depth = np.empty((2, n), dtype=np.int64)
        tails = []
        for c, head in enumerate(sorted(set(range(n)).difference(successor.tolist()))):
            k, d = head, 0
            while k >= 0:
                chain[k], depth[k] = c, d
                tail, k, d = k, successor[k], d + 1
            tails.append(tail)
        n_heads, lengths, diagonal = len(tails), np.bincount(chain), np.arange(len(tails))
        at = np.full((lengths.max() + 1, n_heads), -1)
        at[depth, chain] = np.arange(n)
        # Past the end of the matrix: 0, -1, 1, then the border, a fixed column
        # without structure.
        constants = np.concatenate([[0.0, -1.0, 1.0], np.cos(math.e * np.arange(1, n_heads + 1))])
        zero, minus_one, one, border = n * n, n * n + 1, n * n + 2, n * n + 3
        gather = np.full((len(at), n_heads + 1, n_heads + 1), zero)
        gather[:, :n_heads, :n_heads] = np.where(
            at[:, None, :] >= 0, np.array(tails)[:, None] * n + at[:, None, :], zero
        )
        gather[lengths, diagonal, diagonal] = minus_one
        gather[0, :n_heads, n_heads] = border + diagonal
        gather[0, n_heads, chain[self.pos_one]] = one
        self.chain_gather, self.chain_constants = gather, constants
        # The root-check tables of ``extract_roots``.
        checks = [(index[m], index[x], index[y]) for m, x, y in _DEGREE_TWO_PRODUCTS if m in index]
        self.products = np.array(checks, dtype=np.int64).reshape(-1, 3).T.copy()
        self.root_cols = np.array([self.pos_alpha, self.pos_beta, self.pos_gamma])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


# The only cache of partition data: one ``QuotientBasis`` per partition.
_quotient_basis = lru_cache(maxsize=None)(QuotientBasis)


def quotient_basis_from_pivots(problem: TemplateProblem, pivots: tuple[int, ...]) -> QuotientBasis:
    """The quotient basis of ``problem`` on the partition ``pivots``: its
    non-pivot template columns as standard monomials, ascending grevlex.
    Raises ``BasisAnomaly`` unless it has ``problem.basis_size`` monomials
    and holds those of ``ROOT_MONOMIALS``.

    Bases are cached by partition; the solvers pass only committed ones.
    """
    return _quotient_basis(problem.target_degree, tuple(pivots), problem.basis_size)


def build_action_matrix(reduced: np.ndarray, qb: QuotientBasis) -> np.ndarray:
    """Multiplication-by-gamma matrices on the quotient basis ``qb``, one per
    leading index of the ``reduced`` stack.

    Each row is either a unit row (gamma times the monomial stays standard) or
    the negated row, as ``rref_conditioned`` returns it on the standard
    columns, of the pivot polynomial whose leading monomial it hits.  Raises
    ``UnreachableMonomial`` where gamma times a monomial leaves the template.
    """
    if qb.unreachable is not None:
        a, b, c = m = qb.unreachable
        raise UnreachableMonomial(f"gamma * {m} = {(a, b, c + 1)} is outside the template")
    M = np.empty(reduced.shape[:-2] + qb.units.shape)
    M[...] = qb.units
    M[..., qb.pivot_rows, :] = -reduced.take(qb.pivot_polys, -2)
    return M


def eigensolve_real(M: np.ndarray) -> np.ndarray:
    """The real parts of the (near-)real eigenvalues of a real square matrix.

    Only eigenvalues are computed, bit for bit ``np.linalg.eigvals`` through
    its gufunc; a non-finite matrix, or one whose eigenvalues do not converge,
    raises ``EigenFailure`` with its message (after a warning unless the
    error state ignores it, as ``solve`` holds it).  ``extract_roots``
    rebuilds the eigenvectors of the ones it needs from the gamma chains.
    """
    finite = count_nonzero(np.isfinite(M)) == M.size
    if finite:
        w = _umath_linalg.eigvals(M, signature="d->D")
        if w[0] == w[0]:
            # A negated ">" keeps NaN eigenvalues, as the scalar test always has.
            return w.real[~(np.abs(w.imag) > IMAG_TOL * (_ONE + np.abs(w.real)))]
    message = "Eigenvalues did not converge" if finite else "Array must not contain infs or NaNs"
    raise EigenFailure(message) from np.linalg.LinAlgError(message)


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

# Normalized at 1, an eigenvector whose entry there is at most 1e-10 of its
# largest one is at infinity, and so is a NaN one.
_INFINITE = _constant(1e10)


def extract_roots(
    eigenvalues, action: np.ndarray, qb: QuotientBasis, steps: int = 2
) -> ExtractedRoots:
    """Candidate (alpha, beta, gamma) rows of the near-real eigenvalues of a
    stack of action matrices.

    ``eigenvalues[b]`` are eigenvalues of ``action[b]``, one array per matrix
    of the ``(B, n, n)`` stack.  Each eigenvector is rebuilt from the gamma
    chains (see ``QuotientBasis``): ``steps`` bordered chain systems per
    root, each stack solved at once.  A root whose bordered system is
    singular has no eigenvector, unique up to scale, that is non-zero at 1;
    it is dropped as at infinity, alone.

    Candidates whose eigenvector cannot be normalized at the monomial 1, or
    whose alpha^2, alpha beta or beta^2 entries are not products of the
    degree-one entries, are dropped.  The chains make the gamma entry and
    every product with a gamma factor hold, so those are not tested.
    """
    sizes = list(map(len, eigenvalues))
    V, sample = _chain_eigenvectors(concatenate(eigenvalues), sizes, action, qb, steps)
    at_infinity = ~(np.maximum.reduce(np.abs(V), 1) < _INFINITE)
    m, x, y = V.T.take(qb.products, 0)
    inconsistent = np.logical_or.reduce(np.abs(m - x * y) > ROOT_TOL, 0)
    keep = ~(at_infinity | inconsistent)
    # Dropped as inconsistent: inconsistent and not at infinity.
    inconsistent = inconsistent > at_infinity
    return _frozen(ExtractedRoots, dict(
        roots=V.take(qb.root_cols, 1).compress(keep, 0), sample=sample[keep],
        at_infinity=bincount(sample[at_infinity], minlength=len(sizes)),
        inconsistent=bincount(sample[inconsistent], minlength=len(sizes)),
    ))


def _chain_eigenvectors(
    lam: np.ndarray, sizes: list[int], action: np.ndarray, qb: QuotientBasis, steps: int = 2
):
    """The ``(K, n)`` eigenvectors of the eigenvalues ``lam``, ``sizes[b]``
    of them for ``action[b]`` in turn, rebuilt from the gamma chains and
    normalized at the monomial 1, and each one's matrix in ``action``.  A row
    is NaN where a bordered chain system is exactly singular.

    Each root takes ``steps`` steps of inverse iteration: the first bordered
    by the fixed column, each later one by the head entries of the one
    before.  Near a cluster of eigenvalues one step leaves some of the
    neighbours' eigenvectors in a root's; a second squares their share.  A
    single solve takes two; a RANSAC hypothesis, which is only scored, one.
    """
    gather, constants = qb.chain_gather, qb.chain_constants
    n_samples, (n_powers, size) = len(action), gather.shape[:2]
    table = concatenate([action.reshape(n_samples, -1), constants[None].repeat(n_samples, 0)], 1)
    C = table.take(gather.reshape(n_powers, -1), 1)
    # The powers 1, lambda, lambda^2, ... of each root, as np.vander forms them.
    powers = lam[:, None].repeat(n_powers, 1)
    powers[:, 0] = 1.0
    np.multiply.accumulate(powers, axis=1, out=powers)
    # Every root's system from one matmul per sample, its roots padded to
    # the largest count: the roots fill the rows ``mask`` of the padding.
    mask = np.arange(max(sizes)) < np.array(sizes)[:, None]
    sample = mask.nonzero()[0]
    padded = np.zeros(mask.shape + (n_powers,))
    padded[mask] = powers
    K = (padded @ C).reshape(-1, size, size).compress(mask.ravel(), 0)
    # A column right-hand side of the stack's rank reads alike in every
    # numpy: a 1-D one is one vector per matrix only from numpy 2.0 on.
    rhs = np.zeros((len(lam), size, 1))
    rhs[:, -1] = 1.0
    x = _solve_or_nan(K, rhs)
    for _ in range(steps - 1):
        K[:, :-1, -1] = x[:, :-1, 0]
        x = _solve_or_nan(K, rhs)
    V = x[:, :-1, 0].take(qb.chain, 1) * powers.take(qb.depth, 1)
    # Normalized at 1, a chain head: its entry is its head entry times 1.
    V /= x[:, qb.chain[qb.pos_one], 0, None]
    return V, sample


# ``np.linalg.solve`` of each system of the stack ``A x = b``, ``b`` a stack of
# columns, NaN where a system is exactly singular: the gufunc behind
# ``np.linalg.solve``, which marks such a system NaN and raises only through
# the error state, which ``solve`` holds ignoring.  Bound without a Python frame.
_solve_or_nan = partial(_umath_linalg.solve, signature="dd->d")
# ``np.linalg.svd`` of each matrix of the stack ``A`` by its gufunc, NaN where
# one fails (a warning unless the error state ignores it).
_svd_or_nan = partial(_SVD_F, signature="d->ddd")


@lru_cache(maxsize=None)
def _polish_tables(n_gen: int, width: int) -> tuple[np.ndarray, ...]:
    """Exponents and power gather of the basis with ``width`` monomials, and
    the table plan of ``polish_roots`` for ``n_gen`` generators on it.

    Row ``v`` of ``powers`` picks the power of variable ``v`` of every
    monomial out of a flat ``(3, degree + 1)`` table of powers.  Table row
    ``r`` is ``scale[r]`` times the entries ``gather[r]`` of the zero-padded
    ``(n_gen + 1, width + 1)`` equations: the equations, then the derivative
    of each by each variable.  ``blank`` holds the sphere row without its
    constant, which goes to column ``one``.
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
    rows = np.arange(n_gen + 1)[:, None] * (width + 1)
    gather = np.concatenate([rows + np.arange(width), (rows[:, None] + source).reshape(-1, width)])
    scale = np.concatenate([np.ones((n_gen + 1, width)), np.tile(factor, (n_gen + 1, 1))])
    blank = np.zeros((n_gen + 1, width + 1))
    blank[n_gen, [basis.index[m] for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]] = 1.0
    return np.arange(degree + 1.0), powers, gather, scale, blank, basis.index[(0, 0, 0)]


def polish_roots(generators: np.ndarray, roots: np.ndarray, c: RotationConstraint) -> np.ndarray:
    """Gauss-Newton refinement of the ``(K, 3)`` roots of the ``(n_gen,
    n_coeffs)`` generators, batched over K.

    The equations are the generators, each row scaled by its largest
    coefficient, plus the sphere constraint ``|u|^2 + tau = 0``.  One
    coefficient matrix holds them and their partial derivatives, so each
    step is one power table, one matmul for values and Jacobians and one
    batched 3 x 3 solve of the normal equations.  A root takes a step only
    where its squared residual falls, so polishing never moves a root away
    from the variety, and a root whose normal equations are exactly singular
    stays where it is, alone.
    """
    if not len(roots):
        return roots
    n_gen, width = generators.shape
    exponents, powers, gather, scale, blank, one = _polish_tables(n_gen, width)
    n_eq = n_gen + 1
    # The equations, then their derivatives by each variable.
    eqs = blank.copy()
    np.divide(generators, np.maximum.reduce(np.abs(generators), -1, keepdims=True),
              out=eqs[:n_gen, :width])
    eqs[n_gen, one] = c.tau
    # Small BLAS matmuls round by the memory layout of their operands: the
    # poses of a single solve rest on this (width, rows) transposed view.
    coeffs = (eqs.ravel().take(gather) * scale).T

    def evaluate(x):
        # Each monomial the product of its three powers in order, with the
        # roots innermost in memory, as the matmul has always read them.
        table = (x[:, :, None] ** exponents).reshape(len(x), -1).T.take(powers, 0)
        out = (table[0] * table[1] * table[2]).T @ coeffs
        f = out[:, :n_eq]
        return f, out[:, n_eq:].reshape(-1, n_eq, 3), stacked_dot(f, f)

    x = roots.copy()
    f, jac, cost = evaluate(x)
    # Roots still moving: not yet at rounding level, and their last step helped.
    live = (cost > POLISH_ROUNDING).nonzero()[0]
    f, jac, cost = f.take(live, 0), jac.take(live, 0), cost.take(live)
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        jt = jac.transpose(0, 2, 1)
        normal, rhs = jt @ jac, jt @ f[:, :, None]
        step = _solve_or_nan(normal, rhs)[:, :, 0]
        x_new = x.take(live, 0) - step
        f_new, jac_new, cost_new = evaluate(x_new)
        better = cost_new < cost
        x[live[better]] = x_new.compress(better, 0)
        go = better & (cost_new > POLISH_ROUNDING)
        if not count_nonzero(go):
            break
        live, f, jac, cost = live[go], f_new.compress(go, 0), jac_new.compress(go, 0), cost_new[go]
    return x


# What a partition attempt that solves no sample returns.
_NOTHING = (np.empty(0, dtype=np.int64),) * 2 + (np.empty((0, 3)), np.empty(0, dtype=np.int64))


def rotation_roots(
    layers, problem: TemplateProblem, generators, rays, c, losses: Losses, refine: bool
):
    """Rotation roots of the live samples of the ``(k, B, n, 3)`` ray rows
    ``rays``, solved as one stack with ``generators(rays, c, losses)`` and
    the layers of the solver module ``layers``; a zero angle pins one root
    of each to the identity.  If ``refine`` (a single solve, B = 1), each
    eigenvector takes two steps of inverse iteration and each root is then
    polished; otherwise each takes one step and stays unpolished.  A sample
    that the generators find degenerate or that is left without roots is
    lost.  Returns the ``(K, 3)`` roots, grouped by sample in ascending
    order, and the sample of each."""
    live = (losses.status == 0).nonzero()[0]
    if c.tau == 0.0 or not live.size:
        return np.zeros((len(live), 3)), live
    gens = generators(rays, c, losses)
    roots, sample = _eliminate(layers, problem, gens, c, losses, 2 if refine else 1)
    if refine:
        roots = layers.polish_roots(gens[0], roots, c)
    return roots, sample


def _eliminate(
    layers, problem: TemplateProblem, generators: np.ndarray, c, losses: Losses, steps: int
):
    """Unpolished roots of the live samples of the generator stack, grouped
    by sample in ascending order, and the sample of each, their eigenvectors
    from ``steps`` steps of inverse iteration (``extract_roots``).  Each
    sample reduces its template on the committed partitions in turn until one
    neither loses it nor drops a root as inconsistent, and keeps the roots
    of the attempt that dropped the fewest; a sample that no partition
    solves is lost for what lost it on the last."""
    n_samples = len(generators)
    live = losses.status == 0
    pending = live.nonzero()[0]
    if not pending.size:
        return _NOTHING[2:]
    template = layers.assemble_reduced_template(generators, problem, c)
    check_shape("template", template.shape, (n_samples, *problem.template_shape))
    found = []
    for attempt, pivots in enumerate(problem.partitions):
        tried = Losses(n_samples)
        solved, now, roots, owner = _attempt(
            layers, problem, template, pivots, pending, tried, steps
        )
        if not attempt:
            if len(solved) == len(pending) and not count_nonzero(now):
                # The first partition solves every sample and drops no root.
                return roots, owner
            # Per sample, the fewest roots an attempt dropped (more than any can for a
            # live sample until one solves it, none for a lost one) and 1 + that attempt.
            dropped, kept = live * (problem.basis_size + 1), np.zeros(n_samples, dtype=np.int64)
        fewer = now < dropped[solved]
        won = solved[fewer]
        dropped[won], kept[won] = now[fewer], attempt + 1
        found.append((roots, owner))
        pending = dropped.nonzero()[0]
        if not pending.size:
            break
    for k, exc in enumerate(tried.errors, 1):
        losses.lose((tried.status == k) & (kept == 0), exc)
    # Each sample's roots from the attempt it keeps, in ascending order.
    mine = [kept[owner] == attempt for attempt, (_, owner) in enumerate(found, 1)]
    owner = concatenate([o[m] for (_, o), m in zip(found, mine)])
    order = owner.argsort(kind="stable")
    return concatenate([r[m] for (r, _), m in zip(found, mine)])[order], owner[order]


def _attempt(layers, problem, matrix, pivots, pending: np.ndarray, tried: Losses, steps: int):
    """The templates of the samples ``pending`` reduced on one partition:
    the samples it solves, the count of roots each dropped as inconsistent,
    their roots, grouped by sample in ascending order, and the sample of
    each root.  Every other sample is lost in ``tried``; a problem fault raises."""
    if len(pending) < len(matrix):
        matrix = matrix[pending]
    qb = layers.quotient_basis_from_pivots(problem, pivots)
    reduced = layers.rref_conditioned(matrix, qb)
    lost = np.isnan(reduced[:, 0, 0])
    if count_nonzero(lost):
        # A lost template whose entries are all finite was singular.
        singular = lost & np.isfinite(matrix).all((1, 2))
        for where, what in (
            (singular, "is singular: Singular matrix"), (lost, "reduced to non-finite rows")
        ):
            tried.lose(pending[where], RankDeficient(f"the fixed pivot block {what}"))
    action = layers.build_action_matrix(reduced, qb)
    # The action matrix of a sample lost above has NaN rows, which
    # ``eigensolve_real`` rejects; the sample keeps its first loss.
    values = []
    for j, M in enumerate(action):
        try:
            values.append(layers.eigensolve_real(M))
        except RelposeError as exc:
            tried.lose(pending[j], exc)
    if tried.errors:
        alive = tried.status[pending] == 0
        pending, action = pending[alive], action[alive]
        if not pending.size:
            return _NOTHING
    extracted = layers.extract_roots(values, action, qb, steps)
    return pending, extracted.inconsistent, extracted.roots, pending.take(extracted.sample)


@dataclass(frozen=True, eq=False, init=False)
class SamplePoses:
    """The poses of a solve as rows of arrays, sample after sample:
    ``(P, 3, 3)`` rotations ``R``, ``(P, 3)`` translations ``t``, ``(P, 3)``
    quaternion vector parts ``u`` that passed ``check_unit_quaternions``
    with the scalar part ``sigma``, the rows ``bounds[s]:bounds[s + 1]`` of
    sample ``s`` (none if it was lost) and a row per pose of each
    ``RelativePose`` diagnostic in ``columns``.  Its length is the number
    of samples.

    The constructor runs ``check_poses`` once on the whole stack, as
    ``RelativePose`` does on one pose, and sets the fields without a call
    each.  ``poses`` builds the objects.
    """

    R: np.ndarray
    t: np.ndarray
    sigma: float
    u: np.ndarray
    bounds: list[int]
    columns: dict

    def __init__(self, R, t, sigma, u, bounds, columns):
        check_poses(R, t)
        self.__dict__.update(R=R, t=t, sigma=sigma, u=u, bounds=bounds, columns=columns)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def poses(self, start: int = 0, stop: int | None = None) -> list[RelativePose]:
        """One ``RelativePose`` per row ``start:stop``, diagnostics as Python values."""
        cut = slice(start, stop)
        names = ("R", "t", "quat", *self.columns)
        quats = [_frozen(UnitQuaternion, {"sigma": self.sigma, "u": v}) for v in self.u[cut]]
        values = [
            list(map(tuple, col[cut].tolist())) if col.ndim > 1 else col[cut].tolist()
            for col in self.columns.values()
        ]
        rows = zip(self.R[cut], self.t[cut], quats, *values)
        return [_frozen(RelativePose, zip(names, row)) for row in rows]


def solve(layers, problem: TemplateProblem, generators, screen, pose, pairs, theta, samples):
    """A solver's answer for the samples of ``pairs`` (``sample_stack``),
    solved as one stack with the layers of the solver module ``layers``:
    with ``samples``, their ``SamplePoses`` from roots of one
    inverse-iteration step, unpolished; without, the one sample's poses from
    refined roots (``rotation_roots``), or the error that lost it.

    ``screen(rays, losses)``, if given, loses the samples not worth solving
    before any root is computed.  The rotations of the rest go to the pose
    rule ``pose(rays, sample, u, Rs, c, losses)``, which returns the
    rotations, translations, vector parts, samples and diagnostic columns
    of its poses.  Both lose each sample they leave out in ``losses``.
    """
    # One error state for every kernel of the solve: each marks what it
    # cannot solve NaN, which the stages read, and none warns.
    with np.errstate(all="ignore"):
        rays, n, c = problem.sample_stack(pairs, theta, samples)
        losses = Losses(n)
        if screen is not None:
            screen(rays, losses)
        # Only a single solve refines its roots: a RANSAC hypothesis gains
        # nothing from a second inverse-iteration step or from polishing.
        roots, sample = rotation_roots(layers, problem, generators, rays, c, losses, samples is None)
        root_count, sample, u, Rs = usable_rotations(roots, sample, c, losses)
        Rs, T, u, sample, columns = pose(rays, sample, u, Rs, c, losses)
        columns["root_count"] = root_count.take(sample)
        # The rows are grouped by sample, in ascending order.
        bounds = [0, len(sample)] if n == 1 else np.searchsorted(sample, np.arange(n + 1)).tolist()
        answer = SamplePoses(Rs, T, c.sigma, u, bounds, columns)
    if samples is not None:
        return answer
    if losses.status[0]:
        raise losses.errors[losses.status[0] - 1]
    return answer.poses()
