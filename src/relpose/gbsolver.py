"""Elimination-template engine for the two polynomial systems.

The pipeline is generic over the generators: multiply them by a fixed set of
monomials, reduce every product modulo the sphere constraint, stack the
remainder-block coefficients into a template matrix, row-reduce it, read the
quotient-ring basis off the non-pivot columns, build the multiplication
matrix for gamma, and recover candidate roots from its eigenvectors.

Each minimal problem is one ``TemplateProblem``.  Each solver module keeps
its own call sequence through these layers; the steps both run around it
live here.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegenerateInput,
    DegreeOverflow,
    EigenFailure,
    NearZeroVector,
    RankDeficient,
    UnreachableMonomial,
)
from .geom import RotationConstraint, UnitQuaternion, rectify_quaternion, sigma_from_angle
from .poly import (
    DensePolynomial,
    GrevlexBasis,
    Monomial,
    grevlex_basis,
    grevlex_key,
    reduce_columns_mod_h,
)

PIVOT_TOL = 1e-10
IMAG_TOL = 1e-6
ROOT_TOL = 1e-6

# Roots are read off the eigenvector entries at 1, alpha, beta and gamma, so
# these monomials must stay in the quotient basis.
ROOT_MONOMIALS: tuple[Monomial, ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

# A zero rotation angle pins the quaternion to the identity.
ZERO_ANGLE_ROOTS = (np.zeros(3),)


@dataclass(frozen=True)
class TemplateProblem:
    """One minimal problem as the template engine sees it.

    The template holds every generator times every monomial of
    ``multipliers``, plus the ``extra_rows`` (multiplier, generator index),
    reduced over the remainder block of degree ``target_degree``.
    """

    sample_size: int
    multipliers: tuple[Monomial, ...]
    extra_rows: tuple[tuple[Monomial, int], ...]
    target_degree: int
    template_shape: tuple[int, int]
    basis_size: int

    @cached_property
    def pivot_hints(self) -> dict:
        """``rref_conditioned`` keywords: the top-degree columns must be
        pivots, or multiplying by gamma would leave the template, and the
        root-reading columns must never be."""
        rem = grevlex_basis(self.target_degree).remainder_monomials
        return {
            "protected_cols": frozenset(j for j, m in enumerate(rem) if m in ROOT_MONOMIALS),
            "eliminate_first": tuple(j for j, m in enumerate(rem) if sum(m) == self.target_degree),
        }

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
)

# Generalized cameras, five Pluecker pairs: 44 solutions.
GENERAL = TemplateProblem(
    sample_size=5,
    multipliers=((0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    extra_rows=(((0, 0, 0), 0), ((0, 0, 0), 1)),
    target_degree=8,
    template_shape=(37, 81),
    basis_size=44,
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
    except (DegenerateInput, RankDeficient, BasisAnomaly, UnreachableMonomial) as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def rectified_quaternions(roots, c: RotationConstraint) -> list[UnitQuaternion]:
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


@dataclass(frozen=True, eq=False)
class EliminationTemplate:
    """Reduced coefficient matrix over the remainder-block monomials."""

    basis: GrevlexBasis
    matrix: np.ndarray
    row_labels: tuple[tuple[Monomial, int], ...]


@lru_cache(maxsize=None)
def _assembly_plan(multipliers, extra_rows, degrees: tuple[int, ...], target_degree: int):
    """Row labels and the gather of every multiplier-times-generator row.

    Entry ``dest[k]`` of the flat monomial-major ``(basis.size, n_rows)``
    stack receives entry ``src[k]`` of the concatenated generator
    coefficients.
    """
    basis = grevlex_basis(target_degree)
    labels = tuple((m, gi) for m in multipliers for gi in range(len(degrees))) + extra_rows
    offsets = np.cumsum([0] + [grevlex_basis(d).size for d in degrees])
    dest, src = [], []
    for row, (m, gi) in enumerate(labels):
        if sum(m) + degrees[gi] > target_degree:
            raise DegreeOverflow(
                f"multiplier {m} on a degree-{degrees[gi]} generator exceeds degree {target_degree}"
            )
        for k, e in enumerate(grevlex_basis(degrees[gi]).monomials):
            dest.append(basis.index[(m[0] + e[0], m[1] + e[1], m[2] + e[2])] * len(labels) + row)
            src.append(offsets[gi] + k)
    return labels, np.array(dest, dtype=np.int64), np.array(src, dtype=np.int64)


def assemble_reduced_template(
    generators: list[DensePolynomial],
    multipliers: tuple[Monomial, ...],
    target_degree: int,
    c: RotationConstraint,
    extra_rows: tuple[tuple[Monomial, int], ...] = (),
) -> EliminationTemplate:
    """Stack reduced multiplier-times-generator rows over the remainder block.

    Every product is gathered into a column of one monomial-major stack by a
    cached index plan, and the whole stack is reduced modulo the sphere
    constraint at once.
    """
    basis = grevlex_basis(target_degree)
    degrees = tuple(g.basis.max_degree for g in generators)
    labels, dest, src = _assembly_plan(tuple(multipliers), tuple(extra_rows), degrees, target_degree)
    stack = np.zeros(basis.size * len(labels))
    stack[dest] = np.concatenate([g.coeffs for g in generators])[src]
    stack = stack.reshape(basis.size, len(labels))
    reduce_columns_mod_h(stack, basis, c.tau)
    matrix = np.ascontiguousarray(stack[basis.alpha2_size :].T)
    return EliminationTemplate(basis=basis, matrix=matrix, row_labels=labels)


def rref_conditioned(
    B: np.ndarray,
    protected_cols: frozenset[int] = frozenset(),
    eliminate_first: tuple[int, ...] = (),
) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan reduction with conditioning-driven pivot columns.

    Pivoting columns left to right would force the grevlex-largest
    monomials to become pivots, and on the degree-8 generalized template that
    pivot block is nearly singular (condition numbers around 1e7 on
    benchmark-geometry data), which inflates the action matrix to norm ~1e5 and
    ruins its eigenvectors.  This variant instead picks, at every step, the
    remaining entry of largest magnitude (complete pivoting), which keeps the
    reduced rows O(1).  ``eliminate_first`` columns are pivoted before all
    others (the top-degree monomials must be pivots or multiplication by gamma
    would leave the template), and ``protected_cols`` are never pivoted so the
    root-reading monomials stay in the quotient basis.  Fully deterministic.
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
    basis: GrevlexBasis, pivots: list[int], expected_size: int | None = None
) -> QuotientBasis:
    """Non-pivot template columns as standard monomials, ascending grevlex."""
    remainder = basis.remainder_monomials
    pivot_set = set(pivots)
    standard = [(remainder[j], j) for j in range(len(remainder)) if j not in pivot_set]
    standard.sort(key=lambda mc: grevlex_key(mc[0]))
    monomials = tuple(m for m, _ in standard)
    index = {m: i for i, m in enumerate(monomials)}
    if expected_size is not None and len(monomials) != expected_size:
        raise BasisAnomaly(f"quotient basis has size {len(monomials)}, expected {expected_size}")
    for needed in ROOT_MONOMIALS:
        if needed not in index:
            raise BasisAnomaly(f"quotient basis is missing monomial {needed}")
    return QuotientBasis(
        monomials=monomials,
        template_cols=np.array([col for _, col in standard], dtype=np.int64),
        index=index,
        pos_one=index[(0, 0, 0)],
        pos_alpha=index[(1, 0, 0)],
        pos_beta=index[(0, 1, 0)],
        pos_gamma=index[(0, 0, 1)],
    )


def build_action_matrix(
    reduced: np.ndarray, pivots: list[int], basis: GrevlexBasis, qb: QuotientBasis
) -> np.ndarray:
    """Multiplication-by-gamma matrix on the quotient-ring basis.

    Each row is either a unit row (gamma times the monomial stays standard) or
    the negated coefficient row of the pivot polynomial whose leading monomial
    it hits.
    """
    remainder = basis.remainder_monomials
    pivot_row = {remainder[col]: r for r, col in enumerate(pivots)}
    n = qb.size
    M = np.zeros((n, n))
    for i, (a, b, c) in enumerate(qb.monomials):
        m = (a, b, c + 1)
        if m in qb.index:
            M[i, qb.index[m]] = 1.0
        elif m in pivot_row:
            M[i, :] = -reduced[pivot_row[m], qb.template_cols]
        else:
            raise UnreachableMonomial(f"gamma * {qb.monomials[i]} = {m} is outside the template")
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
    out: list[tuple[float, np.ndarray]] = []
    for k in range(len(w)):
        if abs(w[k].imag) > IMAG_TOL * (1.0 + abs(w[k].real)):
            continue
        v = V[:, k]
        v = v / v[int(np.argmax(np.abs(v)))]
        vr = np.real(v)
        out.append((float(w[k].real), vr / np.linalg.norm(vr)))
    return out


@dataclass(frozen=True)
class ExtractedRoots:
    """Recovered root vectors and counts of candidates dropped by the filters."""

    roots: tuple[np.ndarray, ...]
    n_dropped_at_infinity: int
    n_dropped_inconsistent: int


def _product_checks(qb: QuotientBasis) -> list[tuple[int, int, int]]:
    """Indices (m, x, y) with basis monomial m equal to the product of the
    degree-one basis monomials x and y."""
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


def extract_roots(pairs: list[tuple[float, np.ndarray]], qb: QuotientBasis) -> ExtractedRoots:
    """Read candidate (alpha, beta, gamma) vectors off near-real eigenvectors.

    Candidates whose eigenvector cannot be normalized at the monomial 1, whose
    gamma entry disagrees with the eigenvalue, or whose degree-two entries are
    not products of the degree-one entries are dropped.
    """
    checks = _product_checks(qb)
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
    return ExtractedRoots(
        roots=tuple(roots),
        n_dropped_at_infinity=n_inf,
        n_dropped_inconsistent=n_incons,
    )
