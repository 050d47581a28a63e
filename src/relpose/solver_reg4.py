"""Minimal 4-point solver for calibrated central cameras with a known
relative rotation angle, plus the Sampson scoring function used by the
robust estimator."""

from __future__ import annotations

import numpy as np

from .exceptions import (
    BasisAnomaly,
    DegenerateConfiguration,
    DegenerateInput,
    NearZeroVector,
    NoCheiralSolution,
    RankDeficient,
    UnreachableMonomial,
)
from .gbsolver import (
    DEFAULT_PIVOT_TOL,
    REGULAR_BASIS_SIZE,
    REGULAR_MULTIPLIERS,
    REGULAR_TARGET_DEGREE,
    REGULAR_TEMPLATE_SHAPE,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    quotient_basis_from_pivots,
    rref_conditioned,
)
from .geom import (
    BearingPair,
    RelativePose,
    quat_to_rotation,
    rectify_quaternion,
    sigma_from_angle,
    skew,
    triangulate_and_count_cheiral,
)
from .poly import build_f_polynomials

# The translation null direction is considered poorly separated when the
# smallest singular value exceeds this fraction of the second smallest.
LOW_PARALLAX_RATIO = 0.5


def _rotation_candidates(pairs, c, pivot_tol):
    """Candidate quaternion vector parts from the elimination template."""
    fs = build_f_polynomials(pairs, c)
    template = assemble_reduced_template(fs, REGULAR_MULTIPLIERS, REGULAR_TARGET_DEGREE, c)
    if template.matrix.shape != REGULAR_TEMPLATE_SHAPE:
        raise BasisAnomaly(
            f"template has shape {template.matrix.shape}, expected {REGULAR_TEMPLATE_SHAPE}"
        )
    # Conditioning-driven pivot columns (see rref_conditioned): top-degree
    # monomials are always eliminated, root-reading monomials always kept.
    rem = template.basis.remainder_monomials
    top = tuple(j for j, m in enumerate(rem) if sum(m) == REGULAR_TARGET_DEGREE)
    keep = frozenset(
        j for j, m in enumerate(rem) if m in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    reduced, pivots = rref_conditioned(
        template.matrix, pivot_tol, protected_cols=keep, eliminate_first=top
    )
    qb = quotient_basis_from_pivots(template.basis, pivots, expected_size=REGULAR_BASIS_SIZE)
    action = build_action_matrix(reduced, pivots, template.basis, qb)
    if action.shape != (REGULAR_BASIS_SIZE, REGULAR_BASIS_SIZE):
        raise BasisAnomaly(
            f"action matrix has shape {action.shape}, expected {REGULAR_BASIS_SIZE} square"
        )
    return extract_roots(eigensolve_real(action), qb)


def solve_4pt_angle(
    pairs: list[BearingPair],
    theta: float,
    *,
    anchor: int = 0,
    pivot_tol: float = DEFAULT_PIVOT_TOL,
) -> list[RelativePose]:
    """All relative poses consistent with four bearing pairs and the rotation angle.

    Returns up to 20 poses with the first camera at ``[I | 0]`` and unit-norm
    translation, sign-disambiguated by cheirality.  ``anchor`` cyclically
    relabels the correspondences before the constraint system is built; any
    choice yields the same solution set.
    """
    if len(pairs) != 4:
        raise ValueError(f"exactly 4 bearing pairs required, got {len(pairs)}")
    c = sigma_from_angle(theta)
    ordered = list(pairs[anchor % 4 :]) + list(pairs[: anchor % 4])

    if c.tau == 0.0:
        # Zero rotation angle pins the quaternion to the identity.
        roots = [np.zeros(3)]
    else:
        try:
            extraction = _rotation_candidates(ordered, c, pivot_tol)
        except (DegenerateInput, RankDeficient, BasisAnomaly, UnreachableMonomial) as exc:
            raise DegenerateConfiguration(str(exc)) from exc
        roots = list(extraction.roots)
    root_count = len(roots)

    poses: list[RelativePose] = []
    had_candidate = False
    for u in roots:
        try:
            quat = rectify_quaternion(u, c)
        except NearZeroVector:
            continue
        R = quat_to_rotation(quat)
        stack = np.array([np.cross(R @ p.q1, p.q2) for p in ordered])
        _, s, vt = np.linalg.svd(stack)
        t = vt[-1]
        low_parallax = s[1] == 0.0 or s[2] / s[1] > LOW_PARALLAX_RATIO
        had_candidate = True
        n_pos, _ = triangulate_and_count_cheiral(R, t, ordered)
        n_neg, _ = triangulate_and_count_cheiral(R, -t, ordered)
        if n_pos == 0 and n_neg == 0:
            continue
        winners = [(t, n_pos)] if n_pos > n_neg else [(-t, n_neg)]
        tie = n_pos == n_neg
        if tie:
            winners = [(t, n_pos), (-t, n_neg)]
        for tw, nw in winners:
            poses.append(
                RelativePose(
                    R=R,
                    t=tw,
                    quat=quat,
                    cheiral_count=nw,
                    cheirality_tie=tie,
                    low_parallax=low_parallax,
                    root_count=root_count,
                )
            )
    if not poses:
        if had_candidate:
            raise NoCheiralSolution("no candidate places any point in front of both cameras")
        raise DegenerateConfiguration("no usable rotation candidates survived filtering")
    return poses


def sampson_errors(R: np.ndarray, t: np.ndarray, q1s: np.ndarray, q2s: np.ndarray) -> np.ndarray:
    """Vectorized Sampson approximation errors for rows of bearing vectors."""
    E = skew(t) @ R
    ex = q1s @ E.T
    ety = q2s @ E
    num = np.einsum("ij,ij->i", q2s, ex) ** 2
    den = ex[:, 0] ** 2 + ex[:, 1] ** 2 + ety[:, 0] ** 2 + ety[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    return out


def sampson_error(R: np.ndarray, t: np.ndarray, pair: BearingPair) -> float:
    """First-order epipolar error of one correspondence; +inf when both
    epipolar line gradients degenerate."""
    return float(sampson_errors(R, t, pair.q1[None, :], pair.q2[None, :])[0])
