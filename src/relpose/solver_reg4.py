"""Minimal 4-point solver for calibrated central cameras with a known
relative rotation angle, plus the Sampson scoring function used by the
robust estimator."""

from __future__ import annotations

import numpy as np

from .exceptions import NoCheiralSolution
from .gbsolver import (
    REGULAR,
    ZERO_ANGLE_ROOTS,
    assemble_reduced_template,
    build_action_matrix,
    check_shape,
    degenerate_configuration,
    eigensolve_real,
    extract_roots,
    quotient_basis_from_pivots,
    rectified_quaternions,
    rref_conditioned,
)
from .geom import (
    BearingPair,
    RelativePose,
    cheiral_counts,
    rotation_stack,
    skew,
    stacked_cross,
)
from .poly import build_f_polynomials

# The translation null direction is considered poorly separated when the
# smallest singular value exceeds this fraction of the second smallest.
LOW_PARALLAX_RATIO = 0.5


def _rotation_candidates(pairs, c):
    """Candidate quaternion vector parts from the elimination template."""
    template = assemble_reduced_template(
        build_f_polynomials(pairs, c), REGULAR.multipliers, REGULAR.target_degree, c
    )
    check_shape("template", template.matrix.shape, REGULAR.template_shape)
    reduced, pivots = rref_conditioned(template.matrix, **REGULAR.pivot_hints)
    qb = quotient_basis_from_pivots(template.basis, pivots, expected_size=REGULAR.basis_size)
    action = build_action_matrix(reduced, pivots, template.basis, qb)
    check_shape("action matrix", action.shape, (REGULAR.basis_size, REGULAR.basis_size))
    return extract_roots(eigensolve_real(action), qb)


def solve_4pt_angle(
    pairs: list[BearingPair], theta: float, *, anchor: int = 0
) -> list[RelativePose]:
    """All relative poses consistent with four bearing pairs and the rotation angle.

    Returns up to 20 poses with the first camera at ``[I | 0]`` and unit-norm
    translation, sign-disambiguated by cheirality.  ``anchor`` cyclically
    relabels the correspondences before the constraint system is built; any
    choice yields the same solution set.
    """
    ordered, c = REGULAR.prepare(pairs, theta, anchor)
    with degenerate_configuration():
        roots = _rotation_candidates(ordered, c).roots if c.tau != 0.0 else ZERO_ANGLE_ROOTS
    root_count = len(roots)

    quats = rectified_quaternions(roots, c)
    Rs = rotation_stack(c.sigma, np.array([q.u for q in quats]))
    q1 = np.array([p.q1 for p in ordered])
    q2 = np.array([p.q2 for p in ordered])
    # Rows cross(R q1_i, q2_i) for every root at once; the broadcast matmul
    # rounds as the per-root R @ q1_i does.
    _, s, vt = np.linalg.svd(stacked_cross((Rs[:, None] @ q1[None, :, :, None])[..., 0], q2))
    T = vt[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        low_parallax = (s[:, 1] == 0.0) | (s[:, 2] / s[:, 1] > LOW_PARALLAX_RATIO)
    pos, neg = cheiral_counts(Rs, T, q1, q2)

    poses: list[RelativePose] = []
    for quat, R, t, n_pos, n_neg, flag in zip(
        quats, Rs, T, pos.tolist(), neg.tolist(), low_parallax.tolist()
    ):
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
                    low_parallax=flag,
                    root_count=root_count,
                )
            )
    if not poses:
        raise NoCheiralSolution("no candidate places any point in front of both cameras")
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
