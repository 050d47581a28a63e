"""Minimal 4-point solver for calibrated central cameras with a known
relative rotation angle, plus the Sampson scoring function used by the
robust estimator."""

from __future__ import annotations

import numpy as np

from dataclasses import replace

from .exceptions import NoCheiralSolution, RelposeError
from .gbsolver import (
    REGULAR,
    assemble_reduced_template,
    build_action_matrix,
    candidate_rotations,
    check_shape,
    degenerate_configuration,
    eigensolve_real,
    extract_roots,
    polish_roots,
    quotient_basis_from_pivots,
    residual_gate,
    rref_conditioned,
)
from .geom import BearingPair, RelativePose, cheiral_counts, skew, stacked_cross
from .poly import build_f_polynomials

# The translation null direction is considered poorly separated when the
# smallest singular value exceeds this fraction of the second smallest.
LOW_PARALLAX_RATIO = 0.5


def _rotation_candidates(pairs, c):
    """Polished candidate quaternion vector parts from the elimination
    template.

    The template is reduced on each committed partition in turn until one
    neither raises nor drops a root as inconsistent.  The roots kept are
    those of the first partition that dropped the fewest; where every
    partition raises, so does this.
    """
    generators = build_f_polynomials(pairs, c)
    template = assemble_reduced_template(
        generators, REGULAR.multipliers, REGULAR.target_degree, c
    )
    check_shape("template", template.matrix.shape, REGULAR.template_shape)
    kept = None
    for k, pivots in enumerate(REGULAR.partitions):
        try:
            reduced = rref_conditioned(template.matrix, pivots)
            qb = quotient_basis_from_pivots(template.basis, pivots, REGULAR.basis_size)
            action = build_action_matrix(reduced, pivots, template.basis, qb)
            check_shape("action matrix", action.shape, (REGULAR.basis_size, REGULAR.basis_size))
            extracted = extract_roots(eigensolve_real(action), qb)
        except RelposeError:
            if kept is None and k == len(REGULAR.partitions) - 1:
                raise
            continue
        if kept is None or extracted.n_dropped_inconsistent < kept.n_dropped_inconsistent:
            kept = extracted
        if not kept.n_dropped_inconsistent:
            break
    return replace(kept, roots=polish_roots(generators, kept.roots, c))


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
        roots = _rotation_candidates(ordered, c).roots if c.tau != 0.0 else np.zeros((1, 3))
    quats, Rs = candidate_rotations(roots, c)
    q1 = np.array([p.q1 for p in ordered])
    q2 = np.array([p.q2 for p in ordered])
    # Rows cross(R q1_i, q2_i) for every root at once; the broadcast matmul
    # rounds as the per-root R @ q1_i does.
    rows = stacked_cross((Rs[:, None] @ q1[None, :, :, None])[..., 0], q2)
    _, s, vt = np.linalg.svd(rows)
    T = vt[:, -1]
    if c.tau != 0.0:
        # Each row dotted with the unit translation is the scaled epipolar
        # residual q2^T [t]x R q1 of its pair.  A zero angle fixes the
        # rotation, so there the sample over-determines the pose.
        keep = residual_gate((rows @ T[:, :, None])[..., 0])
        quats = [quats[k] for k in keep.tolist()]
        Rs, T, s = Rs[keep], T[keep], s[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        low_parallax = (s[:, 1] == 0.0) | (s[:, 2] / s[:, 1] > LOW_PARALLAX_RATIO)
    pos, neg = cheiral_counts(Rs, T, q1, q2)

    # Keep each sign that wins the cheirality vote, both on a tie, none at 0-0.
    poses = [
        RelativePose(
            R=R,
            t=tw,
            quat=quat,
            cheiral_count=nw,
            cheirality_tie=n_pos == n_neg,
            low_parallax=flag,
            root_count=len(roots),
        )
        for quat, R, t, n_pos, n_neg, flag in zip(
            quats, Rs, T, pos.tolist(), neg.tolist(), low_parallax.tolist()
        )
        for tw, nw in ((t, n_pos), (-t, n_neg))
        if nw > 0 and nw == max(n_pos, n_neg)
    ]
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
