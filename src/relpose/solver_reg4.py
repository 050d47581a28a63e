"""Minimal 4-point solver for calibrated central cameras with a known
relative rotation angle, plus the Sampson scoring function used by the
robust estimator."""

from __future__ import annotations

import sys

import numpy as np

from .exceptions import NoCheiralSolution
from .gbsolver import (
    REGULAR,
    SamplePoses,
    _svd_or_nan,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    polish_roots,
    quotient_basis_from_pivots,
    residual_gate,
    rref_conditioned,
    solve,
)
from .geom import (
    BearingPair,
    RelativePose,
    cheiral_counts,
    skew,
    stacked_cross,
)
from .poly import build_f_polynomials

# The layers are called through this module's attributes.
_LAYERS = sys.modules[__name__]

_NOT_CHEIRAL = "no candidate places any point in front of both cameras"


def _poses(rays: np.ndarray, sample: np.ndarray, u: np.ndarray, Rs: np.ndarray, c, losses):
    """The pose rule of ``gbsolver.solve`` for the ``(2, B, 4, 3)`` bearing
    rows: each rotation's unit translation from its sample's epipolar rows,
    gated, with the sign or signs that win the cheirality vote."""
    Q1, Q2 = rays.take(sample, 1)
    # Rows cross(R q1_i, q2_i) for every root at once; the stacked matmul
    # rounds as the per-root R @ q1_i does.
    rows = stacked_cross((Rs[:, None] @ Q1[..., None])[..., 0], Q2)
    T = _svd_or_nan(rows)[2][:, -1]
    # Each row dotted with the unit translation is the scaled epipolar
    # residual q2^T [t]x R q1 of its pair.
    keep = residual_gate((rows @ T[:, :, None])[..., 0], sample, c, losses)
    sample, Rs, T, u, Q1, Q2 = sample[keep], Rs[keep], T[keep], u[keep], Q1[keep], Q2[keep]
    votes = cheiral_counts(Rs, T, Q1, Q2)
    # Keep each sign that wins the cheirality vote, both on a tie, none at 0-0.
    k, flip = ((votes > 0) & (votes >= votes[::-1])).T.nonzero()
    sample = sample.take(k)
    losses.lose(losses.unowned(sample), NoCheiralSolution(_NOT_CHEIRAL))
    T = T.take(k, 0)
    T[flip == 1] *= -1.0
    columns = {"cheiral_count": votes[flip, k], "cheirality_tie": (votes[0] == votes[1]).take(k)}
    return Rs.take(k, 0), T, u.take(k, 0), sample, columns


def solve_4pt_angle(
    pairs: list[BearingPair], theta: float, *, anchor: int = 0, samples=None
) -> list[RelativePose] | SamplePoses:
    """All relative poses consistent with four bearing pairs and the rotation angle.

    Returns up to 20 poses with the first camera at ``[I | 0]`` and unit-norm
    translation, sign-disambiguated by cheirality.  ``anchor`` cyclically
    relabels the correspondences before the constraint system is built; any
    choice yields the same solution set.

    With ``samples``, a ``(B, 4)`` array of integer indices into ``pairs``
    (or their ``gbsolver.RayTable``), the samples are solved as one stack
    and the result is their ``SamplePoses``: the poses of every sample as
    rows of arrays.  The stack refines its roots less than a single solve:
    one inverse-iteration step per eigenvector instead of two, and no
    polishing.  So a sample's rows are bit for bit the poses of a single
    solve of it refined alike, and it has none where such a solve raises a
    ``RelposeError``.  An index that is negative, not below ``len(pairs)``
    or not an integer raises ``ValueError``.
    """
    return solve(_LAYERS, REGULAR, build_f_polynomials, None, _poses, pairs, theta, anchor, samples)


def sampson_errors(R: np.ndarray, t: np.ndarray, q1s: np.ndarray, q2s: np.ndarray) -> np.ndarray:
    """Vectorized Sampson approximation errors of the ``(N, 3)`` rows of
    bearing vectors under the pose ``(R, t)``, ``(N,)``, or under each pose
    of a ``(K, 3, 3)``, ``(K, 3)`` stack, ``(K, N)`` with each row as the
    single pose gives it."""
    E = skew(t) @ R
    ex = q1s @ np.swapaxes(E, -1, -2)
    ety = q2s @ E
    num = np.einsum("...ij,...ij->...i", q2s, ex) ** 2
    den = ex[..., 0] ** 2 + ex[..., 1] ** 2 + ety[..., 0] ** 2 + ety[..., 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    return out


def sampson_error(R: np.ndarray, t: np.ndarray, pair: BearingPair) -> float:
    """First-order epipolar error of one correspondence; +inf when both
    epipolar line gradients degenerate."""
    return float(sampson_errors(R, t, pair.q1[None, :], pair.q2[None, :])[0])
