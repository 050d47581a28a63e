"""Minimal 4-point solver for calibrated central cameras with a known
relative rotation angle, plus the Sampson scoring function used by the
robust estimator."""

from __future__ import annotations

import sys

import numpy as np

from .exceptions import DegenerateConfiguration, NoCheiralSolution, RelposeError
from .gbsolver import (
    REGULAR,
    assemble_reduced_template,
    build_action_matrix,
    by_sample,
    eigensolve_real,
    extract_roots,
    polish_roots,
    quotient_basis_from_pivots,
    recorded,
    rescaled_roots,
    residual_gate,
    rotation_roots,
    rref_conditioned,
    unsolved,
    unstack,
)
from .geom import (
    BearingPair,
    RelativePose,
    cheiral_counts,
    relative_poses,
    rotation_stack,
    skew,
    stacked_cross,
    unit_quaternions,
)
from .poly import _ray_stack, build_f_polynomials

# The translation null direction is considered poorly separated when the
# smallest singular value exceeds this fraction of the second smallest.
LOW_PARALLAX_RATIO = 0.5

# The translation of a cheirality winner, and of the loser.
_SIGNS = np.array([1.0, -1.0])

# The layers are called through this module's attributes.
_LAYERS = sys.modules[__name__]


def _roots(q1: np.ndarray, q2: np.ndarray, c, errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """Polished rotation roots of every sample of the ``(B, 4, 3)`` bearing
    rows, and the sample of each (see ``rotation_roots``)."""
    def build(ids):
        return build_f_polynomials(q1[ids], q2[ids], c)

    return rotation_roots(_LAYERS, REGULAR, build, np.arange(len(q1)), c, errors)


def _solve_stack(q1: np.ndarray, q2: np.ndarray, c) -> list[list[RelativePose] | RelposeError]:
    """The poses of every sample of the ``(B, 4, 3)`` bearing rows, or the
    error that sample raises, solved as one stack."""
    n = len(q1)
    errors: dict[int, RelposeError] = {}
    if c.tau != 0.0:
        roots, sample = _roots(q1, q2, c, errors)
    else:
        roots, sample = np.zeros((n, 3)), np.arange(n)
    root_count = np.bincount(sample, minlength=n)
    keep, u = rescaled_roots(roots, c)
    sample = sample[keep]
    if lost := unsolved(n, sample, errors):
        with recorded(errors, lost):
            raise DegenerateConfiguration("no usable rotation candidates survived filtering")
    quats = unit_quaternions(c.sigma, u)
    Rs = rotation_stack(c.sigma, u)
    Q1, Q2 = q1[sample], q2[sample]
    # Rows cross(R q1_i, q2_i) for every root at once; the stacked matmul
    # rounds as the per-root R @ q1_i does.
    rows = stacked_cross((Rs[:, None] @ Q1[..., None])[..., 0], Q2)
    _, s, vt = np.linalg.svd(rows)
    T = vt[:, -1]
    if c.tau != 0.0:
        # Each row dotted with the unit translation is the scaled epipolar
        # residual q2^T [t]x R q1 of its pair.  A zero angle fixes the
        # rotation, so there the sample over-determines the pose.
        passed = residual_gate((rows @ T[:, :, None])[..., 0])
        if not passed.all():
            keep = np.flatnonzero(passed)
            sample, Rs, T, s, Q1, Q2 = sample[keep], Rs[keep], T[keep], s[keep], Q1[keep], Q2[keep]
            quats = [quats[k] for k in keep.tolist()]
            if lost := unsolved(n, sample, errors):
                with recorded(errors, lost):
                    raise DegenerateConfiguration("no candidate pose satisfies its own sample")
    with np.errstate(divide="ignore", invalid="ignore"):
        low_parallax = (s[:, 1] == 0.0) | (s[:, 2] / s[:, 1] > LOW_PARALLAX_RATIO)
    pos, neg = cheiral_counts(Rs, T, Q1, Q2)
    # Keep each sign that wins the cheirality vote, both on a tie, none at 0-0.
    wins = np.empty((len(pos), 2), dtype=bool)
    wins[:, 0] = (pos > 0) & (pos >= neg)
    wins[:, 1] = (neg > 0) & (neg >= pos)
    k, flip = np.nonzero(wins)
    if lost := unsolved(n, sample[k], errors):
        with recorded(errors, lost):
            raise NoCheiralSolution("no candidate places any point in front of both cameras")
    poses = relative_poses(
        Rs[k],
        T[k] * _SIGNS[flip, None],
        [quats[j] for j in k.tolist()],
        cheiral_count=np.where(flip == 1, neg[k], pos[k]).tolist(),
        cheirality_tie=(pos == neg)[k].tolist(),
        low_parallax=low_parallax[k].tolist(),
        root_count=root_count[sample[k]].tolist(),
    )
    return by_sample(poses, sample[k], n, errors)


def solve_4pt_angle(
    pairs: list[BearingPair], theta: float, *, anchor: int = 0, samples=None
) -> list[RelativePose] | list[list[RelativePose]]:
    """All relative poses consistent with four bearing pairs and the rotation angle.

    Returns up to 20 poses with the first camera at ``[I | 0]`` and unit-norm
    translation, sign-disambiguated by cheirality.  ``anchor`` cyclically
    relabels the correspondences before the constraint system is built; any
    choice yields the same solution set.

    With ``samples``, a ``(B, 4)`` index array into ``pairs``, the samples
    are solved as one stack and the result is one pose list per sample,
    empty where that sample raises a ``RelposeError``.
    """
    picked, n, c = REGULAR.sample_stack(pairs, theta, anchor, samples)
    q1, q2 = (r.reshape(n, 4, 3) for r in _ray_stack(picked, "q1", "q2"))
    return unstack(_solve_stack(q1, q2, c), samples)


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
