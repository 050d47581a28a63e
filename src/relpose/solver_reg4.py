"""Minimal 4-point solver for calibrated central cameras with a known
relative rotation angle, plus the Sampson scoring function and the
Gauss-Newton step on a consensus used by the robust estimator."""

from __future__ import annotations

import math
import sys

import numpy as np

from .exceptions import NoCheiralSolution
from .gbsolver import (
    REGULAR,
    SamplePoses,
    _solve_or_nan,
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
    _SIGNS,
    BearingPair,
    RelativePose,
    cheiral_counts,
    rotation_stack,
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
    Q = rays.take(sample, 1)
    # Rows cross(R q1_i, q2_i) for every root at once; the stacked matmul
    # rounds as the per-root R @ q1_i does.
    rows = stacked_cross((Rs[:, None] @ Q[0, ..., None])[..., 0], Q[1])
    T = _svd_or_nan(rows)[2][:, -1]
    # Each row dotted with the unit translation is the scaled epipolar
    # residual q2^T [t]x R q1 of its pair.
    keep = residual_gate((rows @ T[:, :, None])[..., 0], sample, c, losses)
    sample, Rs, T, u, Q = sample[keep], Rs[keep], T[keep], u[keep], Q[:, keep]
    votes = cheiral_counts(Rs, T, *Q)
    # Keep each sign that wins the cheirality vote, both on a tie, none at 0-0.
    k, flip = (votes >= np.maximum(votes[::-1], 1)).T.nonzero()
    sample = sample.take(k)
    losses.lose(losses.unowned(sample), NoCheiralSolution(_NOT_CHEIRAL))
    # Multiplying by -1 negates exactly, and by 1 changes no bit.
    T = T.take(k, 0) * _SIGNS.take(flip, 0)
    columns = {"cheiral_count": votes[flip, k], "cheirality_tie": (votes[0] == votes[1]).take(k)}
    return Rs.take(k, 0), T, u.take(k, 0), sample, columns


def solve_4pt_angle(
    pairs: list[BearingPair], theta: float, *, samples=None
) -> list[RelativePose] | SamplePoses:
    """All relative poses consistent with four bearing pairs and the rotation angle.

    Returns up to 20 poses with the first camera at ``[I | 0]`` and unit-norm
    translation, sign-disambiguated by cheirality.  The constraint system is
    built with the first pair as its anchor; the pairs in any cyclic order,
    ``pairs[k:] + pairs[:k]``, yield the same solution set.

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
    return solve(_LAYERS, REGULAR, build_f_polynomials, None, _poses, pairs, theta, samples)


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
    return np.divide(num, den, out=np.full_like(num, np.inf), where=den > 0.0)


def _tangents(v: np.ndarray) -> np.ndarray:
    """Two orthonormal 3-vectors, as rows, perpendicular to ``v``: the basis
    of Duff et al., "Building an orthonormal basis, revisited", JCGT 2017.
    NaN for ``v = 0``."""
    x, y, z = (v / np.sqrt(v @ v)).tolist()
    s = math.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    return np.array([[1.0 + s * x * x * a, s * b, -s * x], [b, s + y * y * a, -y]])


def epipolar_step(
    R: np.ndarray, t: np.ndarray, sigma: float, u: np.ndarray, q1s: np.ndarray, q2s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One Gauss-Newton step on the algebraic epipolar residuals
    ``e_i = t . (R q1_i x q2_i)`` of the ``(N, 3)`` bearing rows, from the
    pose ``(R, t)`` whose rotation has the quaternion ``(sigma, u)``.

    The rotation angle stays fixed, and so do ``|u| = sqrt(1 - sigma^2)``
    and ``|t| = 1``: each of ``u`` and ``t`` moves along two tangent
    directions and is scaled back.  The Jacobian is analytic: with
    ``w = q2 x t``, ``de/du = 2 (w (u.q1) + q1 (w.u) - sigma q1 x w)`` and
    ``de/dt = R q1 x q2``.  A residual and its four derivatives are each a
    bilinear form ``q2^T G q1``: ``G = [t]x R``, ``[t]x dR`` with ``dR``
    the derivative of R along a tangent of ``u``, and ``[c]x R`` along a
    tangent ``c`` of ``t``.  Returns the stepped ``(R, t, u)``, or None
    where N is no more than the sample size or the normal system is not
    finite, as at ``u = 0``, or numerically singular: its smallest
    eigenvalue no more than 1e-12 of its largest.  It raises and warns for
    none of these.
    """
    if len(q1s) <= REGULAR.sample_size:
        return None
    with np.errstate(all="ignore"):
        along_u, along_t = _tangents(u), _tangents(t)
        S = skew(np.concatenate((t[None], along_u, along_t)))
        # The derivative of R = (2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)
        # along a tangent b of u: 2 (b u^T + u b^T - sigma [b]x).
        dR = 2.0 * (along_u[:, :, None] * u + u[:, None] * along_u[:, None] - sigma * S[1:3])
        forms = np.concatenate(((S[0] @ R)[None], S[0] @ dR, S[3:] @ R))
        # Row i holds q2_i^T G q1_i for every form G: e_i, then the Jacobian.
        rows = (q2s[:, :, None] * q1s[:, None]).reshape(-1, 9) @ forms.reshape(5, 9).T
        normal = rows.T @ rows
        if not np.isfinite(normal).all():
            return None
        # A consensus that leaves a direction free, as copies of one pair
        # do, is singular only up to rounding, and its solve would be finite
        # but arbitrary: no step unless the smallest eigenvalue of the
        # system is above 1e-12 of its largest.
        scale = np.linalg.eigvalsh(normal[1:, 1:])
        if not scale[0] > 1e-12 * scale[-1]:
            return None
        step = _solve_or_nan(normal[1:, 1:], normal[1:, :1])[:, 0]
        u = u - step[:2] @ along_u
        t = t - step[2:] @ along_t
    u *= math.sqrt(1.0 - sigma * sigma) / math.sqrt(u @ u)
    t /= math.sqrt(t @ t)
    return rotation_stack(sigma, u[None])[0], t, u

