"""Scalar geometry kept as oracles: the epipolar residual of one central and
of one generalized correspondence under a pose, as bilinear forms on raw
vectors, and the quaternion of a rotation matrix.  The package scores
stacks of correspondences (``solver_reg4.sampson_errors``,
``solver_gen5.ray_point_errors``) and never inverts ``quat_to_rotation``."""

from __future__ import annotations

import math

import numpy as np

from relpose.geom import BearingPair, PluckerPair, RelativePose, UnitQuaternion, skew


def quat_from_rotation(R: np.ndarray) -> UnitQuaternion:
    """Quaternion ``(sigma >= 0, u)`` such that ``quat_to_rotation`` returns ``R``."""
    R = np.asarray(R, dtype=float)
    sigma2 = max(0.0, (float(np.trace(R)) + 1.0) / 4.0)
    sigma = math.sqrt(sigma2)
    if sigma > 1e-6:
        # R - R^T = -4 sigma [u]x
        M = (R.T - R) / (4.0 * sigma)
        u = np.array([M[2, 1], M[0, 2], M[1, 0]])
    else:
        # Near a half turn the skew part vanishes; use u u^T from the symmetric part.
        uut = (R + R.T) / 4.0 - (2.0 * sigma2 - 1.0) / 2.0 * np.eye(3)
        k = int(np.argmax(np.diag(uut)))
        u = uut[:, k] / math.sqrt(max(uut[k, k], 1e-300))
        if u[np.argmax(np.abs(u))] < 0:
            u = -u
    # Renormalize so the quaternion invariant holds to rounding.
    n2 = sigma * sigma + float(u @ u)
    scale = 1.0 / math.sqrt(n2)
    return UnitQuaternion(sigma * scale, u * scale)


def essential_residual(R: np.ndarray, t: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> float:
    """Bilinear epipolar form ``q2^T (-[t]x R) q1`` on raw vectors."""
    return float(-q2 @ np.cross(t, R @ q1))


def epipolar_residual(pose: RelativePose, pair: BearingPair) -> float:
    """Epipolar residual of a central-camera correspondence under a pose."""
    return essential_residual(pose.R, pose.t, pair.q1, pair.q2)


def generalized_residual(
    R: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
    q1: np.ndarray,
    m1: np.ndarray,
    q2: np.ndarray,
    m2: np.ndarray,
) -> float:
    """Generalized epipolar residual, the 6x6 bilinear form

    ``[q2 m2]^T [[R [t1]x - [t2]x R, R], [R, 0]] [q1 m1]``.
    """
    core = R @ skew(t1) - skew(t2) @ R
    return float(q2 @ core @ q1 + q2 @ R @ m1 + m2 @ R @ q1)


def generalized_epipolar_residual(pose: RelativePose, pair: PluckerPair) -> float:
    """Generalized epipolar residual of a Pluecker correspondence, with the
    world frame identified with the first camera frame (``t1 = 0``,
    ``t2 = pose.t``)."""
    return generalized_residual(pose.R, np.zeros(3), pose.t, pair.q1, pair.m1, pair.q2, pair.m2)
