"""Core 3D geometry: rotations, quaternions, bearing and Pluecker rays,
epipolar residuals, midpoint triangulation and cheirality counting.

Conventions used throughout the package:

- A relative pose ``(R, t)`` maps coordinates of the first camera frame into
  the second: ``X2 = R @ X1 + t``.  The first camera is ``[I | 0]``.
- A rotation is encoded by a quaternion ``(sigma, u)`` with ``sigma >= 0`` and
  ``R = (2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)``.
- A Pluecker line with unit direction ``q`` through a point ``p`` has moment
  ``m = q x p``; the point on the line closest to the frame origin is
  ``m x q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NearZeroVector

# Below this norm an estimated quaternion vector part carries no usable direction.
U_DIRECTION_EPS = 1e-10

# Rays whose normalized Gram determinant falls below this are treated as parallel.
PARALLEL_RAY_EPS = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    """Matrix ``[v]x`` with ``[v]x @ w == np.cross(v, w)``."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _as_vec3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


def _as_unit3(v, name: str) -> np.ndarray:
    v = _as_vec3(v, name)
    if not abs(v @ v - 1.0) <= 2e-12:
        raise ValueError(f"{name} must be a unit vector (|{name}| = {np.linalg.norm(v)!r})")
    return v


@dataclass(frozen=True, eq=False)
class UnitQuaternion:
    """Rotation quaternion with scalar part ``sigma >= 0`` and vector part ``u``."""

    sigma: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "u", _as_vec3(self.u, "u"))
        if not self.sigma >= 0.0:
            raise ValueError("quaternion scalar part must be non-negative")
        n2 = self.sigma * self.sigma + float(self.u @ self.u)
        if not abs(n2 - 1.0) <= 2e-12:
            raise ValueError(f"quaternion is not unit: sigma^2 + |u|^2 = {n2!r}")


@dataclass(frozen=True)
class RotationConstraint:
    """Known rotation angle ``theta`` with the induced scalar part ``sigma``
    and the constant ``tau = sigma^2 - 1`` of the sphere constraint
    ``alpha^2 + beta^2 + gamma^2 + tau = 0``."""

    theta: float
    sigma: float
    tau: float


def sigma_from_angle(theta: float) -> RotationConstraint:
    """Fix the quaternion scalar part from a rotation angle in ``[0, pi)``."""
    theta = float(theta)
    if not 0.0 <= theta < math.pi:
        raise ValueError(f"rotation angle must lie in [0, pi), got {theta!r}")
    sigma = math.sqrt((math.cos(theta) + 1.0) / 2.0)
    return RotationConstraint(theta=theta, sigma=sigma, tau=sigma * sigma - 1.0)


@dataclass(frozen=True, eq=False)
class BearingPair:
    """Unit ray directions of one point correspondence across two views."""

    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q1", _as_unit3(self.q1, "q1"))
        object.__setattr__(self, "q2", _as_unit3(self.q2, "q2"))


@dataclass(frozen=True, eq=False)
class PluckerPair:
    """Pluecker lines of one correspondence across two generalized views.

    Directions are unit vectors and each moment is perpendicular to its
    direction (line incidence).
    """

    q1: np.ndarray
    q2: np.ndarray
    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q1", _as_unit3(self.q1, "q1"))
        object.__setattr__(self, "q2", _as_unit3(self.q2, "q2"))
        object.__setattr__(self, "m1", _as_vec3(self.m1, "m1"))
        object.__setattr__(self, "m2", _as_vec3(self.m2, "m2"))
        for q, m, name in ((self.q1, self.m1, "m1"), (self.q2, self.m2, "m2")):
            if not abs(float(q @ m)) <= 1e-12:
                raise ValueError(f"{name} violates line incidence: q.m = {float(q @ m)!r}")


@dataclass(frozen=True, eq=False)
class RelativePose:
    """Relative pose ``X2 = R @ X1 + t`` with solver diagnostics.

    ``t`` has unit norm for central-camera solutions and metric scale for
    generalized solutions.  ``depths`` holds the anchor-correspondence depth
    scalars recovered by the generalized solver.
    """

    R: np.ndarray
    t: np.ndarray
    quat: UnitQuaternion
    depths: tuple[float, float] | None = None
    cheiral_count: int | None = None
    cheirality_tie: bool = False
    low_parallax: bool = False
    root_count: int | None = None

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (3, 3):
            raise ValueError("R must be a 3x3 matrix")
        if not (np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9 and abs(np.linalg.det(R) - 1.0) <= 1e-9):
            raise ValueError("R is not a rotation matrix")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", _as_vec3(self.t, "t"))

    def inverse(self) -> "RelativePose":
        """Pose mapping the second camera frame back into the first."""
        return RelativePose(
            R=self.R.T,
            t=-self.R.T @ self.t,
            quat=UnitQuaternion(self.quat.sigma, -self.quat.u),
            depths=None,
        )


def quat_to_rotation(q: UnitQuaternion) -> np.ndarray:
    """Rotation matrix ``(2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)``."""
    s, u = q.sigma, q.u
    return (2.0 * s * s - 1.0) * np.eye(3) + 2.0 * (np.outer(u, u) - s * skew(u))


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle in ``[0, pi]`` from the matrix trace."""
    c = (float(np.trace(R)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


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


def generalized_epipolar_residual(
    pose: RelativePose,
    pair: PluckerPair,
    *,
    t1: np.ndarray | None = None,
    t2: np.ndarray | None = None,
) -> float:
    """Generalized epipolar residual of a Pluecker correspondence.

    By default the world frame is identified with the first camera frame
    (``t1 = 0``, ``t2 = pose.t``); explicit per-view translations may be
    supplied to evaluate the form in another frame.
    """
    if t1 is None:
        t1 = np.zeros(3)
    if t2 is None:
        t2 = pose.t
    return generalized_residual(pose.R, t1, t2, pair.q1, pair.m1, pair.q2, pair.m2)


def rectify_quaternion(u_raw: np.ndarray, c: RotationConstraint) -> UnitQuaternion:
    """Rescale an estimated vector part onto the constraint sphere.

    The direction of ``u_raw`` is kept and its norm is set to
    ``sqrt(1 - sigma^2)`` so the quaternion invariant holds exactly up to
    rounding.  A zero angle forces ``u = 0`` regardless of direction.
    """
    u_raw = _as_vec3(u_raw, "u_raw")
    if c.tau == 0.0:
        return UnitQuaternion(1.0, np.zeros(3))
    n = float(np.linalg.norm(u_raw))
    if n <= U_DIRECTION_EPS:
        raise NearZeroVector(f"|u| = {n!r} gives no usable direction for theta = {c.theta!r}")
    target = math.sqrt(1.0 - c.sigma * c.sigma)
    return UnitQuaternion(c.sigma, (target / n) * u_raw)


def triangulate_midpoint(
    d1: np.ndarray, origin2: np.ndarray, d2: np.ndarray
) -> tuple[float, float] | None:
    """Closest-approach coefficients ``(s, r)`` of rays ``s d1`` and ``origin2 + r d2``.

    Returns None when the rays are parallel beyond tolerance.
    """
    a = float(d1 @ d1)
    b = float(d1 @ d2)
    d = float(d2 @ d2)
    det = b * b - a * d
    if abs(det) <= PARALLEL_RAY_EPS * a * d:
        return None
    e1 = float(d1 @ origin2)
    e2 = float(d2 @ origin2)
    # [a -b; b -d] [s r]^T = [e1 e2]^T
    s = (-d * e1 + b * e2) / det
    r = (-b * e1 + a * e2) / det
    return s, r


def triangulate_and_count_cheiral(
    R: np.ndarray, t: np.ndarray, pairs: list[BearingPair]
) -> tuple[int, list[tuple[float, float] | None]]:
    """Midpoint-triangulate each pair under cameras ``[I|0]``, ``[R|t]`` and
    count the points with positive depth in both views.

    Parallel-ray pairs are skipped (depth entry None) and not counted.
    """
    origin2 = -R.T @ t
    count = 0
    depths: list[tuple[float, float] | None] = []
    for pair in pairs:
        sr = triangulate_midpoint(pair.q1, origin2, R.T @ pair.q2)
        depths.append(sr)
        if sr is not None and sr[0] > 0.0 and sr[1] > 0.0:
            count += 1
    return count, depths
