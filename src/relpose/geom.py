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

# Rays whose normalized Gram determinant falls below this are treated as parallel.
PARALLEL_RAY_EPS = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    """Matrix ``[v]x`` with ``[v]x @ w == np.cross(v, w)``, or the ``(..., 3, 3)``
    stack of them for stacked vectors."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(v.shape + (3,))


def stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of stacked vectors, each rounded as a single ``a @ b``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def stacked_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of stacked 3-vectors, rounded as ``np.cross`` rounds it,
    without its argument handling, which costs more than the arithmetic."""
    return a.take(_NEXT, -1) * b.take(_LAST, -1) - a.take(_LAST, -1) * b.take(_NEXT, -1)


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
            # Checked before q.m, which would warn on a non-finite moment.
            if not np.isfinite(m).all():
                raise ValueError(f"{name} violates line incidence: {m!r} is not finite")
            # The rounding of q.m grows with |m|; a moment whose norm
            # overflows fails too.
            if not abs(float(q @ m)) <= 1e-12 * max(1.0, float(np.linalg.norm(m))) < math.inf:
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
        # R^T R - I and det R - 1 in Python floats; a NaN fails every test.
        (a, b, c), (d, e, f), (g, h, i) = R.tolist()
        residuals = (
            a * a + d * d + g * g - 1.0,
            b * b + e * e + h * h - 1.0,
            c * c + f * f + i * i - 1.0,
            a * b + d * e + g * h,
            a * c + d * f + g * i,
            b * c + e * f + h * i,
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0,
        )
        if not all(abs(r) <= 1e-9 for r in residuals):
            raise ValueError("R is not a rotation matrix")
        t = _as_vec3(self.t, "t")
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError(f"t must be finite, got {t!r}")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


def _frozen(cls, fields):
    """An instance of the frozen dataclass ``cls`` with the ``(name, value)``
    ``fields`` set and the others at their defaults, the constructor's
    checks skipped: the bulk builders below ran them already."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def unit_quaternions(sigma: float, u: np.ndarray) -> list[UnitQuaternion]:
    """``UnitQuaternion`` objects of the ``(K, 3)`` vector parts ``u`` sharing
    the scalar part ``sigma``, checked as one array with the constructor's
    tolerance; the first quaternion that fails raises its ``ValueError``."""
    sigma = float(sigma)
    if len(u) and not sigma >= 0.0:
        raise ValueError("quaternion scalar part must be non-negative")
    n2 = sigma * sigma + stacked_dot(u, u)
    unit = np.abs(n2 - 1.0) <= 2e-12
    if not unit.all():
        n2 = float(n2[np.argmin(unit)])
        raise ValueError(f"quaternion is not unit: sigma^2 + |u|^2 = {n2!r}")
    return [_frozen(UnitQuaternion, {"sigma": sigma, "u": v}) for v in u]


# Column pairs of a rotation and their products under the identity; the
# minors of the second and third rows along the first.
_LEFT_COLUMN, _RIGHT_COLUMN = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_IDENTITY_PRODUCTS = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
_MINOR_A, _MINOR_B = np.array([1, 0, 0]), np.array([2, 2, 1])


def relative_poses(
    Rs: np.ndarray, ts: np.ndarray, quats: list[UnitQuaternion], **columns: list
) -> list[RelativePose]:
    """``RelativePose`` objects of the ``(P, 3, 3)`` rotations, ``(P, 3)``
    translations and quaternions, with one value per pose of each
    diagnostic in ``columns``.

    The constructor's rotation and finite-translation checks run once on
    the whole stack, with its tolerance; the first pose that fails raises
    its ``ValueError``.
    """
    # The constructor's residuals, in its order of operations: the products
    # of the columns less the identity, and the determinant less one,
    # expanded along the first row.
    products = Rs[..., _LEFT_COLUMN] * Rs[..., _RIGHT_COLUMN]
    r1, r2 = Rs[:, 1], Rs[:, 2]
    terms = Rs[:, 0] * (r1[:, _MINOR_A] * r2[:, _MINOR_B] - r1[:, _MINOR_B] * r2[:, _MINOR_A])
    rotation = np.all(
        np.abs(products[:, 0] + products[:, 1] + products[:, 2] - _IDENTITY_PRODUCTS) <= 1e-9,
        axis=1,
    ) & (np.abs(terms[:, 0] - terms[:, 1] + terms[:, 2] - 1.0) <= 1e-9)
    valid = rotation & np.isfinite(ts).all(axis=1)
    if not valid.all():
        first = np.argmin(valid)
        if not rotation[first]:
            raise ValueError("R is not a rotation matrix")
        raise ValueError(f"t must be finite, got {ts[first]!r}")
    names = ("R", "t", "quat", *columns)
    return [
        _frozen(RelativePose, zip(names, row)) for row in zip(Rs, ts, quats, *columns.values())
    ]


def rotation_stack(sigma: float, u: np.ndarray) -> np.ndarray:
    """Rotations ``(2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)`` of a ``(K, 3)``
    stack of vector parts sharing the scalar part ``sigma``, as ``(K, 3, 3)``."""
    outer = u[:, :, None] * u[:, None, :]
    return (2.0 * sigma * sigma - 1.0) * np.eye(3) + 2.0 * (outer - sigma * skew(u))


def quat_to_rotation(q: UnitQuaternion) -> np.ndarray:
    """Rotation matrix ``(2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)``."""
    return rotation_stack(q.sigma, q.u[None])[0]


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle in ``[0, pi]`` from the matrix trace.  A non-finite
    matrix raises ``ValueError``: clamping its NaN cosine would give pi."""
    R = np.asarray(R, dtype=float)
    if not np.isfinite(R).all():
        raise ValueError("rotation matrix must be finite")
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


def generalized_epipolar_residual(pose: RelativePose, pair: PluckerPair) -> float:
    """Generalized epipolar residual of a Pluecker correspondence, with the
    world frame identified with the first camera frame (``t1 = 0``,
    ``t2 = pose.t``)."""
    return generalized_residual(pose.R, np.zeros(3), pose.t, pair.q1, pair.m1, pair.q2, pair.m2)


def cheiral_counts(
    Rs: np.ndarray, T: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-triangulate the bearing rows ``q1``, ``q2`` (``(N, 3)``, or
    ``(K, N, 3)`` with rows of their own for each pose) under cameras
    ``[I|0]``, ``[Rs[k]|T[k]]`` and count, for ``+T[k]`` and for ``-T[k]``,
    the points with positive depth in both views.  Parallel-ray pairs are
    not counted.  Every product is a matmul, so it rounds as the per-vector
    ``R @ v`` and ``v @ w`` do."""
    Rt = Rs.transpose(0, 2, 1)
    d2 = (Rt[:, None] @ q2[..., None])[..., 0]
    origin2 = (-Rt @ T[:, :, None])[:, None, :, 0]
    a = stacked_dot(q1, q1)
    b = stacked_dot(q1, d2)
    d = stacked_dot(d2, d2)
    e1 = stacked_dot(q1, origin2)
    e2 = stacked_dot(d2, origin2)
    det = b * b - a * d
    solvable = ~(np.abs(det) <= PARALLEL_RAY_EPS * a * d)
    # Closest approach of rays s q1 and origin2 + r d2:
    # [a -b; b -d] [s r]^T = [e1 e2]^T.  Negating the translation negates
    # origin2, e1, e2 and so s and r exactly: one solve serves both signs.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (-d * e1 + b * e2) / det
        r = (-b * e1 + a * e2) / det
    n_pos = (solvable & (s > 0.0) & (r > 0.0)).sum(axis=1)
    n_neg = (solvable & (s < 0.0) & (r < 0.0)).sum(axis=1)
    return n_pos, n_neg
