"""Core 3D geometry: rotations, quaternions, bearing and Pluecker rays,
midpoint triangulation and cheirality counting.  The scalar epipolar
residuals and the rotation-to-quaternion inverse, which only the tests use,
live in ``tests/reference_geom.py``.

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
import numbers
from dataclasses import dataclass

import numpy as np

# Rays whose normalized Gram determinant falls below this are treated as parallel.
PARALLEL_RAY_EPS = 1e-12


# Entries of ``[v]x``, row after row, in ``(x, y, z, -x, -y, -z, 0)``.
_SKEW = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])
_IDENTITY = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Matrix ``[v]x`` with ``[v]x @ w == np.cross(v, w)``, or the ``(..., 3, 3)``
    stack of them for stacked vectors."""
    v = np.asarray(v, dtype=float)
    signed = np.concatenate([v, -v, np.zeros(v.shape[:-1] + (1,))], -1)
    return signed.take(_SKEW, -1).reshape(v.shape + (3,))


def stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of stacked vectors, each rounded as a single ``a @ b``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def stacked_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of stacked 3-vectors, rounded as ``np.cross`` rounds it,
    without its argument handling, which costs more than the arithmetic."""
    return a.take(_NEXT, -1) * b.take(_LAST, -1) - a.take(_LAST, -1) * b.take(_NEXT, -1)


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one included; a ``bool`` is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        check_unit_quaternions(self.sigma, self.u[None])


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


# The flat entries of the factors of each term of a 3 x 3 determinant, and its sign.
_LEIBNIZ = np.array([[0, 0, 1, 1, 2, 2], [4, 5, 3, 5, 3, 4], [8, 7, 8, 6, 7, 6]])
_LEIBNIZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])


def check_poses(Rs: np.ndarray, ts: np.ndarray) -> None:
    """Raise the ``ValueError`` of the first of the ``(P, 3, 3)`` rotations
    and ``(P, 3)`` translations that is not a rotation, with ``R^T R - I``
    and ``det R - 1`` (the Leibniz sum) within 1e-9, or not finite.  A NaN
    fails every test."""
    factors = Rs.reshape(-1, 9).take(_LEIBNIZ, 1)
    det = np.abs((factors[:, 0] * factors[:, 1] * factors[:, 2]) @ _LEIBNIZ_SIGNS - 1.0) <= 1e-9
    gram = np.abs(Rs.transpose(0, 2, 1) @ Rs - _IDENTITY) <= 1e-9
    finite = np.isfinite(ts)
    if np.count_nonzero(det) + np.count_nonzero(gram) + np.count_nonzero(finite) < 13 * len(Rs):
        rotation = det & gram.all(axis=(1, 2))
        first = np.argmin(rotation & finite.all(axis=1))
        if not rotation[first]:
            raise ValueError("R is not a rotation matrix")
        raise ValueError(f"t must be finite, got {ts[first]!r}")


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
    root_count: int | None = None

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (3, 3):
            raise ValueError("R must be a 3x3 matrix")
        t = _as_vec3(self.t, "t")
        with np.errstate(invalid="ignore", over="ignore"):
            check_poses(R[None], t[None])
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


def check_unit_quaternions(sigma: float, u: np.ndarray) -> None:
    """Raise the ``ValueError`` of the first of the ``(K, 3)`` vector parts
    ``u`` that with ``sigma >= 0`` is not a unit quaternion within 2e-12."""
    sigma = float(sigma)
    if len(u) and not sigma >= 0.0:
        raise ValueError("quaternion scalar part must be non-negative")
    n2 = sigma * sigma + stacked_dot(u, u)
    unit = np.abs(n2 - 1.0) <= 2e-12
    if not unit.all():
        n2 = float(n2[np.argmin(unit)])
        raise ValueError(f"quaternion is not unit: sigma^2 + |u|^2 = {n2!r}")


def rotation_stack(sigma: float, u: np.ndarray) -> np.ndarray:
    """Rotations ``(2 sigma^2 - 1) I + 2 (u u^T - sigma [u]x)`` of a ``(K, 3)``
    stack of vector parts sharing the scalar part ``sigma``, as ``(K, 3, 3)``."""
    outer = u[:, :, None] * u[:, None, :]
    # [sigma u]x is sigma [u]x bit for bit, and a stack of vectors is smaller.
    return (2.0 * sigma * sigma - 1.0) * _IDENTITY + 2.0 * (outer - skew(sigma * u))


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


def cheiral_counts(Rs: np.ndarray, T: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Midpoint-triangulate the bearing rows ``q1``, ``q2`` (``(N, 3)``, or
    ``(K, N, 3)`` with rows of their own for each pose) under cameras
    ``[I|0]``, ``[Rs[k]|T[k]]`` and count, for ``+T[k]`` (row 0) and for
    ``-T[k]`` (row 1), the points with positive depth in both views.
    Parallel-ray pairs are not counted.  Every product is a matmul, so it
    rounds as the per-vector ``R @ v`` and ``v @ w`` do."""
    Rt = Rs.transpose(0, 2, 1)
    d2 = (Rt[:, None] @ q2[..., None])[..., 0]
    origin2 = (-Rt @ T[:, :, None])[:, None, :, 0]
    a, b, d, e1, e2 = map(stacked_dot, (q1, q1, d2, q1, d2), (q1, d2, d2, origin2, origin2))
    det = b * b - a * d
    parallel = np.abs(det) <= PARALLEL_RAY_EPS * a * d
    # A parallel pair is not counted, so its determinant may as well be 1:
    # then no division by zero needs an error state.
    det[parallel] = 1.0
    # Closest approach of rays s q1 and origin2 + r d2:
    # [a -b; b -d] [s r]^T = [e1 e2]^T.  Negating the translation negates
    # origin2, e1, e2 and so s and r exactly: one solve serves both signs.
    s = (-d * e1 + b * e2) / det
    r = (-b * e1 + a * e2) / det
    return (~parallel & np.array([(s > 0.0) & (r > 0.0), (s < 0.0) & (r < 0.0)])).sum(axis=2)
