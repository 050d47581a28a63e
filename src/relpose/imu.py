"""Relative rotation angle from triple-axis gyroscope logs.

Rates are integrated with a zero-order hold over each sampling interval: the
rotation increment for the interval ending at sample i uses that sample's
rate, composed on the left.  Increments are exact matrix exponentials, so the
accumulated rotation stays orthogonal to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CoverageGap
from .geom import is_integer, rotation_angle, skew


@dataclass(frozen=True, eq=False)
class GyroSample:
    """One angular-rate reading: timestamp in integer nanoseconds, rate in rad/s."""

    timestamp_ns: int
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamp_ns", _nanoseconds("timestamp_ns", self.timestamp_ns))
        w = np.asarray(self.w, dtype=float)
        if w.shape != (3,):
            raise ValueError("rate must be a 3-vector")
        if not np.isfinite(w).all():
            raise ValueError(f"rate must be finite, got {w.tolist()}")
        object.__setattr__(self, "w", w)


def _nanoseconds(name: str, value) -> int:
    """The timestamp ``value`` as an ``int``; one that is not an integer raises."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer of nanoseconds, got {value!r}")
    return int(value)


def rotation_from_rate(w: np.ndarray, dt: float) -> np.ndarray:
    """Rotation ``exp([w]x dt)`` in closed form."""
    phi = np.asarray(w, dtype=float) * dt
    angle = float(np.linalg.norm(phi))
    if angle < 1e-12:
        return np.eye(3) + skew(phi)
    k = skew(phi / angle)
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _validate_log(samples: list[GyroSample]) -> None:
    if not samples:
        raise CoverageGap("empty gyro log")
    for prev, cur in zip(samples, samples[1:]):
        if cur.timestamp_ns <= prev.timestamp_ns:
            raise ValueError("gyro timestamps must be strictly increasing")


def integrate_gyro(
    samples: list[GyroSample],
    t_start_ns: int,
    t_end_ns: int,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Rotation accumulated between two instants covered by the log.

    Boundary sampling intervals are clipped proportionally.  ``bias`` is an
    optional constant rate, a finite 3-vector, subtracted from every reading.
    """
    _validate_log(samples)
    t_start_ns = _nanoseconds("t_start_ns", t_start_ns)
    t_end_ns = _nanoseconds("t_end_ns", t_end_ns)
    if t_start_ns > t_end_ns:
        raise ValueError("t_start must not exceed t_end")
    if t_start_ns < samples[0].timestamp_ns or t_end_ns > samples[-1].timestamp_ns:
        raise CoverageGap(
            f"log spans [{samples[0].timestamp_ns}, {samples[-1].timestamp_ns}] ns, "
            f"requested [{t_start_ns}, {t_end_ns}] ns"
        )
    b = np.zeros(3) if bias is None else np.asarray(bias, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"bias must be a 3-vector, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"bias must be finite, got {b.tolist()}")
    R = np.eye(3)
    for prev, cur in zip(samples, samples[1:]):
        lo = max(prev.timestamp_ns, t_start_ns)
        hi = min(cur.timestamp_ns, t_end_ns)
        if hi > lo:
            R = rotation_from_rate(cur.w - b, (hi - lo) * 1e-9) @ R
    return R


def angle_between_frames(
    samples: list[GyroSample],
    t_start_ns: int,
    t_end_ns: int,
    bias: np.ndarray | None = None,
) -> float:
    """Relative rotation angle over the interval, in ``[0, pi)`` radians."""
    return frame_angle(integrate_gyro(samples, t_start_ns, t_end_ns, bias=bias))


def frame_angle(R: np.ndarray) -> float:
    """The rotation angle of ``R`` in ``[0, pi)`` radians, the domain the
    solvers accept: a half turn maps to the largest float below pi."""
    return min(rotation_angle(R), math.nextafter(math.pi, 0.0))
