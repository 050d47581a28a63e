"""Two-view scenes, image noise and outliers for the benchmark.

This generator belongs to the benchmark and shares no code with
``relpose.synth``, so a change to the package cannot change a workload.
It follows the synthetic setup of the paper: points in a slab 1 unit in
front of the first camera and 0.5 units deep, a 752 x 480 image with a 60
degree horizontal field of view, a second camera displaced by a 0.1 baseline
along the optical axis (forward) or across it (sideways) and rotated by the
drawn angle about an axis that keeps the scene in view.  Generalized views
draw one optical centre per ray in a ball of radius 0.05 around the camera
centre.

Everything here is plain numpy.  A scene is returned as arrays; the caller
turns them into the package's pair types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DISTANCE = 1.0
DEPTH = 0.5
BASELINE = 0.1
WIDTH_PX = 752
HEIGHT_PX = 480
FOV_DEG = 60.0
CENTER_RADIUS = 0.05
FOCAL_PX = WIDTH_PX / (2.0 * math.tan(math.radians(FOV_DEG) / 2.0))
HALF_W = WIDTH_PX / (2.0 * FOCAL_PX)
HALF_H = HEIGHT_PX / (2.0 * FOCAL_PX)
# The scene centre must stay inside this fraction of the second view's half
# field of view, or the rotation axis is drawn again.
AXIS_MARGIN = 0.8


@dataclass(frozen=True, eq=False)
class Scene:
    """Ground truth and observed rays of one frame pair.

    ``X2 = R @ X1 + t``.  ``o1``/``o2`` are the optical centres of the rays
    (zero for central views) in their own camera frame; ``d1``/``d2`` are
    unit ray directions.  ``inlier`` marks the correspondences that were not
    replaced by outliers.
    """

    R: np.ndarray
    t: np.ndarray
    theta: float
    d1: np.ndarray
    o1: np.ndarray
    d2: np.ndarray
    o2: np.ndarray
    inlier: np.ndarray

    @property
    def m1(self) -> np.ndarray:
        return np.cross(self.d1, self.o1)

    @property
    def m2(self) -> np.ndarray:
        return np.cross(self.d2, self.o2)


def axis_angle(axis: np.ndarray, theta: float) -> np.ndarray:
    """Rotation matrix by Rodrigues' formula."""
    k = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _in_view(X: np.ndarray, margin: float = 1.0) -> np.ndarray:
    z = X[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (z > 0.0) & (np.abs(X[..., 0] / z) <= margin * HALF_W)
        return ok & (np.abs(X[..., 1] / z) <= margin * HALF_H)


def _ball(rng: np.random.Generator, n: int) -> np.ndarray:
    v = _unit_rows(rng.normal(size=(n, 3)))
    return CENTER_RADIUS * rng.uniform(size=(n, 1)) ** (1.0 / 3.0) * v


def _slab_points(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.uniform(DISTANCE - DEPTH / 2.0, DISTANCE + DEPTH / 2.0, size=n)
    x = z * rng.uniform(-HALF_W, HALF_W, size=n)
    y = z * rng.uniform(-HALF_H, HALF_H, size=n)
    return np.stack([x, y, z], axis=1)


def _noisy(d: np.ndarray, sigma_px: float, rng) -> np.ndarray:
    """Move each ray's image point by Gaussian pixel noise.

    The ray keeps its optical centre and is re-aimed through the perturbed
    point of its normalized image plane.
    """
    if sigma_px == 0.0:
        return d
    img = d[:, :2] / d[:, 2:3] + rng.normal(0.0, sigma_px / FOCAL_PX, size=(len(d), 2))
    return _unit_rows(np.concatenate([img, np.ones((len(d), 1))], axis=1))


def make_scene(
    rng: np.random.Generator,
    n_points: int,
    theta_range_deg: tuple[float, float],
    generalized: bool,
    noise_px: float = 0.0,
    outlier_frac: float = 0.0,
) -> Scene:
    """Draw one frame pair.

    Forward and sideways motion are equally likely.  Outliers replace the
    second-view ray of a random subset with a ray (and, for generalized
    views, an optical centre) aimed at an unrelated point of the slab.
    """
    theta = math.radians(rng.uniform(*theta_range_deg))
    forward = bool(rng.uniform() < 0.5)
    c2 = np.array([0.0, 0.0, BASELINE]) if forward else np.array([BASELINE, 0.0, 0.0])
    centre = np.array([0.0, 0.0, DISTANCE])
    while True:
        R = axis_angle(rng.normal(size=3), theta)
        if _in_view(R @ (centre - c2), AXIS_MARGIN):
            break
    t = -R @ c2

    X = np.empty((0, 3))
    while len(X) < n_points:
        cand = _slab_points(rng, n_points)
        X = np.concatenate([X, cand[_in_view(cand @ R.T + t)]])[:n_points]
    X2 = X @ R.T + t

    if generalized:
        o1, o2 = _ball(rng, n_points), _ball(rng, n_points)
    else:
        o1 = o2 = np.zeros((n_points, 3))
    d1 = _noisy(_unit_rows(X - o1), noise_px, rng)
    d2 = _noisy(_unit_rows(X2 - o2), noise_px, rng)

    inlier = np.ones(n_points, dtype=bool)
    n_out = int(round(outlier_frac * n_points))
    if n_out:
        idx = rng.choice(n_points, size=n_out, replace=False)
        inlier[idx] = False
        wrong = _slab_points(rng, n_out)
        if generalized:
            o2 = o2.copy()
            o2[idx] = _ball(rng, n_out)
        d2 = d2.copy()
        d2[idx] = _unit_rows(wrong - o2[idx])
    return Scene(R=R, t=t, theta=theta, d1=d1, o1=o1, d2=d2, o2=o2, inlier=inlier)
