"""Ground-truth checks on solver outputs, in the benchmark's own numpy code.

A check returns ``None`` when an operation's output is correct, or the
reason it is not: ``truth-missing`` (no returned pose is the true one),
``angle`` (a pose does not rotate by the given angle), ``residual`` (a pose
violates the input's epipolar constraints) or ``recall`` (RANSAC dropped
too many true inliers).  An exception raised by the solver is recorded by
the caller under the exception's class name.
"""

from __future__ import annotations

import math

import numpy as np

from scenes import Scene, axis_angle

# A minimal solve must return a pose this close to the truth: Frobenius
# distance of the rotations, and of the translations (unit directions for
# central views, metric vectors for generalized views).
TRUTH_TOL = 1e-6
# |cos(angle of R) - cos(theta)| for every returned pose.
ANGLE_TOL = 1e-9
# Epipolar residual of every returned pose on every input pair, relative to
# the residual's scale |t| + |m1| + |m2| (see ``residuals``).  A pose whose
# rotation is off by d radians has a scaled residual of about d, so this is
# the slack of TRUTH_TOL.
RESIDUAL_TOL = 1e-6
# RANSAC on 0.5 px noise returns the pose of one noisy minimal sample.  Over
# 2000 central and 300 generalized frame pairs its rotation error reached
# 2.9 and 5.8 degrees and the share of true inliers it kept fell to 0.74;
# the bounds leave room for a different draw of samples.
RANSAC_ROT_TOL_DEG = {False: 5.0, True: 10.0}
RANSAC_RECALL_MIN = 0.5


def rotation_error_deg(R: np.ndarray, R_true: np.ndarray) -> float:
    """Angle of ``R R_true^T`` in degrees, accurate for tiny angles."""
    chord = float(np.linalg.norm(R - R_true)) / (2.0 * math.sqrt(2.0))
    return math.degrees(2.0 * math.asin(min(1.0, chord)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def residuals(scene: Scene, R: np.ndarray, t: np.ndarray, generalized: bool) -> np.ndarray:
    """Scaled epipolar residuals of one pose on every pair of the scene.

    Central: ``q2^T [t]x R q1`` with ``t`` normalized.  Generalized:
    ``-q2^T [t]x R q1 + q2^T R m1 + m2^T R q1`` with ``m = q x p``, divided
    by ``|t| + |m1| + |m2|`` so the tolerance does not depend on the scale
    of the rig.
    """
    Rq1 = scene.d1 @ R.T
    if not generalized:
        return np.einsum("ij,ij->i", scene.d2, np.cross(_unit(t), Rq1))
    m1, m2 = scene.m1, scene.m2
    r = (-np.einsum("ij,ij->i", scene.d2, np.cross(t, Rq1))
         + np.einsum("ij,ij->i", scene.d2, m1 @ R.T)
         + np.einsum("ij,ij->i", m2, Rq1))
    scale = np.linalg.norm(t) + np.linalg.norm(m1, axis=1) + np.linalg.norm(m2, axis=1)
    return r / scale


def check_minimal(scene: Scene, poses, generalized: bool) -> tuple[str | None, float]:
    """Check the poses of one minimal solve; also return the rotation error
    in degrees of the pose closest to the truth."""
    best_dist = math.inf
    best_R = None
    t_true = scene.t if generalized else _unit(scene.t)
    cos_theta = math.cos(scene.theta)
    for R, t in poses:
        if abs((float(np.trace(R)) - 1.0) / 2.0 - cos_theta) > ANGLE_TOL:
            return "angle", math.nan
        if np.max(np.abs(residuals(scene, R, t, generalized))) > RESIDUAL_TOL:
            return "residual", math.nan
        t_cmp = t if generalized else _unit(t)
        dist = max(float(np.linalg.norm(R - scene.R)), float(np.linalg.norm(t_cmp - t_true)))
        if dist < best_dist:
            best_dist, best_R = dist, R
    if best_dist > TRUTH_TOL:
        return "truth-missing", math.nan
    return None, rotation_error_deg(best_R, scene.R)


def check_ransac(scene: Scene, R: np.ndarray, inlier_mask: np.ndarray, generalized: bool
                 ) -> tuple[str | None, float, float, float]:
    """Check one RANSAC result against the scene's truth and outlier labels.

    Returns the failure reason, the rotation error in degrees, and the
    precision and recall of the returned inlier set.
    """
    err = rotation_error_deg(R, scene.R)
    kept = int(np.count_nonzero(inlier_mask & scene.inlier))
    precision = kept / max(1, int(np.count_nonzero(inlier_mask)))
    recall = kept / int(np.count_nonzero(scene.inlier))
    if err > RANSAC_ROT_TOL_DEG[generalized]:
        return "truth-missing", err, precision, recall
    if recall < RANSAC_RECALL_MIN:
        return "recall", err, precision, recall
    return None, err, precision, recall


def self_test(minimal_scene: Scene, generalized: bool) -> None:
    """Show that ``check_minimal`` accepts the true pose and rejects poses
    that were perturbed, had their angle changed or their translation
    flipped.  Raises ``RuntimeError`` on the first wrong verdict."""
    s = minimal_scene
    axis = _unit(np.array([0.3, -0.5, 0.8]))
    # A small rotation about an axis orthogonal to the true one keeps the
    # angle only to first order, so the perturbed pose is built to keep it
    # exactly: conjugating R by a small rotation preserves the angle.
    P = axis_angle(axis, 1e-4)
    cases = {
        "true pose": ([(s.R, s.t)], None),
        "perturbed rotation": ([(P @ s.R @ P.T, s.t)], "residual"),
        "perturbed translation": ([(s.R, s.t + 1e-4 * np.linalg.norm(s.t) * axis)], "residual"),
        "changed angle": ([(axis_angle(axis, 1e-3) @ s.R, s.t)], "angle"),
        "true pose among others": ([(P @ s.R @ P.T, s.t), (s.R, s.t)], "residual"),
    }
    # A flipped direction satisfies the central epipolar constraint, so
    # only the comparison with the truth can catch it there.
    cases["flipped translation"] = ([(s.R, -s.t)], "residual" if generalized else "truth-missing")
    for name, (poses, want) in cases.items():
        got, _ = check_minimal(s, poses, generalized)
        if got != want:
            kind = "generalized" if generalized else "central"
            raise RuntimeError(f"checker self-test, {kind} {name}: got {got!r}, want {want!r}")
