"""Per-item loop versions of the central solver's pose recovery, kept as
oracles: midpoint triangulation of one ray pair, cheirality counting one pair
at a time, and the per-root loop with one SVD, one residual gate and two
counts per root."""

from __future__ import annotations

import numpy as np

from reference_geom import essential_residual
from reference_templates import (
    ZERO_ANGLE_ROOTS,
    prepare,
    rectified_quaternions,
    rotation_candidates,
)
from relpose import solver_reg4
from relpose.exceptions import DegenerateConfiguration, NoCheiralSolution
from relpose.gbsolver import POSE_RESIDUAL_TOL, REGULAR
from relpose.geom import PARALLEL_RAY_EPS, BearingPair, RelativePose, quat_to_rotation


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


def loop_solve_4pt_angle(pairs: list[BearingPair], theta: float) -> list[RelativePose]:
    """``solve_4pt_angle`` with one translation stack, one SVD and two
    cheirality counts per rotation root."""
    ordered, c = prepare(REGULAR, pairs, theta)
    roots = rotation_candidates(solver_reg4, ordered, c) if c.tau != 0.0 else ZERO_ANGLE_ROOTS
    root_count = len(roots)

    poses: list[RelativePose] = []
    n_gated = 0
    for quat in rectified_quaternions(roots, c):
        R = quat_to_rotation(quat)
        stack = np.array([np.cross(R @ p.q1, p.q2) for p in ordered])
        vt = np.linalg.svd(stack)[2]
        t = vt[-1]
        if c.tau != 0.0 and any(
            not abs(essential_residual(R, t, p.q1, p.q2)) <= POSE_RESIDUAL_TOL for p in ordered
        ):
            continue
        n_gated += 1
        n_pos, _ = triangulate_and_count_cheiral(R, t, ordered)
        n_neg, _ = triangulate_and_count_cheiral(R, -t, ordered)
        if n_pos == 0 and n_neg == 0:
            continue
        winners = [(t, n_pos)] if n_pos > n_neg else [(-t, n_neg)]
        tie = n_pos == n_neg
        if tie:
            winners = [(t, n_pos), (-t, n_neg)]
        for tw, nw in winners:
            poses.append(
                RelativePose(
                    R=R,
                    t=tw,
                    quat=quat,
                    cheiral_count=nw,
                    cheirality_tie=tie,
                    root_count=root_count,
                )
            )
    if not n_gated:
        raise DegenerateConfiguration("no candidate pose satisfies its own sample")
    if not poses:
        raise NoCheiralSolution("no candidate places any point in front of both cameras")
    return poses
