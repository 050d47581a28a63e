"""Per-item loop versions of the generalized solver's array code, kept as
oracles: the point-to-ray scorer that gathers its rays one pair at a time,
depth recovery with one constraint stack and one SVD per root, and the
solver with one moment norm per ray, one translation per root and one
residual per pose and pair.  The
inverse of a pose, which only tests use, also lives here."""

from __future__ import annotations

import numpy as np

from reference_geom import generalized_epipolar_residual
from reference_templates import (
    ZERO_ANGLE_ROOTS,
    NearZeroVector,
    prepare,
    rectified_quaternions,
    rectify_quaternion,
    rotation_candidates,
)
from relpose import solver_gen5
from relpose.exceptions import DegenerateConfiguration, ScaleUnobservable
from relpose.gbsolver import GENERAL, POSE_RESIDUAL_TOL
from relpose.geom import (
    PluckerPair,
    RelativePose,
    UnitQuaternion,
    quat_to_rotation,
    rotation_stack,
    stacked_cross,
)
from relpose.solver_gen5 import CENTRAL_MOMENT_EPS, SCALE_COMPONENT_EPS, SCALE_RANK_EPS


def inverse_pose(pose: RelativePose) -> RelativePose:
    """Pose mapping the second camera frame back into the first."""
    return RelativePose(
        R=pose.R.T, t=-pose.R.T @ pose.t, quat=UnitQuaternion(pose.quat.sigma, -pose.quat.u)
    )


def loop_ray_point_errors(pose: RelativePose, pairs: list[PluckerPair]) -> np.ndarray:
    """Point-to-ray RMS distances; +inf for parallel-ray pairs."""
    n = len(pairs)
    o1 = np.empty((n, 3))
    d1 = np.empty((n, 3))
    o2 = np.empty((n, 3))
    d2 = np.empty((n, 3))
    for i, pair in enumerate(pairs):
        o1[i] = np.cross(pair.m1, pair.q1)
        d1[i] = pair.q1
        o2[i] = pose.R.T @ (np.cross(pair.m2, pair.q2) - pose.t)
        d2[i] = pose.R.T @ pair.q2
    eye = np.eye(3)
    proj1 = eye[None, :, :] - d1[:, :, None] * d1[:, None, :]
    proj2 = eye[None, :, :] - d2[:, :, None] * d2[:, None, :]
    gram = np.einsum("ij,ij->i", d1, d2)
    parallel = 1.0 - gram**2 <= 1e-12
    A = proj1 + proj2
    rhs = np.einsum("ijk,ik->ij", proj1, o1) + np.einsum("ijk,ik->ij", proj2, o2)
    A_safe = np.where(parallel[:, None, None], eye[None, :, :], A)
    X = np.linalg.solve(A_safe, rhs[:, :, None])[:, :, 0]
    r1 = np.einsum("ijk,ik->ij", proj1, X - o1)
    r2 = np.einsum("ijk,ik->ij", proj2, X - o2)
    rms = np.sqrt((np.einsum("ij,ij->i", r1, r1) + np.einsum("ij,ij->i", r2, r2)) / 2.0)
    return np.where(parallel, np.inf, rms)


def loop_depth_rows(pairs: list[PluckerPair], R: np.ndarray) -> np.ndarray:
    """Stacked constraint rows on (lambda, mu, 1) for anchor 0 under rotation R."""
    pi = pairs[0]
    e1 = np.cross(pi.m1, pi.q1)
    e2 = np.cross(pi.m2, pi.q2)
    rows = []
    for pj in pairs[1:]:
        p1 = np.cross(pi.q1, pj.q1)
        p2 = np.cross(pi.q2, pj.q2)
        a = float(pj.q2 @ R @ p1)
        b = float(p2 @ R @ pj.q1)
        w = float(
            pj.q2 @ R @ np.cross(e1, pj.q1)
            + np.cross(e2, pj.q2) @ R @ pj.q1
            + pj.q2 @ R @ pj.m1
            + pj.m2 @ R @ pj.q1
        )
        rows.append((a, b, w))
    return np.array(rows)


def loop_depth_poses(ordered: list[PluckerPair], roots, c) -> list[RelativePose]:
    """Metric poses from rotation roots, one depth SVD per root."""
    anchor_pair = ordered[0]
    e1 = np.cross(anchor_pair.m1, anchor_pair.q1)
    e2 = np.cross(anchor_pair.m2, anchor_pair.q2)
    poses: list[RelativePose] = []
    n_scale_dropped = 0
    for u in roots:
        try:
            quat = rectify_quaternion(u, c)
        except NearZeroVector:
            continue
        R = quat_to_rotation(quat)
        _, s, vt = np.linalg.svd(loop_depth_rows(ordered, R))
        if s[1] <= SCALE_RANK_EPS * s[0]:
            n_scale_dropped += 1
            continue
        v = vt[-1]
        if abs(v[2]) < SCALE_COMPONENT_EPS:
            n_scale_dropped += 1
            continue
        lam = float(v[0] / v[2])
        mu = float(v[1] / v[2])
        t1 = e1 + lam * anchor_pair.q1
        t2 = e2 + mu * anchor_pair.q2
        poses.append(
            RelativePose(R=R, t=t2 - R @ t1, quat=quat, depths=(lam, mu), root_count=len(roots))
        )
    if not poses:
        if n_scale_dropped:
            raise ScaleUnobservable("translation scale is unobservable for every rotation candidate")
        raise DegenerateConfiguration("no usable rotation candidates survived filtering")
    return poses


def passes_residual_gate(pose: RelativePose, pairs: list[PluckerPair]) -> bool:
    """Every scaled generalized epipolar residual of the pose on the pairs
    is at most ``POSE_RESIDUAL_TOL``, one pair at a time."""
    return all(
        abs(generalized_epipolar_residual(pose, p))
        / (np.linalg.norm(pose.t) + np.linalg.norm(p.m1) + np.linalg.norm(p.m2))
        <= POSE_RESIDUAL_TOL
        for p in pairs
    )


def loop_solve_gen5pt_angle(pairs: list[PluckerPair], theta: float):
    """``solve_gen5pt_angle`` with one ``np.linalg.norm`` per moment and the
    depths, translation and pose of each observable root built in a loop."""
    ordered, c = prepare(GENERAL, pairs, theta)
    if max(float(np.linalg.norm(m)) for p in ordered for m in (p.m1, p.m2)) < CENTRAL_MOMENT_EPS:
        raise ScaleUnobservable(
            "all ray moments vanish: a central configuration carries no translation scale"
        )
    roots = rotation_candidates(solver_gen5, ordered, c) if c.tau != 0.0 else ZERO_ANGLE_ROOTS
    root_count = len(roots)

    quats = rectified_quaternions(roots, c)
    Rs = rotation_stack(c.sigma, np.array([q.u for q in quats]))
    rays = (np.array([getattr(p, a) for p in ordered]) for a in ("q1", "q2", "m1", "m2"))
    own = np.array([np.repeat(r[None], len(Rs), axis=0) for r in rays])
    _, s, vt = np.linalg.svd(solver_gen5._depth_rows(own, Rs))
    v = vt[:, -1]
    unobservable = (s[:, 1] <= SCALE_RANK_EPS * s[:, 0]) | (np.abs(v[:, 2]) < SCALE_COMPONENT_EPS)

    anchor_pair = ordered[0]
    e1 = stacked_cross(anchor_pair.m1, anchor_pair.q1)
    e2 = stacked_cross(anchor_pair.m2, anchor_pair.q2)
    poses: list[RelativePose] = []
    for k in np.flatnonzero(~unobservable):
        lam = float(v[k, 0] / v[k, 2])
        mu = float(v[k, 1] / v[k, 2])
        t1 = e1 + lam * anchor_pair.q1
        t2 = e2 + mu * anchor_pair.q2
        poses.append(
            RelativePose(
                R=Rs[k],
                t=t2 - Rs[k] @ t1,
                quat=quats[k],
                depths=(lam, mu),
                root_count=root_count,
            )
        )
    if not poses:
        raise ScaleUnobservable("translation scale is unobservable for every rotation candidate")
    if c.tau != 0.0:
        poses = [p for p in poses if passes_residual_gate(p, ordered)]
        if not poses:
            raise DegenerateConfiguration("no candidate pose satisfies its own sample")
    return poses
