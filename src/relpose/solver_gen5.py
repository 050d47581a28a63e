"""Minimal 5-point solver for calibrated generalized cameras with a known
relative rotation angle, including metric translation recovery, plus the
point-to-ray scoring function used by the robust estimator."""

from __future__ import annotations

import numpy as np

from .exceptions import ScaleUnobservable, SkewDegenerate
from .gbsolver import (
    GENERAL,
    ZERO_ANGLE_ROOTS,
    assemble_reduced_template,
    build_action_matrix,
    check_shape,
    degenerate_configuration,
    eigensolve_real,
    extract_roots,
    quotient_basis_from_pivots,
    rectified_quaternions,
    rref_conditioned,
)
from .geom import PluckerPair, RelativePose, quat_to_rotation
from .poly import build_g_polynomials

# All moments below this norm mean a purely central configuration.
CENTRAL_MOMENT_EPS = 1e-12

# Depth-system singular values: scale is unobservable when the second singular
# value collapses relative to the first, or when the null vector has no
# inhomogeneous component.
SCALE_RANK_EPS = 1e-10
SCALE_COMPONENT_EPS = 1e-10


def _rotation_candidates(pairs, c):
    """Candidate quaternion vector parts from the elimination template."""
    template = assemble_reduced_template(
        build_g_polynomials(pairs, c), GENERAL.multipliers, GENERAL.target_degree, c,
        extra_rows=GENERAL.extra_rows,
    )
    check_shape("template", template.matrix.shape, GENERAL.template_shape)
    reduced, pivots = rref_conditioned(template.matrix, **GENERAL.pivot_hints)
    qb = quotient_basis_from_pivots(template.basis, pivots, expected_size=GENERAL.basis_size)
    action = build_action_matrix(reduced, pivots, template.basis, qb)
    check_shape("action matrix", action.shape, (GENERAL.basis_size, GENERAL.basis_size))
    return extract_roots(eigensolve_real(action), qb)


def _depth_rows(pairs: list[PluckerPair], Rs: np.ndarray) -> np.ndarray:
    """Constraint rows on (lambda, mu, 1) for anchor 0, one (4, 3) block per
    rotation in the ``(K, 3, 3)`` stack ``Rs``; every entry is a bilinear
    form ``x @ R @ y`` in the non-anchor rays."""
    pi = pairs[0]
    q1 = np.array([p.q1 for p in pairs[1:]])
    q2 = np.array([p.q2 for p in pairs[1:]])
    m1 = np.array([p.m1 for p in pairs[1:]])
    m2 = np.array([p.m2 for p in pairs[1:]])
    e1 = np.cross(pi.m1, pi.q1)
    e2 = np.cross(pi.m2, pi.q2)

    def bilinear(x, y):
        return np.einsum("ja,kab,jb->kj", x, Rs, y)

    a = bilinear(q2, np.cross(pi.q1, q1))
    b = bilinear(np.cross(pi.q2, q2), q1)
    w = bilinear(q2, np.cross(e1, q1) + m1) + bilinear(np.cross(e2, q2) + m2, q1)
    return np.stack([a, b, w], axis=-1)


def solve_gen5pt_angle(
    pairs: list[PluckerPair], theta: float, *, anchor: int = 0
) -> list[RelativePose]:
    """All relative poses consistent with five Pluecker pairs and the rotation angle.

    Returns up to 44 poses with metric translation.  For each rotation
    candidate the depth pair of the anchor correspondence is recovered as the
    null vector of the stacked constraint rows, scaled so its inhomogeneous
    component is one; candidates whose scale is unobservable are dropped.
    """
    ordered, c = GENERAL.prepare(pairs, theta, anchor)
    if max(float(np.linalg.norm(m)) for p in ordered for m in (p.m1, p.m2)) < CENTRAL_MOMENT_EPS:
        raise ScaleUnobservable(
            "all ray moments vanish: a central configuration carries no translation scale"
        )
    with degenerate_configuration():
        roots = _rotation_candidates(ordered, c).roots if c.tau != 0.0 else ZERO_ANGLE_ROOTS
    root_count = len(roots)

    quats = rectified_quaternions(roots, c)
    Rs = np.array([quat_to_rotation(q) for q in quats])
    _, s, vt = np.linalg.svd(_depth_rows(ordered, Rs))
    v = vt[:, -1]
    unobservable = (s[:, 1] <= SCALE_RANK_EPS * s[:, 0]) | (np.abs(v[:, 2]) < SCALE_COMPONENT_EPS)

    anchor_pair = ordered[0]
    e1 = np.cross(anchor_pair.m1, anchor_pair.q1)
    e2 = np.cross(anchor_pair.m2, anchor_pair.q2)
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
    return poses


def ray_arrays(pairs: list[PluckerPair]) -> tuple[np.ndarray, ...]:
    """Stacked rays ``(d1, o1, q2, c2)`` of the pairs, as ``ray_point_errors``
    takes them: first-view directions and origins ``m1 x q1``, second-view
    directions and origins ``m2 x q2`` in the second camera's frame."""
    q1 = np.array([p.q1 for p in pairs])
    q2 = np.array([p.q2 for p in pairs])
    m1 = np.array([p.m1 for p in pairs])
    m2 = np.array([p.m2 for p in pairs])
    return q1, np.cross(m1, q1), q2, np.cross(m2, q2)


def ray_point_errors(
    R: np.ndarray, t: np.ndarray, d1: np.ndarray, o1: np.ndarray, q2: np.ndarray, c2: np.ndarray
) -> np.ndarray:
    """Point-to-ray RMS distances of N correspondences under the pose ``(R, t)``.

    ``d1``, ``o1``, ``q2`` and ``c2`` are ``(N, 3)`` arrays as returned by
    ``ray_arrays``.  The second-view rays are moved into the first frame, the
    point minimizing the summed squared distance to both rays is
    triangulated, and the result holds the RMS of its two distances, or
    +inf where the rays are parallel.
    """
    o2 = (c2 - t) @ R
    d2 = q2 @ R
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
    rms = np.sqrt(
        (np.einsum("ij,ij->i", r1, r1) + np.einsum("ij,ij->i", r2, r2)) / 2.0
    )
    return np.where(parallel, np.inf, rms)


def ray_point_error(pose: RelativePose, pair: PluckerPair) -> float:
    """RMS of the two point-to-ray distances after triangulating the point
    that minimizes the summed squared distance to both rays."""
    err = float(ray_point_errors(pose.R, pose.t, *ray_arrays([pair]))[0])
    if not np.isfinite(err):
        raise SkewDegenerate("rays are parallel; the correspondence cannot be triangulated")
    return err
