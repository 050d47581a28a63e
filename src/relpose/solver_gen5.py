"""Minimal 5-point solver for calibrated generalized cameras with a known
relative rotation angle, including metric translation recovery, plus the
point-to-ray scoring function used by the robust estimator."""

from __future__ import annotations

import sys

import numpy as np

from .exceptions import DegenerateConfiguration, RelposeError, ScaleUnobservable, SkewDegenerate
from .gbsolver import (
    GENERAL,
    assemble_reduced_template,
    build_action_matrix,
    by_sample,
    eigensolve_real,
    extract_roots,
    polish_roots,
    quotient_basis_from_pivots,
    recorded,
    rescaled_roots,
    residual_gate,
    rotation_roots,
    rref_conditioned,
    unsolved,
    unstack,
)
from .geom import (
    PluckerPair,
    RelativePose,
    relative_poses,
    rotation_stack,
    stacked_cross,
    stacked_dot,
    unit_quaternions,
)
from .poly import _ray_stack, build_g_polynomials

# All moments below this norm mean a purely central configuration.
CENTRAL_MOMENT_EPS = 1e-12

# Depth-system singular values: scale is unobservable when the second singular
# value collapses relative to the first, or when the null vector has no
# inhomogeneous component.
SCALE_RANK_EPS = 1e-10
SCALE_COMPONENT_EPS = 1e-10

# The layers are called through this module's attributes.
_LAYERS = sys.modules[__name__]


def _ray_rows(pairs: list[PluckerPair], n: int) -> list[np.ndarray]:
    """The ``(n, 5, 3)`` direction and moment rows of ``n`` samples of five pairs."""
    return [r.reshape(n, 5, 3) for r in _ray_stack(pairs, "q1", "q2", "m1", "m2")]


def central(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Which of the stacked ``(..., N, 3)`` moment rows all vanish: a central
    configuration, which carries no translation scale."""
    norms = np.sqrt(stacked_dot(m1, m1)), np.sqrt(stacked_dot(m2, m2))
    return np.maximum(*(np.max(x, axis=-1) for x in norms)) < CENTRAL_MOMENT_EPS


def _roots(rays: list[np.ndarray], ids: np.ndarray, c, errors: dict):
    """Polished rotation roots of the samples ``ids`` of the ``(B, 5, 3)``
    Pluecker rows, and the sample of each (see ``rotation_roots``)."""
    def build(idx):
        return build_g_polynomials(*(r[idx] for r in rays), c)

    return rotation_roots(_LAYERS, GENERAL, build, ids, c, errors)


def _depth_rows(q1, q2, m1, m2, Rs: np.ndarray) -> np.ndarray:
    """Constraint rows on (lambda, mu, 1) for anchor 0, one (4, 3) block per
    rotation of the ``(K, 3, 3)`` stack ``Rs``, from the ``(K, 5, 3)``
    Pluecker rows of its sample; every entry is a bilinear form
    ``x @ R @ y`` in the non-anchor rays."""
    a1, a2 = q1[:, :1], q2[:, :1]
    e1 = stacked_cross(m1[:, :1], a1)
    e2 = stacked_cross(m2[:, :1], a2)
    q1, q2, m1, m2 = q1[:, 1:], q2[:, 1:], m1[:, 1:], m2[:, 1:]

    def bilinear(x, y):
        return np.einsum("kja,kab,kjb->kj", x, Rs, y)

    a = bilinear(q2, stacked_cross(a1, q1))
    b = bilinear(stacked_cross(a2, q2), q1)
    w = bilinear(q2, stacked_cross(e1, q1) + m1) + bilinear(stacked_cross(e2, q2) + m2, q1)
    return np.stack([a, b, w], axis=-1)


def _sample_residuals(q1, q2, m1, m2, Rs: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Generalized epipolar residuals ``-q2^T [t]x R q1 + q2^T R m1 + m2^T R
    q1`` of each pose of the stack ``(Rs, T)`` on the ``(K, N, 3)`` Pluecker
    rows of its sample, ``(K, N)``, each over ``|t| + |m1| + |m2|`` so that
    it does not depend on the scale of the rig."""
    Rq1 = (Rs[:, None] @ q1[..., None])[..., 0]
    Rm1 = (Rs[:, None] @ m1[..., None])[..., 0]
    r = stacked_dot(q2, Rm1 - stacked_cross(T[:, None], Rq1)) + stacked_dot(m2, Rq1)
    n1, n2 = (np.sqrt(stacked_dot(m, m)) for m in (m1, m2))
    return r / (np.sqrt(stacked_dot(T, T))[:, None] + n1 + n2)


def _solve_stack(rays: list[np.ndarray], c) -> list[list[RelativePose] | RelposeError]:
    """The poses of every sample of the ``(B, 5, 3)`` Pluecker rows, or the
    error that sample raises, solved as one stack."""
    n = len(rays[0])
    errors: dict[int, RelposeError] = {}
    flat = central(rays[2], rays[3])
    if flat.any():
        with recorded(errors, np.flatnonzero(flat).tolist()):
            raise ScaleUnobservable(
                "all ray moments vanish: a central configuration carries no translation scale"
            )
    ids = np.flatnonzero(~flat)
    if c.tau != 0.0:
        roots, sample = _roots(rays, ids, c, errors)
    else:
        roots, sample = np.zeros((ids.size, 3)), ids
    root_count = np.bincount(sample, minlength=n)
    keep, u = rescaled_roots(roots, c)
    sample = sample[keep]
    if lost := unsolved(n, sample, errors):
        with recorded(errors, lost):
            raise DegenerateConfiguration("no usable rotation candidates survived filtering")
    quats = unit_quaternions(c.sigma, u)
    Rs = rotation_stack(c.sigma, u)
    own = [r[sample] for r in rays]
    _, s, vt = np.linalg.svd(_depth_rows(*own, Rs))
    v = vt[:, -1]
    unobservable = (s[:, 1] <= SCALE_RANK_EPS * s[:, 0]) | (np.abs(v[:, 2]) < SCALE_COMPONENT_EPS)
    observable = np.flatnonzero(~unobservable)
    if lost := unsolved(n, sample[observable], errors):
        with recorded(errors, lost):
            raise ScaleUnobservable(
                "translation scale is unobservable for every rotation candidate"
            )
    v, Rs, own = v[observable], Rs[observable], [r[observable] for r in own]
    lam = v[:, 0] / v[:, 2]
    mu = v[:, 1] / v[:, 2]
    q1, q2, m1, m2 = (r[:, 0] for r in own)
    t1 = stacked_cross(m1, q1) + lam[:, None] * q1
    t2 = stacked_cross(m2, q2) + mu[:, None] * q2
    # The stacked matmul rounds as the per-root R @ t1 does.
    T = t2 - (Rs @ t1[:, :, None])[..., 0]
    if c.tau != 0.0:
        # A zero angle fixes the rotation, so there the sample
        # over-determines the pose.
        passed = residual_gate(_sample_residuals(*own, Rs, T))
        if not passed.all():
            keep = np.flatnonzero(passed)
            observable, Rs, T, lam, mu = observable[keep], Rs[keep], T[keep], lam[keep], mu[keep]
            if lost := unsolved(n, sample[observable], errors):
                with recorded(errors, lost):
                    raise DegenerateConfiguration("no candidate pose satisfies its own sample")
    poses = relative_poses(
        Rs,
        T,
        [quats[k] for k in observable.tolist()],
        depths=list(zip(lam.tolist(), mu.tolist())),
        root_count=root_count[sample[observable]].tolist(),
    )
    return by_sample(poses, sample[observable], n, errors)


def solve_gen5pt_angle(
    pairs: list[PluckerPair], theta: float, *, anchor: int = 0, samples=None
) -> list[RelativePose] | list[list[RelativePose]]:
    """All relative poses consistent with five Pluecker pairs and the rotation angle.

    Returns up to 44 poses with metric translation.  For each rotation
    candidate the depth pair of the anchor correspondence is recovered as the
    null vector of the stacked constraint rows, scaled so its inhomogeneous
    component is one; candidates whose scale is unobservable are dropped.

    With ``samples``, a ``(B, 5)`` index array into ``pairs``, the samples
    are solved as one stack and the result is one pose list per sample,
    empty where that sample raises a ``RelposeError``.
    """
    picked, n, c = GENERAL.sample_stack(pairs, theta, anchor, samples)
    return unstack(_solve_stack(_ray_rows(picked, n), c), samples)


def ray_arrays(pairs: list[PluckerPair]) -> tuple[np.ndarray, ...]:
    """Stacked rays ``(d1, o1, q2, c2)`` of the pairs, as ``ray_point_errors``
    takes them: first-view directions and origins ``m1 x q1``, second-view
    directions and origins ``m2 x q2`` in the second camera's frame."""
    q1 = np.array([p.q1 for p in pairs])
    q2 = np.array([p.q2 for p in pairs])
    m1 = np.array([p.m1 for p in pairs])
    m2 = np.array([p.m2 for p in pairs])
    return q1, stacked_cross(m1, q1), q2, stacked_cross(m2, q2)


def ray_point_errors(
    R: np.ndarray, t: np.ndarray, d1: np.ndarray, o1: np.ndarray, q2: np.ndarray, c2: np.ndarray
) -> np.ndarray:
    """Point-to-ray RMS distances of N correspondences under the pose ``(R, t)``,
    ``(N,)``, or under each pose of a ``(K, 3, 3)``, ``(K, 3)`` stack,
    ``(K, N)`` with each row as the single pose gives it.

    ``d1``, ``o1``, ``q2`` and ``c2`` are ``(N, 3)`` arrays as returned by
    ``ray_arrays``.  The second-view rays are moved into the first frame.
    The point minimizing the summed squared distance to two skew rays is
    the midpoint of their common perpendicular, so both distances, and
    their RMS, are half the line-to-line distance
    ``|(o2 - o1) . n| / (2 |n|)`` with ``n = d1 x d2``; the result is +inf
    where the rays are parallel.
    """
    o2 = (c2 - t[..., None, :]) @ R
    d2 = q2 @ R
    gram = np.einsum("...ij,...ij->...i", d1, d2)
    parallel = 1.0 - gram**2 <= 1e-12
    n = np.cross(d1, d2)
    # |n| times the distance between the lines.
    scaled_gap = np.abs(np.einsum("...ij,...ij->...i", o2 - o1, n))
    norm = np.sqrt(np.einsum("...ij,...ij->...i", n, n))
    return np.divide(scaled_gap, 2.0 * norm, out=np.full_like(scaled_gap, np.inf), where=~parallel)


def ray_point_error(pose: RelativePose, pair: PluckerPair) -> float:
    """RMS of the two distances from the rays to the point closest to both,
    which is half the length of the rays' common perpendicular.  Raises
    ``SkewDegenerate`` for parallel rays."""
    err = float(ray_point_errors(pose.R, pose.t, *ray_arrays([pair]))[0])
    if not np.isfinite(err):
        raise SkewDegenerate("rays are parallel; the correspondence cannot be triangulated")
    return err
