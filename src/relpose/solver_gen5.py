"""Minimal 5-point solver for calibrated generalized cameras with a known
relative rotation angle, including metric translation recovery, plus the
point-to-ray scoring function used by the robust estimator."""

from __future__ import annotations

import sys

import numpy as np

from .exceptions import ScaleUnobservable
from .gbsolver import (
    GENERAL,
    SamplePoses,
    _svd_or_nan,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    polish_roots,
    quotient_basis_from_pivots,
    residual_gate,
    rref_conditioned,
    solve,
)
from .geom import (
    PluckerPair,
    RelativePose,
    _constant,
    c_einsum,
    concatenate,
    count_nonzero,
    line_points,
    stacked_cross,
    stacked_dot,
)
from .poly import build_g_polynomials

# All moments below this norm mean a purely central configuration, which
# the screen of a solve and ``point_rays`` both reject with ``_CENTRAL``.
CENTRAL_MOMENT_EPS = _constant(1e-12)
_CENTRAL = "all ray moments vanish: a central configuration carries no translation scale"

# Depth-system singular values: scale is unobservable when the second singular
# value collapses relative to the first, or when the null vector has no
# inhomogeneous component.
SCALE_RANK_EPS = _constant(1e-10)
SCALE_COMPONENT_EPS = _constant(1e-10)
_NO_SCALE = "translation scale is unobservable for every rotation candidate"

# The layers are called through this module's attributes.
_LAYERS = sys.modules[__name__]

# The view of each of ``_depth_rows``' crosses, and the factors of its
# forms: the left ones, then the right ones.
_VIEWS, _FACTORS = np.array([0, 1, 0, 1]), np.array([1, 3, 1, 5, 2, 0, 4, 0])


def _central(moments: np.ndarray) -> np.ndarray:
    """Which of the ``(2, ..., N, 3)`` moment rows ``m1``, ``m2`` all vanish:
    a central configuration, which carries no translation scale."""
    return np.maximum.reduce(np.sqrt(stacked_dot(moments, moments)), (0, -1)) < CENTRAL_MOMENT_EPS


def _screen(rays: np.ndarray, losses) -> None:
    """Lose the samples of the ``(4, B, 5, 3)`` Pluecker rows that are
    ``_central``."""
    central = _central(rays[2:])
    if count_nonzero(central):
        losses.lose(central, ScaleUnobservable(_CENTRAL))


def _depth_rows(rays: np.ndarray, e: np.ndarray, sample: np.ndarray, Rs: np.ndarray) -> np.ndarray:
    """Constraint rows on (lambda, mu, 1) for anchor 0, one (4, 3) block per
    rotation of the ``(K, 3, 3)`` stack ``Rs``, from the rows of its sample
    ``sample[k]`` of the ``(4, B, 5, 3)`` Pluecker rows ``rays``, whose
    anchor lines pass nearest the origin at ``e``, ``(2, B, 3)``; every
    entry is a bilinear form ``x @ R @ y`` in the non-anchor rays."""
    anchors, others = rays[:2, :, :1], rays[:, :, 1:]
    # [q1, q2, a1 x q1, a2 x q2, e1 x q1 + m1, e2 x q2 + m2] of the others,
    # per sample, then per rotation.
    crosses = stacked_cross(concatenate([anchors, e[:, :, None]]), others.take(_VIEWS, 0))
    crosses[2:] += others[2:]
    factors = concatenate([others[:2], crosses]).take(_FACTORS, 0).take(sample, 1)
    # The forms of a, of b and of the two terms of w, at once.
    forms = c_einsum("ikja,kab,ikjb->kji", factors[:4], Rs, factors[4:])
    rows = forms[..., :3].copy()
    rows[..., 2] += forms[..., 3]
    return rows


def _sample_residuals(rays: np.ndarray, sample: np.ndarray, Rs: np.ndarray, T) -> np.ndarray:
    """Generalized epipolar residuals ``-q2^T [t]x R q1 + q2^T R m1 + m2^T R
    q1`` of each pose of the stack ``(Rs, T)`` on the rows of its sample
    ``sample[k]`` of the ``(4, B, N, 3)`` Pluecker rows ``rays``, ``(K,
    N)``, each over ``|t| + |m1| + |m2|`` so that it does not depend on the
    scale of the rig."""
    own = rays.take(sample, 1)
    Rq1, Rm1 = (Rs[:, None] @ own[::2, ..., None])[..., 0]
    r = stacked_dot(own[1], Rm1 - stacked_cross(T[:, None], Rq1)) + stacked_dot(own[3], Rq1)
    n1, n2 = np.sqrt(stacked_dot(rays[2:], rays[2:])).take(sample, 1)
    return r / (np.sqrt(stacked_dot(T, T))[:, None] + n1 + n2)


def _poses(rays: np.ndarray, sample: np.ndarray, u: np.ndarray, Rs: np.ndarray, c, losses):
    """The pose rule of ``gbsolver.solve`` for the ``(4, B, 5, 3)`` Pluecker
    rows: each rotation's metric translation from the anchor depths that its
    sample's depth rows determine, where they do, gated."""
    # The points nearest the origin on each sample's anchor lines.
    anchors, e = rays[:2, :, 0], line_points(rays[:, :, 0])
    _, s, vt = _svd_or_nan(_depth_rows(rays, e, sample, Rs))
    v = vt[:, -1]
    # Negated, so that a NaN from a decomposition that did not converge fails.
    observable = (s[:, 1] > SCALE_RANK_EPS * s[:, 0]) & (np.abs(v[:, 2]) >= SCALE_COMPONENT_EPS)
    observable = observable.nonzero()[0]
    sample = sample.take(observable)
    losses.lose(losses.unowned(sample), ScaleUnobservable(_NO_SCALE))
    v, Rs, u = v.take(observable, 0), Rs.take(observable, 0), u.take(observable, 0)
    depths = v[:, :2] / v[:, 2:]
    t1, t2 = e.take(sample, 1) + depths.T[:, :, None] * anchors.take(sample, 1)
    # The stacked matmul rounds as the per-root R @ t1 does.
    T = t2 - (Rs @ t1[:, :, None])[..., 0]
    keep = residual_gate(_sample_residuals(rays, sample, Rs, T), sample, c, losses)
    return Rs[keep], T[keep], u[keep], sample[keep], {"depths": depths[keep]}


def solve_gen5pt_angle(
    pairs: list[PluckerPair], theta: float, *, samples=None
) -> list[RelativePose] | SamplePoses:
    """All relative poses consistent with five Pluecker pairs and the rotation angle.

    Returns up to 44 poses with metric translation.  For each rotation
    candidate the depth pair of the anchor correspondence, the first pair,
    is recovered as the null vector of the stacked constraint rows, scaled
    so its inhomogeneous component is one; candidates whose scale is
    unobservable are dropped.  The pairs in any cyclic order, ``pairs[k:] +
    pairs[:k]``, yield the same solution set.

    With ``samples``, a ``(B, 5)`` array of integer indices into ``pairs``
    (or their ``gbsolver.RayTable``), the samples are solved as one stack
    and the result is their ``SamplePoses``: the poses of every sample as
    rows of arrays.  The stack refines its roots less than a single solve:
    one inverse-iteration step per eigenvector instead of two, and no
    polishing.  So a sample's rows are bit for bit the poses of a single
    solve of it refined alike, and it has none where such a solve raises a
    ``RelposeError``.  An index that is negative, not below ``len(pairs)``
    or not an integer raises ``ValueError``.
    """
    return solve(_LAYERS, GENERAL, build_g_polynomials, _screen, _poses, pairs, theta, samples)


def point_rays(rays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rays ``(d1, o1, q2, c2)`` of the ``(4, N, 3)`` Pluecker rows ``q1,
    q2, m1, m2``: first-view directions and origins ``m1 x q1``, second-view
    directions and origins ``m2 x q2`` in the second camera's frame.  Rows
    whose moments all vanish, a central configuration, carry no translation
    scale to score and raise ``ScaleUnobservable``."""
    if _central(rays[2:]):
        raise ScaleUnobservable(_CENTRAL)
    o1, o2 = line_points(rays)
    return rays[0], o1, rays[1], o2


def ray_point_errors(
    R: np.ndarray, t: np.ndarray, d1: np.ndarray, o1: np.ndarray, q2: np.ndarray, c2: np.ndarray
) -> np.ndarray:
    """Point-to-ray RMS distances of N correspondences under the pose ``(R, t)``,
    ``(N,)``, or under each pose of a ``(K, 3, 3)``, ``(K, 3)`` stack,
    ``(K, N)`` with each row as the single pose gives it.

    ``d1``, ``o1``, ``q2`` and ``c2`` are ``(N, 3)`` arrays as returned by
    ``point_rays``.  The second-view rays are moved into the first frame.
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
    n = stacked_cross(d1, d2)
    # |n| times the distance between the lines.
    scaled_gap = np.abs(np.einsum("...ij,...ij->...i", o2 - o1, n))
    norm = np.sqrt(np.einsum("...ij,...ij->...i", n, n))
    return np.divide(scaled_gap, 2.0 * norm, out=np.full_like(scaled_gap, np.inf), where=~parallel)

