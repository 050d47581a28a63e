"""The sequential RANSAC loop, kept as the oracle of ``ransac_estimate``:
one minimal sample drawn, solved and scored at a time, one pose at a time."""

from __future__ import annotations

import math

import numpy as np

from relpose.exceptions import NoHypothesis, RelposeError
from relpose.geom import BearingPair, PluckerPair, RelativePose
from relpose.robust import RansacConfig, RansacResult
from relpose.solver_gen5 import ray_arrays, ray_point_errors, solve_gen5pt_angle
from relpose.solver_reg4 import sampson_errors, solve_4pt_angle


def _score(kind: str, pose: RelativePose, rays: tuple[np.ndarray, ...]) -> np.ndarray:
    if kind == "reg4":
        return sampson_errors(pose.R, pose.t, *rays)
    return ray_point_errors(pose.R, pose.t, *rays)


def loop_ransac_estimate(
    observations: list[BearingPair] | list[PluckerPair],
    theta: float,
    cfg: RansacConfig,
    kind: str,
) -> RansacResult:
    """Best-consensus pose over randomly sampled minimal subsets.

    Ties on the inlier count are broken by the lower total score over the
    inliers.  Iterations stop early once the standard confidence bound on the
    best inlier ratio is met.
    """
    if kind not in ("reg4", "gen5"):
        raise ValueError(f"unknown solver kind {kind!r}")
    sample_size = 4 if kind == "reg4" else 5
    n = len(observations)
    if n < sample_size:
        raise ValueError(f"at least {sample_size} observations required, got {n}")
    rng = np.random.default_rng(cfg.seed)
    solve = solve_4pt_angle if kind == "reg4" else solve_gen5pt_angle
    # Stacked once per call; each hypothesis only moves them by its pose.
    if kind == "reg4":
        rays = (np.array([o.q1 for o in observations]), np.array([o.q2 for o in observations]))
    else:
        rays = ray_arrays(observations)

    best_pose = None
    best_mask = None
    best_count = -1
    best_score = math.inf
    n_hypotheses = 0
    trace: list[int] = []
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        idx = rng.choice(n, size=sample_size, replace=False)
        subset = [observations[i] for i in idx]
        try:
            poses = solve(subset, theta)
        except RelposeError:
            # The stopping bound is checked after a failed sample too.
            poses = []
        for pose in poses:
            n_hypotheses += 1
            errors = _score(kind, pose, rays)
            mask = errors < cfg.inlier_threshold
            count = int(np.count_nonzero(mask))
            total = float(np.sum(errors[mask])) if count else math.inf
            if count > best_count or (count == best_count and total < best_score):
                best_pose, best_mask, best_count, best_score = pose, mask, count, total
            trace.append(best_count)
        if best_count > 0:
            w = best_count / n
            p_good = w**sample_size
            if p_good >= 1.0:
                break
            needed = math.log(1.0 - cfg.confidence) / math.log1p(-p_good)
            if iterations >= needed:
                break
    if best_pose is None:
        raise NoHypothesis("every sampled minimal subset failed to produce a pose")
    return RansacResult(
        pose=best_pose,
        inlier_mask=best_mask,
        iterations=iterations,
        n_hypotheses=n_hypotheses,
        trace=tuple(trace),
    )
