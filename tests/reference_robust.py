"""The sequential RANSAC loop, kept as the oracle of ``ransac_estimate``:
one minimal sample drawn, solved and scored at a time, one pose at a time,
in the rounds of ``ransac_estimate``, and for reg4 the same Gauss-Newton
step on each round's best where that round raised the best inlier count."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from relpose import robust
from relpose.exceptions import NoHypothesis, RelposeError
from relpose.geom import BearingPair, PluckerPair, RelativePose, UnitQuaternion
from relpose.robust import RansacConfig, RansacResult
from relpose.poly import _ray_stack
from relpose.solver_gen5 import point_rays, ray_point_errors, solve_gen5pt_angle
from relpose.solver_reg4 import epipolar_step, sampson_errors, solve_4pt_angle


def _score(kind: str, R: np.ndarray, t: np.ndarray, rays: tuple[np.ndarray, ...]) -> np.ndarray:
    if kind == "reg4":
        return sampson_errors(R, t, *rays)
    return ray_point_errors(R, t, *rays)


def loop_ransac_estimate(
    observations: list[BearingPair] | list[PluckerPair],
    theta: float,
    cfg: RansacConfig,
    kind: str,
) -> RansacResult:
    """Best-consensus pose over randomly sampled minimal subsets.

    Ties on the inlier count are broken by the lower total score over the
    inliers.  Iterations stop early once the standard confidence bound on the
    best inlier ratio is met.  The samples come in rounds of at most
    ``robust.BATCH_LIMIT``, the cap doubling after each round up to
    ``robust.ROUND_LIMIT`` (both read at call time), each round cut to the
    samples that the bound and ``max_iterations`` still allow.  A reg4 round
    that raised the best inlier count ends with one
    ``solver_reg4.epipolar_step`` on the best pose's inliers; the stepped
    pose replaces it if it scores better on every observation.
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
        rays = point_rays(_ray_stack(observations, "q1", "q2", "m1", "m2"))

    def needed_for(count: int) -> float:
        p_good = (count / n) ** sample_size
        if p_good >= 1.0:
            return 0.0
        return math.log(1.0 - cfg.confidence) / math.log1p(-p_good)

    best_pose: RelativePose | None = None
    best_mask = None
    best_count = -1
    best_score = math.inf
    n_hypotheses = 0
    iterations = 0
    needed = math.inf
    cap = robust.BATCH_LIMIT
    while iterations < cfg.max_iterations and iterations < needed:
        size = min(cap, cfg.max_iterations - iterations)
        if needed < math.inf:
            size = min(size, math.ceil(needed) - iterations)
        cap = min(2 * cap, robust.ROUND_LIMIT)
        before = best_count
        for _ in range(size):
            iterations += 1
            idx = rng.choice(n, size=sample_size, replace=False)
            subset = [observations[i] for i in idx]
            try:
                poses = solve(subset, theta)
            except RelposeError:
                # The stopping bound is checked after a failed sample too.
                poses = []
            for pose in poses:
                n_hypotheses += 1
                errors = _score(kind, pose.R, pose.t, rays)
                mask = errors < cfg.inlier_threshold
                count = int(np.count_nonzero(mask))
                total = float(np.sum(errors[mask])) if count else math.inf
                if count > best_count or (count == best_count and total < best_score):
                    best_pose, best_mask, best_count, best_score = pose, mask, count, total
            if best_count > 0:
                needed = needed_for(best_count)
                if iterations >= needed:
                    break
        if kind == "reg4" and best_count > before:
            q = best_pose.quat
            stepped = epipolar_step(
                best_pose.R, best_pose.t, q.sigma, q.u, rays[0][best_mask], rays[1][best_mask]
            )
            if stepped is None:
                continue
            R, t, u = stepped
            errors = _score(kind, R, t, rays)
            mask = errors < cfg.inlier_threshold
            count = int(np.count_nonzero(mask))
            total = float(np.sum(errors[mask]))
            if count > best_count or (count == best_count and total < best_score):
                best_pose = replace(best_pose, R=R, t=t, quat=UnitQuaternion(q.sigma, u))
                best_mask, best_count, best_score = mask, count, total
                needed = needed_for(count)
    if best_pose is None:
        raise NoHypothesis("every sampled minimal subset failed to produce a pose")
    return RansacResult(
        pose=best_pose,
        inlier_mask=best_mask,
        iterations=iterations,
        n_hypotheses=n_hypotheses,
    )
