"""RANSAC hypothesize-and-test wrapper over either minimal solver: minimal
samples solved as stacks in rounds, scored in one call, and, for reg4, a
local optimization of each round's best.  The benchmark harness that runs
it over outlier-contaminated scenes is ``synth.run_ransac_trials``."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NoHypothesis, ScaleUnobservable
from .geom import BearingPair, PluckerPair, RelativePose, UnitQuaternion, is_integer
from .gbsolver import GENERAL, REGULAR, RayTable
from .solver_gen5 import _CENTRAL, central, point_rays, ray_point_errors, solve_gen5pt_angle
from .solver_reg4 import epipolar_step, sampson_errors, solve_4pt_angle

# Default inlier thresholds: squared pixels for the Sampson score of central
# cameras, scene units of point-to-ray RMS distance for generalized cameras.
DEFAULT_SAMPSON_PX2 = 1.5
DEFAULT_POINT_RAY_THRESHOLD = 0.01


def sampson_threshold_from_pixels(px2: float, focal_px: float) -> float:
    """Convert a squared-pixel Sampson threshold to bearing-vector units."""
    return px2 / focal_px**2


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 1000
    inlier_threshold: float = 0.0
    confidence: float = 0.99
    seed: int | None = 0

    def __post_init__(self):
        if not 0.0 < self.inlier_threshold < math.inf:
            raise ValueError("inlier_threshold must be positive and finite")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if not is_integer(self.max_iterations) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if self.seed is not None and not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be None or an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class RansacResult:
    pose: RelativePose
    inlier_mask: np.ndarray
    iterations: int
    n_hypotheses: int
    # The best inlier count after each hypothesis, in the order weighed.
    trace: tuple[int, ...]

    @property
    def inlier_count(self) -> int:
        return int(np.count_nonzero(self.inlier_mask))


# Most minimal samples the first round of ``ransac_estimate`` solves as one
# stack; the cap doubles after every round, up to ROUND_LIMIT.  An early weak
# consensus asks for far more samples than the stop that a better one soon
# brings, but a solver call costs as much as several more samples in its
# stack.  Past ROUND_LIMIT a stack saves little call cost and its memory
# keeps growing, by about 0.2 MB per gen5 sample.
BATCH_LIMIT = 8
ROUND_LIMIT = 64

_KINDS = {"reg4": (BearingPair, REGULAR), "gen5": (PluckerPair, GENERAL)}


def ransac_estimate(
    observations: list[BearingPair] | list[PluckerPair],
    theta: float,
    cfg: RansacConfig,
    kind: str,
) -> RansacResult:
    """Best-consensus pose over randomly sampled minimal subsets.

    Ties on the inlier count are broken by the lower total score over the
    inliers.  Iterations stop early once the standard confidence bound on the
    best inlier ratio is met.

    The samples are drawn and solved in rounds of at most ``BATCH_LIMIT``
    at first, the cap doubling after each round up to ``ROUND_LIMIT``, and
    the stopping bound and ``max_iterations`` cap every round too.  A
    round is one solve on the observations' ``RayTable``; its poses come
    back as arrays (``SamplePoses``) and are scored in one call; only the
    winner becomes a ``RelativePose``.  Hypotheses are weighed and the
    stopping rule applied sample by sample, also after a sample that yields
    no pose, and the samples of a round past the stop are discarded.

    A reg4 round whose hypotheses raised the best inlier count ends with a
    local optimization of its best (Chum, Matas and Kittler, "Locally
    optimized RANSAC", DAGM 2003): one ``epipolar_step`` on the inliers,
    the angle held.  The stepped pose replaces the best if it scores more
    inliers on all observations, or as many with a lower total, and then the
    stopping bound is recomputed from its count before the next round is
    sized.  A stepped winner keeps the diagnostics of its hypothesis.  gen5
    takes no step: its score accepts outliers that a least-squares step
    would fit.  So the result is that of solving one sample at a time, in
    these rounds, with a step at each round's end.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown solver kind {kind!r}")
    pair_type, problem = _KINDS[kind]
    if not all(isinstance(o, pair_type) for o in observations):
        raise ValueError(f"{kind} RANSAC takes {pair_type.__name__} observations")
    sample_size = problem.sample_size
    n = len(observations)
    if n < sample_size:
        raise ValueError(f"at least {sample_size} observations required, got {n}")
    # Stacked once per call: every round's solve indexes the table, and each
    # hypothesis only moves the rays by its pose.
    table = RayTable(observations, problem.ray_names)
    if kind == "reg4":
        rays = table.rays
        solve, score = solve_4pt_angle, sampson_errors
    else:
        if central(table.rays[2:]):
            raise ScaleUnobservable(_CENTRAL)
        rays = point_rays(*table.rays)
        solve, score = solve_gen5pt_angle, ray_point_errors
    rng = np.random.default_rng(cfg.seed)
    log_miss = math.log(1.0 - cfg.confidence)

    def bound(count: int) -> float:
        """Samples the confidence bound asks for at ``count`` inliers."""
        p_good = (count / n) ** sample_size
        return log_miss / math.log1p(-p_good) if p_good < 1.0 else 0.0

    # The best hypothesis, as its answer and row, and its stepped pose
    # ``(R, t, u)`` once a step has beaten it.
    best = best_mask = None
    best_count, best_score = -1, math.inf
    trace: list[int] = []
    n_hypotheses = iterations = 0
    needed = math.inf
    cap = BATCH_LIMIT
    while iterations < cfg.max_iterations and iterations < needed:
        size = min(cap, cfg.max_iterations - iterations)
        if needed < math.inf:
            # The bound is checked after every sample, so it is not met yet.
            size = min(size, math.ceil(needed) - iterations)
        cap = min(2 * cap, ROUND_LIMIT)
        samples = np.array([rng.choice(n, size=sample_size, replace=False) for _ in range(size)])
        answer = solve(table, theta, samples=samples)
        bounds = answer.bounds
        if bounds[-1]:
            errors = score(answer.R, answer.t, *rays)
            masks = errors < cfg.inlier_threshold
            counts = np.count_nonzero(masks, axis=1).tolist()
        before = best_count
        for s in range(size):
            iterations += 1
            for h in range(bounds[s], bounds[s + 1]):
                n_hypotheses += 1
                count = counts[h]
                if count >= best_count:
                    mask = masks[h]
                    total = float(errors[h][mask].sum()) if count else math.inf
                    if count > best_count or total < best_score:
                        best, best_mask = (answer, h, None), mask
                        best_count, best_score = count, total
                trace.append(best_count)
            if best_count > 0:
                needed = bound(best_count)
                if iterations >= needed:
                    break
        if kind == "reg4" and best_count > before:
            # Local optimization of the round's best (LO-RANSAC): one step
            # on its inliers, kept if it scores better on all observations.
            owner, row, _ = best
            stepped = epipolar_step(
                owner.R[row], owner.t[row], owner.sigma, owner.u[row], *(r[best_mask] for r in rays)
            )
            if stepped is not None:
                errors = score(stepped[0], stepped[1], *rays)
                mask = errors < cfg.inlier_threshold
                count = int(np.count_nonzero(mask))
                total = float(errors[mask].sum())
                if count > best_count or (count == best_count and total < best_score):
                    best, best_mask = (owner, row, stepped), mask
                    best_count, best_score = count, total
                    needed = bound(count)
    if best is None:
        raise NoHypothesis("every sampled minimal subset failed to produce a pose")
    answer, row, stepped = best
    pose = answer.poses(row, row + 1)[0]
    if stepped is not None:
        R, t, u = stepped
        pose = replace(pose, R=R, t=t, quat=UnitQuaternion(answer.sigma, u))
    return RansacResult(
        pose=pose,
        inlier_mask=best_mask,
        iterations=iterations,
        n_hypotheses=n_hypotheses,
        trace=tuple(trace),
    )
