"""RANSAC hypothesize-and-test wrapper over either minimal solver, and the
outlier-contaminated benchmark harness."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NoHypothesis, RelposeError
from .geom import BearingPair, PluckerPair, RelativePose, rotation_angle
from .solver_gen5 import ray_arrays, ray_point_errors, solve_gen5pt_angle
from .solver_reg4 import sampson_errors, solve_4pt_angle
from .synth import SceneConfig, _random_in_ball, _unit, generate_scene

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
    seed: int = 0
    keep_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.inlier_threshold < math.inf:
            raise ValueError("inlier_threshold must be positive and finite")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class RansacResult:
    pose: RelativePose
    inlier_mask: np.ndarray
    iterations: int
    n_hypotheses: int
    trace: tuple[int, ...] | None = None

    @property
    def inlier_count(self) -> int:
        return int(np.count_nonzero(self.inlier_mask))


def _score(kind: str, pose: RelativePose, rays: tuple[np.ndarray, ...]) -> np.ndarray:
    if kind == "reg4":
        return sampson_errors(pose.R, pose.t, *rays)
    return ray_point_errors(pose.R, pose.t, *rays)


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
            continue
        for pose in poses:
            n_hypotheses += 1
            errors = _score(kind, pose, rays)
            mask = errors < cfg.inlier_threshold
            count = int(np.count_nonzero(mask))
            total = float(np.sum(errors[mask])) if count else math.inf
            if count > best_count or (count == best_count and total < best_score):
                best_pose, best_mask, best_count, best_score = pose, mask, count, total
            if cfg.keep_trace:
                trace.append(best_count)
        if best_count > 0:
            w = best_count / n
            p_good = w**sample_size
            if p_good >= 1.0:
                break
            needed = math.log(1.0 - cfg.confidence) / math.log(1.0 - p_good)
            if iterations >= needed:
                break
    if best_pose is None:
        raise NoHypothesis("every sampled minimal subset failed to produce a pose")
    return RansacResult(
        pose=best_pose,
        inlier_mask=best_mask,
        iterations=iterations,
        n_hypotheses=n_hypotheses,
        trace=tuple(trace) if cfg.keep_trace else None,
    )


@dataclass(frozen=True)
class RansacTrialRecord:
    """Per-trial outcome of a contaminated robust-estimation run."""

    trial: int
    rot_err: float
    t_ang_err_deg: float
    scale_rel_err: float
    inlier_count: int
    recall: float
    precision: float
    iterations: int
    no_hypothesis: bool
    solve_ms: float


def inlier_precision_recall(returned: np.ndarray, true: np.ndarray) -> tuple[float, float]:
    """Shares of the returned inliers that are true inliers (precision) and of
    the true inliers that were returned (recall); 0 when the set is empty."""
    hits = np.count_nonzero(returned & true)
    return hits / max(1, np.count_nonzero(returned)), hits / max(1, np.count_nonzero(true))


def _corrupt(observations, truth, cfg: SceneConfig, outlier_frac: float, rng):
    """Replace a fraction of correspondences with mismatched second-view rays."""
    n = len(observations)
    n_out = int(round(outlier_frac * n))
    out = list(observations)
    chosen = rng.choice(n, size=n_out, replace=False) if n_out else np.array([], dtype=int)
    half_w = cfg.image_width / (2.0 * cfg.focal_px)
    half_h = cfg.image_height / (2.0 * cfg.focal_px)
    z_lo = cfg.distance_to_scene - cfg.scene_depth / 2.0
    z_hi = cfg.distance_to_scene + cfg.scene_depth / 2.0
    for i in chosen:
        # A geometrically valid but unrelated ray in the second view.
        z = rng.uniform(z_lo, z_hi)
        wrong = np.array([z * rng.uniform(-half_w, half_w), z * rng.uniform(-half_h, half_h), z])
        pair = out[i]
        if isinstance(pair, PluckerPair):
            o2 = _random_in_ball(rng, cfg.multi_center_radius)
            d2 = _unit(wrong - o2)
            out[i] = PluckerPair(q1=pair.q1, q2=d2, m1=pair.m1, m2=np.cross(d2, o2))
        else:
            out[i] = BearingPair(q1=pair.q1, q2=_unit(wrong))
    inlier_mask = np.ones(n, dtype=bool)
    inlier_mask[chosen] = False
    return out, inlier_mask


def run_ransac_trials(
    solver: str,
    cfg: SceneConfig,
    ransac_cfg: RansacConfig,
    n_trials: int,
    n_obs: int,
    outlier_frac: float,
    noise_px: float = 0.0,
    angle_noise_sigma: float = 0.0,
) -> list[RansacTrialRecord]:
    """Robust-estimation benchmark on scenes contaminated with outliers."""
    from .synth import add_angle_noise, add_image_noise, rotation_error, translation_errors

    if solver not in ("reg4", "gen5"):
        raise ValueError(f"unknown solver {solver!r}")
    generalized = solver == "gen5"
    base = replace(cfg, generalized=generalized)
    records = []
    children = np.random.SeedSequence(cfg.seed).spawn(n_trials)
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        truth, pairs = generate_scene(base, n_obs, rng=rng)
        noisy = add_image_noise(pairs, noise_px, base, rng)
        observed, true_inliers = _corrupt(noisy, truth, base, outlier_frac, rng)
        theta_in = add_angle_noise(rotation_angle(truth.R), angle_noise_sigma, rng)
        trial_cfg = replace(ransac_cfg, seed=int(rng.integers(0, 2**63 - 1)))
        start = time.perf_counter()
        try:
            result = ransac_estimate(observed, theta_in, trial_cfg, solver)
        except (NoHypothesis, RelposeError):
            records.append(
                RansacTrialRecord(idx, math.inf, math.inf, math.inf, 0, 0.0, 0.0, 0, True,
                                  (time.perf_counter() - start) * 1e3)
            )
            continue
        elapsed_ms = (time.perf_counter() - start) * 1e3
        rot = rotation_error([result.pose], truth.R)
        ang, scale = translation_errors([result.pose], truth.t, with_scale=generalized)
        precision, recall = inlier_precision_recall(result.inlier_mask, true_inliers)
        records.append(
            RansacTrialRecord(
                trial=idx,
                rot_err=rot,
                t_ang_err_deg=ang,
                scale_rel_err=scale,
                inlier_count=result.inlier_count,
                recall=recall,
                precision=precision,
                iterations=result.iterations,
                no_hypothesis=False,
                solve_ms=elapsed_ms,
            )
        )
    return records


def summarize_ransac(records: list[RansacTrialRecord]) -> dict[str, float]:
    """Mean of every metric over the successful trials, plus the failure rate."""
    ok = [r for r in records if not r.no_hypothesis]
    out = {"no_hypothesis_rate": (len(records) - len(ok)) / max(1, len(records))}
    for metric in ("rot_err", "t_ang_err_deg", "scale_rel_err", "inlier_count", "recall",
                   "precision", "iterations", "solve_ms"):
        vals = [getattr(r, metric) for r in ok]
        vals = [v for v in vals if not (isinstance(v, float) and math.isnan(v))]
        out[f"mean_{metric}"] = float(np.mean(vals)) if vals else math.nan
    return out
