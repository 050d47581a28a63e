"""Synthetic scene, motion, noise and outlier generation, error metrics, and
the benchmark harness: one trial loop that drives either minimal solver
(``run_trials``) or RANSAC over outlier-contaminated scenes
(``run_ransac_trials``), one trial record for both, and one summary."""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import EmptyCandidates, RelposeError, RetryExhausted
from .geom import (
    BearingPair,
    PluckerPair,
    RelativePose,
    UnitQuaternion,
    is_integer,
    quat_to_rotation,
    rotation_angle,
    stacked_cross,
)
from .robust import RansacConfig, ransac_estimate, solver_named

# Ground-truth rotation magnitude is drawn from this range when not fixed.
THETA_RANGE_RAD = (math.radians(5.0), math.radians(60.0))

# Rotation axes are redrawn until the nominal scene center stays at least this
# far inside the second view's frustum (fraction of the half field of view).
VISIBILITY_MARGIN = 0.8

_POINT_RETRIES = 1000
_AXIS_RETRIES = 1000

ANGLE_CLAMP_EPS = 1e-9


@dataclass(frozen=True)
class SceneConfig:
    """Geometry of the synthetic two-view setup."""

    distance_to_scene: float = 1.0
    scene_depth: float = 0.5
    baseline: float = 0.1
    image_width: int = 752
    image_height: int = 480
    fov_deg: float = 60.0
    motion: str = "forward"
    multi_center_radius: float = 0.05
    generalized: bool = False
    theta_rad: float | None = None
    seed: int | None = 0

    def __post_init__(self):
        for name in ("distance_to_scene", "scene_depth", "baseline", "image_width",
                     "image_height", "fov_deg", "multi_center_radius"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.theta_rad is not None and not 0.0 <= self.theta_rad < math.pi:
            raise ValueError(f"theta_rad must lie in [0, pi), got {self.theta_rad!r}")
        if self.motion not in ("forward", "sideways"):
            raise ValueError(f"motion must be 'forward' or 'sideways', got {self.motion!r}")
        if self.seed is not None and not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be None or an integer >= 0, got {self.seed!r}")

    @property
    def focal_px(self) -> float:
        return self.image_width / (2.0 * math.tan(math.radians(self.fov_deg) / 2.0))


@dataclass(frozen=True)
class TrialRecord:
    """One benchmark trial of either harness: the true angle, the errors of
    the returned poses (+inf where the trial failed), the solve time, and
    ``failure``, the class name of the ``RelposeError`` that the trial
    raised, or empty.  A minimal-solver trial counts its roots and poses, a
    RANSAC trial its inliers, their recall and precision, and its
    iterations; a field that the trial does not measure is NaN."""

    trial: int
    theta_rad: float
    rot_err: float
    t_ang_err_deg: float
    scale_rel_err: float
    solve_ms: float
    failure: str = ""
    root_count: float = math.nan
    n_poses: float = math.nan
    inlier_count: float = math.nan
    recall: float = math.nan
    precision: float = math.nan
    iterations: float = math.nan


# The fields that ``summarize`` reports, in record order.
METRICS = ("rot_err", "t_ang_err_deg", "scale_rel_err", "root_count", "n_poses", "inlier_count",
           "recall", "precision", "iterations")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def _random_in_ball(rng, radius: float) -> np.ndarray:
    return radius * rng.uniform() ** (1.0 / 3.0) * _random_unit(rng)


def _in_frustum(v: np.ndarray, cfg: SceneConfig, margin: float = 1.0) -> bool:
    if v[2] <= 0.0:
        return False
    half_w = margin * cfg.image_width / (2.0 * cfg.focal_px)
    half_h = margin * cfg.image_height / (2.0 * cfg.focal_px)
    return abs(v[0] / v[2]) <= half_w and abs(v[1] / v[2]) <= half_h


def _slab(cfg: SceneConfig) -> tuple[float, float, float, float]:
    """The first view's frustum slab where scene points lie: the half width
    and half height of the image at unit depth, and the nearest and
    farthest depth."""
    half_depth = cfg.scene_depth / 2.0
    return (cfg.image_width / (2.0 * cfg.focal_px), cfg.image_height / (2.0 * cfg.focal_px),
            cfg.distance_to_scene - half_depth, cfg.distance_to_scene + half_depth)


def generate_scene(
    cfg: SceneConfig, n_points: int, rng: np.random.Generator | None = None
) -> tuple[RelativePose, list[BearingPair] | list[PluckerPair]]:
    """Ground-truth pose and correspondences for one synthetic trial.

    Points are drawn uniformly in the first view's frustum slab at the
    configured distance and depth, subject to visibility in both views.  The
    second camera center is displaced by the baseline along the optical axis
    (forward) or perpendicular to it (sideways) and rotated by the
    ground-truth angle about a visibility-screened random axis.  Generalized
    mode emits one Pluecker pair per point with per-ray optical centers drawn
    in balls around both camera centers.
    """
    if n_points < (5 if cfg.generalized else 4):
        raise ValueError("too few points for the selected camera model")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    theta = cfg.theta_rad if cfg.theta_rad is not None else rng.uniform(*THETA_RANGE_RAD)
    if cfg.motion == "forward":
        c2 = np.array([0.0, 0.0, cfg.baseline])
    else:
        c2 = np.array([cfg.baseline, 0.0, 0.0])
    center = np.array([0.0, 0.0, cfg.distance_to_scene])

    sigma = math.cos(theta / 2.0)
    v = (center - c2).tolist()
    for _ in range(_AXIS_RETRIES):
        u = math.sin(theta / 2.0) * _random_unit(rng)
        # R v = (2 sigma^2 - 1) v + 2 (u (u.v) - sigma u x v), in floats.
        (a, b, c), (x, y, z) = u.tolist(), v
        uv, w = a * x + b * y + c * z, 2.0 * sigma * sigma - 1.0
        Rv = (w * x + 2.0 * (a * uv - sigma * (b * z - c * y)),
              w * y + 2.0 * (b * uv - sigma * (c * x - a * z)),
              w * z + 2.0 * (c * uv - sigma * (a * y - b * x)))
        if _in_frustum(Rv, cfg, margin=VISIBILITY_MARGIN):
            break
    else:
        raise RetryExhausted("no rotation axis keeps the scene visible in the second view")
    quat = UnitQuaternion(sigma, u)
    R = quat_to_rotation(quat)
    t = -R @ c2
    truth = RelativePose(R=R, t=t, quat=quat)

    half_w, half_h, z_lo, z_hi = _slab(cfg)

    pairs: list = []
    for _ in range(n_points):
        for _ in range(_POINT_RETRIES):
            z = rng.uniform(z_lo, z_hi)
            x = z * rng.uniform(-half_w, half_w)
            y = z * rng.uniform(-half_h, half_h)
            X = np.array([x, y, z])
            X2 = R @ X + t
            if not _in_frustum(X2, cfg):
                continue
            if cfg.generalized:
                o1 = _random_in_ball(rng, cfg.multi_center_radius)
                o2 = _random_in_ball(rng, cfg.multi_center_radius)
                d1 = _unit(X - o1)
                d2 = _unit(X2 - o2)
                pairs.append(
                    PluckerPair(q1=d1, q2=d2, m1=stacked_cross(d1, o1), m2=stacked_cross(d2, o2))
                )
            else:
                pairs.append(BearingPair(q1=_unit(X), q2=_unit(X2)))
            break
        else:
            raise RetryExhausted("could not place a point visible in both views")
    return truth, pairs


def _perturbed_direction(q: np.ndarray, sigma_px: float, focal: float, rng) -> np.ndarray:
    if q[2] <= 0.0:
        raise ValueError("bearing must point into the positive-depth half space")
    px = focal * q[0] / q[2] + rng.normal(0.0, sigma_px)
    py = focal * q[1] / q[2] + rng.normal(0.0, sigma_px)
    return _unit(np.array([px / focal, py / focal, 1.0]))


def add_image_noise(correspondences, sigma_px: float, cfg: SceneConfig, rng) -> list:
    """Perturb projections by per-coordinate Gaussian pixel noise.

    Directions are re-normalized.  For Pluecker pairs the anchor point of each
    ray (the point closest to the frame origin) is held fixed and the moment
    is recomputed from the noisy direction, so line incidence is preserved
    exactly.
    """
    if not 0.0 <= sigma_px < math.inf:
        raise ValueError("sigma_px must be non-negative and finite")
    if sigma_px == 0.0:
        return list(correspondences)
    f = cfg.focal_px
    out = []
    for pair in correspondences:
        q1 = _perturbed_direction(pair.q1, sigma_px, f, rng)
        q2 = _perturbed_direction(pair.q2, sigma_px, f, rng)
        if isinstance(pair, PluckerPair):
            o1 = np.cross(pair.m1, pair.q1)
            o2 = np.cross(pair.m2, pair.q2)
            out.append(PluckerPair(q1=q1, q2=q2, m1=np.cross(q1, o1), m2=np.cross(q2, o2)))
        else:
            out.append(BearingPair(q1=q1, q2=q2))
    return out


def add_angle_noise(theta: float, sigma: float, rng) -> float:
    """Multiplicative Gaussian angle noise ``theta * (1 + s)``, clamped to the
    valid angle domain."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be non-negative and finite")
    s = rng.normal(0.0, sigma) if sigma > 0.0 else 0.0
    return min(max(theta * (1.0 + s), 0.0), math.pi - ANGLE_CLAMP_EPS)


def rotation_error(candidates: list[RelativePose], R_true: np.ndarray) -> float:
    """Smallest Frobenius distance between any candidate rotation and the truth."""
    if not candidates:
        raise EmptyCandidates("rotation error of an empty candidate list")
    return min(float(np.linalg.norm(p.R - R_true)) for p in candidates)


def translation_errors(
    candidates: list[RelativePose], t_true: np.ndarray, *, with_scale: bool = True
) -> tuple[float, float]:
    """Best angular error (degrees) and, optionally, best relative scale error."""
    if not candidates:
        raise EmptyCandidates("translation error of an empty candidate list")
    nt = float(np.linalg.norm(t_true))
    best_ang = 180.0
    best_scale = math.inf
    for p in candidates:
        nc = float(np.linalg.norm(p.t))
        cosang = float(p.t @ t_true) / max(nc * nt, 1e-300)
        ang = math.degrees(math.acos(min(1.0, max(-1.0, cosang))))
        best_ang = min(best_ang, ang)
        if with_scale:
            best_scale = min(best_scale, abs(nc - nt) / nt)
    return best_ang, (best_scale if with_scale else math.nan)


def _corrupt(observations, cfg: SceneConfig, outlier_frac: float, rng):
    """Replace a fraction of correspondences with mismatched second-view
    rays, and the mask of the ones kept.  A fraction that rounds to no
    outlier draws nothing from ``rng``."""
    n = len(observations)
    n_out = int(round(outlier_frac * n))
    out = list(observations)
    chosen = rng.choice(n, size=n_out, replace=False) if n_out else np.array([], dtype=int)
    half_w, half_h, z_lo, z_hi = _slab(cfg)
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


def trial_inputs(
    solver: str, cfg: SceneConfig, n_trials: int, n_obs: int, noise_px: float,
    angle_noise_sigma: float, outlier_frac: float = 0.0,
):
    """The inputs of ``n_trials`` benchmark trials of ``solver``, one tuple
    per trial: its generator, seeded from ``cfg.seed`` per trial, the true
    pose, the ``n_obs`` observations, the mask of their inliers and the
    input angle.  Each trial draws its scene, image noise, outliers and
    angle noise in this order; later draws of the caller follow them."""
    pair_type = solver_named(solver).pair_type
    if not is_integer(n_trials):
        raise ValueError(f"n_trials must be an integer, got {n_trials!r}")
    if not n_trials >= 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials!r}")
    if not 0.0 <= outlier_frac < 1.0:
        raise ValueError(f"outlier_frac must lie in [0, 1), got {outlier_frac!r}")
    base = replace(cfg, generalized=pair_type is PluckerPair)
    for child in np.random.SeedSequence(cfg.seed).spawn(n_trials):
        rng = np.random.default_rng(child)
        truth, pairs = generate_scene(base, n_obs, rng=rng)
        noisy = add_image_noise(pairs, noise_px, base, rng)
        observed, inliers = _corrupt(noisy, base, outlier_frac, rng)
        theta_in = add_angle_noise(rotation_angle(truth.R), angle_noise_sigma, rng)
        yield rng, truth, observed, inliers, theta_in


def timed(call, *args):
    """``call(*args)``, or the ``RelposeError`` it raises, and the
    milliseconds it took."""
    start = time.perf_counter()
    try:
        out = call(*args)
    except RelposeError as exc:
        out = exc
    return out, (time.perf_counter() - start) * 1e3


def inlier_precision_recall(returned: np.ndarray, true: np.ndarray) -> tuple[float, float]:
    """Shares of the returned inliers that are true inliers (precision) and of
    the true inliers that were returned (recall); 0 when the set is empty."""
    hits = np.count_nonzero(returned & true)
    return hits / max(1, np.count_nonzero(returned)), hits / max(1, np.count_nonzero(true))


def _minimal_fields(poses: list[RelativePose], inliers: np.ndarray):
    return poses, {"root_count": poses[0].root_count or 0, "n_poses": len(poses)}


def _ransac_fields(result, inliers: np.ndarray):
    precision, recall = inlier_precision_recall(result.inlier_mask, inliers)
    return [result.pose], {"inlier_count": result.inlier_count, "recall": recall,
                           "precision": precision, "iterations": result.iterations}


def _record(trial, truth, inliers, out, solve_ms, fields) -> TrialRecord:
    """The record of a trial whose call returned ``out``, or raised it, in
    ``solve_ms``: ``fields(out, inliers)`` gives the poses to score against
    ``truth`` and the fields that its harness measures.  The scale error is
    measured where the poses have a metric translation, which the anchor
    depths that they carry show."""
    theta = rotation_angle(truth.R)
    if isinstance(out, RelposeError):
        return TrialRecord(trial, theta, math.inf, math.inf, math.inf, solve_ms,
                           type(out).__name__)
    poses, measured = fields(out, inliers)
    ang, scale = translation_errors(poses, truth.t, with_scale=poses[0].depths is not None)
    return TrialRecord(trial, theta, rotation_error(poses, truth.R), ang, scale, solve_ms,
                       **measured)


def run_trials(
    solver: str,
    cfg: SceneConfig,
    n_trials: int,
    noise_px: float = 0.0,
    angle_noise_sigma: float = 0.0,
) -> list[TrialRecord]:
    """Run independent minimal-solver trials with per-trial derived seeds."""
    record = solver_named(solver)
    inputs = trial_inputs(solver, cfg, n_trials, record.problem.sample_size, noise_px,
                          angle_noise_sigma)
    return [
        _record(idx, truth, inliers, *timed(record.solve, observed, theta_in), _minimal_fields)
        for idx, (_, truth, observed, inliers, theta_in) in enumerate(inputs)
    ]


def run_ransac_trials(
    solver: str,
    cfg: SceneConfig,
    ransac_cfg: RansacConfig,
    n_trials: int,
    n_obs: int,
    outlier_frac: float,
    noise_px: float = 0.0,
    angle_noise_sigma: float = 0.0,
) -> list[TrialRecord]:
    """Robust-estimation trials on scenes contaminated with outliers, each
    RANSAC run seeded from its trial's generator."""
    inputs = trial_inputs(solver, cfg, n_trials, n_obs, noise_px, angle_noise_sigma, outlier_frac)
    records = []
    for idx, (rng, truth, observed, inliers, theta_in) in enumerate(inputs):
        trial_cfg = replace(ransac_cfg, seed=int(rng.integers(0, 2**63 - 1)))
        out = timed(ransac_estimate, observed, theta_in, trial_cfg, solver)
        records.append(_record(idx, truth, inliers, *out, _ransac_fields))
    return records


def summarize(records: list[TrialRecord]) -> dict[str, dict]:
    """Lower quartile, median, upper quartile and mean of every metric over
    its finite values in the trials that did not fail (NaN where there are
    none), the failed trials counted by reason, and the mean solve time of
    all trials."""
    kept = [r for r in records if not r.failure]
    out: dict[str, dict] = {}
    for metric in METRICS:
        vals = np.array([getattr(r, metric) for r in kept], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size:
            lq, med, uq = np.percentile(vals, [25.0, 50.0, 75.0])
            mean = vals.mean()
        else:
            lq = med = uq = mean = math.nan
        out[metric] = {"lq": float(lq), "median": float(med), "uq": float(uq), "mean": float(mean)}
    out["solve_ms"] = {"mean": float(np.mean([r.solve_ms for r in records]))}
    out["failures"] = dict(sorted(Counter(r.failure for r in records if r.failure).items()))
    return out
