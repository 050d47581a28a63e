"""Synthetic scene, motion and noise generation, error metrics, and the
benchmark harness that drives either minimal solver over many trials."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import EmptyCandidates, RelposeError, RetryExhausted
from .geom import (
    BearingPair,
    PluckerPair,
    RelativePose,
    UnitQuaternion,
    quat_to_rotation,
    rotation_angle,
)
from .solver_gen5 import solve_gen5pt_angle
from .solver_reg4 import solve_4pt_angle

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
    seed: int = 0

    def __post_init__(self):
        for name in ("distance_to_scene", "scene_depth", "baseline", "image_width",
                     "image_height", "fov_deg", "multi_center_radius"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.theta_rad is not None and not 0.0 <= self.theta_rad < math.pi:
            raise ValueError(f"theta_rad must lie in [0, pi), got {self.theta_rad!r}")
        if self.motion not in ("forward", "sideways"):
            raise ValueError(f"motion must be 'forward' or 'sideways', got {self.motion!r}")

    @property
    def focal_px(self) -> float:
        return self.image_width / (2.0 * math.tan(math.radians(self.fov_deg) / 2.0))


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial benchmark outcome; errors are +inf when the solve failed."""

    trial: int
    theta_rad: float
    rot_err: float
    t_ang_err_deg: float
    scale_rel_err: float
    root_count: int
    n_poses: int
    degenerate: bool
    solve_ms: float


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

    quat = None
    for _ in range(_AXIS_RETRIES):
        axis = _random_unit(rng)
        candidate = UnitQuaternion(math.cos(theta / 2.0), math.sin(theta / 2.0) * axis)
        R = quat_to_rotation(candidate)
        if _in_frustum(R @ (center - c2), cfg, margin=VISIBILITY_MARGIN):
            quat = candidate
            break
    if quat is None:
        raise RetryExhausted("no rotation axis keeps the scene visible in the second view")
    R = quat_to_rotation(quat)
    t = -R @ c2
    truth = RelativePose(R=R, t=t, quat=quat)

    z_lo = cfg.distance_to_scene - cfg.scene_depth / 2.0
    z_hi = cfg.distance_to_scene + cfg.scene_depth / 2.0
    half_w = cfg.image_width / (2.0 * cfg.focal_px)
    half_h = cfg.image_height / (2.0 * cfg.focal_px)

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
                pairs.append(PluckerPair(q1=d1, q2=d2, m1=np.cross(d1, o1), m2=np.cross(d2, o2)))
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


def run_trials(
    solver: str,
    cfg: SceneConfig,
    n_trials: int,
    noise_px: float = 0.0,
    angle_noise_sigma: float = 0.0,
) -> list[TrialRecord]:
    """Run independent minimal-solver trials with per-trial derived seeds."""
    if solver not in ("reg4", "gen5"):
        raise ValueError(f"unknown solver {solver!r}")
    generalized = solver == "gen5"
    n_points = 5 if generalized else 4
    base = replace(cfg, generalized=generalized)
    records = []
    children = np.random.SeedSequence(cfg.seed).spawn(n_trials)
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        truth, pairs = generate_scene(base, n_points, rng=rng)
        observed = add_image_noise(pairs, noise_px, base, rng)
        theta_true = rotation_angle(truth.R)
        theta_in = add_angle_noise(theta_true, angle_noise_sigma, rng)
        start = time.perf_counter()
        try:
            if generalized:
                poses = solve_gen5pt_angle(observed, theta_in)
            else:
                poses = solve_4pt_angle(observed, theta_in)
        except RelposeError:
            records.append(
                TrialRecord(idx, theta_true, math.inf, math.inf, math.inf, 0, 0, True,
                            (time.perf_counter() - start) * 1e3)
            )
            continue
        elapsed_ms = (time.perf_counter() - start) * 1e3
        rot = rotation_error(poses, truth.R)
        ang, scale = translation_errors(poses, truth.t, with_scale=generalized)
        records.append(
            TrialRecord(
                trial=idx,
                theta_rad=theta_true,
                rot_err=rot,
                t_ang_err_deg=ang,
                scale_rel_err=scale,
                root_count=poses[0].root_count or 0,
                n_poses=len(poses),
                degenerate=False,
                solve_ms=elapsed_ms,
            )
        )
    return records


def summarize(records: list[TrialRecord]) -> dict[str, dict[str, float]]:
    """Lower quartile, median and upper quartile of every error metric over
    its finite values, plus mean solve time and the degenerate-trial count.

    Degenerate trials carry +inf errors; they are counted, not ranked."""
    out: dict[str, dict[str, float]] = {}
    for metric in ("rot_err", "t_ang_err_deg", "scale_rel_err"):
        vals = np.array([getattr(r, metric) for r in records], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size:
            lq, med, uq = np.percentile(vals, [25.0, 50.0, 75.0])
        else:
            lq = med = uq = math.nan
        out[metric] = {"lq": float(lq), "median": float(med), "uq": float(uq)}
    out["solve_ms"] = {"mean": float(np.mean([r.solve_ms for r in records]))}
    out["degenerate"] = {"count": float(sum(r.degenerate for r in records))}
    return out
