"""Command-line interface: solve correspondence files, run synthetic and
robust benchmarks, and integrate gyro logs.

Exit status: 0 on success, 1 on validation or parse errors, 2 on numerical
or solver failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import formats
from .exceptions import DocumentError, RelposeError
from .imu import frame_angle, integrate_gyro
from .robust import (
    DEFAULT_POINT_RAY_THRESHOLD,
    DEFAULT_SAMPSON_PX2,
    SOLVERS,
    RansacConfig,
    sampson_threshold_from_pixels,
)
from .synth import SceneConfig, run_ransac_trials, run_trials, summarize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through exit status 1
        raise _UsageError(message)


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_solve(args) -> int:
    doc = formats.parse_correspondence_document(Path(args.input).read_text())
    poses = doc.solver.solve(doc.pairs, doc.theta_rad)
    _write_output(formats.emit_pose_document(poses), args.out)
    return 0


def _scene_config(args) -> SceneConfig:
    kwargs = dict(motion=args.motion, seed=args.seed)
    if getattr(args, "theta_deg", None) is not None:
        kwargs["theta_rad"] = math.radians(args.theta_deg)
    return SceneConfig(**kwargs)


def _write_bench(records, out: str | None) -> int:
    summary = summarize(records)
    _write_output(formats.emit_trial_csv(records, summary), out)
    # wall-clock timing is informational only and kept out of the CSV
    print(f"mean solve time: {summary['solve_ms']['mean']:.3f} ms", file=sys.stderr)
    return 0


def cmd_synth_bench(args) -> int:
    cfg = _scene_config(args)
    records = run_trials(
        args.solver, cfg, args.trials, noise_px=args.noise_px,
        angle_noise_sigma=args.angle_noise_sigma,
    )
    return _write_bench(records, args.out)


def cmd_ransac_bench(args) -> int:
    cfg = _scene_config(args)
    # The two scores take their thresholds in different units.
    if args.solver == "reg4":
        threshold = sampson_threshold_from_pixels(args.sampson_px2, cfg.focal_px)
    else:
        threshold = args.point_ray_threshold
    ransac_cfg = RansacConfig(
        max_iterations=args.max_iterations,
        inlier_threshold=threshold,
        confidence=args.confidence,
        seed=args.seed,
    )
    records = run_ransac_trials(
        args.solver, cfg, ransac_cfg, args.trials, args.n_obs, args.outlier_frac,
        noise_px=args.noise_px, angle_noise_sigma=args.angle_noise_sigma,
    )
    return _write_bench(records, args.out)


def cmd_imu_angle(args) -> int:
    samples = formats.parse_gyro_csv(Path(args.gyro).read_text())
    bias = None
    if args.bias_correct is not None:
        parts = args.bias_correct.split(",")
        if len(parts) != 3:
            raise DocumentError("--bias-correct expects three comma-separated rates")
        try:
            bias = np.array([float(p) for p in parts])
        except ValueError:
            raise DocumentError("--bias-correct rates must be numbers") from None
    R = integrate_gyro(samples, args.from_ns, args.to_ns, bias=bias)
    angle = frame_angle(R)
    lines = [
        f"angle_rad {formats.format_float(angle)}",
        f"angle_deg {formats.format_float(math.degrees(angle))}",
        "R " + " ".join(formats.format_float(v) for v in R.ravel()),
    ]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _add_bench_flags(p) -> None:
    p.add_argument("--solver", choices=tuple(SOLVERS), required=True)
    p.add_argument("--noise-px", type=float, default=0.0)
    p.add_argument("--angle-noise-sigma", type=float, default=0.0,
                   help="relative angle noise, not radians: the solver gets theta * (1 + s) "
                        "with s drawn from N(0, sigma^2)")
    p.add_argument("--motion", choices=("forward", "sideways"), default="forward")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta-deg", type=float, default=None,
                   help="fix the ground-truth rotation angle instead of drawing it")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a correspondence document")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("synth-bench", help="run synthetic minimal-solver trials")
    _add_bench_flags(p)
    p.set_defaults(func=cmd_synth_bench)

    p = sub.add_parser("ransac-bench", help="run robust-estimation trials with outliers")
    _add_bench_flags(p)
    p.add_argument("--n-obs", type=int, default=100)
    p.add_argument("--outlier-frac", type=float, default=0.3)
    p.add_argument("--max-iterations", type=int, default=1000)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--sampson-px2", type=float, default=DEFAULT_SAMPSON_PX2,
                   help="Sampson inlier threshold in squared pixels (reg4)")
    p.add_argument("--point-ray-threshold", type=float, default=DEFAULT_POINT_RAY_THRESHOLD,
                   help="point-to-ray RMS inlier threshold in scene units (gen5)")
    p.set_defaults(func=cmd_ransac_bench)

    p = sub.add_parser("imu-angle", help="integrate a gyro log over a time interval")
    p.add_argument("--gyro", required=True)
    p.add_argument("--from", dest="from_ns", type=int, required=True)
    p.add_argument("--to", dest="to_ns", type=int, required=True)
    p.add_argument("--bias-correct", default=None, metavar="WX,WY,WZ",
                   help="subtract a constant rate bias before integrating")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_imu_angle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DocumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RelposeError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
