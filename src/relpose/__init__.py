"""Relative-pose estimation from point correspondences and a known rotation angle.

Two minimal solvers are provided: a 4-point solver for calibrated central
cameras and a 5-point solver for generalized cameras, both parametrizing the
rotation by a quaternion whose scalar part is fixed by the known angle and
solving the resulting polynomial systems through fixed elimination templates.
"""

from .exceptions import (
    BasisAnomaly,
    CoverageGap,
    DegenerateConfiguration,
    DegenerateInput,
    DegreeOverflow,
    DocumentError,
    EigenFailure,
    EmptyCandidates,
    NoCheiralSolution,
    NoHypothesis,
    RankDeficient,
    RelposeError,
    RetryExhausted,
    ScaleUnobservable,
    SkewDegenerate,
    UnreachableMonomial,
)
from .geom import (
    BearingPair,
    PluckerPair,
    RelativePose,
    RotationConstraint,
    UnitQuaternion,
    epipolar_residual,
    generalized_epipolar_residual,
    quat_from_rotation,
    quat_to_rotation,
    rotation_angle,
    sigma_from_angle,
)
from .imu import GyroSample, angle_between_frames, integrate_gyro
from .robust import RansacConfig, RansacResult, ransac_estimate
from .solver_gen5 import ray_point_error, solve_gen5pt_angle
from .solver_reg4 import sampson_error, solve_4pt_angle

# The benchmark harness loads on first use, so that the solvers and RANSAC
# run without it.
_SYNTH = {
    "SceneConfig", "TrialRecord", "add_angle_noise", "add_image_noise", "generate_scene",
    "rotation_error", "run_trials", "summarize", "translation_errors",
}


def __getattr__(name):
    if name in _SYNTH:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BasisAnomaly",
    "BearingPair",
    "CoverageGap",
    "DegenerateConfiguration",
    "DegenerateInput",
    "DegreeOverflow",
    "DocumentError",
    "EigenFailure",
    "EmptyCandidates",
    "GyroSample",
    "NoCheiralSolution",
    "NoHypothesis",
    "PluckerPair",
    "RankDeficient",
    "RansacConfig",
    "RansacResult",
    "RelativePose",
    "RelposeError",
    "RetryExhausted",
    "RotationConstraint",
    "ScaleUnobservable",
    "SceneConfig",
    "SkewDegenerate",
    "TrialRecord",
    "UnitQuaternion",
    "UnreachableMonomial",
    "add_angle_noise",
    "add_image_noise",
    "angle_between_frames",
    "epipolar_residual",
    "generalized_epipolar_residual",
    "generate_scene",
    "integrate_gyro",
    "quat_from_rotation",
    "quat_to_rotation",
    "ransac_estimate",
    "ray_point_error",
    "rotation_angle",
    "rotation_error",
    "run_trials",
    "sampson_error",
    "sigma_from_angle",
    "solve_4pt_angle",
    "solve_gen5pt_angle",
    "summarize",
    "translation_errors",
]
