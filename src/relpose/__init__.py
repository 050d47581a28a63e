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
    UnreachableMonomial,
)
from .geom import (
    BearingPair,
    PluckerPair,
    RelativePose,
    RotationConstraint,
    UnitQuaternion,
    quat_to_rotation,
    rotation_angle,
    sigma_from_angle,
)
from .imu import GyroSample, integrate_gyro
from .robust import RansacConfig, RansacResult, ransac_estimate
from .solver_gen5 import solve_gen5pt_angle
from .solver_reg4 import solve_4pt_angle

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
    "TrialRecord",
    "UnitQuaternion",
    "UnreachableMonomial",
    "add_angle_noise",
    "add_image_noise",
    "generate_scene",
    "integrate_gyro",
    "quat_to_rotation",
    "ransac_estimate",
    "rotation_angle",
    "rotation_error",
    "run_trials",
    "sigma_from_angle",
    "solve_4pt_angle",
    "solve_gen5pt_angle",
    "summarize",
    "translation_errors",
]
