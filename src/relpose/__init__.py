"""Relative-pose estimation from point correspondences and a known rotation angle.

Two minimal solvers are provided: a 4-point solver for calibrated central
cameras and a 5-point solver for generalized cameras, both parametrizing the
rotation by a quaternion whose scalar part is fixed by the known angle and
solving the resulting polynomial systems through fixed elimination templates.
"""

from importlib import import_module

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
from .solver_gen5 import solve_gen5pt_angle
from .solver_reg4 import solve_4pt_angle

# RANSAC, the gyro integration and the benchmark harness load on the first
# use of one of their names or of the module itself, so that a solve imports
# none of them.
_LAZY = {
    name: module
    for module, names in (
        ("robust", "RansacConfig RansacResult ransac_estimate"),
        ("imu", "GyroSample integrate_gyro"),
        ("synth", "SceneConfig TrialRecord add_angle_noise add_image_noise generate_scene "
                  "rotation_error run_trials summarize translation_errors"),
    )
    for name in (module, *names.split())
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


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
