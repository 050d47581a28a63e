"""NaN and infinity fail every input check: each check is written so that a
comparison with NaN rejects the value instead of letting it through, and
before any arithmetic on it, so that no check warns.  Every test here runs
as under ``-W error::RuntimeWarning``."""

import math

import numpy as np
import pytest

from relpose import formats
from relpose.cli import main
from relpose.exceptions import DocumentError
from relpose.geom import BearingPair, PluckerPair, RelativePose, UnitQuaternion, rotation_angle
from relpose.imu import GyroSample, integrate_gyro
from relpose.robust import RansacConfig
from relpose.synth import SceneConfig

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BAD = [math.nan, math.inf, -math.inf]
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", BAD)
class TestConstructors:
    def test_bearing_pair(self, bad):
        with pytest.raises(ValueError):
            BearingPair(q1=[bad, bad, bad], q2=Z)
        with pytest.raises(ValueError):
            BearingPair(q1=Z, q2=[0.0, bad, 1.0])

    def test_plucker_pair(self, bad):
        with pytest.raises(ValueError):
            PluckerPair(q1=Z, q2=Z, m1=[bad, 0.0, 0.0], m2=X)
        with pytest.raises(ValueError):
            PluckerPair(q1=Z, q2=Z, m1=X, m2=[0.0, 0.0, bad])

    def test_unit_quaternion(self, bad):
        with pytest.raises(ValueError):
            UnitQuaternion(bad, np.zeros(3))
        with pytest.raises(ValueError):
            UnitQuaternion(1.0, np.array([bad, 0.0, 0.0]))

    def test_relative_pose(self, bad):
        R = np.eye(3)
        R[0, 1] = bad
        with pytest.raises(ValueError):
            RelativePose(R=R, t=Z, quat=UnitQuaternion(1.0, np.zeros(3)))

    @pytest.mark.parametrize("entry", range(9))
    def test_relative_pose_every_rotation_entry(self, bad, entry):
        R = np.eye(3)
        R.flat[entry] = bad
        assert not matrix_check(R)
        with pytest.raises(ValueError, match="not a rotation"):
            RelativePose(R=R, t=Z, quat=UnitQuaternion(1.0, np.zeros(3)))

    def test_relative_pose_translation(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RelativePose(R=np.eye(3), t=[0.0, bad, 1.0], quat=UnitQuaternion(1.0, np.zeros(3)))

    def test_ransac_config(self, bad):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=bad)

    def test_ransac_config_iterations(self, bad):
        with pytest.raises(ValueError, match="max_iterations"):
            RansacConfig(inlier_threshold=1.0, max_iterations=bad)

    def test_gyro_sample(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GyroSample(0, [0.0, bad, 0.1])

    def test_gyro_bias(self, bad):
        samples = [GyroSample(0, [0.0, 0.0, 0.1]), GyroSample(10**9, [0.0, 0.0, 0.1])]
        with pytest.raises(ValueError, match="finite"):
            integrate_gyro(samples, 0, 10**9, bias=[bad, 0.0, 0.0])

    @pytest.mark.parametrize("entry", range(9))
    def test_rotation_angle(self, bad, entry):
        # A NaN cosine clamped to -1 would read as a half turn.
        R = np.eye(3)
        R.flat[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            rotation_angle(R)

    @pytest.mark.parametrize(
        "field", ["distance_to_scene", "scene_depth", "baseline", "fov_deg", "theta_rad"]
    )
    def test_scene_config(self, bad, field):
        with pytest.raises(ValueError):
            SceneConfig(**{field: bad})


def matrix_check(R: np.ndarray) -> bool:
    """The rotation test ``RelativePose`` made with matrix products."""
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(
            np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9 and abs(np.linalg.det(R) - 1.0) <= 1e-9
        )


def accepts(R: np.ndarray) -> bool:
    try:
        RelativePose(R=R, t=Z, quat=UnitQuaternion(1.0, np.zeros(3)))
    except ValueError:
        return False
    return True


def test_relative_pose_rejects_a_reflection():
    R = np.diag([1.0, 1.0, -1.0])
    assert not accepts(R) and not matrix_check(R)


@pytest.mark.parametrize("delta,accepted", [(5e-10, True), (5e-9, False)])
@pytest.mark.parametrize("entry", [1, 2, 3, 5, 6, 7])
def test_relative_pose_rotation_tolerance(delta, accepted, entry):
    # An off-diagonal entry of I moves one entry of R^T R - I by delta; a
    # diagonal one would move it by 2 delta, onto the bound.
    R = np.eye(3)
    R.flat[entry] += delta
    assert accepts(R) is accepted
    assert matrix_check(R) is accepted


@pytest.mark.parametrize("theta", [-0.1, math.pi, 4.0])
def test_scene_config_angle_domain(theta):
    with pytest.raises(ValueError, match=r"\[0, pi\)"):
        SceneConfig(theta_rad=theta)


def regular_document(coordinate: str) -> str:
    return (
        "type regular\ntheta_rad 0.3\n"
        + "pair q1 0 0 1 q2 0 0 1\n" * 3
        + f"pair q1 {coordinate} 0 1 q2 0 0 1\n"
    )


def generalized_document(moment: str) -> str:
    return (
        "type generalized\ntheta_rad 0.3\n"
        + "pair q1 0 0 1 q2 0 0 1 m1 1 0 0 m2 0 1 0\n" * 4
        + f"pair q1 0 0 1 q2 0 0 1 m1 {moment} 0 0 m2 0 1 0\n"
    )


@pytest.mark.parametrize(
    "document,message",
    [
        (regular_document("nan"), "line 6: field 'q1': not finite: 'nan'"),
        (generalized_document("nan"), "line 7: field 'm1': not finite: 'nan'"),
        # An infinite coordinate is rejected as it is read, before a
        # direction is divided by its norm.
        (regular_document("inf"), "line 6: field 'q1': not finite: 'inf'"),
        (generalized_document("-inf"), "line 7: field 'm1': not finite: '-inf'"),
    ],
    ids=["regular", "generalized", "regular-inf-direction", "generalized-minus-inf-moment"],
)
def test_solve_nan_document_is_validation_error(tmp_path, capsys, document, message):
    with pytest.raises(DocumentError, match=f"^{message}$"):
        formats.parse_correspondence_document(document)
    path = tmp_path / "doc.txt"
    path.write_text(document)
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ransac-bench", "--solver", "reg4", "--sampson-px2", "nan"],
        ["ransac-bench", "--solver", "gen5", "--point-ray-threshold", "nan"],
        ["synth-bench", "--solver", "reg4", "--theta-deg", "nan"],
        ["synth-bench", "--solver", "gen5", "--noise-px", "nan"],
    ],
)
def test_bench_nan_option_is_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--trials", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "row,bias,message",
    [
        ("1000000000,nan,0,0.1", None, "line 3: rate must be finite"),
        ("1000000000,inf,0,0.1", None, "line 3: rate must be finite"),
        ("1000000000,0,0,0.1", "nan,0,0", "bias must be finite"),
        # Every other fault of a gyro log or a bias is a validation error too.
        ("1000000000,0,0", None, "line 3: expected 4 comma-separated values"),
        ("1e9,0,0,0.1", None, "line 3: field 'timestamp_ns': not an integer"),
        ("1000000000,0,zero,0.1", None, "line 3: rate fields must be numbers"),
        ("0,0,0,0.1", None, "line 3: timestamps must be strictly increasing"),
        ("1000000000,0,0,0.1", "0.1,0.2", "--bias-correct expects three comma-separated rates"),
        ("1000000000,0,0,0.1", "0.1,y,0.3", "--bias-correct rates must be numbers"),
    ],
    ids=["nan-rate", "inf-rate", "nan-bias", "cells", "timestamp", "rate", "order", "bias-count",
         "bias-number"],
)
def test_imu_angle_nonfinite_is_validation_error(tmp_path, capsys, row, bias, message):
    path = tmp_path / "gyro.csv"
    path.write_text(f"{formats.GYRO_HEADER}\n0,0,0,0.1\n{row}\n")
    argv = ["imu-angle", "--gyro", str(path), "--from", "0", "--to", "1000000000"]
    if bias is not None:
        argv += ["--bias-correct", bias]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
