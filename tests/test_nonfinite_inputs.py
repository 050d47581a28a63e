"""NaN and infinity fail every input check: each check is written so that a
comparison with NaN rejects the value instead of letting it through."""

import math

import numpy as np
import pytest

from relpose.cli import main
from relpose.geom import BearingPair, PluckerPair, RelativePose, UnitQuaternion
from relpose.robust import RansacConfig
from relpose.synth import SceneConfig

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

    def test_ransac_config(self, bad):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=bad)

    @pytest.mark.parametrize(
        "field", ["distance_to_scene", "scene_depth", "baseline", "fov_deg", "theta_rad"]
    )
    def test_scene_config(self, bad, field):
        with pytest.raises(ValueError):
            SceneConfig(**{field: bad})


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
    "document",
    [regular_document("nan"), generalized_document("nan")],
    ids=["regular", "generalized"],
)
def test_solve_nan_document_is_validation_error(tmp_path, capsys, document):
    path = tmp_path / "doc.txt"
    path.write_text(document)
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
