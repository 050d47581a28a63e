import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from relpose import cli, formats, imu
from relpose.cli import main
from relpose.exceptions import DocumentError
from relpose.geom import rotation_angle
from relpose.imu import GyroSample
from relpose.robust import SOLVERS
from relpose.synth import SceneConfig, TrialRecord, generate_scene, summarize


@pytest.fixture
def regular_doc(tmp_path):
    truth, pairs = generate_scene(SceneConfig(seed=0), 4)
    theta = rotation_angle(truth.R)
    path = tmp_path / "reg.txt"
    path.write_text(formats.emit_correspondence_document("regular", theta, pairs))
    return truth, pairs, theta, path


@pytest.fixture
def generalized_doc(tmp_path):
    truth, pairs = generate_scene(SceneConfig(seed=1, generalized=True), 5)
    theta = rotation_angle(truth.R)
    path = tmp_path / "gen.txt"
    path.write_text(formats.emit_correspondence_document("generalized", theta, pairs))
    return truth, pairs, theta, path


class TestCorrespondenceDocuments:
    def test_roundtrip_bit_identical(self, regular_doc):
        truth, pairs, theta, path = regular_doc
        text = path.read_text()
        parsed = formats.parse_correspondence_document(text)
        assert parsed.theta_rad == theta
        assert formats.emit_correspondence_document("regular", parsed.theta_rad, parsed.pairs) == text

    def test_generalized_roundtrip(self, generalized_doc):
        truth, pairs, theta, path = generalized_doc
        text = path.read_text()
        parsed = formats.parse_correspondence_document(text)
        for a, b in zip(parsed.pairs, pairs):
            assert np.array_equal(a.q1, b.q1)
            assert np.max(np.abs(a.m1 - b.m1)) < 1e-15

    def test_whitespace_and_comments_ignored(self):
        text = """
        # a comment
        type regular   theta_rad 0.5
        pair
           q1 0 0 1
           q2 0.1 0 0.99498743710661997 # trailing comment
        """
        parsed = formats.parse_correspondence_document(text)
        assert parsed.solver is SOLVERS["reg4"] and len(parsed.pairs) == 1

    def test_malformed_number_names_field_and_line(self):
        text = "type regular\ntheta_rad 0.5\npair q1 0 0 one q2 0 0 1\n"
        with pytest.raises(DocumentError, match=r"line 3.*q1"):
            formats.parse_correspondence_document(text)

    def test_missing_header(self):
        with pytest.raises(DocumentError, match="type"):
            formats.parse_correspondence_document("theta_rad 0.5\n")

    @pytest.mark.parametrize(
        "header, message",
        [
            ("type regular\ntype generalized\ntheta_rad 0.1", "line 2: header field 'type'"),
            ("theta_rad 0.1 type regular\ntheta_rad 0.2", "line 2: header field 'theta_rad'"),
        ],
        ids=["type", "theta_rad"],
    )
    def test_header_field_given_twice(self, tmp_path, capsys, header, message):
        # The last value used to win silently.
        text = header + "\npair q1 0 0 1 q2 0 0 1\n"
        with pytest.raises(DocumentError, match=f"^{message} given twice$"):
            formats.parse_correspondence_document(text)
        path = tmp_path / "twice.txt"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("type regular theta_rad 0.5 pair q1 0 0 1 q2 0 0", "unexpected end of document while reading q2"),
            ("type generalized theta_rad 0.5 pair q1 0 0 1 q2 0 0 1 m1 0 0",
             "unexpected end of document while reading m1"),
            ("type regular\ntheta_rad 0.5\npair q1 0 0 1 m1 0 0 1", "line 3: expected 'q2', found 'm1'"),
            ("type generalized\ntheta_rad 0.5\npair q1 0 0 1 q2 0 0 1 m2 0 0 0",
             "line 3: expected 'm1', found 'm2'"),
            ("theta_rad 0.5\ntype central", "line 2: field 'type': must be 'regular' or 'generalized'"),
            ("type regular\nangle 0.5", "line 2: unknown header field 'angle'"),
            ("type regular theta_rad 0.5 pair q1 0 0 1 q2 0 0 0", "a ray direction has zero norm"),
            ("type generalized theta_rad 0.5 pair q1 0 0 0 q2 0 0 1 m1 0 0 0 m2 0 0 0",
             "a ray direction has zero norm"),
        ],
        ids=["truncated-regular", "truncated-generalized", "keyword-regular", "keyword-generalized",
             "type", "unknown-field", "zero-regular", "zero-generalized"],
    )
    def test_malformed_document_is_validation_error(self, tmp_path, capsys, text, message):
        with pytest.raises(DocumentError) as raised:
            formats.parse_correspondence_document(text)
        assert str(raised.value) == message
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, parsed",
        [
            ("type regular theta_rad 0.5 pair q1 0 0 2 q2 0 3 0", {"q1": [0, 0, 1], "q2": [0, 1, 0]}),
            # Each direction scaled by 2, its (incident) moment with it.
            ("type generalized theta_rad 0.5 pair q1 0 0 2 q2 0 2 0 m1 2 4 0 m2 6 0 2",
             {"q1": [0, 0, 1], "q2": [0, 1, 0], "m1": [1, 2, 0], "m2": [3, 0, 1]}),
            # Unit directions, moments with q.m = 3 and 5.
            ("type generalized theta_rad 0.5 pair q1 0 0 1 q2 0 1 0 m1 1 2 3 m2 4 5 6",
             {"q1": [0, 0, 1], "q2": [0, 1, 0], "m1": [1, 2, 0], "m2": [4, 0, 6]}),
        ],
        ids=["regular-direction", "plucker-direction", "non-incident-moment"],
    )
    def test_rays_are_normalized_on_input(self, text, parsed):
        (pair,) = formats.parse_correspondence_document(text).pairs
        for name, ray in parsed.items():
            assert np.array_equal(getattr(pair, name), ray), name


class TestCmdSolve:
    def test_recovers_ground_truth(self, regular_doc, tmp_path, capsys):
        truth, pairs, theta, path = regular_doc
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("solutions ")
        rows = [l for l in lines if l.startswith("R ")]
        best = min(
            np.max(np.abs(np.array([float(v) for v in r.split()[1:]]).reshape(3, 3) - truth.R))
            for r in rows
        )
        assert best < 1e-7

    def test_generalized_document(self, generalized_doc, capsys):
        truth, pairs, theta, path = generalized_doc
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "depths" in out

    def test_ray_origins_far_from_the_frame_origin(self, generalized_doc, tmp_path, capsys):
        # Moving every ray origin of both views by d keeps the correspondences
        # consistent (with t' = t + d - R d); the moments grow to about |d|,
        # and with them the rounding of q.m.
        truth, pairs, theta, _ = generalized_doc
        d = np.array([1e5, -5e4, 3e4])
        shifted = [
            SimpleNamespace(q1=p.q1, q2=p.q2, m1=np.cross(p.q1, np.cross(p.m1, p.q1) + d),
                            m2=np.cross(p.q2, np.cross(p.m2, p.q2) + d))
            for p in pairs
        ]
        text = formats.emit_correspondence_document("generalized", theta, shifted)
        assert len(formats.parse_correspondence_document(text).pairs) == 5
        path = tmp_path / "far.txt"
        path.write_text(text)
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("solutions ")

    def test_three_pairs_is_validation_error(self, tmp_path, capsys):
        truth, pairs = generate_scene(SceneConfig(seed=2), 4)
        doc = formats.emit_correspondence_document("regular", 0.4, pairs[:3])
        path = tmp_path / "short.txt"
        path.write_text(doc)
        assert main(["solve", str(path)]) == 1

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("type regular\ntheta_rad 0.5\npair q1 0 0 x q2 0 0 1\n")
        assert main(["solve", str(path)]) == 1

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # The error line names the failure that lost the sample.
        truth, pairs = generate_scene(SceneConfig(seed=3), 4)
        dup = [pairs[0], pairs[0], pairs[2], pairs[3]]
        path = tmp_path / "dup.txt"
        path.write_text(formats.emit_correspondence_document("regular", 0.4, dup))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("solver error: DegenerateInput: rays 0 and 1 ")

    def test_usage_error_exit_code(self):
        assert main(["solve"]) == 1

    def test_anchor_is_not_an_option(self, regular_doc, capsys):
        # Another anchor is the pairs of the document in another order.
        _, _, _, path = regular_doc
        assert main(["solve", str(path), "--anchor", "1"]) == 1
        assert "unrecognized arguments: --anchor 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fixture, keys",
        [
            ("regular_doc", ["cheiral_count", "cheirality_tie", "root_count"]),
            ("generalized_doc", ["depths", "root_count"]),
        ],
    )
    def test_pose_document_lines(self, request, capsys, fixture, keys):
        # Every solution lists its fields in one order, and only a pose with
        # a metric translation, a generalized document's, its anchor depths.
        _, _, _, path = request.getfixturevalue(fixture)
        doc = formats.parse_correspondence_document(path.read_text())
        poses = doc.solver.solve(doc.pairs, doc.theta_rad)
        assert main(["solve", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"solutions {len(poses)}"
        per_pose = ["solution", "R", "t", "quat", "rotation_angle_rad", *keys]
        assert [line.split()[0] for line in lines[1:]] == per_pose * len(poses)
        depths = [line for line in lines if line.startswith("depths ")]
        assert depths == [
            "depths " + " ".join(formats.format_float(v) for v in p.depths)
            for p in poses if p.depths is not None
        ]

    def test_pose_document_roundtrip_precision(self, regular_doc, tmp_path):
        truth, pairs, theta, path = regular_doc
        out = tmp_path / "poses.txt"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        for line in text.splitlines():
            if line.startswith(("R ", "t ", "quat ")):
                for tok in line.split()[1:]:
                    v = float(tok)
                    assert formats.format_float(v) == tok


class TestCmdSynthBench:
    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth-bench", "--solver", "reg4", "--trials", "10", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_rows_present(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["synth-bench", "--solver", "reg4", "--trials", "8", "--seed", "1", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("record,trial,")
        kinds = {l.split(",")[0] for l in lines[1:]}
        assert {"trial", "summary_lq", "summary_median", "summary_uq", "summary_mean"} <= kinds

    def test_noise_free_medians_small(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["synth-bench", "--solver", "reg4", "--trials", "30", "--seed", "2", "--out", str(out)]
        ) == 0
        med = [l for l in out.read_text().splitlines() if l.startswith("summary_median")][0]
        rot_med = float(med.split(",")[3])
        assert rot_med < 1e-9

    def test_gen5_small_run(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(
            ["synth-bench", "--solver", "gen5", "--trials", "5", "--seed", "3", "--out", str(out)]
        ) == 0
        med = [l for l in out.read_text().splitlines() if l.startswith("summary_median")][0]
        assert float(med.split(",")[3]) < 1e-6


@pytest.mark.parametrize(
    "argv,field",
    [
        (["synth-bench", "--solver", "reg4", "--trials", "-3"], "n_trials"),
        (["synth-bench", "--solver", "gen5", "--trials", "0"], "n_trials"),
        (["ransac-bench", "--solver", "reg4", "--trials", "-3"], "n_trials"),
        (["ransac-bench", "--solver", "gen5", "--trials", "0"], "n_trials"),
        (["ransac-bench", "--solver", "reg4", "--trials", "2", "--outlier-frac", "1.5"], "outlier_frac"),
        (["ransac-bench", "--solver", "reg4", "--trials", "2", "--outlier-frac", "1"], "outlier_frac"),
        (["ransac-bench", "--solver", "gen5", "--trials", "2", "--outlier-frac", "-0.5"], "outlier_frac"),
        (["ransac-bench", "--solver", "reg4", "--trials", "2", "--outlier-frac", "nan"], "outlier_frac"),
    ],
)
def test_bench_bad_trial_setup_is_validation_error(tmp_path, capsys, argv, field):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must")
    assert not out.exists()


class TestCmdRansacBench:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "ransac.csv"
        code = main(
            [
                "ransac-bench", "--solver", "reg4", "--trials", "3", "--n-obs", "40",
                "--outlier-frac", "0.3", "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("record,trial,")
        assert any(l.startswith("summary_mean") for l in lines)

    def test_zero_noise_exact_rejection(self, tmp_path):
        # with a tight consensus band, outliers are rejected exactly and the
        # mean rotation error stays at solver accuracy
        out = tmp_path / "exact.csv"
        code = main(
            [
                "ransac-bench", "--solver", "reg4", "--trials", "10", "--n-obs", "100",
                "--outlier-frac", "0.3", "--noise-px", "0", "--motion", "sideways",
                "--sampson-px2", "0.01", "--seed", "6", "--out", str(out),
            ]
        )
        assert code == 0
        header, *rows = out.read_text().splitlines()
        summary = [l for l in rows if l.startswith("summary_mean")][0]
        assert float(summary.split(",")[header.split(",").index("rot_err")]) < 1e-5

    def test_stress_no_crash(self, tmp_path):
        out = tmp_path / "stress.csv"
        code = main(
            [
                "ransac-bench", "--solver", "reg4", "--trials", "4", "--n-obs", "20",
                "--outlier-frac", "0.9", "--max-iterations", "3", "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        # Failed trials are counted by reason, the others summarized.
        failed = Counter(r[-1] for r in rows if r[0] == "trial" and r[-1])
        assert {r[-1]: int(r[1]) for r in rows if r[0] == "summary_failed"} == failed
        assert [r[0] for r in rows].count("summary_mean") == 1


def test_bench_csv_layout():
    """Both benchmarks' CSV byte for byte: one column order, cell formats (NaN
    empty, ±inf, 17 digits), the cells each summary row fills, and one row per
    failure reason with its count."""
    records = [
        TrialRecord(0, 0.1, 1e-10, 0.25, math.nan, 1.0, root_count=8, n_poses=2),
        TrialRecord(1, 1.25, 3e-10, 0.75, 0.125, 2.0, root_count=10, n_poses=3),
        TrialRecord(2, 2.5, math.inf, math.inf, math.inf, 0.5, "DegenerateConfiguration"),
        TrialRecord(3, 0.5, 0.5, 2.0, -math.inf, 3.0, inlier_count=37, recall=0.75,
                    precision=1.0, iterations=12),
        TrialRecord(4, 0.75, 0.25, 1.0, 0.1, 4.0, inlier_count=40, recall=1.0, precision=0.5,
                    iterations=7),
        TrialRecord(5, 1.0, math.inf, math.inf, math.inf, 1.0, "NoHypothesis"),
        TrialRecord(6, 1.5, math.inf, math.inf, math.inf, 1.0, "NoHypothesis"),
    ]
    assert formats.emit_trial_csv(records, summarize(records)) == (
        "record,trial,theta_rad,rot_err,t_ang_err_deg,scale_rel_err,root_count,n_poses,"
        "inlier_count,recall,precision,iterations,failure\n"
        "trial,0,0.10000000000000001,1e-10,0.25,,8,2,,,,,\n"
        "trial,1,1.25,3e-10,0.75,0.125,10,3,,,,,\n"
        "trial,2,2.5,inf,inf,inf,,,,,,,DegenerateConfiguration\n"
        "trial,3,0.5,0.5,2,-inf,,,37,0.75,1,12,\n"
        "trial,4,0.75,0.25,1,0.10000000000000001,,,40,1,0.5,7,\n"
        "trial,5,1,inf,inf,inf,,,,,,,NoHypothesis\n"
        "trial,6,1.5,inf,inf,inf,,,,,,,NoHypothesis\n"
        "summary_lq,,,2.5000000000000002e-10,0.625,0.10625000000000001,8.5,2.25,37.75,0.8125,"
        "0.625,8.25,\n"
        "summary_median,,,0.12500000015000001,0.875,0.1125,9,2.5,38.5,0.875,0.75,9.5,\n"
        "summary_uq,,,0.3125,1.25,0.11874999999999999,9.5,2.75,39.25,0.9375,0.875,10.75,\n"
        "summary_mean,,,0.18750000010000001,1,0.1125,9,2.5,38.5,0.875,0.75,9.5,\n"
        "summary_failed,1,,,,,,,,,,,DegenerateConfiguration\n"
        "summary_failed,2,,,,,,,,,,,NoHypothesis\n"
    )


class TestCmdImuAngle:
    def write_log(self, tmp_path, w=(0.0, 0.0, 0.5), n=101):
        samples = [GyroSample(int(i * 1e7), np.asarray(w, dtype=float)) for i in range(n)]
        path = tmp_path / "gyro.csv"
        path.write_text(formats.emit_gyro_csv(samples))
        return path

    def test_constant_rate(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        assert main(["imu-angle", "--gyro", str(path), "--from", "0", "--to", "1000000000"]) == 0
        out = capsys.readouterr().out
        angle = float(out.splitlines()[0].split()[1])
        assert abs(angle - 0.5) < 1e-12

    def test_empty_interval(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        assert main(["imu-angle", "--gyro", str(path), "--from", "5", "--to", "5"]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split()[1]) == 0.0

    def test_interval_outside_log(self, tmp_path):
        path = self.write_log(tmp_path)
        code = main(["imu-angle", "--gyro", str(path), "--from", "0", "--to", "2000000000"])
        assert code == 2

    def test_bias_flag(self, tmp_path, capsys):
        path = self.write_log(tmp_path, w=(0.1, 0.2, 0.3))
        assert main(
            ["imu-angle", "--gyro", str(path), "--from", "0", "--to", "1000000000",
             "--bias-correct", "0.1,0.2,0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split()[1]) == 0.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y,z\n0,0,0,0\n")
        assert main(["imu-angle", "--gyro", str(path), "--from", "0", "--to", "1"]) == 1

    def test_integrates_the_log_once(self, tmp_path, capsys, monkeypatch):
        # A half turn: the printed angle is the clamped one of
        # frame_angle and R the one of integrate_gyro, from one pass.
        path = self.write_log(tmp_path, w=(0.0, 0.0, math.pi))
        samples = formats.parse_gyro_csv(path.read_text())
        R = imu.integrate_gyro(samples, 0, 1_000_000_000)
        angle = imu.frame_angle(R)
        assert angle == math.nextafter(math.pi, 0.0)
        calls, original = [], imu.integrate_gyro

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(imu, "integrate_gyro", spy)
        monkeypatch.setattr(cli, "integrate_gyro", spy)
        assert main(["imu-angle", "--gyro", str(path), "--from", "0", "--to", "1000000000"]) == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"angle_rad {formats.format_float(angle)}"
        assert lines[2] == "R " + " ".join(formats.format_float(v) for v in R.ravel())

    def test_gyro_csv_roundtrip(self, tmp_path):
        path = self.write_log(tmp_path, w=(0.123456789012345678, -0.5, 1e-17))
        samples = formats.parse_gyro_csv(path.read_text())
        assert formats.emit_gyro_csv(samples) == path.read_text()
