import math

import numpy as np
import pytest

from relpose.exceptions import CoverageGap
from relpose.geom import rotation_angle
from relpose.imu import GyroSample, angle_between_frames, integrate_gyro, rotation_from_rate


def constant_rate_log(w, n=101, dt_ns=10_000_000):
    return [GyroSample(i * dt_ns, np.asarray(w, dtype=float)) for i in range(n)]


def sinusoid_log(t0_ns, t1_ns, n):
    ts = np.linspace(t0_ns, t1_ns, n).astype(np.int64)
    out = []
    for t in ts:
        s = t * 1e-9
        out.append(
            GyroSample(int(t), np.array([0.8 * math.sin(3 * s), 0.5 * math.cos(2 * s), 0.9 * math.sin(5 * s)]))
        )
    return out


class TestIntegrateGyro:
    def test_zero_rates_identity(self):
        log = constant_rate_log([0.0, 0.0, 0.0])
        R = integrate_gyro(log, 0, 1_000_000_000)
        assert np.array_equal(R, np.eye(3))

    def test_constant_rate_exact(self):
        log = constant_rate_log([0.0, 0.0, 0.5])
        R = integrate_gyro(log, 0, 1_000_000_000)
        assert abs(rotation_angle(R) - 0.5) < 1e-12
        expected = rotation_from_rate(np.array([0.0, 0.0, 0.5]), 1.0)
        assert np.max(np.abs(R - expected)) < 1e-12

    def test_constant_rate_any_axis(self):
        w = np.array([0.3, -0.2, 0.4])
        log = constant_rate_log(w)
        R = integrate_gyro(log, 0, 1_000_000_000)
        assert abs(rotation_angle(R) - np.linalg.norm(w)) < 1e-12

    def test_partial_interval_clipping(self):
        log = constant_rate_log([0.0, 0.0, 1.0])
        R = integrate_gyro(log, 250_000_000, 750_000_000)
        assert abs(rotation_angle(R) - 0.5) < 1e-12

    def test_mid_sample_boundaries(self):
        log = constant_rate_log([0.0, 1.0, 0.0])
        R = integrate_gyro(log, 5_000_000, 15_000_000)  # spans parts of two intervals
        assert abs(rotation_angle(R) - 0.01) < 1e-14

    def test_composition_identity(self):
        log = sinusoid_log(0, 2_000_000_000, 201)
        a, b, c = 0, 1_000_000_000, 2_000_000_000
        R_ab = integrate_gyro(log, a, b)
        R_bc = integrate_gyro(log, b, c)
        R_ac = integrate_gyro(log, a, c)
        assert np.max(np.abs(R_bc @ R_ab - R_ac)) < 1e-10

    def test_orthogonal_along_the_way(self):
        log = sinusoid_log(0, 1_000_000_000, 97)
        R = integrate_gyro(log, 0, 1_000_000_000)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12

    def test_first_order_convergence(self):
        ref = integrate_gyro(sinusoid_log(0, 1_000_000_000, 64 * 128 + 1), 0, 1_000_000_000)
        errs = []
        for n in (65, 129):
            R = integrate_gyro(sinusoid_log(0, 1_000_000_000, n), 0, 1_000_000_000)
            errs.append(np.linalg.norm(R - ref))
        ratio = errs[0] / errs[1]
        assert 1.8 <= ratio <= 2.2

    def test_coverage_gap(self):
        log = constant_rate_log([0.0, 0.0, 1.0])
        with pytest.raises(CoverageGap):
            integrate_gyro(log, -1, 1_000_000_000)
        with pytest.raises(CoverageGap):
            integrate_gyro(log, 0, 1_000_000_001)

    def test_empty_interval_is_identity(self):
        log = constant_rate_log([0.0, 0.0, 1.0])
        assert np.array_equal(integrate_gyro(log, 500_000_000, 500_000_000), np.eye(3))

    def test_nonmonotonic_timestamps_rejected(self):
        log = constant_rate_log([0.0, 0.0, 1.0])
        bad = [log[0], log[2], log[1]]
        with pytest.raises(ValueError):
            integrate_gyro(bad, 0, 20_000_000)

    def test_bias_subtraction(self):
        bias = np.array([0.1, -0.05, 0.2])
        log = constant_rate_log(bias)
        R = integrate_gyro(log, 0, 1_000_000_000, bias=bias)
        assert np.max(np.abs(R - np.eye(3))) < 1e-15

    @pytest.mark.parametrize("bad", [0.5e9 + 0.7, math.inf, math.nan, "0", True])
    def test_bounds_must_be_integers(self, bad):
        # A float bound was truncated to whole nanoseconds, or overflowed; a
        # bool passed as 1 ns.
        log = constant_rate_log([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="t_start_ns must be an integer"):
            integrate_gyro(log, bad, 1_000_000_000)
        with pytest.raises(ValueError, match="t_end_ns must be an integer"):
            integrate_gyro(log, 0, bad)

    def test_numpy_integer_bounds(self):
        log = constant_rate_log([0.0, 0.0, 1.0])
        R = integrate_gyro(log, np.int64(0), np.uint32(500_000_000))
        assert np.array_equal(R, integrate_gyro(log, 0, 500_000_000))

    @pytest.mark.parametrize(
        "bias", [0.05, [0.05], [0.05, 0.0], [0.0] * 4, np.zeros((3, 3)), np.zeros((1, 3))],
        ids=["scalar", "one", "two", "four", "3x3", "1x3"],
    )
    def test_bias_must_be_a_3_vector(self, bias):
        # Broadcasting would subtract a scalar from every axis, or return a
        # stack of rotations.
        log = constant_rate_log([0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="bias must be a 3-vector"):
            integrate_gyro(log, 0, 1_000_000_000, bias=bias)
        with pytest.raises(ValueError, match="bias must be a 3-vector"):
            angle_between_frames(log, 0, 1_000_000_000, bias=bias)


class TestAngleBetweenFrames:
    def test_zero_rates(self):
        log = constant_rate_log([0.0, 0.0, 0.0])
        assert angle_between_frames(log, 0, 1_000_000_000) == 0.0

    def test_constant_rate(self):
        log = constant_rate_log([0.0, 0.7, 0.0])
        assert abs(angle_between_frames(log, 0, 1_000_000_000) - 0.7) < 1e-12

    def test_result_below_pi(self):
        log = constant_rate_log([0.0, 0.0, math.pi])
        assert angle_between_frames(log, 0, 1_000_000_000) < math.pi

    def test_frame_change_invariance(self):
        from relpose.geom import UnitQuaternion, quat_to_rotation

        rng = np.random.default_rng(0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        Q = quat_to_rotation(UnitQuaternion(math.cos(0.6), math.sin(0.6) * axis))
        log = sinusoid_log(0, 1_000_000_000, 101)
        rotated = [GyroSample(s.timestamp_ns, Q @ s.w) for s in log]
        a1 = angle_between_frames(log, 0, 1_000_000_000)
        a2 = angle_between_frames(rotated, 0, 1_000_000_000)
        assert abs(a1 - a2) < 1e-12


class TestGyroSample:
    @pytest.mark.parametrize("bad", [1.5, 2.0, math.inf, np.float64(3.0), "4", True])
    def test_timestamp_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="timestamp_ns must be an integer"):
            GyroSample(timestamp_ns=bad, w=np.zeros(3))

    def test_numpy_integer_timestamp_becomes_an_int(self):
        sample = GyroSample(timestamp_ns=np.int64(7), w=np.zeros(3))
        assert sample.timestamp_ns == 7 and type(sample.timestamp_ns) is int
