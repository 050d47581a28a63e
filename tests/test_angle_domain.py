"""Accuracy of both solvers over the angle domain the API accepts.

Scenes are noise-free and built here, not by ``relpose.synth``: the rotation
axis is any random unit vector, with no visibility screen, and the second
view sees every point (its bearings are unit vectors to the points, in
front of the camera or not).  reg4 takes central rays, gen5 rays with their
own optical centres; motions alternate between forward and sideways.

The bound: a solve *finds* the truth when a returned rotation is within
``TRUTH_TOL`` (Frobenius) of the true one.  A solve that raises or returns
no such pose is a miss.
"""

import math

import numpy as np
import pytest

from relpose.exceptions import RelposeError, ScaleUnobservable
from relpose.geom import BearingPair, PluckerPair
from relpose.solver_gen5 import solve_gen5pt_angle
from relpose.solver_reg4 import solve_4pt_angle

TRUTH_TOL = 1e-6
N_SCENES = 100
# At most 1 miss in 100 scenes at each of these angles.
THETAS_DEG = (0.0, 15.0, 45.0, 75.0, 105.0, 135.0, 165.0, 170.0)
# Near a half turn the template is close to the non-generic system at
# sigma = 0, where every generator is even in the rotation vector, and both
# elimination paths lose roots: the allowed share of misses grows with it.
NEAR_HALF_TURN = {175.0: 3, 179.0: 12}

SOLVERS = {"reg4": (solve_4pt_angle, 4, False), "gen5": (solve_gen5pt_angle, 5, True)}


def axis_angle(axis: np.ndarray, theta: float) -> np.ndarray:
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def scene(rng, theta: float, forward: bool, n: int, generalized: bool):
    """True rotation and the pairs of one scene: points in a slab 0.75 to
    1.25 in front of the first camera, a 0.1 baseline, optical centres
    within about 0.03 of each camera centre for generalized rays."""
    axis = rng.normal(size=3)
    R = axis_angle(axis / np.linalg.norm(axis), theta)
    t = -R @ (np.array([0.0, 0.0, 0.1]) if forward else np.array([0.1, 0.0, 0.0]))
    z = rng.uniform(0.75, 1.25, n)
    X = np.stack([z * rng.uniform(-0.58, 0.58, n), z * rng.uniform(-0.37, 0.37, n), z], 1)
    o1, o2 = (0.03 * rng.normal(size=(2, n, 3))) if generalized else np.zeros((2, n, 3))
    d1 = X - o1
    d2 = X @ R.T + t - o2
    d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    if generalized:
        return R, [
            PluckerPair(q1=a, q2=b, m1=np.cross(a, p), m2=np.cross(b, q))
            for a, b, p, q in zip(d1, d2, o1, o2)
        ]
    return R, [BearingPair(q1=a, q2=b) for a, b in zip(d1, d2)]


def misses(solver: str, theta_deg: float) -> int:
    solve, n, generalized = SOLVERS[solver]
    theta = math.radians(theta_deg)
    rng = np.random.default_rng([int(round(100 * theta_deg)), n])
    count = 0
    for i in range(N_SCENES):
        R, pairs = scene(rng, theta, i % 2 == 0, n, generalized)
        try:
            poses = solve(pairs, theta)
        except RelposeError:
            count += 1
            continue
        count += min(np.linalg.norm(p.R - R) for p in poses) > TRUTH_TOL
    return count


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("theta_deg", THETAS_DEG)
def test_at_most_one_miss_in_a_hundred(solver, theta_deg):
    assert misses(solver, theta_deg) <= N_SCENES // 100


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("theta_deg", NEAR_HALF_TURN)
def test_near_a_half_turn(solver, theta_deg):
    assert misses(solver, theta_deg) <= NEAR_HALF_TURN[theta_deg]


def test_central_rays_raise_for_gen5():
    rng = np.random.default_rng(7)
    for theta_deg in (30.0, 120.0, 0.0):
        _, pairs = scene(rng, math.radians(theta_deg), True, 5, generalized=False)
        pairs = [PluckerPair(q1=p.q1, q2=p.q2, m1=np.zeros(3), m2=np.zeros(3)) for p in pairs]
        with pytest.raises(ScaleUnobservable):
            solve_gen5pt_angle(pairs, math.radians(theta_deg))
