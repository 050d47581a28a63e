"""``tests/stage_costs.py`` runs outside the test suite, so a stage that
moves would break it unseen: every stage it spies on must be a callable
attribute where it spies, and a solve must call it there: a stacked solve
every stage but those of ``SINGLE``, a single solve every one."""

import numpy as np
import pytest

import relpose
from relpose.geom import rotation_angle
from relpose.synth import SceneConfig, generate_scene
from stage_costs import SINGLE, one_pass, single_pass, stage_names


@pytest.mark.parametrize("solver", ["reg4", "gen5"])
def test_every_spied_stage_is_called_where_it_is_spied(solver):
    names = stage_names(relpose, solver)
    assert all(callable(getattr(mod, attr, None)) for mod, attr in names)
    size = 4 if solver == "reg4" else 5
    truth, pairs = generate_scene(SceneConfig(seed=3, generalized=solver == "gen5"), 2 * size)
    solve = relpose.solve_4pt_angle if solver == "reg4" else relpose.solve_gen5pt_angle
    samples = np.arange(2 * size).reshape(-1, size).repeat(4, 0)
    theta = rotation_angle(truth.R)
    own = one_pass(relpose, names, [(solve, pairs, theta, samples)])
    for spied in own.values():
        assert [attr for _, attr in names if attr not in spied] == list(SINGLE)
    single = single_pass(relpose, names, [(solve, pairs[:size], theta)])
    assert [attr for _, attr in names if attr not in single] == []
