"""``tests/stage_costs.py`` runs outside the test suite, so a stage that
moves would break it unseen: every stage it spies on must be a callable
attribute where it spies, and a solve must call it there: a stacked solve
every stage but those of ``SINGLE``, a single solve every one, gen5's
generator internals and the reduction included; the
rows of the reg4 step must time a step and its re-score; and ``--calls``
must split every call of a solve into its three kinds."""

import numpy as np
import pytest

import relpose
from relpose.geom import rotation_angle
from relpose.synth import SceneConfig, generate_scene
from stage_costs import (
    SINGLE,
    call_counts,
    first_round_bests,
    main,
    one_pass,
    single_pass,
    stage_names,
    step_pass,
)


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


@pytest.mark.parametrize("solver", ["reg4", "gen5"])
def test_the_generator_internals_and_the_reduction_take_their_own_time(solver):
    # gen5's rows and determinants are spied in ``poly`` and the reduction
    # where ``gbsolver`` calls it, so that each shows apart from its caller.
    names = stage_names(relpose, solver)
    inner = [(relpose.poly, "_g_rows"), (relpose.poly, "_g_dets")] if solver == "gen5" else []
    inner.append((relpose.gbsolver, "reduce_columns_mod_h"))
    assert all(name in names for name in inner)
    size = 4 if solver == "reg4" else 5
    truth, pairs = generate_scene(SceneConfig(seed=4, generalized=solver == "gen5"), size)
    solve = relpose.solve_4pt_angle if solver == "reg4" else relpose.solve_gen5pt_angle
    own = single_pass(relpose, names, [(solve, pairs, rotation_angle(truth.R))])
    outer = "build_f_polynomials" if solver == "reg4" else "build_g_polynomials"
    assert min(own[attr] for _, attr in inner) > 0 and own[outer] > 0
    assert own["assemble_reduced_template"] > 0


def test_the_step_rows_time_a_step_and_its_re_score():
    # Frame pairs of 12 noise-free observations: every first-round best has
    # more inliers than a sample, so each pair takes the step.
    calls = []
    for seed in range(3):
        truth, pairs = generate_scene(SceneConfig(seed=seed), 12)
        samples = np.arange(12).reshape(3, 4).repeat(3, 0)
        table = relpose.gbsolver.RayTable(pairs, relpose.gbsolver.REGULAR.ray_names)
        calls.append((relpose.solve_4pt_angle, table, rotation_angle(truth.R), samples))
    bests = first_round_bests(relpose, calls, 1e-12)
    assert [len(args[4]) for args, _ in bests] == [12, 12, 12]
    assert all(relpose.solver_reg4.epipolar_step(*args) is not None for args, _ in bests)
    own = step_pass(relpose, bests)
    assert sorted(own) == ["epipolar_step", "re-score"] and min(own.values()) > 0


@pytest.mark.parametrize("solver", ["reg4", "gen5"])
def test_call_counts_split_every_call_into_three_kinds(solver):
    size = 4 if solver == "reg4" else 5
    truth, pairs = generate_scene(SceneConfig(seed=3, generalized=solver == "gen5"), 2 * size)
    solve = relpose.solve_4pt_angle if solver == "reg4" else relpose.solve_gen5pt_angle
    theta = rotation_angle(truth.R)
    samples = np.arange(2 * size).reshape(-1, size)
    for calls in ([(solve, (pairs[:size], theta), {})],
                  [(solve, (pairs, theta), {"samples": samples})] * 2):
        counts = call_counts(calls, relpose.RelposeError)
        assert sorted(counts) == ["C", "numpy", "relpose", "total"]
        parts = [counts[kind] for kind in ("relpose", "numpy", "C")]
        assert sum(parts) == counts["total"] and min(parts) > 0


def test_the_calls_option_prints_both_rows_per_solver(capsys):
    assert main(["--pairs", "1", "--problems", "1", "--calls"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for solver in ("reg4", "gen5"):
        at = lines.index(f"{solver}: function calls per call, counted with cProfile")
        rows = [line.split() for line in lines[at + 2 : at + 4]]
        assert [row[:-4] for row in rows] == [["single", "solve"], ["stack", "of", "8"]]
        for row in rows:
            total, *parts = map(float, row[-4:])
            assert total == pytest.approx(sum(parts)) and min(parts) > 0
