"""``tests/stage_costs.py`` runs outside the test suite, so a stage that
moves would break it unseen: every stage it spies on must be a callable
attribute where it spies, and a solve must call it there: a stacked solve
every stage but those of ``SINGLE``, a single solve every one, gen5's
generator internals and the reduction included; the
rows of the reg4 step must time a step and its re-score; ``--calls``
must split every call of a solve into its three kinds; and ``--against``
must run a second checkout's package next to this one.  The package's own
calls of one single solve per solver are pinned, so that a change that adds
fixed cost to a single solve shows as an edit of ``SINGLE_SOLVE_CALLS``."""

from pathlib import Path

import numpy as np
import pytest

import relpose
from relpose.geom import rotation_angle
from relpose.synth import SceneConfig, generate_scene
from stage_costs import (
    AGAINST,
    SINGLE,
    call_counts,
    first_round_bests,
    load_tree,
    main,
    one_pass,
    single_pass,
    stage_names,
    step_pass,
)

ROOT = Path(__file__).resolve().parents[1]
# The package's Python calls (``call_counts``' ``relpose`` kind) of one single
# solve of the scene of seed 1, caches filled.  They do not move with the
# numpy version; the numpy and C kinds do, so those are not pinned.
SINGLE_SOLVE_CALLS = {"reg4": 60, "gen5": 78}


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


@pytest.mark.parametrize("solver", ["reg4", "gen5"])
def test_a_single_solve_makes_the_pinned_package_calls(solver):
    size = 4 if solver == "reg4" else 5
    truth, pairs = generate_scene(SceneConfig(seed=1, generalized=solver == "gen5"), size)
    solve = relpose.solve_4pt_angle if solver == "reg4" else relpose.solve_gen5pt_angle
    calls = [(solve, (pairs, rotation_angle(truth.R)), {})]
    call_counts(calls)
    assert call_counts(calls)["relpose"] == SINGLE_SOLVE_CALLS[solver]


def test_a_second_checkout_loads_beside_the_package():
    other = load_tree(ROOT)
    assert other.__name__ == AGAINST and other is not relpose
    assert Path(other.solver_reg4.__file__) == Path(relpose.solver_reg4.__file__)
    assert other.solve_4pt_angle is not relpose.solve_4pt_angle
    assert other.gbsolver.RayTable is not relpose.gbsolver.RayTable


def test_the_against_option_prints_each_table_per_checkout(capsys):
    args = ["--pairs", "1", "--problems", "1", "--repeats", "2", "--against", str(ROOT)]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    for solver in ("reg4", "gen5"):
        heads = [line for line in lines if line.startswith(solver) and "us per call" in line]
        assert [head.split(":")[0] for head in heads] == [solver, f"{solver} against {ROOT}"]
        for head in heads:
            assert "median of 2" in head
            total = lines[lines.index(head) + 2 :]
            total = next(line for line in total if line.split()[0] == "total")
            assert min(map(float, total.split()[1:])) > 0
    assert main(["--pairs", "1", "--problems", "1", "--calls", "--against", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for solver in ("reg4", "gen5"):
        at = lines.index(f"{solver} against {ROOT}: function calls per call, counted with cProfile")
        assert lines[at + 2].split()[:2] == ["single", "solve"]
