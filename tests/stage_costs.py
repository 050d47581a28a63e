"""Fixed and per-sample cost of every stage of a stacked solver call, and
its cost in a single solve.

    python3 tests/stage_costs.py [--pairs 15] [--problems 30] [--repeats 15] [--calls]

Takes the first ``--pairs`` frame pairs of the ``ransac`` panel of
``perfbench/run.py`` and, on each, the first 32 samples its RANSAC run
draws.  Solves the first sample alone and the first 8 and the first 32 as
one stack (``samples=``, so each root takes one inverse-iteration step and
none is polished), on the pairs as ``ransac_estimate`` hands them over
(their ``gbsolver.RayTable`` where the package has one), with a spy on
every stage where the one solve path of ``gbsolver.solve`` calls it: in
the solver module, the attributes that ``perfbench/spans.py`` traces, plus
``residual_gate``, the pose rule ``_poses`` and its rows and, for gen5,
the central screen; for gen5, the generator internals ``_g_rows`` and
``_g_dets`` in ``poly``; in ``gbsolver``, the shared steps
``rotation_roots``, ``_eliminate``, ``_attempt``, ``usable_rotations``, the
answer ``SamplePoses`` and the reduction ``reduce_columns_mod_h`` that
template assembly calls there, and the recording call ``Losses.lose``.  It also solves
the first ``--problems`` problems of the ``minimal`` panel as single
solves (no ``samples``: two steps per root, then ``polish_roots``, which
is spied only there).  A stage's time is its own, less that of the spied
stages it calls; ``solve`` is what no spy holds (checking arguments,
gathering the rays and the rest of ``gbsolver.solve``).  From the times
``t1``, ``t8`` and ``t32`` summed over the frame pairs it prints, per
stage and per call, the per-sample cost at 8, ``(t8 - t1) / 7``, and at
32, ``(t32 - t1) / 31``, and the fixed cost ``t1`` less one sample at 8,
in microseconds: medians over ``--repeats`` passes, after one untimed
pass, and the own time per single solve (``single``).  A cut in the fixed
cost that costs more per sample shows in the column at 32, the size of
late RANSAC rounds.  Each pass is followed by runs of the reference
kernel of ``perfbench/run.py`` and its times are scaled as that benchmark
scales an operation's, to the speed of the machine at rest, so that runs
made at different host loads compare.

For reg4, where the package has ``solver_reg4.epipolar_step``, each pass
also times, per frame pair, the local optimization that ends a RANSAC
round: the step on the first round's best hypothesis (the most inliers
among the poses of its first ``robust.BATCH_LIMIT`` samples, ties to the
lower total) and the ``sampson_errors`` call that re-scores the stepped
pose on all observations.  Their rows give microseconds per call.

With ``--calls`` it times nothing and instead counts, with ``cProfile``,
the function calls per single solve of the ``minimal`` problems and per
stacked call of 8 samples on the frame pairs, averaged over them and
split into three kinds: Python functions of the package (with the
``__init__`` that ``dataclasses`` generates for its classes), numpy's
Python wrappers, and C-level calls (builtins, ndarray methods, ufunc
methods).  A cut in a solve's fixed cost that trades one kind for another
shows there.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import pstats
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from panel_digests import PERFBENCH, STACK_SIZES as SIZES, load_run, stacked_calls

# The stages spied in each solver module besides the traced layers.
COMMON = ("residual_gate", "_poses")
HELPERS = {
    "reg4": ("cheiral_counts",),
    "gen5": ("_screen", "_central", "_depth_rows", "_sample_residuals"),
}
# The generator internals, spied in ``poly``.
POLY = {"reg4": (), "gen5": ("_g_rows", "_g_dets")}
# The shared pipeline steps, spied in ``gbsolver``, and the reduction that
# ``gbsolver`` calls.
GBSOLVER = (
    "rotation_roots", "_eliminate", "_attempt", "usable_rotations", "SamplePoses",
    "reduce_columns_mod_h",
)
# The stages that only a single solve calls, spied in the solver module.
SINGLE = ("polish_roots",)


class Spies:
    """Own time of every spied call, less that of the spied calls inside it."""

    def __init__(self):
        self.own: Counter = Counter()
        self._inner: list[float] = []

    def wrap(self, name: str, fn):
        def spy(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.own[name] += took - self._inner.pop()
                if self._inner:
                    self._inner[-1] += took

        return spy


def stage_names(rp, solver: str) -> list[tuple[object, str]]:
    """``(module, attribute)`` of every spied stage of ``solver``."""
    module = getattr(rp, f"solver_{solver}")
    spans = load_spans()
    traced = [attr for mod, attr, _ in spans.LAYERS if mod == module.__name__.split(".")[-1]]
    names = [(module, attr) for attr in (*traced, *COMMON, *HELPERS[solver], *SINGLE)]
    names += [(rp.poly, attr) for attr in POLY[solver]]
    names += [(rp.gbsolver, attr) for attr in GBSOLVER]
    if hasattr(rp.gbsolver, "Losses"):
        # The recording call, where the package has one.
        names.append((rp.gbsolver.Losses, "lose"))
    return names


def load_spans():
    """``perfbench/spans.py`` as a module, read only."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def spied(names, solves) -> Counter:
    """Own time of every stage, summed over the calls ``solves`` makes with
    a ``solve`` function that it wraps in a spy of its own."""
    spies = Spies()
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in names]
    for mod, attr, fn in originals:
        setattr(mod, attr, spies.wrap(attr, fn))
    try:
        solves(lambda fn: spies.wrap("solve", fn))
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
    return spies.own


def one_pass(rp, names, calls) -> dict[int, Counter]:
    """Own time of every stage, summed over the stacked ``calls``, per stack size."""
    out = {}
    for size in SIZES:

        def solves(spy):
            for fn, pairs, theta, samples in calls:
                spy(fn)(pairs, theta, samples=samples[:size])

        out[size] = spied(names, solves)
    return out


def single_pass(rp, names, problems) -> Counter:
    """Own time of every stage, summed over the single solves of ``problems``,
    ``(solve, pairs, theta)``; a solve that raises counts as it ran."""

    def solves(spy):
        for fn, pairs, theta in problems:
            try:
                spy(fn)(pairs, theta)
            except rp.RelposeError:
                pass

    return spied(names, solves)


def first_round_bests(rp, calls, threshold: float) -> list[tuple]:
    """Per stacked call ``(solve, table, theta, samples)``, the arguments of
    the step that its first RANSAC round ends with, and the rays it is
    re-scored on: the round's best hypothesis at ``threshold`` and the rays
    of its inliers."""
    bests = []
    for fn, table, theta, samples in calls:
        answer = fn(table, theta, samples=samples[: rp.robust.BATCH_LIMIT])
        q1, q2 = table.rays
        errors = rp.solver_reg4.sampson_errors(answer.R, answer.t, q1, q2)
        masks = errors < threshold
        # The most inliers, then the lowest total, then the first weighed.
        h = np.lexsort((np.where(masks, errors, 0.0).sum(1), -masks.sum(1)))[0]
        mask = masks[h]
        args = (answer.R[h], answer.t[h], answer.sigma, answer.u[h], q1[mask], q2[mask])
        bests.append((args, (q1, q2)))
    return bests


def step_pass(rp, bests) -> Counter:
    """Own time of the step and of its re-score, summed over ``bests``."""
    own: Counter = Counter()
    for args, rays in bests:
        start = time.perf_counter()
        stepped = rp.solver_reg4.epipolar_step(*args)
        mid = time.perf_counter()
        if stepped is not None:
            rp.solver_reg4.sampson_errors(stepped[0], stepped[1], *rays)
        own["epipolar_step"] += mid - start
        own["re-score"] += time.perf_counter() - mid
    return own


def call_counts(calls, raised=()) -> dict[str, float]:
    """Function calls per call of ``calls``, ``(solve, args, kwargs)``, by
    kind: ``relpose`` (every Python function outside numpy: the package's
    own and the ``__init__`` that ``dataclasses`` generates for its
    classes), ``numpy`` (its Python wrappers) and ``C``, and their
    ``total``.  A solve that raises one of ``raised`` counts as it ran."""
    profile = cProfile.Profile()
    for fn, args, kwargs in calls:
        try:
            profile.enable()
            try:
                fn(*args, **kwargs)
            finally:
                profile.disable()
        except raised:
            pass
    numpy_dir = str(Path(np.__file__).resolve().parent) + "/"
    kinds: Counter = Counter()
    for (path, _, name), (_, n_calls, *_rest) in pstats.Stats(profile).stats.items():
        if path == "~":
            # The profiler's own ``disable`` is no call of the solve.
            kinds["C"] += 0 if "_lsprof.Profiler" in name else n_calls
        elif str(Path(path).resolve()).startswith(numpy_dir):
            kinds["numpy"] += n_calls
        else:
            kinds["relpose"] += n_calls
    counts = {kind: kinds[kind] / len(calls) for kind in ("relpose", "numpy", "C")}
    counts["total"] = sum(counts.values())
    return counts


def print_calls(solver: str, single: list, stacked: list, raised) -> None:
    """Print the call counts of ``single`` and ``stacked`` solves."""
    print(f"{solver}: function calls per call, counted with cProfile")
    print(f"  {'call':28s} {'total':>8s} {'relpose':>8s} {'numpy':>8s} {'C':>8s}")
    for label, calls in (("single solve", single), ("stack of 8", stacked)):
        counts = call_counts(calls, raised)
        print(f"  {label:28s} " + " ".join(f"{counts[k]:8.1f}" for k in
                                          ("total", "relpose", "numpy", "C")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("--problems", type=int, default=30)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--calls", action="store_true", help="count calls instead of timing")
    args = ap.parse_args(argv)
    run = load_run()
    rp = run.load_relpose()
    reference = run.Reference()
    panel, minimal = run.make_panel(rp, "ransac"), run.make_panel(rp, "minimal")
    for solver, ops in panel.items():
        calls = stacked_calls(rp, solver, ops[: args.pairs])
        problems = [(op.fn, *op.args) for op in minimal[solver][: args.problems]]
        if args.calls:
            # One uncounted pass first, so that every cache is filled.
            single = [(fn, (pairs, theta), {}) for fn, pairs, theta in problems]
            stacked = [(fn, (pairs, theta), {"samples": samples[:8]})
                       for fn, pairs, theta, samples in calls]
            call_counts(single + stacked, rp.RelposeError)
            print_calls(solver, single, stacked, rp.RelposeError)
            continue
        names = stage_names(rp, solver)
        bests = []
        if solver == "reg4" and hasattr(rp.solver_reg4, "epipolar_step"):
            bests = first_round_bests(rp, calls, ops[0].args[2].inlier_threshold)
        one_pass(rp, names, calls)
        single_pass(rp, names, problems)
        passes, singles, steps, ref_ms = [], [], [], []
        for _ in range(args.repeats):
            start = time.perf_counter()
            passes.append(one_pass(rp, names, calls))
            singles.append(single_pass(rp, names, problems))
            steps.append(step_pass(rp, bests))
            ref_ms.append(reference.after(1e3 * (time.perf_counter() - start)))
        # Per pass, the factor from its summed seconds to microseconds per
        # call at the reference speed, and per single solve.
        scales = run.scale_to_reference(np.full(len(passes), 1e6 / len(calls)), ref_ms)
        single_scales = scales * len(calls) / len(problems)
        stages = ["solve", *(attr for _, attr in names)]
        print(f"{solver}: us per call, {len(calls)} frame pairs and {len(problems)} single "
              f"solves, median of {args.repeats}, scaled to the reference kernel")
        print(f"  {'stage':28s} {'fixed':>9s} {'per sample at 8':>16s} {'at 32':>8s} "
              f"{'single':>8s}")
        totals = [0.0, 0.0, 0.0, 0.0]
        for stage in stages:
            per = {
                size: [f * (p[size][stage] - p[1][stage]) / (size - 1) for p, f in zip(passes, scales)]
                for size in SIZES[1:]
            }
            fixed = [f * p[1][stage] - s for p, f, s in zip(passes, scales, per[8])]
            single = [f * p[stage] for p, f in zip(singles, single_scales)]
            row = [statistics.median(x) for x in (fixed, per[8], per[32], single)]
            totals = [a + b for a, b in zip(totals, row)]
            print(f"  {stage:28s} {row[0]:9.1f} {row[1]:16.1f} {row[2]:8.1f} {row[3]:8.1f}")
        print(f"  {'total':28s} {totals[0]:9.1f} {totals[1]:16.1f} {totals[2]:8.1f} "
              f"{totals[3]:8.1f}")
        if bests:
            print(f"  local optimization, per call on the first round's best of {len(bests)} "
                  f"frame pairs:")
            for stage in ("epipolar_step", "re-score"):
                per_call = statistics.median(f * p[stage] for p, f in zip(steps, scales))
                print(f"  {stage:28s} {per_call:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
