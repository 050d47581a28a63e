"""Derive the committed pivot partitions of each minimal problem.

    PYTHONPATH=src python tests/derive_partitions.py

prints the ``partitions`` tuple of ``REGULAR`` and of ``GENERAL`` as
committed in ``relpose/gbsolver.py``; ``tests/test_partitions.py`` checks
that they agree.  The solvers try the partitions in order: the first, and
the fallback where the first raises or drops a root as inconsistent.

A partition is scored on a set of scenes by running the elimination on it
(LU solve on the partition, action matrix, roots, polishing):

- a *fallback* is a scene where it raises or drops a root as inconsistent,
  so the solver would go on to the next partition;
- a *miss* is a scene where no root within ``TRUTH_TOL`` of the true
  rotation comes out and no later partition would run.  For the first
  partition only the scenes it does not fall back on count.  For the
  fallback every scene counts, and the roots are those the solvers keep of
  the two attempts: the attempt that dropped fewer roots as inconsistent.

The partition with the fewest misses wins, then the fewest fallbacks, then
the first in candidate order, so the choice is deterministic.  Every scene
is a noise-free ``relpose.synth`` scene, one per angle stratum and seed,
and no two sets share a seed.

- **First partition.**  The candidates are the complete-pivoting
  partitions of a few scenes, scored on held-out scenes.
- **Fallback partition.**  It is scored on the scenes of a larger pool on
  which the first partition falls back.  The candidates are the
  complete-pivoting partitions of those of them on which the first
  partition also misses, then the candidates of the first partition, the
  first partition itself left out.  (The complete-pivoting partitions of
  every scored scene pick the same ``GENERAL`` fallback, at three times
  the cost.)

Complete pivoting is ``reference_templates.rref_conditioned``: the package
eliminates only on committed partitions.
"""

from __future__ import annotations

import math

import numpy as np

from reference_templates import pivot_hints, rref_conditioned as complete_pivoting
from relpose.exceptions import RelposeError
from relpose.gbsolver import (
    GENERAL,
    REGULAR,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    polish_roots,
    quotient_basis_from_pivots,
    rref_conditioned,
)
from relpose.geom import rotation_stack, sigma_from_angle
from relpose.poly import _ray_stack, build_f_polynomials, build_g_polynomials
from relpose.synth import SceneConfig, generate_scene

# Angle strata in degrees, covering the domain the benchmarks use.
THETAS_DEG = (5.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 170.0)
CANDIDATE_SEEDS = range(1)
HELD_OUT_SEEDS = range(1000, 1012)
# The fallback's pool.
POOL_SEEDS = range(2000, 2100)
# Frobenius distance of a recovered rotation from the truth that counts as found.
TRUTH_TOL = 1e-6

PROBLEMS = {"REGULAR": REGULAR, "GENERAL": GENERAL}


def scenes(problem, seeds):
    """Noise-free ``(constraint, truth R, generators, template)`` of every
    stratum and seed, motions alternating."""
    out = []
    generalized = problem is GENERAL
    names = ("q1", "q2", "m1", "m2") if generalized else ("q1", "q2")
    build = build_g_polynomials if generalized else build_f_polynomials
    for k, (deg, seed) in enumerate((d, s) for d in THETAS_DEG for s in seeds):
        theta = math.radians(deg)
        cfg = SceneConfig(seed=seed, theta_rad=theta, generalized=generalized,
                          motion=("forward", "sideways")[k % 2])
        truth, pairs = generate_scene(cfg, problem.sample_size)
        c = sigma_from_angle(theta)
        gens = build(*_ray_stack(pairs, *names), c)
        tpl = assemble_reduced_template(gens, problem, c)
        out.append((c, truth.R, gens, tpl))
    return out


def eliminate(problem, pivots, tpl):
    """Roots extracted on ``pivots``, or None where the elimination raises;
    the kernels run under the error state that a solve holds for them."""
    try:
        with np.errstate(all="ignore"):
            qb = quotient_basis_from_pivots(problem, pivots)
            action = build_action_matrix(rref_conditioned(tpl, qb), qb)
            return extract_roots([eigensolve_real(action)], action[None], qb)
    except RelposeError:
        return None


def falls_back(extracted) -> bool:
    return extracted is None or extracted.n_dropped_inconsistent > 0


def kept(earlier, extracted):
    """The roots the solvers keep of two attempts: those that dropped fewer
    roots as inconsistent, the earlier on a tie."""
    if extracted is None or (
        earlier is not None and earlier.n_dropped_inconsistent <= extracted.n_dropped_inconsistent
    ):
        return earlier
    return extracted


def finds_truth(scene, extracted) -> bool:
    """Whether a polished root of ``extracted`` is within ``TRUTH_TOL`` of the truth."""
    c, R, gens, _ = scene
    if extracted is None or not len(extracted.roots):
        return False
    with np.errstate(all="ignore"):
        roots = polish_roots(gens, extracted.roots, c)
    u = roots * (math.sqrt(1.0 - c.sigma**2) / np.linalg.norm(roots, axis=1))[:, None]
    return bool(np.min(np.linalg.norm(rotation_stack(c.sigma, u) - R, axis=(1, 2))) <= TRUTH_TOL)


def complete_pivoting_partitions(problem, among) -> list[tuple[int, ...]]:
    """Distinct sorted complete-pivoting partitions of the scenes ``among``."""
    found: list[tuple[int, ...]] = []
    for _, _, _, tpl in among:
        try:
            pivots = tuple(sorted(complete_pivoting(tpl, **pivot_hints(problem))[1]))
        except RelposeError:
            continue
        if pivots not in found:
            found.append(pivots)
    return found


def best(problem, candidates, among, earlier, verbose: bool):
    """The candidate with the fewest misses, then fewest fallbacks, on the
    scenes ``among``.  ``earlier`` holds what the partitions before it
    extracted on each scene; without them the candidate is the first
    partition, and a miss on a scene it falls back on does not count."""
    last = earlier is not None
    top = None
    for pivots in candidates:
        misses = fallbacks = 0
        for scene, before in zip(among, earlier or [None] * len(among)):
            extracted = eliminate(problem, pivots, scene[3])
            fell_back = falls_back(extracted)
            fallbacks += fell_back
            if last or not fell_back:
                misses += not finds_truth(scene, kept(before, extracted))
            # Both counts only grow and ties go to the earlier candidate,
            # so a candidate that reaches the leader's score cannot win.
            if top is not None and (misses, fallbacks) >= top[0]:
                break
        else:
            top = (misses, fallbacks), pivots
    if verbose:
        print(f"#   {len(candidates)} candidates on {len(among)} scenes; "
              f"misses {top[0][0]}, fallbacks {top[0][1]}")
    return top[1]


def derive(problem, verbose: bool = False) -> tuple[tuple[int, ...], ...]:
    """The first partition, then the fallback."""
    first_candidates = complete_pivoting_partitions(problem, scenes(problem, CANDIDATE_SEEDS))
    first = best(problem, first_candidates, scenes(problem, HELD_OUT_SEEDS), None, verbose)
    training, earlier = [], []
    for scene in scenes(problem, POOL_SEEDS):
        extracted = eliminate(problem, first, scene[3])
        if falls_back(extracted):
            training.append(scene)
            earlier.append(extracted)
    missed = [s for s, e in zip(training, earlier) if not finds_truth(s, e)]
    candidates = [
        pivots
        for pivots in dict.fromkeys(complete_pivoting_partitions(problem, missed)
                                    + first_candidates)
        if pivots != first
    ]
    return first, best(problem, candidates, training, earlier, verbose)


def main() -> None:
    for name, problem in PROBLEMS.items():
        print(f"# {name}")
        print(f"{name} = {derive(problem, verbose=True)}")


if __name__ == "__main__":
    main()
