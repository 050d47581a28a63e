"""Derive the fixed pivot partition of each minimal problem.

    PYTHONPATH=src python tests/derive_partitions.py

prints the ``pivots`` tuple of ``REGULAR`` and of ``GENERAL`` as committed in
``relpose/gbsolver.py``; ``tests/test_partitions.py`` checks that they agree.

The candidates are the complete-pivoting partitions of a few noise-free
``relpose.synth`` scenes, one per angle stratum.  Each candidate is scored
on held-out scenes drawn from other seeds over the same strata, by running
the fixed path alone (elimination on the candidate, action matrix, roots,
polishing):

- a *fallback* is a scene where that path raises or drops a root as
  inconsistent, so the solver would redo it with complete pivoting;
- a *miss* is a scene where it returns roots but none within ``TRUTH_TOL``
  of the true rotation, which no fallback would catch.

The partition with the fewest misses wins, then the fewest fallbacks, then
the first in candidate order, so the choice is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

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
from relpose.poly import build_f_polynomials, build_g_polynomials
from relpose.synth import SceneConfig, generate_scene

# Angle strata in degrees, covering the domain the benchmarks use.
THETAS_DEG = (5.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 170.0)
CANDIDATE_SEEDS = range(1)
HELD_OUT_SEEDS = range(1000, 1012)
# Frobenius distance of a recovered rotation from the truth that counts as found.
TRUTH_TOL = 1e-6

PROBLEMS = {"REGULAR": REGULAR, "GENERAL": GENERAL}


def scenes(problem, seeds):
    """Noise-free ``(constraint, truth R, generators, template)`` of every
    stratum and seed, motions alternating."""
    out = []
    generalized = problem is GENERAL
    build = build_g_polynomials if generalized else build_f_polynomials
    for k, (deg, seed) in enumerate((d, s) for d in THETAS_DEG for s in seeds):
        theta = math.radians(deg)
        cfg = SceneConfig(seed=seed, theta_rad=theta, generalized=generalized,
                          motion=("forward", "sideways")[k % 2])
        truth, pairs = generate_scene(cfg, problem.sample_size)
        c = sigma_from_angle(theta)
        gens = build(pairs, c)
        tpl = assemble_reduced_template(gens, problem.multipliers, problem.target_degree, c,
                                        extra_rows=problem.extra_rows)
        out.append((c, truth.R, gens, tpl))
    return out


def candidates(problem) -> list[tuple[int, ...]]:
    """Distinct complete-pivoting partitions of the candidate scenes, sorted."""
    found: list[tuple[int, ...]] = []
    for _, _, _, tpl in scenes(problem, CANDIDATE_SEEDS):
        pivots = tuple(sorted(rref_conditioned(tpl.matrix, **problem.pivot_hints)[1]))
        if pivots not in found:
            found.append(pivots)
    return found


def score(problem, pivots: tuple[int, ...], held_out) -> tuple[int, int]:
    """Misses and fallbacks of the fixed path on ``pivots`` over ``held_out``."""
    misses = fallbacks = 0
    for c, R, gens, tpl in held_out:
        try:
            reduced, piv = rref_conditioned(tpl.matrix, pivots=pivots)
            qb = quotient_basis_from_pivots(tpl.basis, piv, problem.basis_size)
            action = build_action_matrix(reduced, piv, tpl.basis, qb)
            extracted = extract_roots(eigensolve_real(action), qb)
        except RelposeError:
            fallbacks += 1
            continue
        if extracted.n_dropped_inconsistent:
            fallbacks += 1
            continue
        roots = polish_roots(gens, extracted.roots, c)
        u = roots * (math.sqrt(1.0 - c.sigma**2) / np.linalg.norm(roots, axis=1))[:, None]
        if not len(u) or np.min(np.linalg.norm(rotation_stack(c.sigma, u) - R, axis=(1, 2))) > TRUTH_TOL:
            misses += 1
    return misses, fallbacks


def derive(problem, verbose: bool = False) -> tuple[int, ...]:
    held_out = scenes(problem, HELD_OUT_SEEDS)
    scored = [(score(problem, pivots, held_out), pivots) for pivots in candidates(problem)]
    if verbose:
        for (misses, fallbacks), pivots in scored:
            print(f"#   misses {misses:3d}  fallbacks {fallbacks:3d}  {pivots}")
    # min keeps the first of equal scores.
    return min(scored, key=lambda entry: entry[0])[1]


def main() -> None:
    for name, problem in PROBLEMS.items():
        print(f"# {name}: {len(THETAS_DEG) * len(HELD_OUT_SEEDS)} held-out scenes")
        print(f"{name} = {derive(problem, verbose=True)}")


if __name__ == "__main__":
    main()
