"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from relpose import gbsolver
from relpose.exceptions import RelposeError
from relpose.geom import (
    BearingPair,
    quat_from_rotation,
    rotation_angle,
    sigma_from_angle,
)
from relpose.gbsolver import (
    GENERAL,
    REGULAR,
    assemble_reduced_template,
    build_action_matrix,
    eigensolve_real,
    extract_roots,
    quotient_basis_from_pivots,
)
from relpose.imu import GyroSample, integrate_gyro
from relpose.poly import (
    _ray_stack,
    build_f_polynomials,
    build_g_polynomials,
    grevlex_basis,
    grevlex_key,
)
from relpose.robust import RansacConfig, sampson_threshold_from_pixels
from relpose.solver_gen5 import solve_gen5pt_angle
from relpose.solver_reg4 import solve_4pt_angle
from relpose.synth import (
    SceneConfig,
    add_angle_noise,
    add_image_noise,
    generate_scene,
    run_ransac_trials,
    run_trials,
    summarize,
    translation_errors,
)
from reference_templates import (
    as_polynomials,
    f_determinant,
    reduce_mod_h,
    rref_conditioned,
    schur_equivalence_check,
)


def report(num: int, name: str, detail: str) -> None:
    print(f"\n[acceptance] criterion {num:02d} ({name}): PASS - {detail}")


def quartiles(values):
    return np.percentile(np.asarray(values, dtype=float), [25.0, 50.0, 75.0])


@pytest.fixture(scope="module")
def regular_noise_free():
    start = time.perf_counter()
    records = run_trials("reg4", SceneConfig(seed=2024), 1000)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def generalized_noise_free():
    start = time.perf_counter()
    records = run_trials("gen5", SceneConfig(seed=4048), 500)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_noise_free_regular(regular_noise_free):
    records, elapsed = regular_noise_free
    errs = np.array([r.rot_err for r in records])
    lq, median, _ = quartiles(errs)
    assert median < 1e-9, f"median rotation error {median:.3e}"
    assert lq < 1e-10, f"lower-quartile rotation error {lq:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s"
    report(1, "noise-free regular accuracy",
           f"1000 trials, median {median:.2e}, lq {lq:.2e}, runtime {elapsed:.1f} s")


def test_criterion_02_noise_free_generalized(generalized_noise_free):
    records, elapsed = generalized_noise_free
    errs = np.array([r.rot_err for r in records])
    _, median, _ = quartiles(errs)
    assert median < 1e-6, f"median rotation error {median:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s"
    report(2, "noise-free generalized accuracy",
           f"500 trials, median {median:.2e}, runtime {elapsed:.1f} s")


def _regular_pipeline_stats(seed):
    truth, pairs = generate_scene(SceneConfig(seed=seed), 4)
    c = sigma_from_angle(rotation_angle(truth.R))
    fs = build_f_polynomials(*_ray_stack(pairs, "q1", "q2"), c)
    tpl = assemble_reduced_template(fs, REGULAR, c)
    rem = grevlex_basis(5).remainder_monomials
    top = tuple(j for j, m in enumerate(rem) if sum(m) == 5)
    keep = frozenset(j for j, m in enumerate(rem)
                     if m in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    red, piv = rref_conditioned(tpl, protected_cols=keep, eliminate_first=top)
    # Every size the pivots leave, so that the caller checks it.
    qb = quotient_basis_from_pivots(replace(REGULAR, basis_size=tpl.shape[1] - len(piv)), piv)
    M = build_action_matrix(red[:, qb.template_cols], qb)
    ext = extract_roots([eigensolve_real(M)], M[None], qb)
    return qb.size, len(ext.roots)


def _general_pipeline_stats(seed):
    truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=True), 5)
    c = sigma_from_angle(rotation_angle(truth.R))
    gs = build_g_polynomials(*_ray_stack(pairs, "q1", "q2", "m1", "m2"), c)
    tpl = assemble_reduced_template(gs, GENERAL, c)
    rem = grevlex_basis(8).remainder_monomials
    top = tuple(j for j, m in enumerate(rem) if sum(m) == 8)
    keep = frozenset(j for j, m in enumerate(rem)
                     if m in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    red, piv = rref_conditioned(tpl, protected_cols=keep, eliminate_first=top)
    qb = quotient_basis_from_pivots(replace(GENERAL, basis_size=tpl.shape[1] - len(piv)), piv)
    M = build_action_matrix(red[:, qb.template_cols], qb)
    ext = extract_roots([eigensolve_real(M)], M[None], qb)
    return qb.size, len(ext.roots)


def test_criterion_03_solution_counts():
    n_reg_degenerate = 0
    max_reg_roots = 0
    for seed in range(1000):
        try:
            size, n_roots = _regular_pipeline_stats(10_000 + seed)
        except RelposeError:
            n_reg_degenerate += 1
            continue
        assert size == 20, f"regular quotient basis size {size} at seed {seed}"
        assert n_roots <= 20
        max_reg_roots = max(max_reg_roots, n_roots)
    n_gen_degenerate = 0
    max_gen_roots = 0
    for seed in range(1000):
        try:
            size, n_roots = _general_pipeline_stats(20_000 + seed)
        except RelposeError:
            n_gen_degenerate += 1
            continue
        assert size == 44, f"generalized quotient basis size {size} at seed {seed}"
        assert n_roots <= 44
        max_gen_roots = max(max_gen_roots, n_roots)
    report(3, "solution counts",
           f"1000+1000 trials, basis sizes 20/44 everywhere "
           f"(degenerate: {n_reg_degenerate}/{n_gen_degenerate}), "
           f"max real roots {max_reg_roots}/{max_gen_roots}")


def test_criterion_04_template_shapes():
    # the solvers additionally assert these shapes internally on every solve
    for seed in range(5):
        truth, pairs = generate_scene(SceneConfig(seed=seed), 4)
        c = sigma_from_angle(rotation_angle(truth.R))
        fs = build_f_polynomials(*_ray_stack(pairs, "q1", "q2"), c)
        tpl = assemble_reduced_template(fs, REGULAR, c)
        assert tpl.shape == (16, 36)
        truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=True), 5)
        c = sigma_from_angle(rotation_angle(truth.R))
        tpl = assemble_reduced_template(
            build_g_polynomials(*_ray_stack(pairs, "q1", "q2", "m1", "m2"), c), GENERAL, c
        )
        assert tpl.shape == (37, 81)
    report(4, "template shapes", "16x36 and 37x81 on every instance")


def _random_bearing_pairs(rng, n):
    out = []
    for _ in range(n):
        q1 = rng.normal(size=3)
        q2 = rng.normal(size=3)
        out.append(BearingPair(q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2)))
    return out


def test_criterion_05_schur_equivalence():
    rng = np.random.default_rng(5050)
    angles = [0.3, 0.7, math.pi / 2, 1.9, 2.6]
    worst = 0.0
    for theta in angles:
        c = sigma_from_angle(theta)
        for _ in range(100):
            fs = build_f_polynomials(*_ray_stack(_random_bearing_pairs(rng, 4), "q1", "q2"), c)
            worst = max(worst, schur_equivalence_check(fs, c))
    assert worst < 1e-11, f"max deviation {worst:.3e}"

    # spot-check the published four-term entry formula on a few instances
    b4 = grevlex_basis(4)
    plain = sorted(b4.monomials, key=grevlex_key, reverse=True)
    worst_spot = 0.0
    for _ in range(3):
        theta = rng.uniform(0.2, 2.8)
        c = sigma_from_angle(theta)
        fs = build_f_polynomials(*_ray_stack(_random_bearing_pairs(rng, 4), "q1", "q2"), c)
        tpl = assemble_reduced_template(fs, REGULAR, c)
        A = np.zeros((4, 35))
        for r, f in enumerate(as_polynomials(fs)):
            for m, v in zip(f.basis.monomials, f.coeffs):
                A[r, plain.index(m)] = v
        rem = grevlex_basis(5).remainder_monomials
        for mi, mult in enumerate(REGULAR.multipliers):
            for gi in range(4):
                col = rem.index((mult[0], mult[1], mult[2] + 2))
                expected = 2 * c.tau * A[gi, 0] - c.tau * A[gi, 9] - A[gi, 25] + A[gi, 30]
                worst_spot = max(worst_spot, abs(tpl[mi * 4 + gi, col] - expected))
    assert worst_spot < 1e-11
    report(5, "block-elimination equivalence",
           f"500 instances, max deviation {worst:.2e}, spot formula {worst_spot:.2e}")


def test_criterion_06_determinant_identities():
    rng = np.random.default_rng(6060)
    worst_cyclic = 0.0
    cyclic = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    bases = [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)]
    for _ in range(1000):
        theta = rng.uniform(0.1, 3.0)
        c = sigma_from_angle(theta)
        pairs = _random_bearing_pairs(rng, 4)
        for base in bases:
            dets = []
            for p in cyclic:
                i, j, k = base[p[0]], base[p[1]], base[p[2]]
                det = f_determinant(pairs, i, j, k, c)
                dets.append(reduce_mod_h(det, c).coeffs)
            scale = np.max(np.abs(dets[0]))
            worst_cyclic = max(
                worst_cyclic,
                np.max(np.abs(dets[0] - dets[1])) / scale,
                np.max(np.abs(dets[0] - dets[2])) / scale,
            )
    assert worst_cyclic < 1e-12, f"cyclic identity deviation {worst_cyclic:.3e}"

    worst_aux = 0.0
    for _ in range(1000):
        x1, y1, z1, x2, y2, z2 = rng.normal(size=(6, 3))
        lhs = (z1 @ np.cross(x1, y1)) * (z2 @ np.cross(x2, y2))
        rhs = np.linalg.det(np.array([x1, y1, z1]) @ np.stack([x2, y2, z2], axis=1))
        worst_aux = max(worst_aux, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst_aux < 1e-12, f"auxiliary identity deviation {worst_aux:.3e}"
    report(6, "determinant identity suite",
           f"1000 instances each, cyclic {worst_cyclic:.2e}, auxiliary {worst_aux:.2e}")


def _noise_curve(solver, n_trials, angle_sigma, seed0):
    curve = []
    for k, noise in enumerate((0.0, 0.25, 0.5, 1.0)):
        cfg = SceneConfig(seed=seed0 + k, motion="sideways")
        records = run_trials(solver, cfg, n_trials, noise_px=noise,
                             angle_noise_sigma=angle_sigma)
        lq, _, _ = quartiles([r.rot_err for r in records])
        curve.append(float(lq))
    return curve


def test_criterion_07_noise_robustness():
    five_deg_frobenius = 2 * math.sqrt(2) * math.sin(math.radians(5.0) / 2)
    details = []
    for solver, n_trials in (("reg4", 350), ("gen5", 150)):
        for angle_sigma in (0.0, 0.05):
            curve = _noise_curve(solver, n_trials, angle_sigma, seed0=7000)
            for lo, hi in zip(curve, curve[1:]):
                assert hi >= 0.9 * lo, (
                    f"{solver} sigma={angle_sigma}: non-monotonic curve {curve}"
                )
            assert curve[-1] < five_deg_frobenius, (
                f"{solver} sigma={angle_sigma}: lq at 1 px is {curve[-1]:.3e}"
            )
            details.append(f"{solver}/{angle_sigma}: 1px lq {curve[-1]:.2e}")
    report(7, "noise robustness", "; ".join(details) +
           f" (5 deg = {five_deg_frobenius:.3f} Frobenius)")


def test_criterion_08_ransac():
    scene = SceneConfig(seed=8080, motion="sideways")
    # At zero noise exact outlier rejection needs a tight consensus band: at
    # the wide default a slightly biased pose can graze one extra outlier and
    # outvote the exact pose.
    tight = RansacConfig(
        max_iterations=1000,
        inlier_threshold=sampson_threshold_from_pixels(0.01, scene.focal_px),
        seed=88,
    )
    records = run_ransac_trials("reg4", scene, tight, 100, 100, 0.3, noise_px=0.0)
    summary = summarize(records)
    assert summary["failures"] == {}
    recall, rot_err = summary["recall"]["mean"], summary["rot_err"]["mean"]
    assert recall >= 0.95, f"recall {recall:.3f}"
    assert rot_err < 1e-5, f"rotation error {rot_err:.3e}"

    # graceful degradation at 1 px noise: the consensus estimate beats a
    # single (possibly contaminated) minimal sample on translation direction
    wide = RansacConfig(
        max_iterations=1000,
        inlier_threshold=sampson_threshold_from_pixels(6.0, scene.focal_px),
        seed=99,
    )
    noisy_records = run_ransac_trials("reg4", scene, wide, 100, 100, 0.3, noise_px=1.0)
    ransac_t_err = summarize(noisy_records)["t_ang_err_deg"]["mean"]

    rng = np.random.default_rng(888)
    single_errors = []
    from relpose.synth import _corrupt

    for seed in range(100):
        trial_rng = np.random.default_rng(np.random.SeedSequence([8080, seed]))
        truth, pairs = generate_scene(scene, 100, rng=trial_rng)
        noisy = add_image_noise(pairs, 1.0, scene, trial_rng)
        observed, _ = _corrupt(noisy, scene, 0.3, trial_rng)
        theta_in = add_angle_noise(rotation_angle(truth.R), 0.0, trial_rng)
        idx = rng.choice(100, size=4, replace=False)
        try:
            poses = solve_4pt_angle([observed[i] for i in idx], theta_in)
            ang, _ = translation_errors(poses, truth.t, with_scale=False)
        except RelposeError:
            ang = 90.0
        single_errors.append(ang)
    single_mean = float(np.mean(single_errors))
    assert ransac_t_err < single_mean, (
        f"ransac {ransac_t_err:.2f} deg vs single sample {single_mean:.2f} deg"
    )
    report(8, "robust estimation",
           f"zero-noise recall {recall:.3f}, "
           f"rotation {rot_err:.2e}; at 1 px: "
           f"{ransac_t_err:.2f} deg vs single-sample {single_mean:.2f} deg")


def test_criterion_09_gyro_integration():
    w = np.array([0.2, -0.4, 0.3])
    log = [GyroSample(int(i * 1e7), w) for i in range(101)]
    R = integrate_gyro(log, 0, int(1e9))
    expected = np.linalg.norm(w)
    const_err = abs(rotation_angle(R) - expected)
    assert const_err < 1e-12

    def sin_log(n):
        ts = np.linspace(0, 1e9, n).astype(np.int64)
        return [
            GyroSample(int(t), np.array([
                0.8 * math.sin(3 * t * 1e-9),
                0.5 * math.cos(2 * t * 1e-9),
                0.9 * math.sin(5 * t * 1e-9),
            ]))
            for t in ts
        ]

    ref = integrate_gyro(sin_log(64 * 128 + 1), 0, int(1e9))
    errs = [np.linalg.norm(integrate_gyro(sin_log(n), 0, int(1e9)) - ref) for n in (65, 129)]
    ratio = errs[0] / errs[1]
    assert 1.8 <= ratio <= 2.2, f"convergence ratio {ratio:.3f}"
    report(9, "gyro integration",
           f"constant-rate error {const_err:.2e}, step-halving ratio {ratio:.3f}")


def test_criterion_10_angle_constraint_exactness():
    worst = 0.0
    for seed in range(150):
        truth, pairs = generate_scene(SceneConfig(seed=90_000 + seed), 4)
        theta = rotation_angle(truth.R)
        for pose in solve_4pt_angle(pairs, theta):
            worst = max(worst, abs(rotation_angle(pose.R) - theta))
    for seed in range(75):
        truth, pairs = generate_scene(SceneConfig(seed=95_000 + seed, generalized=True), 5)
        theta = rotation_angle(truth.R)
        for pose in solve_gen5pt_angle(pairs, theta):
            worst = max(worst, abs(rotation_angle(pose.R) - theta))
    assert worst < 1e-8, f"max angle deviation {worst:.3e}"
    report(10, "angle-constraint exactness",
           f"every pose of 225 solves within {worst:.2e} rad of the input angle")
