"""numpy is the package's only runtime dependency: every module imports, and
both solvers run, in an interpreter where scipy cannot be imported.  The
private parts of numpy the package uses, the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` behind ``np.linalg.solve`` (``solve``),
``np.linalg.eigvals`` (``eigvals``) and ``np.linalg.svd`` (``svd_f``, under
numpy 1 ``svd_n_f`` for a matrix taller than wide), keep the contract the
package relies on: bit for bit the public function, NaN where it raises.
They warn where they mark NaN unless the error state ignores it, so a
solve holds one ignoring state for all its kernels.  So do the bindings of
numpy's ``_multiarray_umath`` that ``geom`` takes, ``count_nonzero``,
``bincount``, ``concatenate`` and ``c_einsum``: bit for bit the public
functions."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from relpose import geom
from relpose import (
    SceneConfig,
    generate_scene,
    rotation_angle,
    solve_4pt_angle,
    solve_gen5pt_angle,
)
from relpose.gbsolver import _solve_or_nan, _svd_or_nan, eigensolve_real

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, sys

# Any import of scipy or of one of its submodules now raises ImportError.
sys.modules["scipy"] = None
import relpose

for info in pkgutil.iter_modules(relpose.__path__):
    importlib.import_module(f"relpose.{info.name}")
from relpose import SceneConfig, generate_scene, rotation_angle, solve_4pt_angle, solve_gen5pt_angle

truth, pairs = generate_scene(SceneConfig(seed=7), 4)
assert solve_4pt_angle(pairs, rotation_angle(truth.R))
truth, pairs = generate_scene(SceneConfig(seed=7, generalized=True), 5)
assert solve_gen5pt_angle(pairs, rotation_angle(truth.R))
print(sorted(info.name for info in pkgutil.iter_modules(relpose.__path__)))
"""


def test_every_module_imports_and_both_solvers_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "solver_gen5" in done.stdout and "solver_reg4" in done.stdout


def test_the_private_solve_gufunc_is_numpys_solve_with_nan_for_a_singular_system():
    # rref_conditioned, the chain systems and polishing solve through
    # numpy.linalg._umath_linalg.solve: bit for bit np.linalg.solve, and NaN
    # for an exactly singular system of the stack, alone, without a raise
    # under the ignoring error state that a solve holds.
    rng = np.random.default_rng(0)
    A, b = rng.normal(size=(5, 7, 7)), rng.normal(size=(5, 7, 3))
    assert np.array_equal(_solve_or_nan(A, b), np.linalg.solve(A, b))
    A[2, 4] = 0.0
    with np.errstate(all="ignore"):
        out = _solve_or_nan(A, b)
    assert np.isnan(out[2]).all()
    rest = [0, 1, 3, 4]
    assert np.array_equal(out[rest], np.linalg.solve(A[rest], b[rest]))


def test_the_private_eigvals_gufunc_is_numpys_eigvals():
    # eigensolve_real takes its eigenvalues from the gufunc: complex, where
    # np.linalg.eigvals returns the real parts of an all-real spectrum.
    rng = np.random.default_rng(1)
    A = rng.normal(size=(20, 20))
    symmetric = A + A.T
    for M in (A, rng.normal(size=(44, 44)), symmetric):
        w = _umath_linalg.eigvals(M, signature="d->D")
        want = np.linalg.eigvals(M)
        if want.dtype.kind == "c":
            assert w.tobytes() == want.tobytes()
        else:
            assert w.real.tobytes() == want.tobytes() and not w.imag.any()
    assert np.linalg.eigvals(symmetric).dtype.kind == "f"
    assert eigensolve_real(symmetric).tobytes() == np.linalg.eigvals(symmetric).tobytes()


@pytest.mark.parametrize("stack", [1, 8])
def test_the_private_svd_gufunc_is_numpys_svd(stack):
    # Both pose rules decompose (K, 4, 3) stacks through _svd_or_nan.
    A = np.random.default_rng(stack).normal(size=(stack, 4, 3))
    for got, want in zip(_svd_or_nan(A), np.linalg.svd(A)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("generalized", [False, True], ids=["reg4", "gen5"])
def test_a_solve_enters_one_error_state(monkeypatch, generalized):
    # The kernels set no error state of their own: a solve, single or
    # stacked, holds one ignoring state for all of them.
    truth, pairs = generate_scene(SceneConfig(seed=8, generalized=generalized), 15)
    solve = solve_gen5pt_angle if generalized else solve_4pt_angle
    size = 5 if generalized else 4
    errstate, entered = np.errstate, []

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    theta = rotation_angle(truth.R)
    rng = np.random.default_rng(8)
    samples = np.array([rng.choice(len(pairs), size, replace=False) for _ in range(16)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kwargs in ({}, {"samples": samples}):
            entered.clear()
            solve(pairs if kwargs else pairs[:size], theta, **kwargs)
            assert entered == [{"all": "ignore"}]


def test_the_private_counting_and_joining_bindings_are_numpys():
    # Losses, the filters and the pose checks count, tally and join through
    # geom's bindings of numpy's _multiarray_umath.
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 7))
    mask = x > 0.3
    assert geom.count_nonzero(mask) == np.count_nonzero(mask)
    assert geom.count_nonzero(x) == np.count_nonzero(x)
    labels, weights = rng.integers(0, 5, size=40), rng.normal(size=40)
    for kwargs in ({}, {"minlength": 9}, {"weights": weights}, dict(weights=weights, minlength=9)):
        got, want = geom.bincount(labels, **kwargs), np.bincount(labels, **kwargs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    parts = [x, rng.normal(size=(2, 7)), x[:0]]
    for axis, blocks in ((0, parts), (1, [x, x[:, :3]])):
        got, want = geom.concatenate(blocks, axis), np.concatenate(blocks, axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stack", [1, 8])
def test_the_private_einsum_binding_is_numpys_einsum(stack):
    # gen5's depth rows form their bilinear forms through geom.c_einsum.
    rng = np.random.default_rng(stack)
    left, right = rng.normal(size=(2, 4, stack, 4, 3))
    Rs = rng.normal(size=(stack, 3, 3))
    spec = "ikja,kab,ikjb->kji"
    got, want = geom.c_einsum(spec, left, Rs, right), np.einsum(spec, left, Rs, right)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
