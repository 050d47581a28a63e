"""The layer functions that ``perfbench/spans.py`` wraps for ``--trace 1``
must exist as attributes of the named ``relpose`` modules, and the solvers
and RANSAC must call them through those attributes; otherwise tracing
silently drops a layer."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import relpose
from relpose.geom import rotation_angle
from relpose.robust import RansacConfig, ransac_estimate
from relpose.solver_gen5 import solve_gen5pt_angle
from relpose.solver_reg4 import solve_4pt_angle
from relpose.synth import SceneConfig, generate_scene

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


LAYERS = traced_layers()


@pytest.mark.parametrize("module,attr,layer", LAYERS)
def test_attribute_exists(module, attr, layer):
    assert callable(getattr(getattr(relpose, module), attr))


def test_every_layer_is_called(monkeypatch):
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, attr, _ in LAYERS:
        mod = getattr(relpose, module)
        monkeypatch.setattr(mod, attr, counting((module, attr), getattr(mod, attr)))

    truth, pairs = generate_scene(SceneConfig(seed=3), 12)
    theta = rotation_angle(truth.R)
    solve_4pt_angle(pairs[:4], theta)
    cfg = RansacConfig(inlier_threshold=1e-8, max_iterations=2, seed=0)
    ransac_estimate(pairs, theta, cfg, "reg4")

    truth, pairs = generate_scene(SceneConfig(seed=3, generalized=True), 12)
    theta = rotation_angle(truth.R)
    solve_gen5pt_angle(pairs[:5], theta)
    ransac_estimate(pairs, theta, RansacConfig(inlier_threshold=1e-6, max_iterations=2), "gen5")

    missing = [(module, attr) for module, attr, _ in LAYERS if calls[(module, attr)] == 0]
    assert not missing, f"layers never called through their module attribute: {missing}"
