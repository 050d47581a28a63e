"""Traced RANSAC runs its stacked solves inside the solver spans: every
generator and template layer span of an operation has a ``solver`` span
among its ancestors, and the self times of the spans add up to the root
span, so solve time cannot leak into ``robust.self_ms``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import relpose
from relpose.geom import rotation_angle
from relpose.robust import (
    DEFAULT_POINT_RAY_THRESHOLD,
    RansacConfig,
    ransac_estimate,
    sampson_threshold_from_pixels,
)
from relpose.synth import SceneConfig, _corrupt, add_image_noise, generate_scene

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_ransac(kind):
    """The spans of one small traced RANSAC operation and its self times."""
    cfg = SceneConfig(seed=5, generalized=kind == "gen5")
    rng = np.random.default_rng(5)
    truth, pairs = generate_scene(cfg, 40, rng=rng)
    observed, _ = _corrupt(add_image_noise(pairs, 0.5, cfg, rng), cfg, 0.3, rng)
    if kind == "reg4":
        threshold = sampson_threshold_from_pixels(1.5, cfg.focal_px)
    else:
        threshold = DEFAULT_POINT_RAY_THRESHOLD
    ransac_cfg = RansacConfig(inlier_threshold=threshold, seed=5, max_iterations=30)
    tracer = tracer_module().Tracer(relpose)
    result, exc, elapsed, layers = tracer.run(
        "robust", ransac_estimate, observed, rotation_angle(truth.R), ransac_cfg, kind
    )
    assert exc is None
    return result, tracer.spans, elapsed, layers


@pytest.mark.parametrize("kind", ["reg4", "gen5"])
def test_template_layers_run_inside_a_solver_span(kind):
    result, spans, _, _ = traced_ransac(kind)
    by_id = {sid: (parent, name) for _, sid, parent, name, _, _ in spans}

    def ancestors(sid):
        parent = by_id[sid][0]
        while parent is not None:
            yield by_id[parent][1]
            parent = by_id[parent][0]

    layers = [sid for sid, (_, name) in by_id.items() if name.startswith(("poly.", "gbsolver."))]
    assert layers
    assert all("solver" in ancestors(sid) for sid in layers)
    # One solver span per round of samples, not one per sample.
    n_solves = sum(1 for _, name in by_id.values() if name == "solver")
    assert 0 < n_solves < result.iterations


@pytest.mark.parametrize("kind", ["reg4", "gen5"])
def test_self_times_add_up_to_the_operation(kind):
    _, spans, elapsed, layers = traced_ransac(kind)
    child = {}
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    self_times = [(end - start) - child.get(sid, 0.0) for _, sid, _, _, start, end in spans]
    assert sum(self_times) == pytest.approx(elapsed, rel=1e-9, abs=1e-12)
    # robust.solve_ms is the solver spans' whole time, not a self time.
    ms = [v for name, v in layers.items() if name.endswith("_ms") and name != "robust.solve_ms"]
    assert sum(ms) == pytest.approx(1e3 * elapsed, rel=1e-9, abs=1e-9)
