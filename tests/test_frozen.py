"""A solve builds some frozen dataclasses through ``geom._frozen``, which
skips their constructors and checks.  Each object built so must equal,
field for field and type for type, what its class's own constructor
builds from the same values, and must stay frozen."""

import dataclasses

import numpy as np
import pytest

import relpose
from relpose import gbsolver, geom
from relpose.gbsolver import ExtractedRoots
from relpose.geom import RelativePose, RotationConstraint, UnitQuaternion, rotation_angle
from relpose.synth import SceneConfig, generate_scene

# Every class that a solve builds through ``_frozen``.
FROZEN = (RotationConstraint, ExtractedRoots, UnitQuaternion, RelativePose)


def built(monkeypatch) -> list:
    """Every object that single and stacked solves of both solvers build
    through ``_frozen``."""
    made = []
    original = geom._frozen

    def spy(cls, fields):
        made.append(original(cls, fields))
        return made[-1]

    monkeypatch.setattr(geom, "_frozen", spy)
    monkeypatch.setattr(gbsolver, "_frozen", spy)
    for solve, size, generalized in (
        (relpose.solve_4pt_angle, 4, False), (relpose.solve_gen5pt_angle, 5, True)
    ):
        for seed in range(3):
            truth, pairs = generate_scene(SceneConfig(seed=seed, generalized=generalized), 2 * size)
            theta = rotation_angle(truth.R)
            solve(pairs[:size], theta)
            solve(pairs, theta, samples=np.arange(2 * size).reshape(2, size))
    return made


def assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def test_a_solve_builds_these_classes_through_frozen(monkeypatch):
    assert {type(obj) for obj in built(monkeypatch)} == set(FROZEN)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_equals_what_the_constructor_builds(cls, monkeypatch):
    objects = [obj for obj in built(monkeypatch) if type(obj) is cls]
    assert objects
    for obj in objects:
        fields = {field.name: getattr(obj, field.name) for field in dataclasses.fields(cls)}
        assert_same(obj, cls(**fields))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_assigning_a_field_raises(cls, monkeypatch):
    obj = next(obj for obj in built(monkeypatch) if type(obj) is cls)
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, getattr(obj, field.name))
