"""Shared fixtures: tiny geometries and prebuilt operator stacks.

Operator construction builds USFFT plans, so the expensive fixtures are
session-scoped; tests must not mutate them.

Equal stacks share one process-wide operator state (plans, block CSRs,
geometry-only results), so every test starts with an empty registry of
them: a stack a test builds shares state only with the stacks that same
test builds.
"""

from __future__ import annotations

from repro.analysis import lockwitness

# Opt-in runtime lock-order sanitizer (REPRO_LOCKWITNESS=1).  Installed
# before any repro module imports: a dataclass field declared as
# ``field(default_factory=threading.Lock)`` binds the factory at class
# *definition* time, so the patch must be in place first.
if lockwitness.enabled_from_env():
    lockwitness.install()

from collections import OrderedDict

import numpy as np
import pytest

from repro.lamino import (
    LaminoGeometry,
    LaminoOperators,
    LaminoProjector,
    brain_like,
    simulate_data,
)
from repro.lamino import operators as operators_module


@pytest.fixture(autouse=True)
def operator_registry(monkeypatch) -> OrderedDict:
    """An empty registry of operator states for the test: a process that
    knows no geometry.  A stack a longer-lived fixture built keeps the
    state it was built with."""
    registry = OrderedDict()
    monkeypatch.setattr(operators_module, "_STATES", registry)
    return registry


@pytest.fixture(scope="session")
def tiny_geometry() -> LaminoGeometry:
    return LaminoGeometry(
        vol_shape=(16, 16, 16), n_angles=12, det_shape=(16, 16), tilt_deg=61.0
    )


@pytest.fixture(scope="session")
def tiny_ops(tiny_geometry) -> LaminoOperators:
    return LaminoOperators(tiny_geometry)


@pytest.fixture(scope="session")
def tiny_projector(tiny_geometry) -> LaminoProjector:
    return LaminoProjector(tiny_geometry)


@pytest.fixture(scope="session")
def tiny_phantom(tiny_geometry) -> np.ndarray:
    return brain_like(tiny_geometry.vol_shape, seed=7)


@pytest.fixture(scope="session")
def tiny_data(tiny_geometry, tiny_phantom, tiny_projector) -> np.ndarray:
    return simulate_data(
        tiny_phantom, tiny_geometry, noise_level=0.01, seed=1, projector=tiny_projector
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
