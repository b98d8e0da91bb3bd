"""A scan is reconstructed from memory, so its shape is checked up front.

Every way a reconstruction starts — a service ``JobSpec``, the plain
``ADMMSolver`` and the memoized ``MLRSolver`` — refuses projections whose
shape is not the geometry's data shape, and a start volume ``u0`` whose
shape is not its volume shape.  The error gives both shapes, and it comes
before any chunk of any op is swept (a short scan is refused, not
reconstructed from whatever slabs it has).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, LaminoOperators
from repro.service import JobSpec
from repro.solvers import ADMMConfig, ADMMSolver

# non-cubic, so a transposed volume is a wrong shape
GEOMETRY = LaminoGeometry((8, 6, 10), n_angles=6, det_shape=(8, 10), tilt_deg=61.0)
A, H, W = GEOMETRY.data_shape
N1, N0, N2 = GEOMETRY.vol_shape

SCANS = {
    "short-scan": (A // 2, H, W),
    "long-scan": (A + 2, H, W),
    "shorter-frames": (A, H - 2, W),
    "wider-frames": (A, H, W + 2),
    "one-frame": (H, W),
}
VOLUMES = {
    "deeper": (N1, N0, N2 + 2),
    "transposed": (N0, N1, N2),
    "flat": (N1, N0),
}


@pytest.fixture(scope="module")
def ops():
    return LaminoOperators(GEOMETRY)


def _zeros(shape):
    return np.zeros(shape, np.complex64)


def _job_spec(ops):
    """(start, executor): ``start(d, u0)`` begins a reconstruction, and
    ``executor`` is what it would sweep through (None: no solver yet)."""
    def start(d, u0):
        JobSpec(name="j", geometry=GEOMETRY, projections=d, u0=u0, max_retries=2)

    return start, None


def _admm(ops):
    solver = ADMMSolver(ops, ADMMConfig(n_outer=1, n_inner=1))
    return solver.run, solver.executor


def _mlr(ops):
    solver = MLRSolver(
        GEOMETRY, MLRConfig(chunk_size=2), admm=ADMMConfig(n_outer=1, n_inner=1), ops=ops
    )
    return solver.reconstruct, solver.executor


def _refused(ops, entry, d, u0, match):
    start, executor = entry(ops)
    with pytest.raises(ValueError, match=re.escape(match)):
        start(d, u0=u0)
    if executor is not None:
        assert sum(executor.op_counts.values()) == 0  # refused before any sweep


ENTRIES = {"job-spec": _job_spec, "admm": _admm, "mlr": _mlr}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("shape", SCANS.values(), ids=SCANS.keys())
def test_a_mismatched_scan_is_refused(ops, entry, shape):
    _refused(ops, entry, _zeros(shape), None, f"shape {shape} != {GEOMETRY.data_shape}")


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("shape", VOLUMES.values(), ids=VOLUMES.keys())
def test_a_mismatched_start_volume_is_refused(ops, entry, shape):
    d = _zeros(GEOMETRY.data_shape)
    _refused(ops, entry, d, _zeros(shape), f"u0 shape {shape} != {GEOMETRY.vol_shape}")


def test_matching_shapes_are_accepted(ops):
    """The refusals above are of the shape alone: the same three entries
    take a scan and start volume of the geometry's shapes."""
    d, u0 = _zeros(GEOMETRY.data_shape), _zeros(GEOMETRY.vol_shape)
    for entry in ENTRIES.values():
        start, executor = entry(ops)
        start(d, u0=u0)
        if executor is not None:
            assert sum(executor.op_counts.values()) > 0
