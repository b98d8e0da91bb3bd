"""One operator state per process: every stack of equal ``(geometry,
half_width, oversample)`` reads the same plans, block CSRs and geometry-only
results, the registry keeps a bounded number of them, and threads
constructing equal stacks build each piece once."""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.lamino import LaminoOperators, brain_like, simulate_data
from repro.lamino import operators as operators_module
from repro.lamino import usfft as U
from repro.solvers import ADMMConfig, estimate_normal_lipschitz

ADMM = ADMMConfig(n_outer=2, n_inner=2, step_max_rel=4.0)


def _reconstruct(ops, data) -> np.ndarray:
    """A memoized job on ``ops``: its own memo database, the stack's state."""
    memo = MemoConfig(tau=0.92, warmup_iterations=1, index_train_min=4, index_clusters=2)
    solver = MLRSolver(ops.geometry, MLRConfig(chunk_size=4, memo=memo), admm=ADMM, ops=ops)
    try:
        return solver.reconstruct(data).u
    finally:
        solver.close()


def _bases(ops) -> dict:
    return {k: v for k, v in ops._state.memo.items() if k[0] == "dc_basis"}


@pytest.fixture(scope="module")
def data(tiny_geometry):
    return simulate_data(
        brain_like(tiny_geometry.vol_shape, seed=7), tiny_geometry, noise_level=0.02, seed=1
    ).astype(np.complex64)


@pytest.fixture()
def builds(monkeypatch):
    """Counters of what the stacks build: ``plans`` by class name,
    ``slices`` by ``(slice, precision)``, ``once`` by memo key."""
    counts = {"plans": Counter(), "slices": Counter(), "once": Counter()}
    for cls in (U.USFFT1DPlan, U.USFFT2DPlan):
        def counting_plan(*a, _cls=cls, **kw):
            counts["plans"][_cls.__name__] += 1
            return _cls(*a, **kw)

        monkeypatch.setattr(operators_module, cls.__name__, counting_plan)
    build_gather = U.USFFT2DPlan._build_gather

    def counting_gather(plan, i, rdt):
        counts["slices"][(i, rdt.char)] += 1
        return build_gather(plan, i, rdt)

    monkeypatch.setattr(U.USFFT2DPlan, "_build_gather", counting_gather)
    once = operators_module._OperatorState.once

    def counting_once(state, key, compute):
        return once(state, key, lambda: counts["once"].update([key]) or compute())

    monkeypatch.setattr(operators_module._OperatorState, "once", counting_once)
    return counts


class TestEqualStacksShare:
    def test_plans_slice_operators_and_bases(self, tiny_geometry, data, builds):
        first = LaminoOperators(tiny_geometry)
        u = _reconstruct(first, data)
        slices, bases = dict(first.plan2d._slices), _bases(first)
        assert slices and bases
        assert all(n == 1 for n in builds["slices"].values())  # each built once
        second = LaminoOperators(tiny_geometry)
        assert second.plan1d is first.plan1d and second.plan2d is first.plan2d
        assert second.once(next(iter(bases)), pytest.fail) is next(iter(bases.values()))
        before = (dict(builds["slices"]), dict(builds["once"]))
        again = _reconstruct(second, data)
        # the second stack built no plan, no slice operator and computed no basis
        assert builds["plans"] == Counter(USFFT1DPlan=1, USFFT2DPlan=1)
        assert (dict(builds["slices"]), dict(builds["once"])) == before
        assert second.plan2d._slices.keys() == slices.keys()
        assert all(second.plan2d._slices[k] is v for k, v in slices.items())
        assert all(_bases(second)[k] is v for k, v in bases.items())
        np.testing.assert_array_equal(u, again)


class TestTheBound:
    @staticmethod
    def _geometry(tiny_geometry, i):
        return replace(tiny_geometry, tilt_deg=61.0 + i)

    def test_the_registry_keeps_the_most_recently_used_states(
        self, tiny_geometry, operator_registry
    ):
        bound = operators_module._STATES_MAX
        geometries = [self._geometry(tiny_geometry, i) for i in range(bound + 1)]
        held = [LaminoOperators(g) for g in geometries[:bound]]
        assert len(operator_registry) == bound
        assert LaminoOperators(geometries[0])._state is held[0]._state  # a hit: now the newest
        LaminoOperators(geometries[bound])  # one more evicts the least recently used, 1
        assert len(operator_registry) == bound
        assert [key[0] for key in operator_registry] == [
            *geometries[2:bound], geometries[0], geometries[bound]
        ]

    def test_an_evicted_state_stays_valid_and_rebuilds_to_the_same_bits(
        self, tiny_geometry, operator_registry, rng
    ):
        held = LaminoOperators(tiny_geometry)
        sigma = estimate_normal_lipschitz(held, chunk_size=4)
        for i in range(1, operators_module._STATES_MAX + 1):
            LaminoOperators(self._geometry(tiny_geometry, i))
        assert all(state is not held._state for state in operator_registry.values())
        rebuilt = LaminoOperators(tiny_geometry)
        assert rebuilt._state is not held._state and rebuilt.plan2d is not held.plan2d
        u = (rng.standard_normal(tiny_geometry.vol_shape) + 0j).astype(np.complex64)
        np.testing.assert_array_equal(held.forward_freq(u), rebuilt.forward_freq(u))
        d = held.forward_freq(u)
        np.testing.assert_array_equal(held.adjoint_freq(d), rebuilt.adjoint_freq(d))
        assert estimate_normal_lipschitz(rebuilt, chunk_size=4) == sigma  # to the last bit


class TestConcurrentConstruction:
    def test_threads_on_equal_stacks_build_each_piece_once(self, tiny_geometry, data, builds):
        n_threads = 8  # more than the cores
        start = threading.Barrier(n_threads)
        results, errors = [None] * n_threads, []

        def job(i):
            try:
                start.wait(timeout=10)
                results[i] = _reconstruct(LaminoOperators(tiny_geometry), data)
            except Exception as exc:  # surfaced below, not lost with the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=job, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert builds["plans"] == Counter(USFFT1DPlan=1, USFFT2DPlan=1)
        assert builds["slices"] and set(builds["slices"].values()) == {1}
        assert any(k[0] == "dc_basis" for k in builds["once"])
        assert set(builds["once"].values()) == {1}
        for u in results[1:]:
            np.testing.assert_array_equal(results[0], u)
