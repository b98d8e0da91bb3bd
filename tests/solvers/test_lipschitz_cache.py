"""One Lipschitz estimate per *operator* — shared by every equal stack of
the process — run on the sweep's chunk grid by the stack that computes it."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lamino import LaminoGeometry, LaminoOperators
from repro.lamino import operators as operators_module
from repro.obs import ObsConfig
from repro.obs import runtime as obs
from repro.solvers import ADMMConfig, ADMMSolver, DirectExecutor, estimate_normal_lipschitz
from repro.solvers import lsp as lsp_module


@pytest.fixture(autouse=True)
def empty_registry(monkeypatch):
    """Every test starts in a process that knows no geometry: the tests
    below count passes and inspect ``_blocks`` after construction."""
    registry = OrderedDict()
    monkeypatch.setattr(operators_module, "_SHARED", registry)
    return registry


@pytest.fixture()
def tiny_stack(tiny_geometry):
    """Factory of equal stacks: every call builds its own plans and memo."""
    return lambda: LaminoOperators(tiny_geometry)


@pytest.fixture()
def power_iterations(monkeypatch):
    """The ``(n_iters, seed, chunk_size)`` of every power iteration run."""
    runs = []
    real = lsp_module._power_iteration

    def counting(ops, n_iters, seed, chunk_size):
        runs.append((n_iters, seed, chunk_size))
        return real(ops, n_iters, seed, chunk_size)

    monkeypatch.setattr(lsp_module, "_power_iteration", counting)
    return runs


class TestChunkGridInvariance:
    # the two ledger geometries and the sigma the full-range pass returned
    # before the estimate moved onto the chunk grid
    @pytest.mark.parametrize(
        "h, golden", [(32, 33.14884948730469), (16, 33.53451919555664)]
    )
    def test_sigma_is_the_same_on_every_chunk_grid(self, h, golden):
        geom = LaminoGeometry((64, h, 64), n_angles=32, det_shape=(h, 64))
        sigmas = {
            c: estimate_normal_lipschitz(LaminoOperators(geom), chunk_size=c)
            for c in (2, 4, 6, 8, None)
        }
        assert len(set(sigmas.values())) == 1, sigmas  # bit for bit
        # across BLAS/FFT builds the last bits may move; the grid never may
        assert sigmas[None] == pytest.approx(golden, rel=1e-6)


    def test_every_grid_runs_its_own_passes_to_the_same_float(self, tiny_stack):
        # the test above reads four of its five sigmas from the registry;
        # here every grid pays the passes, which is what keeps the grid out
        # of the key sound
        sigmas = {
            c: lsp_module._power_iteration(tiny_stack(), 8, 0, c) for c in (2, 4, 6, 8, None)
        }
        assert len(set(sigmas.values())) == 1, sigmas


#: one changed parameter each: ``(field, value)`` applied to the tiny
#: geometry, the stack's two plan parameters, the estimate's two arguments
_DIFFERENCES = {
    "vol_shape": (18, 16, 16),
    "n_angles": 10,
    "det_shape": (16, 18),
    "tilt_deg": 60.0,
    "half_width": 6,
    "oversample": 3,
    "n_iters": 7,
    "seed": 1,
}


class TestOneEstimatePerOperator:
    def test_solvers_on_one_stack_share_the_estimate(self, tiny_stack, power_iterations):
        ops = tiny_stack()
        solvers = [
            ADMMSolver(ops, executor=DirectExecutor(ops, chunk_size=c)) for c in (4, 8, None)
        ]
        assert power_iterations == [(8, 0, 4)]
        assert len({s.lsp._sigma for s in solvers}) == 1

    def test_equal_stacks_share_the_estimate(self, tiny_stack, power_iterations):
        first, second = tiny_stack(), tiny_stack()
        s1 = ADMMSolver(first, executor=DirectExecutor(first, chunk_size=4)).lsp._sigma
        s2 = ADMMSolver(second, executor=DirectExecutor(second, chunk_size=8)).lsp._sigma
        assert power_iterations == [(8, 0, 4)]  # one between them
        assert s1 == s2 and isinstance(s2, float)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(which=st.sampled_from(sorted(_DIFFERENCES)))
    def test_a_stack_differing_in_one_parameter_does_not_share(
        self, tiny_geometry, empty_registry, power_iterations, which
    ):
        empty_registry.clear()  # per example, not per test
        power_iterations.clear()
        base = estimate_normal_lipschitz(LaminoOperators(tiny_geometry))
        geometry, stack_kw, estimate_kw = tiny_geometry, {}, {}
        if which in ("half_width", "oversample"):
            stack_kw[which] = _DIFFERENCES[which]
        elif which in ("n_iters", "seed"):
            estimate_kw[which] = _DIFFERENCES[which]
        else:
            geometry = replace(tiny_geometry, **{which: _DIFFERENCES[which]})
        other = estimate_normal_lipschitz(LaminoOperators(geometry, **stack_kw), **estimate_kw)
        assert len(power_iterations) == 2, which
        assert other != base, which
        # ... and neither displaced the other
        assert estimate_normal_lipschitz(LaminoOperators(tiny_geometry)) == base
        assert len(power_iterations) == 2 and len(empty_registry) == 2

    def test_the_registry_keeps_the_64_most_recently_used(
        self, tiny_stack, empty_registry
    ):
        ops = tiny_stack()
        calls = []

        def value_of(k):
            return ops.once(("t", k), lambda: calls.append(k) or float(k), shared=True)

        for k in range(64):
            assert value_of(k) == float(k)
        assert value_of(0) == 0.0 and len(calls) == 64  # a hit: 0 is now the newest
        assert value_of(64) == 64.0  # the 65th key evicts the oldest, which is 1
        assert len(empty_registry) == 64
        assert value_of(0) == 0.0 and len(calls) == 65
        assert value_of(1) == 1.0 and calls[-1] == 1  # recomputed
        assert len(empty_registry) == 64

    def test_many_threads_on_equal_stacks_compute_each_key_once(self, tiny_stack):
        stacks = [tiny_stack() for _ in range(3)]
        n_threads, n_keys, rounds = 8, 32, 40  # more threads than cores, fewer keys than 64
        computed, wrong, errors = [], [], []
        start = threading.Barrier(n_threads)

        def worker(tid):
            try:
                start.wait(timeout=10)
                for i in range(rounds * n_keys):
                    k = (i * (tid + 1)) % n_keys
                    ops = stacks[(i + tid) % len(stacks)]
                    got = ops.once(("t", k), lambda k=k: computed.append(k) or float(k), shared=True)
                    if got != float(k):
                        wrong.append((k, got))
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not wrong
        assert sorted(computed) == list(range(n_keys))  # a lost update would repeat one

    @pytest.mark.parametrize("value", [np.ones(2), 1, None, np.float32(1.0)])
    def test_a_shared_result_must_be_a_float(self, tiny_stack, empty_registry, value):
        ops = tiny_stack()
        with pytest.raises(TypeError, match="float"):
            ops.once("k", lambda: value, shared=True)
        assert not empty_registry  # nothing was kept
        assert ops.once("k", lambda: value) is value  # the stack's own memo takes it

    def test_the_stack_memo_is_per_stack(self, tiny_stack):
        a, b = tiny_stack(), tiny_stack()
        made = []

        def compute():
            made.append(np.zeros(1))
            return made[-1]

        assert a.once("k", compute) is a.once("k", compute)
        assert b.once("k", compute) is not a.once("k", compute)
        assert len(made) == 2

    def test_distinct_keys_stay_distinct(self, tiny_stack, power_iterations):
        ops = tiny_stack()
        s0 = estimate_normal_lipschitz(ops, n_iters=8, seed=0)
        s1 = estimate_normal_lipschitz(ops, n_iters=8, seed=1)
        s2 = estimate_normal_lipschitz(ops, n_iters=4, seed=0)
        assert estimate_normal_lipschitz(ops, n_iters=8, seed=0) == s0
        assert [r[:2] for r in power_iterations] == [(8, 0), (8, 1), (4, 0)]
        assert len({s0, s1, s2}) == 3

    @pytest.mark.parametrize("n_stacks", [1, 2])
    def test_racing_builders_produce_one_estimate(
        self, tiny_stack, power_iterations, n_stacks
    ):
        # on one stack, and on two different equal stacks
        stacks = [tiny_stack() for _ in range(n_stacks)]
        barrier = threading.Barrier(2)
        sigmas, errors = [], []

        def build(ops):
            try:
                barrier.wait(timeout=10)
                sigmas.append(ADMMSolver(ops, executor=DirectExecutor(ops, 4)).lsp._sigma)
            except Exception as exc:  # surfaced below, not lost with the thread
                errors.append(exc)

        threads = [
            threading.Thread(target=build, args=(stacks[i % n_stacks],)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(power_iterations) == 1
        assert len(sigmas) == 2 and sigmas[0] == sigmas[1]

    def test_executor_without_a_chunk_size_gets_the_full_range_pass(
        self, tiny_stack, power_iterations
    ):
        ops = tiny_stack()

        class Bare:
            def __init__(self, ops):
                self.ops = ops

        lsp_module.LSP(Bare(ops))
        assert power_iterations == [(8, 0, None)]
        assert {(k[0], k[1]) for k in ops.plan2d._blocks} == {(0, 16)}


class TestBlocksWarmedOnTheSweepGrid:
    @pytest.mark.parametrize("chunk", [4, 6])
    def test_construction_builds_the_blocks_the_run_uses(self, tiny_stack, chunk):
        ops = tiny_stack()
        solver = ADMMSolver(
            ops,
            ADMMConfig(n_outer=1, n_inner=1),
            executor=DirectExecutor(ops, chunk_size=chunk),
        )
        built = set(ops.plan2d._blocks)
        assert built and max(stop - start for start, stop, *_ in built) <= chunk
        rng = np.random.default_rng(0)
        d = rng.standard_normal(ops.geometry.data_shape).astype(np.complex64)
        first = solver.run(d)
        assert set(ops.plan2d._blocks) == built  # the sweeps built nothing

        # the second stack of the geometry reads sigma: no pass, so no block
        # at construction, and its first sweeps build the same chunk-grid
        # blocks — never a full-range one
        later = tiny_stack()
        solver = ADMMSolver(
            later,
            ADMMConfig(n_outer=1, n_inner=1),
            executor=DirectExecutor(later, chunk_size=chunk),
        )
        assert not later.plan2d._blocks
        second = solver.run(d)
        assert set(later.plan2d._blocks) == built
        assert np.array_equal(first.u, second.u)


class TestSpans:
    @pytest.fixture(autouse=True)
    def pristine_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_estimate_is_attributed_under_solver_init(self, tiny_stack):
        obs.configure(ObsConfig())
        ops = tiny_stack()
        ADMMSolver(ops)
        first = {rec["name"]: rec for rec in obs.drain_spans()[0]}
        assert first["solver.lipschitz"]["parent_id"] == first["solver.init"]["span_id"]
        assert first["solver.init"]["parent_id"] is None
        ADMMSolver(ops)  # a cache hit opens no estimate span
        assert [rec["name"] for rec in obs.drain_spans()[0]] == ["solver.init"]

    def test_obs_off_records_nothing(self, tiny_stack):
        obs.configure(ObsConfig(enabled=False))
        ADMMSolver(tiny_stack())
        assert obs.drain_spans() == ([], 0)
