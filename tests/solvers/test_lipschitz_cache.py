"""One Lipschitz estimate per *operator* — shared by every equal stack of
the process through its operator state — run on the sweep's chunk grid by
the stack that computes it."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lamino import LaminoGeometry, LaminoOperators
from repro.obs import ObsConfig
from repro.obs import runtime as obs
from repro.solvers import ADMMConfig, ADMMSolver, DirectExecutor, estimate_normal_lipschitz
from repro.solvers import lsp as lsp_module


@pytest.fixture()
def tiny_stack(tiny_geometry):
    """Factory of equal stacks: every call is a new stack on the test's one
    operator state (``conftest.operator_registry`` starts each test empty)."""
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
        self, tiny_geometry, operator_registry, power_iterations, which
    ):
        operator_registry.clear()  # per example, not per test
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
        # ... and neither displaced the other: a different estimate is a
        # second key of one state, a different operator a second state
        assert estimate_normal_lipschitz(LaminoOperators(tiny_geometry)) == base
        assert len(power_iterations) == 2
        assert len(operator_registry) == (1 if which in ("n_iters", "seed") else 2)

    def test_many_threads_on_equal_stacks_compute_each_key_once(self, tiny_stack):
        stacks = [tiny_stack() for _ in range(3)]
        n_threads, n_keys, rounds = 8, 32, 40  # more threads than cores
        computed, wrong, errors = [], [], []
        start = threading.Barrier(n_threads)

        def worker(tid):
            try:
                start.wait(timeout=10)
                for i in range(rounds * n_keys):
                    k = (i * (tid + 1)) % n_keys
                    ops = stacks[(i + tid) % len(stacks)]
                    got = ops.once(("t", k), lambda k=k: computed.append(k) or float(k))
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

    @pytest.mark.parametrize(
        "geometry_change, stack_kw",
        [({"tilt_deg": 60.0}, {}), ({}, {"half_width": 3}), ({}, {"oversample": 3})],
        ids=["geometry", "half_width", "oversample"],
    )
    def test_the_memo_is_per_operator(self, tiny_geometry, geometry_change, stack_kw):
        # equal stacks share it, any result type; a stack differing in one
        # of the three key parameters is another operator and does not
        a, b = LaminoOperators(tiny_geometry), LaminoOperators(tiny_geometry)
        other = LaminoOperators(replace(tiny_geometry, **geometry_change), **stack_kw)
        made = []

        def compute():
            made.append(np.zeros(1))
            return made[-1]

        assert a.once("k", compute) is b.once("k", compute) is made[0]
        assert other.once("k", compute) is made[1]
        assert a.once("k", compute) is made[0] and len(made) == 2

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
        assert {i for i, _ in ops.plan2d._slices} == set(range(16))


class TestSliceOperatorsWarmedAtConstruction:
    @pytest.mark.parametrize("chunk", [4, 6])
    def test_construction_builds_the_slice_operators_the_run_uses(self, tiny_stack, chunk):
        ops = tiny_stack()
        solver = ADMMSolver(
            ops,
            ADMMConfig(n_outer=1, n_inner=1),
            executor=DirectExecutor(ops, chunk_size=chunk),
        )
        built = set(ops.plan2d._slices)
        # every slice, in the one precision the run computes in
        assert built == {(i, "f") for i in range(ops.geometry.det_shape[0])}
        nbytes = ops.plan2d.nbytes
        rng = np.random.default_rng(0)
        d = rng.standard_normal(ops.geometry.data_shape).astype(np.complex64)
        first = solver.run(d)
        assert set(ops.plan2d._slices) == built  # the sweeps built nothing
        assert ops.plan2d.nbytes == nbytes

        # the second stack of the geometry reads sigma and the plans the
        # first one built: neither its construction nor its sweeps build a
        # slice operator, and it computes the same bits
        later = tiny_stack()
        assert later.plan2d is ops.plan2d and later.plan1d is ops.plan1d
        solver = ADMMSolver(
            later,
            ADMMConfig(n_outer=1, n_inner=1),
            executor=DirectExecutor(later, chunk_size=chunk),
        )
        second = solver.run(d)
        assert set(later.plan2d._slices) == built
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
