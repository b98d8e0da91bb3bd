"""One Lipschitz estimate per operator stack, run on the sweep's chunk grid."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.lamino import LaminoGeometry, LaminoOperators
from repro.obs import ObsConfig
from repro.obs import runtime as obs
from repro.solvers import ADMMConfig, ADMMSolver, DirectExecutor, estimate_normal_lipschitz
from repro.solvers import lsp as lsp_module


@pytest.fixture()
def tiny_stack(tiny_geometry):
    """Factory of cold stacks: every call builds its own plans and cache."""
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


class TestOneEstimatePerStack:
    def test_solvers_on_one_stack_share_the_estimate(self, tiny_stack, power_iterations):
        ops = tiny_stack()
        solvers = [
            ADMMSolver(ops, executor=DirectExecutor(ops, chunk_size=c)) for c in (4, 8, None)
        ]
        assert power_iterations == [(8, 0, 4)]
        assert len({s.lsp._sigma for s in solvers}) == 1
        ADMMSolver(tiny_stack())
        assert len(power_iterations) == 2  # the cache is the stack's, not global

    def test_distinct_keys_stay_distinct(self, tiny_stack, power_iterations):
        ops = tiny_stack()
        s0 = estimate_normal_lipschitz(ops, n_iters=8, seed=0)
        s1 = estimate_normal_lipschitz(ops, n_iters=8, seed=1)
        s2 = estimate_normal_lipschitz(ops, n_iters=4, seed=0)
        assert estimate_normal_lipschitz(ops, n_iters=8, seed=0) == s0
        assert [r[:2] for r in power_iterations] == [(8, 0), (8, 1), (4, 0)]
        assert len({s0, s1, s2}) == 3

    def test_racing_builders_produce_one_estimate(self, tiny_stack, power_iterations):
        ops = tiny_stack()
        barrier = threading.Barrier(2)
        sigmas, errors = [], []

        def build():
            try:
                barrier.wait(timeout=10)
                sigmas.append(ADMMSolver(ops, executor=DirectExecutor(ops, 4)).lsp._sigma)
            except Exception as exc:  # surfaced below, not lost with the thread
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(2)]
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
        solver.run(rng.standard_normal(ops.geometry.data_shape).astype(np.complex64))
        assert set(ops.plan2d._blocks) == built  # the sweeps built nothing


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
