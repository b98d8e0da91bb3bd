"""Geometry-only 2-D plan state: the block operators do not depend on the
chunk grid they are built for, the scatter is the gather's transpose view,
the operator's resident size is one real block per range, and threads that
share a plan build each lazy fill once."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, LaminoOperators
from repro.lamino import usfft as U
from repro.solvers import ADMMConfig, ADMMSolver, DirectExecutor

H = 12


@pytest.fixture(scope="module")
def ops():
    # the per-row tap maxima differ here, which a block-local prune
    # threshold turns into chunk dependence (the property fails on one)
    g = LaminoGeometry((16, 8, 16), n_angles=10, det_shape=(H, 16), tilt_deg=61.0)
    return LaminoOperators(g)


def _rand(rng, shape, dtype=np.complex64):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


@st.composite
def chunk_grids(draw):
    """A tiling of ``[0, H)`` into contiguous row ranges of random widths."""
    cuts = sorted(draw(st.sets(st.integers(1, H - 1), max_size=H - 1)))
    edges = [0, *cuts, H]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class TestChunkInvariance:
    @given(
        grid=chunk_grids(),
        seed=st.integers(0, 2**31 - 1),
        dtype=st.sampled_from([np.complex64, np.complex128]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_application_is_the_full_range_one(self, ops, grid, seed, dtype):
        rng = np.random.default_rng(seed)
        g = ops.geometry
        u1 = _rand(rng, (g.vol_shape[0], H, g.vol_shape[2]), dtype)
        u2 = _rand(rng, g.data_shape, dtype)
        fwd = np.concatenate([ops.fu2d(u1[:, r], rows=r) for r in grid], axis=1)
        adj = np.concatenate([ops.fu2d_adj(u2[:, r], rows=r) for r in grid], axis=1)
        np.testing.assert_array_equal(fwd, ops.fu2d(u1))
        np.testing.assert_array_equal(adj, ops.fu2d_adj(u2))
        # and the chunked pair is still an adjoint pair
        lhs, rhs = np.vdot(fwd, u2), np.vdot(u1, adj)
        assert abs(lhs - rhs) <= (1e-4 if dtype == np.complex64 else 1e-11) * abs(lhs)


class TestScatterFromGather:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_scatter_is_exactly_the_gather_transposed(self, dtype):
        rng = np.random.default_rng(3)
        plan = U.USFFT2DPlan((8, 12), rng.uniform(-4, 4, size=(5, 17, 2)))
        scatter = plan.block_scatter(1, 4, dtype)
        gather = plan.block_gather(1, 4, dtype)
        assert list(plan._blocks) == [(1, 4, gather.dtype.char)]  # the scatter cached nothing
        assert scatter.format == "csc" and scatter.shape == gather.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(scatter, name), getattr(gather, name))
        # and applying the view is applying the materialised transpose
        want = gather.T.tocsr()
        y = rng.standard_normal(gather.shape[0]).astype(gather.dtype)
        np.testing.assert_array_equal(scatter @ y, want @ y)


class TestResidentSize:
    """The Fu2D operator's bytes: separable taps in the plan, one real block
    per (range, precision), nothing per direction.  Each test builds its
    stack on a fresh registry (``conftest.operator_registry``), so the plan
    starts with no block."""

    CHUNK = 8

    @pytest.fixture(scope="class")
    def geometry(self):
        # the ledger's service geometry (its solver geometry is twice as tall)
        return LaminoGeometry((64, 16, 64), n_angles=32, det_shape=(16, 64))

    @pytest.mark.parametrize(
        "dtype,bytes_per_tap", [(np.complex64, 8), (np.complex128, 12)]
    )
    def test_bytes_per_stored_tap(self, geometry, dtype, bytes_per_tap):
        ops = LaminoOperators(geometry)
        plan, h = ops.plan2d, geometry.det_shape[0]
        taps = 2 * plan.half_width + 1
        # per axis: int32 index + float64 weight per tap, nothing expanded
        assert plan.nbytes == 2 * plan.nslices * plan.npts * taps * (4 + 8)
        tap_bytes = plan.nbytes
        grid = [slice(lo, lo + self.CHUNK) for lo in range(0, h, self.CHUNK)]
        rng = np.random.default_rng(0)
        u1 = _rand(rng, (geometry.vol_shape[0], h, geometry.vol_shape[2]), dtype)
        for _ in range(2):  # a second sweep adds nothing
            for r in grid:
                ops.fu2d_adj(ops.fu2d(u1[:, r], rows=r), rows=r)
        blocks = [plan.block_gather(r.start, r.stop, dtype) for r in grid]
        assert len(plan._blocks) == len(grid)  # one per range x precision, all cached
        for r, gather in zip(grid, blocks):
            assert not np.iscomplexobj(gather.data)
            assert np.shares_memory(plan.block_scatter(r.start, r.stop, dtype).data, gather.data)
        nnz = sum(m.nnz for m in blocks)
        rows = sum(m.shape[0] for m in blocks)
        # weight + column index per tap; the row pointer is 4 B per *target*
        assert plan.nbytes - tap_bytes == nnz * bytes_per_tap + 4 * (rows + len(blocks))
        assert (plan.nbytes - tap_bytes) / nnz < bytes_per_tap + 0.1

    def test_each_precision_gets_its_own_block(self, geometry):
        plan = LaminoOperators(geometry).plan2d
        single = plan.block_gather(0, 4, np.complex64)
        double = plan.block_gather(0, 4, np.complex128)
        assert single.dtype == np.float32 and double.dtype == np.float64
        assert plan.block_gather(0, 4, np.float32) is single
        assert set(plan._blocks) == {(0, 4, "f"), (0, 4, "d")}
        assert single.nnz < double.nnz == 4 * plan.npts * 81


class TestReferenceOperatorIsLazy:
    """``plan.interp`` serves the reference kernels; nothing else builds it."""

    def test_solvers_leave_it_unbuilt(self, tiny_geometry, tiny_data):
        ops = LaminoOperators(tiny_geometry)
        admm = ADMMConfig(n_outer=2, n_inner=2, step_max_rel=4.0)
        d = tiny_data.astype(np.complex64)
        ADMMSolver(ops, admm, executor=DirectExecutor(ops, chunk_size=4)).run(d)
        solver = MLRSolver(tiny_geometry, MLRConfig(chunk_size=4), admm=admm, ops=ops)
        solver.reconstruct(d)
        solver.close()
        assert ops.plan2d._blocks and ops.plan2d._interp is None

    def test_first_access_expands_the_same_taps_once(self):
        rng = np.random.default_rng(5)
        plan = U.USFFT2DPlan((8, 12), rng.uniform(-6, 6, size=(3, 7, 2)))
        assert plan._interp is None
        mats = plan.interp
        assert mats is plan.interp and len(mats) == plan.nslices
        for i, m in enumerate(mats):
            # centered layout, full stencil: the float64 block of the slice
            # up to the fftshift the block absorbs
            f0, f1 = plan.fine_shape
            centered = m.toarray().reshape(plan.npts, f0, f1)
            raw = np.roll(centered, (f0 // 2, f1 // 2), axis=(1, 2)).reshape(plan.npts, -1)
            block = plan.block_gather(i, i + 1, np.complex128)
            np.testing.assert_array_equal(raw, block.toarray())


def _race(n_threads, fn):
    """``fn()`` from ``n_threads`` threads released together; the results."""
    start = threading.Barrier(n_threads)
    results, errors = [None] * n_threads, []

    def run(i):
        try:
            start.wait(timeout=10)
            results[i] = fn()
        except Exception as exc:  # surfaced below, not lost with the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    return results


class TestLazyFillsUnderThePlanLock:
    """A plan is shared by every equal stack of the process, so concurrent
    first callers of a lazy fill must wait for one build, not race it."""

    N = 8

    def test_a_cold_row_range_is_built_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        plan = U.USFFT2DPlan((8, 12), rng.uniform(-4, 4, size=(5, 17, 2)))
        built = []
        real = U.USFFT2DPlan._build_gather

        def slow_build(self, start, stop, rdt):
            built.append((start, stop))
            time.sleep(0.02)  # a window every other thread reaches
            return real(self, start, stop, rdt)

        monkeypatch.setattr(U.USFFT2DPlan, "_build_gather", slow_build)
        got = _race(self.N, lambda: plan.block_gather(1, 4, np.complex64))
        assert built == [(1, 4)]
        assert all(m is got[0] for m in got)

    def test_casts_and_the_reference_operator_are_built_once(self):
        rng = np.random.default_rng(4)
        plan1d = U.USFFT1DPlan(16, rng.uniform(-8, 8, size=11))
        plan2d = U.USFFT2DPlan((8, 12), rng.uniform(-4, 4, size=(5, 17, 2)))
        fills = [
            lambda: plan1d.corr_for(np.float32, "type2"),
            lambda: plan1d.interp_for(np.complex64, transpose=True, raw=True),
            lambda: plan2d.corr_for(np.float32, "type1"),
            lambda: plan2d.interp,
        ]
        for fill in fills:
            got = _race(self.N, fill)
            assert all(x is got[0] for x in got)  # a second build would return its own
