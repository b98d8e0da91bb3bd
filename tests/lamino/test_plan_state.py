"""Geometry-only 2-D plan state: the block operators do not depend on the
chunk grid they are built for, and the scatter is the gather's transpose."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lamino import LaminoGeometry, LaminoOperators
from repro.lamino import usfft as U

H = 12


@pytest.fixture(scope="module")
def ops():
    # the per-row tap maxima differ here, which a block-local prune
    # threshold turns into chunk dependence (the property fails on one)
    g = LaminoGeometry((16, 8, 16), n_angles=10, det_shape=(H, 16), tilt_deg=61.0)
    return LaminoOperators(g)


def _rand_c64(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


@st.composite
def chunk_grids(draw):
    """A tiling of ``[0, H)`` into contiguous row ranges of random widths."""
    cuts = sorted(draw(st.sets(st.integers(1, H - 1), max_size=H - 1)))
    edges = [0, *cuts, H]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class TestChunkInvariance:
    @given(grid=chunk_grids(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_chunked_application_is_the_full_range_one(self, ops, grid, seed):
        rng = np.random.default_rng(seed)
        g = ops.geometry
        u1 = _rand_c64(rng, (g.vol_shape[0], H, g.vol_shape[2]))
        u2 = _rand_c64(rng, g.data_shape)
        fwd = np.concatenate([ops.fu2d(u1[:, r], rows=r) for r in grid], axis=1)
        adj = np.concatenate([ops.fu2d_adj(u2[:, r], rows=r) for r in grid], axis=1)
        np.testing.assert_array_equal(fwd, ops.fu2d(u1))
        np.testing.assert_array_equal(adj, ops.fu2d_adj(u2))
        # and the chunked pair is still an adjoint pair
        lhs, rhs = np.vdot(fwd, u2), np.vdot(u1, adj)
        assert abs(lhs - rhs) <= 1e-4 * abs(lhs)


class TestScatterFromGather:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_scatter_is_exactly_the_gather_transposed(self, dtype):
        rng = np.random.default_rng(3)
        plan = U.USFFT2DPlan((8, 12), rng.uniform(-4, 4, size=(5, 17, 2)))
        scatter = plan.block_scatter(1, 4, dtype)
        gather = plan._blocks[(1, 4, np.dtype(dtype).char, False)]  # cached by the call
        assert gather is plan.block_gather(1, 4, dtype)
        want = gather.T.tocsr()
        assert scatter.has_sorted_indices
        np.testing.assert_array_equal(scatter.indptr, want.indptr)
        np.testing.assert_array_equal(scatter.indices, want.indices)
        np.testing.assert_array_equal(scatter.data, want.data)
