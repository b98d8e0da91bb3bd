"""Chunk partition properties (hypothesis-driven)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lamino import Chunk, chunk_ranges, iter_chunks


class TestChunkRanges:
    @given(n=st.integers(1, 500), size=st.integers(1, 64))
    def test_partition_covers_exactly(self, n, size):
        ranges = chunk_ranges(n, size)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_a0, a1), (b0, _b1) in zip(ranges, ranges[1:]):
            assert a1 == b0  # contiguous, no overlap, no gap
        assert all(hi - lo <= size for lo, hi in ranges)
        assert sum(hi - lo for lo, hi in ranges) == n

    @pytest.mark.parametrize("n,size", [(10, 0), (10, -1), (0, 4), (-5, 4), (0, 0), (-1, -1)])
    def test_invalid_inputs(self, n, size):
        with pytest.raises(ValueError):
            chunk_ranges(n, size)
        with pytest.raises(ValueError):
            list(iter_chunks(n, size))


class TestChunk:
    def test_take_is_a_view_of_the_axis_slab(self):
        a = np.arange(24).reshape(2, 6, 2)
        chunk = Chunk(index=1, axis=1, lo=2, hi=5)
        sub = chunk.take(a)
        assert sub.shape == (2, 3, 2)
        np.testing.assert_array_equal(sub, a[:, 2:5, :])
        assert np.shares_memory(sub, a)

    def test_size_and_slice(self):
        c = Chunk(index=0, axis=0, lo=4, hi=9)
        assert c.size == 5
        assert c.slice == slice(4, 9)

    def test_iter_chunks_indices_are_sequential(self):
        chunks = list(iter_chunks(10, 4))
        assert [c.index for c in chunks] == [0, 1, 2]
        assert [c.size for c in chunks] == [4, 4, 2]
