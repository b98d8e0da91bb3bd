"""Chunk partition properties (hypothesis-driven), and the sweep's slab
source and assembler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lamino import Chunk, chunk_ranges, iter_chunks
from repro.lamino.chunking import ArraySource, SlabAssembler


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


class TestArraySource:
    def test_yields_slabs_in_order(self, rng):
        a = rng.standard_normal((10, 3))
        src = ArraySource(a, iter_chunks(10, 4))
        got = list(src)
        assert [c.index for c, _ in got] == [0, 1, 2]
        np.testing.assert_array_equal(got[2][1], a[8:10])

    def test_axis1_and_payload(self, rng):
        a = rng.standard_normal((2, 6, 2))
        src = ArraySource(a, iter_chunks(6, 3, axis=1), payload=lambda c: (c.lo, c.hi))
        assert [p for _, p in src] == [(0, 3), (3, 6)]
        assert len(src) == 2


class TestSlabAssembler:
    def test_out_of_order_assembly(self, rng):
        a = rng.standard_normal((7, 3))
        sink = SlabAssembler(axis_len=7)
        for c in reversed(list(iter_chunks(7, 3))):
            sink(c, a[c.slice])
        np.testing.assert_array_equal(sink.result(), a)

    def test_preserves_memory_layout(self, rng):
        # the assembler must reproduce np.concatenate's layout decision —
        # transposed-layout slabs (as the USFFT ops emit) stay transposed
        slabs = [
            np.asfortranarray(rng.standard_normal((2, 4, 4))) for _ in range(3)
        ]
        sink = SlabAssembler(axis_len=6)
        for c, s in zip(iter_chunks(6, 2), slabs):
            sink(c, s)
        expect = np.concatenate(slabs, axis=0)
        got = sink.result()
        np.testing.assert_array_equal(got, expect)
        assert got.strides == expect.strides

    def test_gap_raises(self):
        chunks = list(iter_chunks(8, 4))
        sink = SlabAssembler(axis_len=8)
        sink(chunks[1], np.zeros((4, 2)))
        with pytest.raises(ValueError):
            sink.result()

    def test_duplicate_raises(self):
        chunks = list(iter_chunks(8, 4))
        sink = SlabAssembler(axis_len=8)
        sink(chunks[0], np.zeros((4, 2)))
        sink(chunks[0], np.zeros((4, 2)))
        with pytest.raises(ValueError):
            sink.result()

    def test_overlap_raises(self):
        sink = SlabAssembler(axis_len=4)
        sink(Chunk(0, 0, 0, 3), np.zeros((3, 2)))
        sink(Chunk(1, 0, 2, 4), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sink.result()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SlabAssembler(axis_len=4).result()
        with pytest.raises(ValueError):
            SlabAssembler(axis_len=0)
