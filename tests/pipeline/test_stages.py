"""Reader sources, writer sinks, and the staged pipeline orchestrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lamino import iter_chunks
from repro.memio import SpillManager
from repro.pipeline import (
    ArraySource,
    ChunkPipeline,
    SlabAssembler,
    SpillSlabWriter,
    SpillSource,
)


def passthrough(items):
    for chunk, payload in items:
        yield chunk, payload


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


class TestSpillSource:
    def test_prefetching_roundtrip(self, rng, tmp_path):
        a = rng.standard_normal((12, 5)).astype(np.float32)
        chunks = list(iter_chunks(12, 4))
        with SpillManager(str(tmp_path)) as sm:
            for c in chunks:
                sm.spill(f"in-{c.index}", a[c.slice])
            src = SpillSource(sm, chunks, prefix="in-", prefetch_depth=1)
            got = list(src)
            assert sm.stats.prefetches > 0
            np.testing.assert_array_equal(
                np.concatenate([v for _, v in got]), a
            )

    def test_invalid_prefetch_depth(self, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            with pytest.raises(ValueError):
                SpillSource(sm, [], prefix="x/", prefetch_depth=-1)

    def test_depth_zero_is_synchronous(self, rng, tmp_path):
        a = rng.standard_normal((8, 3)).astype(np.float32)
        chunks = list(iter_chunks(8, 4))
        with SpillManager(str(tmp_path)) as sm:
            for c in chunks:
                sm.spill(f"s-{c.index}", a[c.slice])
            got = list(SpillSource(sm, chunks, prefix="s-", prefetch_depth=0))
            assert sm.stats.prefetches == 0  # no-prefetch mode stays synchronous
            np.testing.assert_array_equal(np.concatenate([v for _, v in got]), a)


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
        from repro.lamino import Chunk

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


class TestChunkPipeline:
    def test_end_to_end(self, rng):
        a = rng.standard_normal((16, 4))
        pipe = ChunkPipeline(
            source=ArraySource(a, iter_chunks(16, 4)),
            sweep=lambda items: ((c, 2.0 * x) for c, x in items),
            sink=SlabAssembler(axis_len=16),
            queue_depth=2,
        )
        out = pipe.run()
        np.testing.assert_array_equal(out, 2.0 * a)
        assert pipe.stats.items == 4

    def test_spill_to_spill(self, rng, tmp_path):
        """The out-of-core loop: SSD chunks in, SSD slabs out."""
        a = rng.standard_normal((12, 6)).astype(np.float32)
        chunks = list(iter_chunks(12, 4))
        with SpillManager(str(tmp_path)) as sm:
            for c in chunks:
                sm.spill(f"in-{c.index}", a[c.slice])
            writer = SpillSlabWriter(sm, prefix="out-")
            pipe = ChunkPipeline(
                source=SpillSource(sm, chunks, prefix="in-"),
                sweep=lambda items: ((c, x + 1.0) for c, x in items),
                sink=writer,
                queue_depth=1,
            )
            names = pipe.run()
            assert names == ["out-0", "out-1", "out-2"]
            got = np.concatenate([sm.fetch(n) for n in names])
            np.testing.assert_array_equal(got, a + 1.0)

    def test_compute_error_propagates(self, rng):
        a = rng.standard_normal((16, 4))

        def bad_sweep(items):
            for i, (c, x) in enumerate(items):
                if i == 2:
                    raise RuntimeError("kernel died")
                yield c, x

        pipe = ChunkPipeline(
            source=ArraySource(a, iter_chunks(16, 4)),
            sweep=bad_sweep,
            sink=SlabAssembler(axis_len=16),
            queue_depth=1,
        )
        with pytest.raises(RuntimeError, match="kernel died"):
            pipe.run()

    def test_reader_error_propagates(self):
        def source():
            from repro.lamino import Chunk

            yield Chunk(0, 0, 0, 4), np.zeros(4)
            raise OSError("disk gone")

        pipe = ChunkPipeline(
            source=source(),
            sweep=passthrough,
            sink=SlabAssembler(axis_len=8),
            queue_depth=1,
        )
        with pytest.raises(OSError, match="disk gone"):
            pipe.run()

    def test_writer_error_propagates(self, rng):
        a = rng.standard_normal((16, 4))

        def bad_sink(chunk, value):
            raise OSError("write failed")

        pipe = ChunkPipeline(
            source=ArraySource(a, iter_chunks(16, 4)),
            sweep=passthrough,
            sink=bad_sink,
            queue_depth=1,
        )
        with pytest.raises(OSError, match="write failed"):
            pipe.run()
