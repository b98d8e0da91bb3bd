"""Bounded queue semantics: backpressure and close."""

from __future__ import annotations

import threading
import time

import pytest

from repro.pipeline import BoundedQueue, QueueClosed


class TestBoundedQueue:
    def test_fifo_roundtrip(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.put(i)
        assert [q.get() for _ in range(3)] == [0, 1, 2]
        assert q.stats.puts == 3 and q.stats.gets == 3
        assert q.stats.max_depth == 3

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_put_blocks_until_consumed(self):
        q = BoundedQueue(1)
        q.put("a")
        done = threading.Event()

        def producer():
            q.put("b")  # must block until the consumer pops "a"
            done.set()

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        assert not done.is_set()
        assert q.get() == "a"
        t.join(timeout=5)
        assert done.is_set()
        assert q.get() == "b"
        assert q.stats.producer_blocks >= 1

    def test_get_blocks_until_produced(self):
        q = BoundedQueue(1)
        out = []

        def consumer():
            out.append(q.get())

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        q.put("x")
        t.join(timeout=5)
        assert out == ["x"]
        assert q.stats.consumer_blocks >= 1

    def test_close_drains_then_raises(self):
        q = BoundedQueue(4)
        q.put(1)
        q.put(2)
        q.close()
        assert q.get() == 1
        assert q.get() == 2
        with pytest.raises(QueueClosed):
            q.get()

    def test_put_after_close_raises(self):
        q = BoundedQueue(2)
        q.close()
        with pytest.raises(QueueClosed):
            q.put("late")

    def test_close_unblocks_producer(self):
        q = BoundedQueue(1)
        q.put("a")
        errors = []

        def producer():
            try:
                q.put("b")
            except QueueClosed:
                errors.append("closed")

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        q.close()
        t.join(timeout=5)
        assert errors == ["closed"]

    def test_close_is_idempotent(self):
        q = BoundedQueue(2)
        q.close()
        q.close()
        assert q.closed
