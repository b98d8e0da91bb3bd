"""A bounded queue with close semantics and backpressure stats.

A streaming ingest hands chunk slabs from the acquisition thread to the
solver through :class:`BoundedQueue`: a fixed-depth FIFO whose ``put``
blocks when the queue is full (backpressure on the producer) and whose
``get`` blocks when it is empty (starvation of the consumer).  Both
conditions are counted, so a finished run can report which side waited.

``close()`` ends the stream: producers see :class:`QueueClosed` on further
``put``s, consumers drain the remaining items and then see
:class:`QueueClosed`.  Closing is idempotent and safe from any thread,
which is what lets a failing consumer tear the stream down without
deadlocking the producer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from ..obs import runtime as obs

__all__ = ["QueueClosed", "QueueStats", "BoundedQueue"]


class QueueClosed(Exception):
    """Raised by ``put`` on a closed queue and by ``get`` once drained."""


@dataclass
class QueueStats:
    """Occupancy and blocking counters of one queue."""

    puts: int = 0
    gets: int = 0
    producer_blocks: int = 0  # puts that found the queue full (backpressure)
    consumer_blocks: int = 0  # gets that found the queue empty (starvation)
    max_depth: int = 0


class BoundedQueue:
    """Fixed-depth FIFO with blocking put/get and cooperative shutdown."""

    def __init__(self, depth: int, name: str = "queue") -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth
        self.name = name
        self._items: deque = deque()  # guarded-by: self._cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: self._cond
        self.stats = QueueStats()  # guarded-by: self._cond

    def put(self, item) -> None:
        """Append ``item``, blocking while the queue is full.

        Raises :class:`QueueClosed` if the queue is (or becomes) closed.
        """
        with self._cond:
            if len(self._items) >= self.depth and not self._closed:
                self.stats.producer_blocks += 1
                t0 = time.monotonic()
                while len(self._items) >= self.depth and not self._closed:
                    self._cond.wait()
                obs.histogram(
                    "pipeline_queue_block_seconds", queue=self.name, side="put"
                ).observe(time.monotonic() - t0)
            if self._closed:
                raise QueueClosed
            self._items.append(item)
            self.stats.puts += 1
            self.stats.max_depth = max(self.stats.max_depth, len(self._items))
            obs.gauge("pipeline_queue_depth", queue=self.name).set(len(self._items))
            self._cond.notify_all()

    def get(self):
        """Pop the oldest item, blocking while the queue is empty.

        Raises :class:`QueueClosed` once the queue is closed *and* drained —
        items put before the close are always delivered.
        """
        with self._cond:
            if not self._items and not self._closed:
                self.stats.consumer_blocks += 1
                t0 = time.monotonic()
                while not self._items and not self._closed:
                    self._cond.wait()
                obs.histogram(
                    "pipeline_queue_block_seconds", queue=self.name, side="get"
                ).observe(time.monotonic() - t0)
            if not self._items:
                raise QueueClosed
            item = self._items.popleft()
            self.stats.gets += 1
            obs.gauge("pipeline_queue_depth", queue=self.name).set(len(self._items))
            self._cond.notify_all()
            return item

    def close(self) -> None:
        """End the stream (idempotent): wake all blocked producers/consumers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
