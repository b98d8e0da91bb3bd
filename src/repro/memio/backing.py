"""Functional SSD backing store: real spill/prefetch of numpy arrays.

The performance side of ADMM-Offload is simulated (:mod:`repro.core.offload`
plans against the cost model), but offloading itself is real: this manager
writes arrays to disk, drops the in-memory reference, and prefetches them
back on a worker thread so the fetch at next use is (ideally) a cache hit —
the exact mechanics of paper Section 5.1 at laptop scale.
"""

from __future__ import annotations

import os
import tempfile
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = ["SpillStats", "SpillManager"]


@dataclass
class SpillStats:
    spills: int = 0
    loads: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class SpillManager:
    """Spill numpy arrays to a directory; prefetch them back asynchronously.

    Thread-safety contract: concurrent operations on *distinct* names are
    safe, and ``close()`` may race any of them.  Re-spilling a name while another
    thread concurrently reads that *same* name is not coordinated — one
    writer per name at a time.
    """

    def __init__(self, directory: str | None = None, workers: int = 2) -> None:
        self._own_dir = directory is None
        self._dir = tempfile.mkdtemp(prefix="mlr-spill-") if directory is None else directory
        os.makedirs(self._dir, exist_ok=True)
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="spill")
        self._futures: dict[str, Future] = {}  # guarded-by: self._lock
        self._on_disk: set[str] = set()  # guarded-by: self._lock
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        # in-flight spill() writes and fetch() loads
        self._active_io = 0  # guarded-by: self._lock
        self._closed = False  # guarded-by: self._lock
        self.stats = SpillStats()  # guarded-by: self._lock

    # -- core operations ------------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self._dir, f"{name}.npy")

    def spill(self, name: str, array: np.ndarray) -> None:
        """Write ``array`` to SSD under ``name`` (synchronous, like the
        paper's offload-after-last-access).

        The closed check and the write are one atomic decision against
        :meth:`close`: a concurrent ``close()`` waits for in-flight spills,
        so their files are registered (and cleaned up) rather than raced.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SpillManager is closed")
            # a re-spill must not race an in-flight load of the same file:
            # retire the old prefetch before rewriting the bytes it reads
            stale = self._futures.pop(name, None)
            self._active_io += 1
        if stale is not None and not stale.cancel():
            try:
                stale.result()
            except (OSError, ValueError, EOFError):
                pass  # the stale load's outcome is irrelevant — it is discarded
        ok = False
        try:
            np.save(self._path(name), array)
            ok = True
        finally:
            with self._lock:
                self._active_io -= 1
                if ok:
                    self._on_disk.add(name)
                    self._futures.pop(name, None)
                    self.stats.spills += 1
                    self.stats.bytes_written += array.nbytes
                self._idle.notify_all()

    def prefetch(self, name: str) -> None:
        """Start loading ``name`` on a background thread.

        Idempotent for an already-in-flight name (no second submission, no
        double-counted statistics) and a no-op on a closed manager — a
        prefetching thread racing the manager's shutdown must not die on it.
        """
        with self._lock:
            if self._closed:
                return
            if name not in self._on_disk:
                raise KeyError(f"{name!r} is not spilled")
            if name in self._futures:
                return
            self._futures[name] = self._pool.submit(np.load, self._path(name))
            self.stats.prefetches += 1

    def fetch(self, name: str) -> np.ndarray:
        """Return the array, waiting on an in-flight prefetch if one exists.

        Counted as in-flight I/O: a concurrent :meth:`close` waits for it
        before deleting an owned directory's files.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SpillManager is closed")
            fut = self._futures.pop(name, None)
            if name not in self._on_disk:
                raise KeyError(f"{name!r} is not spilled")
            self._active_io += 1
        try:
            if fut is not None:
                hit = fut.done()
                arr = fut.result()
            else:
                hit = False
                arr = np.load(self._path(name))
        finally:
            with self._lock:
                self._active_io -= 1
                self._idle.notify_all()
        with self._lock:
            if hit:
                self.stats.prefetch_hits += 1
            self.stats.loads += 1
            self.stats.bytes_read += arr.nbytes
        return arr

    def discard(self, name: str) -> None:
        with self._lock:
            self._futures.pop(name, None)
            self._on_disk.discard(name)
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def is_spilled(self, name: str) -> bool:
        return name in self._on_disk

    def close(self) -> None:
        """Shut down (idempotent): waits out in-flight spills and
        prefetches, then removes an owned spill directory.  Safe to call
        from a second thread while writes/loads are in flight."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._active_io > 0:
                self._idle.wait()
        self._pool.shutdown(wait=True)
        if self._own_dir:
            for name in list(self._on_disk):
                self.discard(name)
            try:
                os.rmdir(self._dir)
            except OSError:
                pass

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
