"""In-memory key-value store — the Redis stand-in for the value database.

:class:`KVStore` is the one store: the value column of a memo partition
(:class:`~repro.core.memo_db.MemoDatabase`).  Functional subset the
memoization system needs: ndarray values under integer ids,
capacity-bounded with FIFO or LRU eviction, per-entry heat (last-hit tick
and hit count) and the hit/miss/bytes statistics the evaluation reports.
Latency is *not* modeled here — the discrete-event cluster simulation
(:mod:`repro.cluster`) owns all timing; this class is purely functional so
it can also run inside the DES.

Values are kept as read-only contiguous ndarrays that own their buffer — a
``put`` copies the caller's array once (detaching it from any buffer the
caller may reuse) unless it already is one, in which case nobody can write
it and it is shared; a hit returns the stored array itself, no
``encode_array``/``decode_array`` round trip — while every byte is
*accounted* as the serialized frame
(:func:`~repro.kvstore.serialization.encoded_nbytes`) the wire and a real
Redis would carry, so traffic statistics are those of a serialized store.

Its state tree is columns of one length — ``ids`` (int64), ``vals`` (the
stored arrays themselves), ``heat_last`` (float64), ``heat_hits`` (int64) —
in eviction order, beside ``capacity_bytes``, ``eviction`` and ``stats``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .serialization import encoded_nbytes

__all__ = [
    "KVStats",
    "KVStore",
]

#: wall-clock source for per-entry heat ticks (unix seconds); a module global
#: so tests can monkeypatch it (``store._heat_clock = fake``) without touching
#: time.time
_heat_clock = time.time


def _stored(value) -> np.ndarray:
    """``value`` as the store keeps it: read-only, C-contiguous and owning
    its buffer.  An array that already is all three has no writable alias
    anywhere, so it is shared; a writable or borrowed one (a caller's
    scratch buffer, a view, bytes fresh off disk or the wire) is copied
    once — detached from whoever else holds the original."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"value must be an ndarray, got {type(value).__name__}")
    if value.flags.owndata and value.flags.c_contiguous and not value.flags.writeable:
        return value
    value = np.array(value, order="C", copy=True)
    value.setflags(write=False)
    return value


@dataclass
class KVStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class KVStore:
    """Capacity-bounded ndarray store with FIFO/LRU eviction and
    serialized-size accounting (``nbytes``, capacity, eviction and
    ``bytes_in``/``bytes_out`` all count the ``encode_array`` frame).

    ``capacity_bytes=None`` means unbounded (the paper's memory node holds
    the whole database; bounded mode exists for the local-cache experiments
    and for failure-injection tests).
    """

    capacity_bytes: int | None = None
    eviction: str = "fifo"
    #: id -> [value, last_hit_unix_s, hit_count], in eviction order.  An
    #: entry is born with hits=0 and last_hit at insert time; every get()
    #: hit refreshes it.  The heat half is the measurement layer eviction
    #: policies act on (cold-entry detection, reclaimable-bytes projection).
    _data: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _nbytes: int = 0
    stats: KVStats = field(default_factory=KVStats)

    def __post_init__(self) -> None:
        if self.eviction not in ("fifo", "lru"):
            raise ValueError(f"eviction must be 'fifo' or 'lru', got {self.eviction!r}")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive or None")

    def __len__(self) -> int:
        return len(self._data)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    # -- operations --------------------------------------------------------------------

    def put(self, key, value) -> None:
        """Insert/overwrite; evicts oldest (FIFO) or least-recent (LRU) entries
        until the new value fits."""
        value = _stored(value)
        size = encoded_nbytes(value)
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            raise ValueError("value larger than store capacity")
        self.delete(key)
        while self.capacity_bytes is not None and self._nbytes + size > self.capacity_bytes:
            _old_key, (old, _last, _hits) = self._data.popitem(last=False)
            self._nbytes -= encoded_nbytes(old)
            self.stats.evictions += 1
        # an overwrite is new data: its heat starts over
        self._data[key] = [value, _heat_clock(), 0]
        self._nbytes += size
        self.stats.puts += 1
        self.stats.bytes_in += size

    def get(self, key):
        """Fetch; returns ``None`` on miss (and counts it)."""
        entry = self._data.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self.eviction == "lru":
            self._data.move_to_end(key)
        entry[1] = _heat_clock()
        entry[2] += 1
        self.stats.hits += 1
        self.stats.bytes_out += encoded_nbytes(entry[0])
        return entry[0]

    def delete(self, key) -> bool:
        entry = self._data.pop(key, None)
        if entry is None:
            return False
        self._nbytes -= encoded_nbytes(entry[0])
        return True

    def keys(self):
        return list(self._data.keys())

    # -- heat metadata -------------------------------------------------------------------

    def heat_entries(self) -> list[tuple]:
        """``(key, last_hit_unix_s, hit_count, accounted_nbytes)`` for every
        stored entry — the heat analytics / eviction-planning read surface."""
        return [
            (key, last, hits, encoded_nbytes(value))
            for key, (value, last, hits) in self._data.items()
        ]

    def merge_heat(self, other: "KVStore") -> None:
        """Fold another replica's heat for the *same* logical entries into
        this store: for keys both sides hold, last-hit takes the max and hit
        counts sum — the partition-level absorb-merge semantics.  Keys only
        the other side holds are ignored (we don't store their values)."""
        for key, entry in self._data.items():
            theirs = other._data.get(key)
            if theirs is not None:
                entry[1] = max(entry[1], theirs[1])
                entry[2] += theirs[2]

    # -- snapshot hooks -----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete, restorable state as columns of one length.  Entry
        order is preserved (it *is* the FIFO/LRU eviction order), ids must
        be ints (``TypeError`` otherwise), and statistics travel along so a
        restored store accounts exactly like the live one."""
        for key in self._data:
            if isinstance(key, bool) or not isinstance(key, int):
                raise TypeError(f"unsupported id type for snapshot: {type(key).__name__}")
        entries = list(self._data.values())
        return {
            "capacity_bytes": self.capacity_bytes,
            "eviction": self.eviction,
            "ids": np.array(list(self._data), dtype=np.int64),
            "vals": [value for value, _last, _hits in entries],
            "heat_last": np.array([last for _v, last, _h in entries], dtype=np.float64),
            "heat_hits": np.array([hits for _v, _l, hits in entries], dtype=np.int64),
            "stats": dict(vars(self.stats)),
        }

    @classmethod
    def from_state(cls, state: dict) -> "KVStore":
        """Rebuild a store whose ``get``/``put``/eviction behavior is
        bit-identical to the instance that produced ``state``; columns of
        unequal length are a ``ValueError``.

        Values go through ``put``'s rule (:func:`_stored`): one that is
        already read-only, C-contiguous and owning its buffer is shared, not
        copied — a tier handing its partitions to a job and taking them
        back moves no value bytes — and a writable or borrowed array (fresh
        off disk or the wire) is detached."""
        cap = state["capacity_bytes"]
        store = cls(
            capacity_bytes=None if cap is None else int(cap),
            eviction=str(state["eviction"]),
        )
        ids = np.asarray(state["ids"], dtype=np.int64)
        heat_last = np.asarray(state["heat_last"], dtype=np.float64)
        heat_hits = np.asarray(state["heat_hits"], dtype=np.int64)
        vals = state["vals"]
        if not (ids.shape == heat_last.shape == heat_hits.shape == (len(vals),)):
            raise ValueError(
                f"store columns disagree: ids {ids.shape}, {len(vals)} vals, "
                f"heat_last {heat_last.shape}, heat_hits {heat_hits.shape}"
            )
        for key, value, last, hits in zip(
            ids.tolist(), vals, heat_last.tolist(), heat_hits.tolist()
        ):
            value = _stored(value)
            store._data[key] = [value, last, hits]
            store._nbytes += encoded_nbytes(value)
        store.stats = KVStats(**{k: int(v) for k, v in state["stats"].items()})
        return store
