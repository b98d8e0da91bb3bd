"""In-memory key-value store — the Redis stand-in for the value database.

Functional subset the memoization system needs: byte-string values under
integer/str keys, capacity-bounded with FIFO or LRU eviction, and the
hit/miss/bytes statistics the evaluation reports.  Latency is *not* modeled
here — the discrete-event cluster simulation (:mod:`repro.cluster`) owns all
timing; this class is purely functional so it can also run inside the DES.

Two value representations share the bookkeeping:

- :class:`KVStore` holds opaque byte strings (the serialized wire format —
  what the spill/offload paths and a real Redis would carry),
- :class:`ArrayStore` holds ndarrays directly (the zero-copy in-memory mode
  of the memoization value database) while *accounting* every byte exactly
  as if the value had been serialized, so traffic statistics are identical
  between the two modes.
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
    "ArrayStore",
    "heat_now",
]

#: wall-clock source for per-entry heat ticks; a module global so tests can
#: monkeypatch it (``store._heat_clock = fake``) without touching time.time
_heat_clock = time.time


def heat_now() -> float:
    """The heat tick for 'this entry was touched now' (unix seconds)."""
    return _heat_clock()


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
    """Capacity-bounded byte store with FIFO/LRU eviction.

    ``capacity_bytes=None`` means unbounded (the paper's memory node holds
    the whole database; bounded mode exists for the local-cache experiments
    and for failure-injection tests).
    """

    capacity_bytes: int | None = None
    eviction: str = "fifo"
    _data: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _nbytes: int = 0
    stats: KVStats = field(default_factory=KVStats)
    #: per-entry heat metadata: key -> [last_hit_unix_s, hit_count].  An
    #: entry is born with hits=0 and last_hit at insert time; every get()
    #: hit refreshes it.  This is the measurement layer eviction policies
    #: act on (cold-entry detection, reclaimable-bytes projection).
    _heat: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.eviction not in ("fifo", "lru"):
            raise ValueError(f"eviction must be 'fifo' or 'lru', got {self.eviction!r}")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive or None")

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    @property
    def nbytes(self) -> int:
        return self._nbytes

    # -- value representation hooks (overridden by ArrayStore) -------------------------

    def _coerce(self, value):
        """Validate and normalize a value for storage."""
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"value must be bytes-like, got {type(value).__name__}")
        return bytes(value)

    def _adopt(self, value):
        """Normalize a value arriving through :meth:`from_state`."""
        return self._coerce(value)

    @staticmethod
    def _value_nbytes(value) -> int:
        """Accounted size of a stored value."""
        return len(value)

    # -- operations --------------------------------------------------------------------

    def put(self, key, value) -> None:
        """Insert/overwrite; evicts oldest (FIFO) or least-recent (LRU) entries
        until the new value fits."""
        value = self._coerce(value)
        size = self._value_nbytes(value)
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            raise ValueError("value larger than store capacity")
        if key in self._data:
            self._nbytes -= self._value_nbytes(self._data.pop(key))
        while self.capacity_bytes is not None and self._nbytes + size > self.capacity_bytes:
            old_key, old = self._data.popitem(last=False)
            self._nbytes -= self._value_nbytes(old)
            self._heat.pop(old_key, None)
            self.stats.evictions += 1
        self._data[key] = value
        self._nbytes += size
        # an overwrite is new data: its heat starts over
        self._heat[key] = [heat_now(), 0]
        self.stats.puts += 1
        self.stats.bytes_in += size

    def get(self, key):
        """Fetch; returns ``None`` on miss (and counts it)."""
        value = self._data.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        if self.eviction == "lru":
            self._data.move_to_end(key)
        ent = self._heat.get(key)
        if ent is not None:
            ent[0] = heat_now()
            ent[1] += 1
        self.stats.hits += 1
        self.stats.bytes_out += self._value_nbytes(value)
        return value

    def delete(self, key) -> bool:
        value = self._data.pop(key, None)
        if value is None:
            return False
        self._nbytes -= self._value_nbytes(value)
        self._heat.pop(key, None)
        return True

    def keys(self):
        return list(self._data.keys())

    def clear(self) -> None:
        self._data.clear()
        self._heat.clear()
        self._nbytes = 0

    # -- heat metadata -------------------------------------------------------------------

    def heat(self, key) -> tuple[float, int] | None:
        """``(last_hit_unix_s, hit_count)`` of a stored entry, or ``None``."""
        ent = self._heat.get(key)
        return None if ent is None else (ent[0], ent[1])

    def heat_entries(self) -> list[tuple]:
        """``(key, last_hit_unix_s, hit_count, accounted_nbytes)`` for every
        stored entry — the heat analytics / eviction-planning read surface.
        Entries restored from a pre-heat snapshot carry ``(0.0, 0)``."""
        out = []
        for key, value in self._data.items():
            last, hits = self._heat.get(key) or (0.0, 0)
            out.append((key, last, hits, self._value_nbytes(value)))
        return out

    def merge_heat(self, other: "KVStore") -> None:
        """Fold another replica's heat for the *same* logical entries into
        this store: for keys both sides hold, last-hit takes the max and hit
        counts sum — the partition-level absorb-merge semantics.  Keys only
        the other side holds are ignored (we don't store their values)."""
        for key, ent in self._heat.items():
            theirs = other._heat.get(key)
            if theirs is not None:
                ent[0] = max(ent[0], theirs[0])
                ent[1] += theirs[1]

    # -- snapshot hooks -----------------------------------------------------------------

    _STORE_TYPE = "bytes"

    def state_dict(self) -> dict:
        """Complete, restorable state.  Entry order is preserved (it *is*
        the FIFO/LRU eviction order), keys carry an explicit int/str type
        tag, and statistics travel along so a restored store accounts
        exactly like the live one."""
        keys = []
        for key in self._data:
            if isinstance(key, bool) or not isinstance(key, (int, str)):
                raise TypeError(f"unsupported key type for snapshot: {type(key).__name__}")
            keys.append(["i", int(key)] if isinstance(key, int) else ["s", key])
        heat = [self._heat.get(key) or (0.0, 0) for key in self._data]
        return {
            "store_type": self._STORE_TYPE,
            "capacity_bytes": self.capacity_bytes,
            "eviction": self.eviction,
            "keys": keys,
            "vals": list(self._data.values()),
            "heat_last": [float(h[0]) for h in heat],
            "heat_hits": [int(h[1]) for h in heat],
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "puts": self.stats.puts,
                "evictions": self.stats.evictions,
                "bytes_in": self.stats.bytes_in,
                "bytes_out": self.stats.bytes_out,
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "KVStore":
        """Rebuild a store whose ``get``/``put``/eviction behavior is
        bit-identical to the instance that produced ``state``."""
        if state["store_type"] != cls._STORE_TYPE:
            raise ValueError(
                f"state is a {state['store_type']!r} store, expected {cls._STORE_TYPE!r}"
            )
        cap = state["capacity_bytes"]
        store = cls(
            capacity_bytes=None if cap is None else int(cap),
            eviction=str(state["eviction"]),
        )
        # pre-heat snapshots (older schema) carry no heat arrays: every
        # restored entry then reads as never-hit since the epoch — maximally
        # cold, which is the conservative answer for eviction planning
        n = len(state["keys"])
        heat_last = state.get("heat_last") or [0.0] * n
        heat_hits = state.get("heat_hits") or [0] * n
        for tagged, value, last, hits in zip(
            state["keys"], state["vals"], heat_last, heat_hits
        ):
            tag, key = tagged
            key = int(key) if tag == "i" else str(key)
            value = store._adopt(value)
            store._data[key] = value
            store._nbytes += store._value_nbytes(value)
            store._heat[key] = [float(last), int(hits)]
        st = state["stats"]
        store.stats = KVStats(**{k: int(v) for k, v in st.items()})
        return store


@dataclass
class ArrayStore(KVStore):
    """Zero-copy ndarray value store with serialized-size accounting.

    Values are kept as read-only contiguous ndarrays: a ``put`` copies the
    caller's array once (detaching it from any buffer the caller may
    reuse), and a ``get`` returns the stored array itself — no
    ``encode_array``/``decode_array`` round-trip on the hot path.  All byte
    accounting (``nbytes``, capacity, eviction, ``bytes_in``/``bytes_out``)
    uses :func:`~repro.kvstore.serialization.encoded_nbytes`, the exact
    length ``encode_array`` would produce, so every statistic matches a
    serialized :class:`KVStore` bit for bit.
    """

    _STORE_TYPE = "array"

    def _coerce(self, value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"value must be an ndarray, got {type(value).__name__}")
        arr = np.array(value, order="C", copy=True)
        arr.setflags(write=False)
        return arr

    def _adopt(self, value):
        """A state tree's value that is already what ``put`` would have made
        of it — read-only, C-contiguous and owning its buffer, so no one
        holds a writable alias — is shared, not copied: a tier handing its
        partitions to a job and taking them back moves no value bytes.
        A writable or borrowed array (fresh off disk or the wire) is
        detached exactly as in ``put``."""
        if (
            isinstance(value, np.ndarray)
            and value.flags.owndata
            and value.flags.c_contiguous
            and not value.flags.writeable
        ):
            return value
        return self._coerce(value)

    @staticmethod
    def _value_nbytes(value) -> int:
        return encoded_nbytes(value)

