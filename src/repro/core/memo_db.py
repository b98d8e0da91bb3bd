"""The distributed memoization database (paper Section 4.3.2, Figure 6).

Two cooperating stores on the (simulated) memory node:

- an **index database** organizing keys by similarity — an IVF ANN index
  (:class:`~repro.ann.IVFFlatIndex`), trained lazily on the first keys and
  supporting O(1) dynamic insertion,
- a **value database** holding the FFT-operation outputs under integer
  ids: an :class:`~repro.kvstore.ArrayStore`, which keeps the ndarrays in
  memory — zero-copy hits — while *accounting* every byte as the
  serialized frame (:func:`~repro.kvstore.encode_array`) the wire and the
  spill/offload paths would carry.

A query encodes nothing itself: it receives a key vector, finds the nearest
stored key, gates on the paper's Eq. 3 cosine-similarity threshold tau, and
returns the stored value on acceptance.  All traffic statistics needed by
the performance model (queries, hits, inserted/fetched bytes) are counted.

The service API (Section 4.3.3) is a *true* batch: one coalesced key
message becomes one stacked ``index.search`` (a single GEMM against the
probed inverted lists) instead of a Python loop of scalar searches, and a
batched insert trains/extends the index with stacked vectors.  Every
per-key decision — the cold-database pretrain scan (vectorized over
candidates) and the Eq. 3 gate — is independent of the batch it travels
in, so a batch returns bit-identical outcomes and byte counters to the
same keys sent one per message, on trained and cold databases alike;
``query`` / ``insert`` are exactly that one-item message.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..ann.buffer import GrowableRows
from ..ann.ivf import IVFFlatIndex
from ..kvstore.serialization import encoded_nbytes
from ..kvstore.store import ArrayStore
from ..obs import runtime as obs

__all__ = ["MemoDBStats", "QueryOutcome", "MemoDatabase"]


@dataclass
class MemoDBStats:
    queries: int = 0
    hits: int = 0
    inserts: int = 0
    bytes_inserted: int = 0
    bytes_fetched: int = 0
    #: number of messages served — every query_batch/insert_batch call,
    #: the one-item ``query``/``insert`` form included
    query_batches: int = 0
    insert_batches: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    def merge(self, other: "MemoDBStats") -> "MemoDBStats":
        """Accumulate another partition's counters into this one."""
        self.queries += other.queries
        self.hits += other.hits
        self.inserts += other.inserts
        self.bytes_inserted += other.bytes_inserted
        self.bytes_fetched += other.bytes_fetched
        self.query_batches += other.query_batches
        self.insert_batches += other.insert_batches
        return self

    @classmethod
    def merged(cls, parts) -> "MemoDBStats":
        """One aggregate over an iterable of partition/shard statistics —
        the single accumulator every reporting layer (shard, router,
        executor, job service) shares instead of hand-rolling the sum."""
        agg = cls()
        for part in parts:
            agg.merge(part)
        return agg

    def delta(self, baseline: "MemoDBStats") -> "MemoDBStats":
        """Counters accrued since ``baseline`` (field-wise difference) —
        e.g. one job's own traffic on a warm-started, stats-carrying
        database."""
        return MemoDBStats(
            queries=self.queries - baseline.queries,
            hits=self.hits - baseline.hits,
            inserts=self.inserts - baseline.inserts,
            bytes_inserted=self.bytes_inserted - baseline.bytes_inserted,
            bytes_fetched=self.bytes_fetched - baseline.bytes_fetched,
            query_batches=self.query_batches - baseline.query_batches,
            insert_batches=self.insert_batches - baseline.insert_batches,
        )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one memoization lookup."""

    value: np.ndarray | None
    similarity: float
    matched_id: int
    n_entries: int
    stored_meta: object = None  # reuse metadata recorded at insert time

    @property
    def hit(self) -> bool:
        return self.value is not None


@dataclass
class MemoDatabase:
    """Index + value store for one FFT operation's memoization table.

    Values are kept as read-only in-memory ndarrays: hits return the stored
    array without a decode copy, while all byte statistics report the
    serialized frame size (what Figures 10/11/15 count).
    """

    dim: int
    tau: float = 0.92
    index_clusters: int = 16
    index_nprobe: int = 4
    train_min: int = 32

    index: IVFFlatIndex = field(init=False)
    values: ArrayStore = field(init=False)
    stats: MemoDBStats = field(init=False)
    _pretrain: GrowableRows = field(init=False, repr=False)
    _keys: dict = field(init=False, default_factory=dict)
    _meta: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        self.index = IVFFlatIndex(
            self.dim, n_clusters=self.index_clusters, nprobe=self.index_nprobe
        )
        self.values = ArrayStore()
        self.stats = MemoDBStats()
        self._pretrain = GrowableRows((self.dim,), np.float32)

    def __len__(self) -> int:
        return len(self.values)

    # -- insertion ---------------------------------------------------------------------

    def _check_key(self, key: np.ndarray) -> np.ndarray:
        key = np.asarray(key, dtype=np.float32).ravel()
        if key.shape[0] != self.dim:
            raise ValueError(f"key dim {key.shape[0]} != {self.dim}")
        return key

    def _index_key(self, key: np.ndarray) -> int:
        """Register one key with the (possibly still cold) index; returns id."""
        if self.index.is_trained:
            return int(self.index.add(key[None])[0])
        self._pretrain.append(key)
        if len(self._pretrain) >= self.train_min:
            self.index.train(self._pretrain.view)
            ids = self.index.add(self._pretrain.view)
            self._pretrain.clear()
            return int(ids[-1])
        return len(self._pretrain) - 1

    def insert(self, key: np.ndarray, value: np.ndarray, meta=None) -> int:
        """DB.Put of one pair: a one-item :meth:`insert_batch` message."""
        return self.insert_batch([(key, value, meta)])[0]

    def insert_batch(self, items) -> list[int]:
        """DB.Put for a batch of ``(key, value, meta)`` triples — each the
        (key, value) pair plus the reuse metadata (input-chunk DC and AC
        norm); ids in item order.

        Keys destined for a trained index are stacked and added in one call
        (one cluster-assignment GEMM); the pretrain buffer (training the
        coarse quantizer once enough keys accumulated) and value puts
        proceed item by item, so the resulting database state is identical
        to inserting one item at a time.
        """
        items = list(items)
        if not items:
            return []
        keys = [self._check_key(k) for k, _v, _m in items]
        ids: list[int] = []
        i = 0
        # cold prefix: fill the pretrain buffer (training once it fills)
        while i < len(items) and not self.index.is_trained:
            ids.append(self._index_key(keys[i]))
            i += 1
        # trained remainder: one stacked dynamic insertion
        if i < len(items):
            ids.extend(int(x) for x in self.index.add(np.stack(keys[i:])))
        for new_id, key, (_k, value, meta) in zip(ids, keys, items):
            self._keys[new_id] = key
            self._meta[new_id] = meta
            self.stats.inserts += 1
            self.values.put(new_id, value)
            self.stats.bytes_inserted += encoded_nbytes(value)
        self.stats.insert_batches += 1
        return ids

    # -- lookup ------------------------------------------------------------------------

    def _cold_best(self, key: np.ndarray) -> tuple[int, float]:
        """Vectorized linear scan of the pretrain buffer: ``(best_id, best
        similarity)``; first maximum wins, matching the scalar-scan order."""
        cands = self._pretrain.view
        if not len(cands):
            return -1, -2.0
        na = float(np.linalg.norm(key))
        nb = np.sqrt(np.sum(cands * cands, axis=1, dtype=np.float64))
        denom = na * nb
        dots = cands @ key
        sims = np.where(denom > 0.0, dots / np.where(denom == 0.0, 1.0, denom), 0.0)
        best = int(np.argmax(sims))
        return best, float(sims[best])

    def _gate_rows(self, Q: np.ndarray, matched) -> np.ndarray:
        """Eq. 3 gate for row-aligned (query, matched-id) pairs, vectorized.

        Cosine similarity (:func:`~repro.solvers.metrics.cosine_similarity`
        semantics: zero-norm operands gate to 0) computed in float64 with
        einsum row reductions, which are independent of batch size — so a
        1-row call is bit-identical to the same row inside a batch.  Ids
        without a stored key gate to -2.
        """
        sims = np.full(len(matched), -2.0)
        rows = [i for i, mid in enumerate(matched) if self._keys.get(int(mid)) is not None]
        if not rows:
            return sims
        Qd = Q[rows].astype(np.float64)
        Kd = np.stack([self._keys[int(matched[i])] for i in rows]).astype(np.float64)
        dots = np.einsum("ij,ij->i", Qd, Kd)
        denom = np.sqrt(np.einsum("ij,ij->i", Qd, Qd)) * np.sqrt(
            np.einsum("ij,ij->i", Kd, Kd)
        )
        sims[rows] = np.where(
            denom > 0.0, dots / np.where(denom == 0.0, 1.0, denom), 0.0
        )
        return sims

    def _resolve(self, key: np.ndarray, matched: int, sim: float, n: int) -> QueryOutcome:
        """Shared hit/miss resolution once the nearest candidate is known."""
        if matched >= 0 and sim > self.tau:
            value = self.values.get(matched)
            if value is not None:
                self.stats.hits += 1
                self.stats.bytes_fetched += encoded_nbytes(value)
                return QueryOutcome(value, sim, matched, n, self._meta.get(matched))
        if not self.index.is_trained:
            # cold-database misses never expose the scan's candidate id
            return QueryOutcome(None, sim, -1, n)
        return QueryOutcome(None, sim, matched, n)

    def query(self, key: np.ndarray) -> QueryOutcome:
        """DB.Get of one key: a one-item :meth:`query_batch` message."""
        return self.query_batch([key])[0]

    def query_batch(self, keys) -> list["QueryOutcome"]:
        """DB.Get for one coalesced key message (paper Section 4.3.3).

        The memory node receives a 4 KB message holding many keys and
        services them as **one** batched index lookup — a single stacked
        ``index.search`` — finding each key's most similar stored key and
        returning its value if Eq. 3's cosine similarity exceeds tau;
        outcomes are returned in key order.
        """
        keys = [np.asarray(k, dtype=np.float32).ravel() for k in keys]
        if not keys:
            return []
        self.stats.queries += len(keys)
        n = len(self.values)
        outcomes: list[QueryOutcome] = []
        if not self.index.is_trained:
            for key in keys:
                matched, sim = self._cold_best(key)
                outcomes.append(self._resolve(key, matched, sim, n))
        else:
            Q = np.stack(keys)
            with obs.span("memo.ann_query", n=len(keys)):
                _dists, ids = self.index.search(Q, k=1)
                matched = ids[:, 0]
                sims = self._gate_rows(Q, matched)  # one vectorized Eq. 3 gate
            for key, mid, sim in zip(keys, matched, sims):
                mid = int(mid)
                if mid < 0:
                    outcomes.append(QueryOutcome(None, -2.0, -1, n))
                else:
                    outcomes.append(self._resolve(key, mid, float(sim), n))
        self.stats.query_batches += 1
        return outcomes

    # -- snapshot hooks ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete, restorable state: configuration, the ANN index (trained
        or still cold), the value store, the gate's key table, the reuse
        metadata, the pretrain buffer, and the traffic statistics.

        Reuse metadata entries must be ``None`` or ``(ac_norm, dc)`` pairs
        (what the memoization engine stores); anything else is not
        snapshot-serializable and raises ``TypeError``.
        """
        ids = list(self._keys)
        keys = (
            np.stack([self._keys[i] for i in ids])
            if ids
            else np.zeros((0, self.dim), dtype=np.float32)
        )
        meta_has = np.zeros(len(ids), dtype=np.uint8)
        meta_ac = np.zeros(len(ids), dtype=np.float64)
        # snapshot metadata keeps the DC term at storage precision, off the hot path
        # analysis: ignore[dtype-widen]
        meta_dc = np.zeros(len(ids), dtype=np.complex128)
        for row, i in enumerate(ids):
            meta = self._meta.get(i)
            if meta is None:
                continue
            try:
                ac, dc = meta
            except (TypeError, ValueError):
                raise TypeError(
                    f"metadata for id {i} is not a (ac, dc) pair: {meta!r}"
                ) from None
            meta_has[row] = 1
            meta_ac[row] = float(ac)
            meta_dc[row] = complex(dc)
        return {
            "config": {
                "dim": self.dim,
                "tau": self.tau,
                "index_clusters": self.index_clusters,
                "index_nprobe": self.index_nprobe,
                "train_min": self.train_min,
            },
            "index": self.index.state_dict(),
            "values": self.values.state_dict(),
            "stats": self.stats.as_dict(),
            "pretrain": np.array(self._pretrain.view, copy=True),
            "key_ids": np.asarray(ids, dtype=np.int64),
            "keys": keys,
            "meta_has": meta_has,
            "meta_ac": meta_ac,
            "meta_dc": meta_dc,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MemoDatabase":
        """Rebuild a database that answers ``query``/``query_batch``
        bit-identically to the instance that produced ``state``."""
        cfg = state["config"]
        db = cls(
            dim=int(cfg["dim"]),
            tau=float(cfg["tau"]),
            index_clusters=int(cfg["index_clusters"]),
            index_nprobe=int(cfg["index_nprobe"]),
            train_min=int(cfg["train_min"]),
        )
        db.index = IVFFlatIndex.from_state(state["index"])
        db.values = ArrayStore.from_state(state["values"])
        db.stats = MemoDBStats(**{k: int(v) for k, v in state["stats"].items()})
        pretrain = np.asarray(state["pretrain"], dtype=np.float32)
        if len(pretrain):
            db._pretrain.extend(pretrain)
        keys = np.asarray(state["keys"], dtype=np.float32)
        meta_has = np.asarray(state["meta_has"])
        meta_ac = np.asarray(state["meta_ac"])
        meta_dc = np.asarray(state["meta_dc"])
        for row, i in enumerate(np.asarray(state["key_ids"], dtype=np.int64)):
            i = int(i)
            db._keys[i] = np.ascontiguousarray(keys[row])
            db._meta[i] = (
                (float(meta_ac[row]), complex(meta_dc[row])) if meta_has[row] else None
            )
        return db
