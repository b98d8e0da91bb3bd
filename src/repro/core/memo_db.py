"""The distributed memoization database (paper Section 4.3.2, Figure 6).

Two cooperating stores on the (simulated) memory node that meet at an entry
id:

- an **index database** organizing keys by similarity — an IVF ANN index
  (:class:`~repro.ann.IVFFlatIndex`), trained lazily on the first keys and
  supporting O(1) dynamic insertion,
- a **value database** holding the FFT-operation outputs under integer
  ids: a :class:`~repro.kvstore.KVStore`, which keeps the ndarrays in
  memory — zero-copy hits — while *accounting* every byte as the
  serialized frame (:func:`~repro.kvstore.encode_array`) the wire and the
  spill/offload paths would carry.

A :class:`MemoDatabase` is one partition of it, kept as **one table with one
row per entry**: the row index is the id, the key matrix holds every key
once (the cold scan's candidates before training, the index's source
after, the Eq. 3 gate's operand throughout), the reuse metadata are
columns beside it and the value store is the value column.  Its state tree
says the same — columns of one length, the index referring to rows by id —
and ``from_state`` checks exactly that.

A query encodes nothing itself: it receives a key vector, finds the nearest
stored key, gates on the paper's Eq. 3 cosine-similarity threshold tau, and
returns the stored value on acceptance.  All traffic statistics needed by
the performance model (queries, hits, inserted/fetched bytes) are counted.

The service API (Section 4.3.3) is a *true* batch: one coalesced key
message becomes one stacked ``index.search`` (a single GEMM against the
probed inverted lists) instead of a Python loop of scalar searches, and a
batched insert trains/extends the index with stacked vectors.  Every
per-key decision — the cold-database scan (vectorized over candidates) and
the Eq. 3 gate — is independent of the batch it travels in, so a batch
returns bit-identical outcomes and byte counters to the same keys sent one
per message, on trained and cold databases alike; ``query`` / ``insert``
are exactly that one-item message.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..ann.buffer import GrowableRows
from ..ann.ivf import IVFFlatIndex
from ..kvstore.serialization import encoded_nbytes
from ..kvstore.store import KVStore
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
    """One FFT operation's memoization table at one chunk location: a
    partition, one row per entry.

    The row index *is* the entry id (ids are dense by construction: cold
    inserts number themselves by position, then the index continues from
    there).  All byte statistics report the serialized frame size of a
    value (what Figures 10/11/15 count).
    """

    dim: int
    tau: float = 0.92
    index_clusters: int = 16
    index_nprobe: int = 4
    train_min: int = 32

    index: IVFFlatIndex = field(init=False)
    values: KVStore = field(init=False)
    stats: MemoDBStats = field(init=False)
    #: the key column: the cold scan's candidate set until ``train_min``
    #: rows exist, what the index is trained and filled from, and what the
    #: Eq. 3 gate reads
    _keys: GrowableRows = field(init=False, repr=False)
    #: the reuse-metadata columns: whether a row has any, its AC norm, its DC
    _meta_has: GrowableRows = field(init=False, repr=False)
    _meta_ac: GrowableRows = field(init=False, repr=False)
    _meta_dc: GrowableRows = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        self.index = IVFFlatIndex(
            self.dim, n_clusters=self.index_clusters, nprobe=self.index_nprobe
        )
        self.values = KVStore()
        self.stats = MemoDBStats()
        self._keys = GrowableRows((self.dim,), np.float32)
        self._meta_has = GrowableRows((), np.uint8)
        self._meta_ac = GrowableRows((), np.float64)
        # the DC term is kept at storage precision, off the hot path
        # analysis: ignore[dtype-widen]
        self._meta_dc = GrowableRows((), np.complex128)

    def __len__(self) -> int:
        return len(self.values)

    # -- insertion ---------------------------------------------------------------------

    def _check_key(self, key: np.ndarray) -> np.ndarray:
        key = np.asarray(key, dtype=np.float32).ravel()
        if key.shape[0] != self.dim:
            raise ValueError(f"key dim {key.shape[0]} != {self.dim}")
        return key

    @staticmethod
    def _meta_row(meta) -> tuple[int, float, complex]:
        """One item's reuse metadata as its ``(has, ac, dc)`` column cells:
        ``None`` or an ``(ac_norm, dc)`` pair (what the memoization engine
        stores); anything else is a ``TypeError``."""
        if meta is None:
            return 0, 0.0, 0j
        try:
            ac, dc = meta
            return 1, float(ac), complex(dc)
        except (TypeError, ValueError):
            raise TypeError(f"metadata is not a (ac, dc) pair: {meta!r}") from None

    def insert(self, key: np.ndarray, value: np.ndarray, meta=None) -> int:
        """DB.Put of one pair: a one-item :meth:`insert_batch` message."""
        return self.insert_batch([(key, value, meta)])[0]

    def insert_batch(self, items) -> list[int]:
        """DB.Put for a batch of ``(key, value, meta)`` triples — each the
        (key, value) pair plus the reuse metadata (input-chunk DC and AC
        norm); ids in item order.

        The rows are appended first; a cold index is then trained on the
        prefix that reaches ``train_min`` rows and filled with it, and the
        rows past it are added in one call (one cluster-assignment GEMM) —
        so the resulting database state is identical to inserting one item
        at a time.  Value puts proceed item by item; keys, metadata and
        values are all checked before the first row is appended, so a
        refused batch leaves every column as it was.
        """
        items = list(items)
        if not items:
            return []
        keys = np.stack([self._check_key(k) for k, _v, _m in items])
        metas = [self._meta_row(m) for _k, _v, m in items]
        for _k, value, _m in items:
            if not isinstance(value, np.ndarray):  # what ``values.put`` refuses
                raise TypeError(f"value must be an ndarray, got {type(value).__name__}")
        first = len(self._keys)
        self._keys.extend(keys)
        for has, ac, dc in metas:
            self._meta_has.append(has)
            self._meta_ac.append(ac)
            self._meta_dc.append(dc)
        rows = self._keys.view
        added = first
        if not self.index.is_trained:
            # the cold scan's rows stay candidates until train_min of them exist
            added = max(self.train_min, first + 1)
            if len(rows) >= added:
                self.index.train(rows[:added])
                self.index.add(rows[:added])
        if self.index.is_trained and added < len(rows):
            self.index.add(rows[added:])
        ids = list(range(first, len(rows)))
        for new_id, (_k, value, _m) in zip(ids, items):
            self.stats.inserts += 1
            self.values.put(new_id, value)
            self.stats.bytes_inserted += encoded_nbytes(value)
        self.stats.insert_batches += 1
        return ids

    # -- lookup ------------------------------------------------------------------------

    def _cold_best(self, key: np.ndarray) -> tuple[int, float]:
        """Vectorized linear scan of the rows of a still-untrained
        partition: ``(best_id, best similarity)``; first maximum wins,
        matching the scalar-scan order."""
        cands = self._keys.view
        if not len(cands):
            return -1, -2.0
        na = float(np.linalg.norm(key))
        nb = np.sqrt(np.sum(cands * cands, axis=1, dtype=np.float64))
        denom = na * nb
        dots = cands @ key
        sims = np.where(denom > 0.0, dots / np.where(denom == 0.0, 1.0, denom), 0.0)
        best = int(np.argmax(sims))
        return best, float(sims[best])

    def _gate_rows(self, Q: np.ndarray, matched: np.ndarray) -> np.ndarray:
        """Eq. 3 gate for row-aligned (query, matched-id) pairs, vectorized.

        Cosine similarity (:func:`~repro.solvers.metrics.cosine_similarity`
        semantics: zero-norm operands gate to 0) computed in float64 with
        einsum row reductions, which are independent of batch size — so a
        1-row call is bit-identical to the same row inside a batch.  A
        query the index found no neighbour for (id -1) gates to -2.
        """
        sims = np.full(len(matched), -2.0)
        rows = np.flatnonzero(matched >= 0)
        if not len(rows):
            return sims
        Qd = Q[rows].astype(np.float64)
        Kd = self._keys.view[matched[rows]].astype(np.float64)
        dots = np.einsum("ij,ij->i", Qd, Kd)
        denom = np.sqrt(np.einsum("ij,ij->i", Qd, Qd)) * np.sqrt(
            np.einsum("ij,ij->i", Kd, Kd)
        )
        sims[rows] = np.where(
            denom > 0.0, dots / np.where(denom == 0.0, 1.0, denom), 0.0
        )
        return sims

    def _resolve(self, matched: int, sim: float, n: int) -> QueryOutcome:
        """Shared hit/miss resolution once the nearest candidate is known
        (``matched = -1``: the probed lists held no candidate at all)."""
        if matched >= 0 and sim > self.tau:
            value = self.values.get(matched)
            if value is not None:
                self.stats.hits += 1
                self.stats.bytes_fetched += encoded_nbytes(value)
                meta = None
                if self._meta_has.view[matched]:
                    meta = (
                        float(self._meta_ac.view[matched]),
                        complex(self._meta_dc.view[matched]),
                    )
                return QueryOutcome(value, sim, matched, n, meta)
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
                outcomes.append(self._resolve(matched, sim, n))
        else:
            Q = np.stack(keys)
            with obs.span("memo.ann_query", n=len(keys)):
                _dists, ids = self.index.search(Q, k=1)
                matched = ids[:, 0]
                sims = self._gate_rows(Q, matched)  # one vectorized Eq. 3 gate
            for mid, sim in zip(matched, sims):
                outcomes.append(self._resolve(int(mid), float(sim), n))
        self.stats.query_batches += 1
        return outcomes

    # -- snapshot hooks ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete, restorable state as one table: columns of one length
        ``n`` — ``key_ids``, ``keys (n, dim)``, ``meta_has`` / ``meta_ac`` /
        ``meta_dc`` and the value store's (``values``) — beside the
        configuration, the traffic statistics and the ANN index (trained or
        still cold), which refers to rows by id and holds no vectors of its
        own."""
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
            "key_ids": np.arange(len(self._keys), dtype=np.int64),
            "keys": np.array(self._keys.view, copy=True),
            "meta_has": np.array(self._meta_has.view, copy=True),
            "meta_ac": np.array(self._meta_ac.view, copy=True),
            "meta_dc": np.array(self._meta_dc.view, copy=True),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MemoDatabase":
        """Rebuild a database that answers ``query``/``query_batch``
        bit-identically to the instance that produced ``state``.

        What crosses the boundary is validated once, by shape: every column
        has the length ``n`` of ``key_ids``, ``keys`` is ``(n, dim)``,
        ``key_ids`` is ``arange(n)``, the value store holds exactly those
        ids (nothing evicts from a partition's store yet: the day something
        does, this becomes "a subset"), and a trained index's lists
        partition them.  Anything else is a ``ValueError``.

        The columns are adopted, not copied (the values already are, see
        :meth:`KVStore.from_state`): rows are only ever appended and an
        adopted column is full, so the first insert moves the partition to
        buffers of its own and the tree's arrays are never written — a tier
        handing its partitions to a job and taking them back copies each
        key once (in ``state_dict``)."""
        cfg = state["config"]
        db = cls(
            dim=int(cfg["dim"]),
            tau=float(cfg["tau"]),
            index_clusters=int(cfg["index_clusters"]),
            index_nprobe=int(cfg["index_nprobe"]),
            train_min=int(cfg["train_min"]),
        )
        key_ids = np.asarray(state["key_ids"], dtype=np.int64)
        n = len(key_ids)
        for name in ("keys", "meta_has", "meta_ac", "meta_dc"):
            rows = getattr(db, f"_{name}")
            column = np.require(state[name], dtype=rows.dtype, requirements="C")
            if column.shape != (n, *rows.row_shape):
                raise ValueError(
                    f"partition column {name!r} is {column.shape}, "
                    f"not {(n, *rows.row_shape)}"
                )
            setattr(db, f"_{name}", GrowableRows.adopting(column))
        db.values = KVStore.from_state(state["values"])
        if not np.array_equal(key_ids, np.arange(n)) or sorted(
            db.values.keys()
        ) != list(range(n)):
            raise ValueError(f"partition ids are not the rows [0, {n}) on every column")
        db.index = IVFFlatIndex.from_state(state["index"], db._keys.view)
        db.stats = MemoDBStats(**{k: int(v) for k, v in state["stats"].items()})
        return db

    @staticmethod
    def zero_hit_counts(state: dict) -> None:
        """Reset every entry's heat hit count in a partition ``state`` (the
        last-hit ticks stay): whoever is seeded from it counts its own hits."""
        hits = state["values"]["heat_hits"]
        state["values"]["heat_hits"] = np.zeros_like(hits)
