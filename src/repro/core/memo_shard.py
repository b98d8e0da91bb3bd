"""Sharded memoization service (paper Sections 4.3, 5.2).

At beamline scale a single memory-node database becomes the contention
point every compute node funnels through (Figures 14-16).  mLR's answer is
to *shard* the database over service engines: each chunk location is owned
by exactly one shard, key messages are routed shard-wise, and each shard
services its own batched index lookups independently.

This module provides that service layer for the functional (numeric) side
of the reproduction:

- :func:`shard_of_location` — the one consistent location -> shard mapping,
  shared with the performance model (:mod:`repro.core.perfsim`) so the DES
  routes paper-scale query traffic exactly like the numeric run,
- :class:`MemoTier` — the tier as everything above it sees it: the few
  primitives an implementation supplies and the derived half (``shard_of``,
  ``stats``, ``entries``, context manager) written once.  The in-process
  router here and the TCP client of one daemon in :mod:`repro.net` are its
  two implementations,
- :class:`MemoShard` — one shard: the per ``(op, location)``
  :class:`~repro.core.memo_db.MemoDatabase` partitions it owns (each
  partition one table of entries with its own ANN index), served through
  the batched ``query_batch`` / ``insert_batch`` API under the shard's own
  lock,
- :class:`MemoShardRouter` — the in-process tier and the one host of memo
  partitions: groups a coalesced key batch by owning shard, dispatches the
  per-shard sub-batches and reassembles outcomes in request order; holds
  the tier's provenance (tau, key-encoder fingerprint and weights) and
  the one merge of a pushed tree.  An executor owns one, the memo server
  daemon is a wire in front of one, the scheduler's cross-job tier is one.

Reuse stays scoped to a chunk location (Section 4.1), so sharding never
changes *what* is memoized — only which service engine answers.  A single
shard therefore reproduces the unsharded database bit for bit.

**The memo-state tree** — what ``state_dict`` returns, ``push_state``
takes, a ``MSG_SNAP_PUSH`` frame carries and a snapshot file holds — has
one layout, flat because shard membership is pure routing::

    {"n_shards": int,                       # of the tier that wrote it
     "partitions": [{"op": str, "location": int, "db": <partition>}, ...],
     "encoder": {...} | absent,             # key-encoder fingerprint
     "encoder_state": {...} | None | absent}

A ``<partition>`` is :meth:`MemoDatabase.state_dict
<repro.core.memo_db.MemoDatabase.state_dict>`'s table.  This module owns
the tree and the helpers others read it through
(:func:`memo_state_partitions`, :func:`empty_memo_state`); the levels below
belong to ``MemoDatabase``, :class:`~repro.ann.IVFFlatIndex` and
:class:`~repro.kvstore.KVStore`.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..faults import runtime as faults
from ..obs import runtime as obs
from .keying import check_fingerprint
from .memo_db import MemoDatabase, MemoDBStats, QueryOutcome

__all__ = [
    "shard_of_location",
    "memo_state_partitions",
    "empty_memo_state",
    "ShardQuery",
    "ShardInsert",
    "MemoTier",
    "MemoShard",
    "MemoShardRouter",
]


def shard_of_location(location: int, n_shards: int) -> int:
    """Consistent location -> shard routing.

    Round-robin (modulo) placement: adjacent chunk locations land on
    different shards, which balances per-sweep query traffic even when a
    worker owns a contiguous block of locations.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return int(location) % n_shards


def memo_state_partitions(state: dict) -> list[dict]:
    """The ``{op, location, db}`` partitions of a memo-state tree."""
    return state["partitions"]


def empty_memo_state(n_shards: int) -> dict:
    """The tree of a tier that holds nothing: a cold router's, and what a
    fail-open remote tier answers while its daemon is unreachable."""
    return {"n_shards": n_shards, "partitions": []}


def _scatter_gather(items: list, key_of, service) -> list:
    """Group ``items`` by ``key_of``, service each group as one batch, and
    reassemble the per-item results in the original request order — the one
    routing pattern every batched hop (client -> shard -> partition) uses."""
    results: list = [None] * len(items)
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key_of(item), []).append(i)
    for key, idxs in groups.items():
        sub = service(key, [items[i] for i in idxs])
        for i, res in zip(idxs, sub):
            results[i] = res
    return results


@dataclass(frozen=True)
class ShardQuery:
    """One key lookup travelling in a coalesced message."""

    op: str
    location: int
    key: np.ndarray


@dataclass(frozen=True)
class ShardInsert:
    """One (key, value) insertion bound for a shard."""

    op: str
    location: int
    key: np.ndarray
    value: np.ndarray
    meta: object = None


class MemoTier(ABC):
    """The memoization-database tier: what the executor and the scheduler
    may use of it.

    An implementation supplies ``n_shards`` and the abstract methods; the
    rest is derived here, once.  The transport half (``connected``,
    ``net_stats``, ``flush``) has in-process answers — always reachable,
    nothing in flight — that the remote tier overrides, so the solver's
    telemetry and :func:`~repro.net.snapshot_store.pull_state` read either
    tier alike.
    """

    n_shards: int
    #: transport counters (a dataclass), ``None`` where there is no wire
    net_stats = None
    #: False while a remote tier has no live connection
    connected = True

    @abstractmethod
    def query_batch(self, queries: list[ShardQuery]) -> list[QueryOutcome]:
        """One coalesced key message -> outcomes in request order."""

    @abstractmethod
    def insert_batch(self, inserts: list[ShardInsert]) -> list[int]:
        """One batched insertion message -> ids in request order."""

    @abstractmethod
    def shard_stats(self, op: str | None = None) -> list[tuple[MemoDBStats, int]]:
        """``(statistics, stored entries)`` of every shard, in shard order
        (optionally one op's) — the one read every aggregate derives from."""

    @abstractmethod
    def state_dict(self) -> dict:
        """The whole tier as a ``memo_state()``-compatible tree."""

    @abstractmethod
    def push_state(self, tree: dict) -> bool:
        """Merge a ``memo_state()`` tree into the tier
        (see :meth:`MemoShardRouter.push_state` for the merge and for what
        it rejects with ``ValueError``); False when a fail-open remote tier
        dropped it."""

    @abstractmethod
    def close(self) -> None:
        """Release whatever the tier holds (a remote tier's socket)."""

    def shard_of(self, location: int) -> int:
        return shard_of_location(location, self.n_shards)

    def stats(self, op: str | None = None) -> MemoDBStats:
        """One merged :class:`MemoDBStats` over all shards — the single
        aggregation surface service/job reporting reads (built on
        :meth:`MemoDBStats.merged`, never hand-rolled per caller)."""
        return MemoDBStats.merged(s for s, _n in self.shard_stats(op))

    def entries(self, op: str | None = None) -> int:
        return sum(n for _s, n in self.shard_stats(op))

    def flush(self) -> None:
        """Wait out acknowledgements still in flight (none in process)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoShard:
    """One database shard: the ``(op, location)`` partitions it owns.

    Each partition is a full :class:`MemoDatabase` (ANN index + value
    store), created lazily at first insert/query — so shard membership is
    pure routing, never semantics.

    A shard serialises its own calls: one lock is held for a whole
    sub-batch, statistics read, snapshot or install.  Callers on any number
    of threads (the daemon's connection handlers, scheduler workers
    absorbing jobs) therefore always find a shard at a batch boundary,
    while traffic for different shards overlaps.
    """

    def __init__(self, shard_id: int, make_db) -> None:
        self.shard_id = shard_id
        self._make_db = make_db
        self._lock = threading.RLock()  # re-entered by db_for inside a batch
        self._dbs: dict[tuple[str, int], MemoDatabase] = {}  # guarded-by: self._lock
        #: batched messages this shard serviced (one per sub-batch received):
        #: a live observation of coalescing, not part of the state tree
        self.query_messages = 0  # guarded-by: self._lock
        self.insert_messages = 0  # guarded-by: self._lock

    def db_for(self, op: str, location: int, dim: int) -> MemoDatabase:
        with self._lock:
            db = self._dbs.get((op, location))
            if db is None:
                db = self._make_db(dim)
                self._dbs[(op, location)] = db
            return db

    # -- batched service -----------------------------------------------------------

    def query_batch(self, queries: list[ShardQuery]) -> list:
        """Service one shard-bound sub-batch; outcomes in request order.

        The sub-batch is regrouped by owning ``(op, location)`` partition
        and each group goes through :meth:`MemoDatabase.query_batch` — the
        per-partition batched index lookup the memory node performs.
        """
        with self._lock:
            outcomes = _scatter_gather(
                queries,
                lambda q: (q.op, q.location),
                lambda key, group: self.db_for(
                    key[0], key[1], group[0].key.shape[0]
                ).query_batch([q.key for q in group]),
            )
            if queries:
                self.query_messages += 1
        return outcomes

    def insert_batch(self, inserts: list[ShardInsert]) -> list[int]:
        with self._lock:
            ids = _scatter_gather(
                inserts,
                lambda ins: (ins.op, ins.location),
                lambda key, group: self.db_for(
                    key[0], key[1], group[0].key.shape[0]
                ).insert_batch([(ins.key, ins.value, ins.meta) for ins in group]),
            )
            if inserts:
                self.insert_messages += 1
        return ids

    def install(self, dbs: dict[tuple[str, int], MemoDatabase]) -> None:
        """Swap rebuilt ``(op, location)`` partitions in — the one partition
        merge of the tier.  An installed partition wins wholesale, but heat
        is telemetry about *this* tier's traffic: it keeps max(last-hit) and
        sum(hits) for the entries the partition it replaces also held, so a
        merge never makes a hot entry look cold to the eviction planner."""
        with self._lock:
            for key, db in dbs.items():
                old = self._dbs.get(key)
                if old is not None:
                    db.values.merge_heat(old.values)
                self._dbs[key] = db

    # -- statistics ----------------------------------------------------------------

    def stats_entries(self, op: str | None = None) -> tuple[MemoDBStats, int]:
        """``(aggregated counters, stored entries)`` over this shard's
        partitions (optionally one op's), read at one batch boundary.
        ``query_batches`` / ``insert_batches`` count the batched
        per-partition calls; the shard's ``query_messages`` /
        ``insert_messages`` attributes count the sub-batch messages it
        received."""
        with self._lock:
            dbs = [
                db for (o, _loc), db in self._dbs.items() if op is None or o == op
            ]
            return MemoDBStats.merged(db.stats for db in dbs), sum(map(len, dbs))

    def heat_records(self) -> list[dict]:
        """Per-entry ``{op, shard, location, last, hits, nbytes}`` heat
        records straight off the live value stores — the one producer of
        heat records (:func:`repro.obs.heat.entry_records` installs a tree
        into a scratch router to read them)."""
        with self._lock:
            return [
                {
                    "op": op,
                    "shard": self.shard_id,
                    "location": loc,
                    "last": float(last),
                    "hits": int(hits),
                    "nbytes": int(nbytes),
                }
                for (op, loc), db in self._dbs.items()
                for _key, last, hits, nbytes in db.values.heat_entries()
            ]

    # -- snapshot hooks ------------------------------------------------------------------

    def partition_states(self) -> list[dict]:
        """This shard's partitions as ``{op, location, db}`` tree nodes."""
        with self._lock:
            return [
                {"op": op, "location": int(loc), "db": db.state_dict()}
                for (op, loc), db in self._dbs.items()
            ]


class MemoShardRouter(MemoTier):
    """The in-process tier, and the only host of memo partitions: a router
    over ``n_shards`` database shards.  An executor owns one, a
    :class:`~repro.net.server.MemoServerDaemon` puts a wire in front of
    one, the scheduler's cross-job tier is one.  Safe to call from any
    number of threads (see :class:`MemoShard`).

    ``make_db`` is the partition factory (``dim -> MemoDatabase``); every
    shard shares it, so all partitions carry identical tau / index
    configuration.

    The router also carries the tier's *provenance* — what must agree for
    two sets of keys to share a tier: ``tau`` (given, or taken from the
    first pushed partition), the key ``encoder`` fingerprint (pinned by the
    first data: an insert through :meth:`check_encoder` or a push) and the
    ``encoder_state`` weights riding along.  :meth:`push_state` checks a
    tree against it, :meth:`state_dict` records it.

    ``label`` marks a tier hosted for remote clients (the daemon's name):
    its shard service is then a fault-injection site and is traced, see
    :meth:`_serve`.
    """

    def __init__(
        self, n_shards: int, make_db, tau: float | None = None,
        label: str | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.label = label
        self.shards = [MemoShard(s, make_db) for s in range(n_shards)]
        self._lock = threading.Lock()
        self.tau = tau  # guarded-by: self._lock
        self.encoder: dict | None = None  # guarded-by: self._lock
        self.encoder_state: dict | None = None  # guarded-by: self._lock

    # -- batched routing -----------------------------------------------------------

    def _serve(self, call: str, shard_id: int, group: list) -> list:
        """Hand one sub-batch to its shard — the one place memo traffic
        touches a shard.  On a hosted tier (``label`` set) this is the
        slow-shard fault-injection site ``server:<label>:shard<N>``, the
        ``net_server.shard`` span (the call runs inline on the daemon's
        handler thread, so it parents under the request span) and the
        ``net_server_shard_seconds`` histogram."""
        serve = getattr(self.shards[shard_id], call)
        if self.label is None:
            return serve(group)
        t0 = time.monotonic()
        try:
            with obs.span("net_server.shard", shard=shard_id, items=len(group)):
                faults.maybe_stall(f"server:{self.label}:shard{shard_id}")
                return serve(group)
        finally:
            obs.histogram("net_server_shard_seconds", shard=shard_id).observe(
                time.monotonic() - t0
            )

    def query_batch(self, queries: list[ShardQuery]) -> list:
        """Route one coalesced key batch shard-wise.

        The batch is split into per-shard sub-batches (one message per shard,
        as the coalescer emits them on the wire), each shard services its
        sub-batch, and the outcomes are reassembled in the original request
        order.
        """
        return _scatter_gather(
            queries, lambda q: self.shard_of(q.location),
            partial(self._serve, "query_batch"),
        )

    def insert_batch(self, inserts: list[ShardInsert]) -> list[int]:
        """Route a batch of insertions shard-wise; ids in request order."""
        return _scatter_gather(
            inserts, lambda ins: self.shard_of(ins.location),
            partial(self._serve, "insert_batch"),
        )

    def shard_stats(self, op: str | None = None) -> list[tuple[MemoDBStats, int]]:
        return [shard.stats_entries(op) for shard in self.shards]

    def heat_records(self) -> list[dict]:
        """Every stored entry's heat record, shard by shard (what the
        daemon's ``memo_entry_age_seconds`` scrape is computed from)."""
        return [rec for shard in self.shards for rec in shard.heat_records()]

    # -- provenance ----------------------------------------------------------------

    def check_encoder(self, fingerprint: dict | None, pin: bool = False) -> None:
        """Provenance gate for hot-path (query/insert) clients: raise
        ``ValueError`` for a fingerprint conflicting with the pinned one.
        Pinning happens only on *data* (``pin=True``: the first insert wins)
        — a handshake or query against a still-empty tier must not lock
        every differently-keyed client out forever."""
        with self._lock:
            if pin and fingerprint and self.encoder is None:
                self.encoder = dict(fingerprint)
            known = self.encoder
        check_fingerprint(known, fingerprint, "client")

    # -- snapshot hooks ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The whole tier as one memo-state tree (every shard contributes
        its partitions, each read at a batch boundary) plus the key-encoder
        provenance once one was pinned."""
        tree = empty_memo_state(self.n_shards)
        for shard in self.shards:
            tree["partitions"].extend(shard.partition_states())
        with self._lock:
            if self.encoder is not None:
                tree["encoder"] = dict(self.encoder)
            if self.encoder_state is not None:
                tree["encoder_state"] = self.encoder_state
        return tree

    def push_state(self, tree: dict) -> bool:
        """Merge a ``memo_state()`` tree into the tier, routing every
        partition by its chunk location; a pushed partition replaces a
        same-keyed one (:meth:`MemoShard.install`).

        Because shard membership is pure routing (the consistent
        ``shard_of_location`` map), a snapshot taken at any shard count
        restores onto any other: each partition simply lands on the shard
        that owns its location here.

        All or nothing: every database is rebuilt and the tree's provenance
        checked before the first partition is installed.  A malformed
        partition, a partition gated by another ``tau`` or keys from
        another encoder raise ``ValueError`` and leave the tier untouched.
        """
        by_shard: dict[int, dict[tuple[str, int], MemoDatabase]] = {}
        try:
            for p in memo_state_partitions(tree):
                op, loc = str(p["op"]), int(p["location"])
                by_shard.setdefault(self.shard_of(loc), {})[(op, loc)] = (
                    MemoDatabase.from_state(p["db"])
                )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed memo-state tree: {exc!r}") from None
        taus = {db.tau for dbs in by_shard.values() for db in dbs.values()}
        with self._lock:
            check_fingerprint(self.encoder, tree.get("encoder"), "pushed")
            tau = self.tau if self.tau is not None else next(iter(taus), None)
            if taus - {tau}:
                raise ValueError(
                    f"pushed partition tau {(taus - {tau}).pop()} != this "
                    f"tier's tau {tau} — hits would be gated differently"
                )
            self.tau = tau
            if tree.get("encoder"):
                self.encoder = dict(tree["encoder"])
            if tree.get("encoder_state"):
                self.encoder_state = tree["encoder_state"]
        for shard_id, dbs in by_shard.items():
            self.shards[shard_id].install(dbs)
        return True

    def close(self) -> None:
        """Nothing to release in process (the TCP clients close sockets)."""
