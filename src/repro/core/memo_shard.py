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
  ``stats``, ``entries``, context manager, health) written once.  The
  in-process router here, the TCP client and the replication wrapper in
  :mod:`repro.net` are its three implementations, and they compose: the
  wrapper replicates over *any* list of tiers,
- :class:`MemoShard` — one shard: the per ``(op, location)``
  :class:`~repro.core.memo_db.MemoDatabase` partitions it owns (each
  partition bundles its own ANN index and
  :class:`~repro.kvstore.ArrayStore`), served through the batched
  ``query_batch`` / ``insert_batch`` API,
- :class:`MemoShardRouter` — the in-process tier: groups a coalesced key
  batch by owning shard, dispatches the per-shard sub-batches and
  reassembles outcomes in request order.

Reuse stays scoped to a chunk location (Section 4.1), so sharding never
changes *what* is memoized — only which service engine answers.  A single
shard therefore reproduces the unsharded database bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

import numpy as np

from .memo_db import MemoDatabase, MemoDBStats, QueryOutcome

__all__ = [
    "shard_of_location",
    "memo_state_partitions",
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
    """Flat partition list of a ``memo_state()`` tree, layout-independent
    (the sharded layout nests partitions per shard)."""
    if state.get("layout") == "sharded":
        return [p for s in state["shards"] for p in s["partitions"]]
    return list(state["partitions"])


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
    """The memoization-database tier: what the executor, the scheduler and
    the replication wrapper may use of it.

    An implementation supplies ``n_shards`` and the abstract methods; the
    rest is derived here, once.  The transport half (``connected``,
    ``label``, ``net_stats``, ``flush``, ``ping``, ``reset_backoff``) has
    in-process answers — always reachable, nothing in flight — that a
    remote tier overrides, which is what lets replication wrap routers and
    TCP clients alike.
    """

    n_shards: int
    #: transport counters (a dataclass), ``None`` where there is no wire
    net_stats = None
    #: False while a remote tier has no live connection
    connected = True
    #: how telemetry names this tier (a remote tier's ``"host:port"``)
    label: str | None = None

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
        """Merge a ``memo_state()`` tree of either layout into the tier
        (see :meth:`MemoShardRouter.push_state` for the merge); False when
        a fail-open remote tier dropped it."""

    @abstractmethod
    def close(self) -> None:
        """Release whatever the tier holds (sockets, threads)."""

    def shard_of(self, location: int) -> int:
        return shard_of_location(location, self.n_shards)

    def stats(self, op: str | None = None) -> MemoDBStats:
        """One merged :class:`MemoDBStats` over all shards — the single
        aggregation surface service/job reporting reads (built on
        :meth:`MemoDBStats.merged`, never hand-rolled per caller)."""
        return MemoDBStats.merged(s for s, _n in self.shard_stats(op))

    def entries(self, op: str | None = None) -> int:
        return sum(n for _s, n in self.shard_stats(op))

    def health(self) -> dict:
        """Replica label -> ``{circuit, dirty, connected}``; empty for a
        tier that is not replicated (nothing to pull out of rotation)."""
        return {}

    def flush(self) -> None:
        """Wait out acknowledgements still in flight (none in process)."""

    def ping(self) -> bool:
        return True

    def reset_backoff(self) -> None:
        """Forget any reconnect window (there is none in process)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoShard:
    """One database shard: the ``(op, location)`` partitions it owns.

    Each partition is a full :class:`MemoDatabase` (ANN index + value
    store), created lazily at first insert/query — so shard membership is
    pure routing, never semantics.
    """

    def __init__(self, shard_id: int, make_db) -> None:
        self.shard_id = shard_id
        self._make_db = make_db
        self._dbs: dict[tuple[str, int], MemoDatabase] = {}
        #: batched messages this shard serviced (one per sub-batch received)
        self.query_messages = 0
        self.insert_messages = 0

    def db_for(self, op: str, location: int, dim: int) -> MemoDatabase:
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
        """Swap rebuilt ``(op, location)`` partitions in.  An installed
        partition wins wholesale, but heat is telemetry about *this* tier's
        traffic: it keeps max(last-hit) and sum(hits) for the entries the
        partition it replaces also held, so a merge never makes a hot entry
        look cold to the eviction planner."""
        for key, db in dbs.items():
            old = self._dbs.get(key)
            if old is not None:
                db.values.merge_heat(old.values)
            self._dbs[key] = db

    # -- statistics ----------------------------------------------------------------

    def stats(self, op: str | None = None) -> MemoDBStats:
        """Aggregated counters over this shard's partitions (optionally one
        op's).  ``query_batches`` / ``insert_batches`` count the batched
        per-partition calls; the shard's ``query_messages`` /
        ``insert_messages`` attributes count the sub-batch messages it
        received."""
        return MemoDBStats.merged(
            db.stats for (o, _loc), db in self._dbs.items() if op is None or o == op
        )

    # -- snapshot hooks ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """This shard's partitions plus its message counters."""
        return {
            "shard_id": self.shard_id,
            "query_messages": self.query_messages,
            "insert_messages": self.insert_messages,
            "partitions": [
                {"op": op, "location": int(loc), "db": db.state_dict()}
                for (op, loc), db in self._dbs.items()
            ],
        }

    def entries(self, op: str | None = None) -> int:
        return sum(
            len(db) for (o, _loc), db in self._dbs.items() if op is None or o == op
        )

    def locations(self, op: str | None = None) -> list[int]:
        return sorted(
            loc for (o, loc) in self._dbs if op is None or o == op
        )


class MemoShardRouter(MemoTier):
    """The in-process tier: a router over ``n_shards`` database shards.

    ``make_db`` is the partition factory (``dim -> MemoDatabase``); every
    shard shares it, so all partitions carry identical tau / index
    configuration.
    """

    def __init__(self, n_shards: int, make_db) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.shards = [MemoShard(s, make_db) for s in range(n_shards)]

    def shard_for(self, location: int) -> MemoShard:
        return self.shards[self.shard_of(location)]

    def db_for(self, op: str, location: int, dim: int) -> MemoDatabase:
        return self.shard_for(location).db_for(op, location, dim)

    # -- batched routing -----------------------------------------------------------

    def query_batch(self, queries: list[ShardQuery]) -> list:
        """Route one coalesced key batch shard-wise.

        The batch is split into per-shard sub-batches (one message per shard,
        as the coalescer emits them on the wire), each shard services its
        sub-batch, and the outcomes are reassembled in the original request
        order.
        """
        return _scatter_gather(
            queries,
            lambda q: self.shard_of(q.location),
            lambda shard_id, group: self.shards[shard_id].query_batch(group),
        )

    def insert_batch(self, inserts: list[ShardInsert]) -> list[int]:
        """Route a batch of insertions shard-wise; ids in request order."""
        return _scatter_gather(
            inserts,
            lambda ins: self.shard_of(ins.location),
            lambda shard_id, group: self.shards[shard_id].insert_batch(group),
        )

    def shard_stats(self, op: str | None = None) -> list[tuple[MemoDBStats, int]]:
        return [(shard.stats(op), shard.entries(op)) for shard in self.shards]

    # -- snapshot hooks ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Per-shard snapshot of the whole service (every shard contributes
        its partitions and message counters)."""
        return {
            "layout": "sharded",
            "n_shards": self.n_shards,
            "shards": [shard.state_dict() for shard in self.shards],
        }

    def push_state(self, tree: dict, on_shard=None) -> bool:
        """Merge a ``memo_state()`` tree of either layout into the tier,
        routing every partition by its chunk location; a pushed partition
        replaces a same-keyed one (:meth:`MemoShard.install`).

        Because shard membership is pure routing (the consistent
        ``shard_of_location`` map), a snapshot taken at any shard count
        restores onto any other: each partition simply lands on the shard
        that owns its location here.  Message counters are per-shard
        observations, so they are only restored when the topology matches.
        Every database is rebuilt before the first one is installed — a
        malformed partition raises ``ValueError`` and leaves the tier
        untouched.

        ``on_shard(shard_id, fn)`` runs ``fn`` where that shard's state may
        be touched; the memo daemon passes its shard worker threads, the
        default is inline.
        """
        by_shard: dict[int, dict[tuple[str, int], MemoDatabase]] = {}
        try:
            for p in memo_state_partitions(tree):
                op, loc = str(p["op"]), int(p["location"])
                by_shard.setdefault(self.shard_of(loc), {})[(op, loc)] = (
                    MemoDatabase.from_state(p["db"])
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed memo-state partition: {exc!r}") from None
        run = on_shard or (lambda _sid, install: install())
        for sid, dbs in by_shard.items():
            run(sid, partial(self.shards[sid].install, dbs))
        if tree.get("layout") == "sharded" and int(tree["n_shards"]) == self.n_shards:
            for shard, shard_state in zip(self.shards, tree["shards"]):
                shard.query_messages = int(shard_state["query_messages"])
                shard.insert_messages = int(shard_state["insert_messages"])
        return True

    def close(self) -> None:
        """Nothing to release in process (the TCP clients close sockets)."""
