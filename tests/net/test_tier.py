"""One memo tier, composed: the same behaviour out of every implementation.

- **conformance** — one put/get/stats/state round trip over the in-process
  router, the TCP client, replication over TCP and replication over two
  in-process routers, with equal outcomes and ``shard_stats``,
- **replication semantics without sockets** — fan-out, per-shard failover,
  breakers, dirty/resync, over in-process routers behind a fake that fails
  on command (``tests/faults/test_replication.py`` is the daemon-backed
  integration layer),
- **one merge-on-push** — the in-process router and the daemon install a
  pushed tree identically: all or nothing, heat unioned.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import MemoConfig, MemoShardRouter
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import MemoTier, ShardInsert, ShardQuery, memo_state_partitions
from repro.net import (
    MemoServerDaemon,
    RemoteMemoClient,
    ReplicatedMemoClient,
    TransportUnavailable,
    connect_tier,
)
from repro.net.policy import RetryPolicy
from repro.obs import ObsConfig
from repro.obs import runtime as obs

MEMO = MemoConfig(index_train_min=4, index_clusters=2, index_nprobe=2)
N_SHARDS = 2


@pytest.fixture(autouse=True)
def pristine_obs():
    obs.reset()
    yield
    obs.reset()


def router() -> MemoShardRouter:
    return MemoShardRouter(N_SHARDS, make_db_factory(MEMO))


def mk_items(rng, n, op="Fu1D", first_loc=0):
    out = []
    for i in range(n):
        key = rng.normal(size=12).astype(np.float32)
        val = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).astype(np.complex64)
        out.append(ShardInsert(op, first_loc + i, key, val, meta=(1.0 + i, 1j * i)))
    return out


def queries_for(inserts):
    return [ShardQuery(i.op, i.location, i.key) for i in inserts]


# -- conformance ----------------------------------------------------------------------------


@contextlib.contextmanager
def _inproc():
    with router() as tier:
        yield tier


@contextlib.contextmanager
def _tcp():
    with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as srv:
        with connect_tier(srv.address, expect_tau=MEMO.tau) as tier:
            assert isinstance(tier, RemoteMemoClient)
            yield tier


@contextlib.contextmanager
def _replicated_tcp():
    with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as a:
        with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as b:
            with connect_tier([a.address, b.address], expect_tau=MEMO.tau) as tier:
                assert isinstance(tier, ReplicatedMemoClient)
                yield tier


@contextlib.contextmanager
def _replicated_inproc():
    with ReplicatedMemoClient([router(), router()]) as tier:
        yield tier


TOPOLOGIES = {
    "router": _inproc,
    "tcp": _tcp,
    "replicated-tcp": _replicated_tcp,
    "replicated-routers": _replicated_inproc,
}


def _round_trip(tier: MemoTier, rng) -> dict:
    """Put, get, read the statistics, pull the state and push it into a
    fresh router — everything observable of one tier, as plain data."""
    inserts = mk_items(rng, 6) + mk_items(rng, 3, op="Fu2D")
    assert tier.insert_batch(inserts[:5]) is not None
    tier.insert_batch(inserts[5:])
    tier.flush()
    probes = queries_for(inserts) + [
        ShardQuery("Fu1D", 1, rng.normal(size=12).astype(np.float32))
    ]
    outcomes = tier.query_batch(probes)
    tree = tier.state_dict()
    restored = router()
    assert restored.push_state(tree)
    return {
        "n_shards": tier.n_shards,
        "shard_of": [tier.shard_of(loc) for loc in range(5)],
        "outcomes": [
            (o.hit, o.similarity, o.matched_id, o.n_entries, o.stored_meta,
             None if o.value is None else o.value.tobytes())
            for o in outcomes
        ],
        "shard_stats": tier.shard_stats(),
        "shard_stats_one_op": tier.shard_stats("Fu2D"),
        "stats": tier.stats().as_dict(),
        "entries": (tier.entries(), tier.entries("Fu2D")),
        "partitions": sorted(
            (p["op"], p["location"]) for p in memo_state_partitions(tree)
        ),
        # (a replica's tree carries that replica's own query counters)
        "restored": [(st.inserts, st.bytes_inserted, n) for st, n in restored.shard_stats()],
        "health_is_a_map": isinstance(tier.health(), dict),
    }


class TestTierConformance:
    def test_same_round_trip_over_every_topology(self):
        results = {}
        for name, topology in TOPOLOGIES.items():
            with topology() as tier:
                results[name] = _round_trip(tier, np.random.default_rng(11))
        want = results["router"]
        assert want["entries"] == (9, 3) and sum(o[0] for o in want["outcomes"]) == 9
        for name, got in results.items():
            assert got == want, name


# -- replication semantics over in-process tiers ---------------------------------------------


class Flaky(MemoTier):
    """An in-process router that refuses every call while ``down``."""

    def __init__(self) -> None:
        self.inner = router()
        self.n_shards = self.inner.n_shards
        self.down = False

    def _call(self, name, *args):
        if self.down:
            raise ConnectionRefusedError(f"replica is down ({name})")
        return getattr(self.inner, name)(*args)

    def query_batch(self, queries):
        return self._call("query_batch", queries)

    def insert_batch(self, inserts):
        return self._call("insert_batch", inserts)

    def shard_stats(self, op=None):
        return self._call("shard_stats", op)

    def state_dict(self):
        return self._call("state_dict")

    def push_state(self, tree):
        return self._call("push_state", tree)

    def ping(self):
        return self._call("shard_stats", None) is not None

    def close(self):
        self.inner.close()


POLICY = RetryPolicy(failure_threshold=2, reset_timeout_s=60.0)


@pytest.fixture()
def trio():
    a, b = Flaky(), Flaky()
    with ReplicatedMemoClient([a, b], retry_policy=POLICY) as tier:
        yield tier, a, b


def counter_total(name: str) -> float:
    return sum(e["value"] for e in obs.snapshot() if e["name"] == name)


class TestReplicationOverInprocTiers:
    def test_inserts_reach_every_live_replica(self, trio, rng):
        tier, a, b = trio
        inserts = mk_items(rng, 6)
        assert tier.insert_batch(inserts) == [-1] * 6
        assert a.inner.entries() == b.inner.entries() == 6
        assert tier.labels == ["replica0", "replica1"]
        assert all(not h["dirty"] for h in tier.health().values())

    def test_query_fails_over_per_shard_and_counts(self, trio, rng):
        obs.configure(ObsConfig())
        tier, a, b = trio
        inserts = mk_items(rng, 6)
        tier.insert_batch(inserts)
        a.down = True  # the primary of shard 0 (locations 0, 2, 4)
        outcomes = tier.query_batch(queries_for(inserts))
        assert all(o.hit and o.similarity > 0.99 for o in outcomes)
        # shard 1's sub-batch went to its primary b; shard 0's failed over
        failovers = {
            e["labels"]["shard"]: e["value"]
            for e in obs.snapshot() if e["name"] == "net_client_failover_total"
        }
        assert failovers == {0: 1}
        assert b.inner.stats().queries == 6 and a.inner.stats().queries == 0

    def test_threshold_failures_open_the_breaker(self, trio, rng):
        obs.configure(ObsConfig())
        tier, a, b = trio
        inserts = mk_items(rng, 2)
        tier.insert_batch(inserts)
        a.down = True
        q = queries_for(inserts[:1])  # location 0: primary a
        tier.query_batch(q)
        assert tier.health()["replica0"]["circuit"] == "closed"  # 1 < threshold
        tier.query_batch(q)
        assert tier.health()["replica0"]["circuit"] == "open"
        a.down = False  # back, but the open breaker skips it without a call
        before = a.inner.stats().queries
        assert tier.query_batch(q)[0].hit
        assert a.inner.stats().queries == before
        gauges = {
            e["labels"]["replica"]: e["value"]
            for e in obs.snapshot() if e["name"] == "circuit_state"
        }
        assert gauges == {"replica0": 2, "replica1": 0}

    def test_skipped_replica_goes_dirty_and_resync_restores_it(self, trio, rng):
        tier, a, b = trio
        tier.insert_batch(mk_items(rng, 3))
        b.down = True
        tier.insert_batch(mk_items(rng, 3, op="Fu2D"))  # b misses these
        assert tier.health()["replica1"]["dirty"]
        assert (a.inner.entries(), b.inner.entries()) == (6, 3)
        assert tier.resync() == 0  # still down: nothing to do yet
        b.down = False
        tier.reset_backoff()
        assert tier.resync() == 1
        assert not tier.health()["replica1"]["dirty"]
        assert b.inner.shard_stats() == a.inner.shard_stats()
        # a dirty replica is never the donor: with only it alive, no resync
        a.down = True
        tier.insert_batch(mk_items(rng, 1, first_loc=7))
        assert tier.health()["replica0"]["dirty"]
        b.down, a.down = True, False
        tier.reset_backoff()
        assert tier.resync() == 0

    def test_all_replicas_down_fails_open_or_closed(self, rng):
        obs.configure(ObsConfig())
        a, b = Flaky(), Flaky()
        a.down = b.down = True
        probe = queries_for(mk_items(rng, 2))
        with ReplicatedMemoClient([a, b], retry_policy=POLICY) as tier:
            assert [o.hit for o in tier.query_batch(probe)] == [False, False]
            assert tier.insert_batch(mk_items(rng, 2)) == [-1, -1]
            assert tier.stats().queries == 0 and tier.entries() == 0
            assert tier.state_dict() == {"layout": "single", "partitions": []}
            assert tier.push_state({"layout": "single", "partitions": []}) is False
            assert counter_total("net_client_degraded_total") >= 5
        with ReplicatedMemoClient([a, b], retry_policy=POLICY, fail_open=False) as strict:
            with pytest.raises(TransportUnavailable):
                strict.query_batch(probe)
            with pytest.raises(TransportUnavailable):
                strict.shard_stats()

    def test_deterministic_rejection_is_not_a_replica_failure(self, trio):
        tier, a, b = trio
        bad = {"layout": "single", "partitions": [{"op": "Fu1D", "location": 0, "db": {}}]}
        with pytest.raises(ValueError, match="malformed"):
            tier.push_state(bad)
        assert tier.health()["replica0"]["circuit"] == "closed"

    def test_topology_disagreement_is_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            ReplicatedMemoClient([router(), MemoShardRouter(3, make_db_factory(MEMO))])
        with pytest.raises(ValueError, match="at least one"):
            ReplicatedMemoClient([])

    def test_health_loop_probes_and_resyncs(self, rng):
        import time

        a, b = Flaky(), Flaky()
        policy = RetryPolicy(failure_threshold=1, reset_timeout_s=60.0)
        with ReplicatedMemoClient(
            [a, b], retry_policy=policy, heartbeat_interval_s=0.02
        ) as tier:
            tier.insert_batch(mk_items(rng, 2))
            b.down = True
            tier.insert_batch(mk_items(rng, 2, op="Fu2D"))
            assert tier.health()["replica1"]["dirty"]
            b.down = False
            deadline = time.monotonic() + 10.0
            while tier.health()["replica1"]["dirty"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not tier.health()["replica1"]["dirty"]
            assert tier.health()["replica1"]["circuit"] == "closed"
            assert b.inner.entries() == 4


# -- one merge-on-push -----------------------------------------------------------------------


@contextlib.contextmanager
def _daemon_tier():
    with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as srv:
        with RemoteMemoClient(srv.address, fail_open=False) as client:
            yield client, srv.router


@contextlib.contextmanager
def _router_tier():
    live = router()
    yield live, live


MERGE_TIERS = {"router": _router_tier, "daemon": _daemon_tier}


def heat_of(live: MemoShardRouter, op: str, loc: int) -> list[tuple]:
    return [tuple(e[1:3]) for e in live.shard_for(loc)._dbs[(op, loc)].values.heat_entries()]


@pytest.mark.parametrize("kind", list(MERGE_TIERS))
class TestMergeOnPush:
    def test_malformed_push_leaves_the_tier_untouched(self, kind, rng):
        donor = router()
        donor.insert_batch(mk_items(rng, 2))
        tree = donor.state_dict()
        parts = memo_state_partitions(tree)
        assert len(parts) == 2
        del parts[1]["db"]["index"]  # valid config, nothing to rebuild from
        with MERGE_TIERS[kind]() as (tier, live):
            with pytest.raises(ValueError, match="malformed"):
                tier.push_state(tree)
            assert live.entries() == 0
            # a request-level rejection: the same connection keeps serving
            assert tier.entries() == 0 and tier.ping()

    def test_valid_push_over_a_hot_partition_keeps_its_heat(self, kind, rng, monkeypatch):
        from repro.kvstore import store

        now = [1000.0]
        monkeypatch.setattr(store, "_heat_clock", lambda: now[0])
        inserts = mk_items(rng, 1)
        with MERGE_TIERS[kind]() as (tier, live):
            tier.insert_batch(inserts)
            tier.flush()
            cold = tier.state_dict()  # the partition as pushed back later
            now[0] = 2000.0
            assert tier.query_batch(queries_for(inserts) * 3)[0].hit
            assert heat_of(live, "Fu1D", 0) == [(2000.0, 3)]
            # the pushed copy saw one hit of its own, earlier
            peer = router()
            peer.push_state(cold)
            now[0] = 1500.0
            peer.query_batch(queries_for(inserts))
            now[0] = 3000.0
            assert tier.push_state(peer.state_dict())
            assert live.entries() == 1
            assert heat_of(live, "Fu1D", 0) == [(2000.0, 4)]  # max(last), sum(hits)
