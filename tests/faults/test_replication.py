"""Replicated memo tier: fan-out, per-shard failover, circuits, resync.

The integration layer: :class:`ReplicatedMemoClient` over TCP clients
against a real two-daemon :class:`ReplicaSet`.  The semantics themselves
are pinned without sockets in ``tests/net/test_tier.py``; solver-level
chaos equivalence lives in ``test_chaos_equivalence.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import MemoConfig
from repro.core.memo_shard import ShardInsert, ShardQuery
from repro.faults.chaos import DaemonSchedule, ReplicaSet
from repro.net import TransportUnavailable, connect_tier
from repro.net.policy import RetryPolicy
from repro.obs import ObsConfig
from repro.obs import runtime as obs

MEMO = MemoConfig(index_train_min=4, index_clusters=2, index_nprobe=2)
# short deadlines/backoff so dead-replica failover costs milliseconds
FAST = RetryPolicy(
    max_attempts=2, deadline_s=5.0, backoff_initial_s=0.01, backoff_max_s=0.05,
    failure_threshold=2, reset_timeout_s=0.2,
)


@pytest.fixture(autouse=True)
def pristine_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def replicas():
    with ReplicaSet(n=2, memo=MEMO, n_shards=2) as rs:
        yield rs


def make_client(rs, **over):
    kwargs = dict(
        replication=2,
        expect_tau=MEMO.tau,
        n_shards_hint=2,
        retry_policy=FAST,
        client_name="test-replicated",
    )
    kwargs.update(over)
    return connect_tier(rs.address_str, **kwargs)


def mk_items(rng, n, op="Fu1D"):
    out = []
    for i in range(n):
        key = rng.normal(size=12).astype(np.float32)
        val = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).astype(
            np.complex64
        )
        out.append(ShardInsert(op, i, key, val, meta=(1.0, 0j)))
    return out


class TestFanOut:
    def test_inserts_reach_every_replica(self, replicas, rng):
        with make_client(replicas) as client:
            inserts = mk_items(rng, 6)
            client.insert_batch(inserts)
            client.flush()
            assert replicas.daemon(0).router.entries() == 6
            assert replicas.daemon(1).router.entries() == 6
            # reads answer identically from either replica
            out = client.query_batch([ShardQuery("Fu1D", 2, inserts[2].key)])
            assert out[0].hit and out[0].similarity > 0.99

    def test_push_state_seeds_all_replicas(self, replicas, rng):
        with make_client(replicas) as client:
            client.insert_batch(mk_items(rng, 4))
            client.flush()
            tree = client.state_dict()
        with ReplicaSet(n=2, memo=MEMO, n_shards=2) as fresh:
            with make_client(fresh) as c2:
                assert c2.push_state(tree)
                assert fresh.daemon(0).router.entries() == 4
                assert fresh.daemon(1).router.entries() == 4

    def test_replication_slices_address_list(self, replicas):
        with make_client(replicas, replication=1) as client:
            assert client.labels == ["%s:%d" % replicas.addresses[0]]
        with pytest.raises(ValueError, match="replication"):
            make_client(replicas, replication=3)


class TestFailover:
    def test_kill_one_of_two_queries_still_warm(self, replicas, rng):
        obs.configure(ObsConfig())
        with make_client(replicas) as client:
            inserts = mk_items(rng, 6)
            client.insert_batch(inserts)
            client.flush()
            replicas.kill(0)
            queries = [ShardQuery(i.op, i.location, i.key) for i in inserts]
            outcomes = client.query_batch(queries)
            # every query is a warm hit served by the surviving replica
            assert all(o.hit and o.similarity > 0.99 for o in outcomes)
            failovers = [
                e for e in obs.snapshot()
                if e["name"] == "net_client_failover_total"
            ]
            assert failovers and sum(e["value"] for e in failovers) > 0

    def test_repeated_failures_open_the_circuit(self, replicas, rng):
        obs.configure(ObsConfig())
        with make_client(replicas) as client:
            client.insert_batch(mk_items(rng, 4))
            client.flush()
            replicas.kill(0)
            q = [ShardQuery("Fu1D", 0, mk_items(rng, 1)[0].key)]
            for _ in range(4):
                client.query_batch(q)
            health = client.health()
            dead = health[f"{replicas.addresses[0][0]}:{replicas.addresses[0][1]}"]
            assert dead["circuit"] == "open"
            gauges = {
                (e["name"], e["labels"].get("replica")): e["value"]
                for e in obs.snapshot() if e["name"] == "circuit_state"
            }
            addr0 = "%s:%d" % replicas.addresses[0]
            addr1 = "%s:%d" % replicas.addresses[1]
            assert gauges[("circuit_state", addr0)] == 2  # open
            assert gauges[("circuit_state", addr1)] == 0  # closed

    def test_all_replicas_down_fail_open_and_closed(self, replicas, rng):
        with make_client(replicas) as client:
            client.insert_batch(mk_items(rng, 2))
            replicas.kill(0)
            replicas.kill(1)
            out = client.query_batch([ShardQuery("Fu1D", 0, mk_items(rng, 1)[0].key)])
            assert len(out) == 1 and not out[0].hit  # degraded all-miss
            client.insert_batch(mk_items(rng, 2))  # dropped, not raised
        with pytest.raises((TransportUnavailable, OSError)):
            with make_client(replicas, fail_open=False) as strict:
                strict.query_batch([ShardQuery("Fu1D", 0, mk_items(rng, 1)[0].key)])

    def test_tau_mismatch_fails_fast_even_replicated(self, replicas):
        with pytest.raises(ValueError, match="tau"):
            make_client(replicas, expect_tau=0.5)


class TestResync:
    def test_rejoined_replica_resyncs_from_clean_peer(self, replicas, rng):
        with make_client(replicas) as client:
            client.insert_batch(mk_items(rng, 3))
            client.flush()
            replicas.kill(1)
            # these inserts miss replica 1 -> it goes dirty
            late = mk_items(rng, 3, op="Fu2D")
            client.insert_batch(late)
            client.flush()
            addr1 = "%s:%d" % replicas.addresses[1]
            assert client.health()[addr1]["dirty"]
            replicas.restart(1)  # same port, empty tier
            assert replicas.daemon(1).router.entries() == 0
            client.reset_backoff()  # collapse circuits + connect windows
            assert client.resync() == 1
            assert not client.health()[addr1]["dirty"]
            # the reborn replica now holds the full tier, failover-ready
            assert replicas.daemon(1).router.entries() == 6

    def test_background_health_loop_resyncs(self, replicas, rng):
        with make_client(replicas, heartbeat_interval_s=0.05) as client:
            client.insert_batch(mk_items(rng, 4))
            client.flush()
            replicas.kill(1)
            client.insert_batch(mk_items(rng, 2, op="Fu2D"))
            client.flush()
            replicas.restart(1)
            deadline = time.monotonic() + 10.0
            addr1 = "%s:%d" % replicas.addresses[1]
            while time.monotonic() < deadline:
                if (
                    not client.health()[addr1]["dirty"]
                    and replicas.daemon(1).router.entries() == 6
                ):
                    break
                time.sleep(0.05)
            assert not client.health()[addr1]["dirty"]
            assert replicas.daemon(1).router.entries() == 6


class TestDaemonSchedule:
    def test_validates_actions(self, replicas):
        with pytest.raises(ValueError, match="verb"):
            DaemonSchedule(replicas, [(0.0, "explode", 0)])
        with pytest.raises(ValueError, match="replica"):
            DaemonSchedule(replicas, [(0.0, "kill", 5)])

    def test_timed_kill_fires(self, replicas):
        with DaemonSchedule(replicas, [(0.01, "kill", 0)]):
            deadline = time.monotonic() + 5.0
            while replicas.alive(0) and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not replicas.alive(0)
