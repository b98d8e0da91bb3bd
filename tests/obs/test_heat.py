"""Memo-tier heat analytics: per-entry last-hit/hit-count metadata.

Satellite contract: heat survives ``state_dict``/``from_state`` round
trips, partition-level absorb merges take max(last-hit) / sum(hits), and
a pre-heat-schema snapshot loads with zeroed heat fields.  Acceptance:
the heat report's projected-reclaimable-bytes matches an independent
ground-truth recount of the per-entry metadata.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MemoConfig
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import MemoShardRouter, ShardInsert, ShardQuery
from repro.kvstore import store as store_mod
from repro.kvstore.store import KVStore
from repro.net.server import MemoServerDaemon
from repro.obs.export import to_prometheus
from repro.obs.heat import (
    age_histogram_entries,
    build_heat_report,
    entry_records,
    render_heat_report,
)


@pytest.fixture()
def clock(monkeypatch):
    """Deterministic heat clock: advance with ``clock["now"] = t``."""
    state = {"now": 1000.0}
    monkeypatch.setattr(store_mod, "_heat_clock", lambda: state["now"])
    return state


class TestStoreHeat:
    def test_hits_refresh_and_count(self, clock):
        s = KVStore()
        s.put("k", b"abc")
        assert s.heat("k") == (1000.0, 0)
        clock["now"] = 1500.0
        s.get("k")
        s.get("k")
        assert s.heat("k") == (1500.0, 2)
        assert s.get("missing") is None  # a miss touches nothing
        assert s.heat("missing") is None

    def test_roundtrip_through_state_dict(self, clock):
        s = KVStore()
        s.put("a", b"xx")
        s.put(7, b"yyyy")
        clock["now"] = 1200.0
        s.get("a")
        restored = KVStore.from_state(s.state_dict())
        assert restored.heat("a") == (1200.0, 1)
        assert restored.heat(7) == (1000.0, 0)
        # restored stores keep accounting heat identically
        clock["now"] = 1300.0
        restored.get(7)
        assert restored.heat(7) == (1300.0, 1)

    def test_pre_heat_snapshot_loads_zeroed(self, clock):
        s = KVStore()
        s.put("a", b"xx")
        s.get("a")
        state = s.state_dict()
        del state["heat_last"], state["heat_hits"]  # pre-heat schema
        restored = KVStore.from_state(state)
        assert restored.heat("a") == (0.0, 0)  # maximally cold, never lossy

    def test_overwrite_resets_heat(self, clock):
        s = KVStore()
        s.put("a", b"old")
        s.get("a")
        clock["now"] = 2000.0
        s.put("a", b"new")
        assert s.heat("a") == (2000.0, 0)

    def test_merge_heat_takes_max_last_and_sums_hits(self, clock):
        ours, theirs = KVStore(), KVStore()
        for s in (ours, theirs):
            s.put("shared", b"v")
            s.put(f"only-{id(s)}", b"w")
        ours.get("shared")  # ours: (1000, 1)
        clock["now"] = 3000.0
        theirs.get("shared")
        theirs.get("shared")  # theirs: (3000, 2)
        ours.merge_heat(theirs)
        assert ours.heat("shared") == (3000.0, 3)


MEMO = MemoConfig(index_train_min=4, index_clusters=2, index_nprobe=2)


def _items(rng, n, op="Fu1D"):
    out = []
    for i in range(n):
        key = rng.normal(size=12).astype(np.float32)
        val = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).astype(
            np.complex64
        )
        out.append(ShardInsert(op, i, key, val, meta=(1.0, 0j)))
    return out


class TestAbsorbMerges:
    """The scheduler-side halves of this contract (chained and concurrent
    absorbs, pre-heat partitions) are pinned against ``SharedMemoService``
    in ``tests/net/test_tier.py::TestSchedulerTier``."""

    def test_daemon_push_merges_partition_heat(self, clock):
        """A pushed partition wins wholesale, but for keys both sides hold
        the installed db keeps max(last-hit) and summed hits."""
        rng = np.random.default_rng(3)
        items = _items(rng, 4)
        with MemoServerDaemon(n_shards=2, memo=MEMO) as daemon:
            tier = daemon.router
            tier.insert_batch(items)
            tree = tier.state_dict()  # both sides now share entry ids
            # make the live tier hot at t=2000
            clock["now"] = 2000.0
            tier.query_batch([ShardQuery(i.op, i.location, i.key) for i in items])
            before = entry_records(tier.state_dict())
            assert sum(r["hits"] for r in before) == len(items)
            # push the cold pre-query tree back: entries must stay hot
            tier.push_state(tree)
            after = entry_records(tier.state_dict())
        assert sum(r["hits"] for r in after) == sum(r["hits"] for r in before)
        assert {r["last"] for r in after if r["hits"]} == {2000.0}


class TestHeatReport:
    def _tree(self):
        return {
            "layout": "sharded",
            "n_shards": 2,
            "shards": [
                {"shard_id": 0, "partitions": [
                    {"op": "Fu1D", "location": 0, "db": {"values": {
                        "store_type": "bytes",
                        "keys": [["s", "a"], ["s", "b"]],
                        "vals": [b"x" * 10, b"y" * 30],
                        "heat_last": [9000.0, 1000.0],
                        "heat_hits": [4, 0],
                    }}},
                ]},
                {"shard_id": 1, "partitions": [
                    {"op": "Fu2D", "location": 3, "db": {"values": {
                        "store_type": "bytes",
                        "keys": [["s", "c"]],
                        "vals": [b"z" * 50],
                    }}},  # pre-heat partition: reads as maximally cold
                ]},
            ],
        }

    def test_reclaimable_bytes_matches_ground_truth_recount(self):
        records = entry_records(self._tree())
        now, cutoff = 10000.0, 3600.0
        report = build_heat_report(records, now=now, stale_after=cutoff)
        # independent recount straight off the per-entry metadata
        expected = sum(
            r["nbytes"] for r in records if now - r["last"] >= cutoff
        )
        assert report["reclaimable_bytes"] == expected == 30 + 50
        assert report["entries"] == 3 and report["nbytes"] == 90
        assert report["cold_entries"] == 2
        assert report["cold_fraction"] == pytest.approx(2 / 3)
        by_op = {g["op"]: g for g in report["by_op"]}
        assert by_op["Fu1D"]["reclaimable"] == 30
        assert by_op["Fu2D"]["reclaimable"] == 50
        text = render_heat_report(report)
        assert "projected reclaimable" in text and "by shard" in text

    def test_age_histograms_are_prometheus_renderable(self):
        records = entry_records(self._tree())
        entries = age_histogram_entries(records, now=10000.0)
        assert {e["labels"]["op"] for e in entries} == {"Fu1D", "Fu2D"}
        for e in entries:
            assert sum(e["counts"]) <= e["count"]  # overflow -> +Inf bucket
        text = to_prometheus(entries)
        assert 'memo_entry_age_seconds_bucket{le="+Inf",op="Fu1D",shard="0"} 2' in text

    def test_live_tier_records_match_state_records(self, clock):
        tier = MemoShardRouter(2, make_db_factory(MEMO))
        items = _items(np.random.default_rng(5), 3)
        tier.insert_batch(items)
        clock["now"] = 1700.0
        tier.query_batch([ShardQuery(i.op, i.location, i.key) for i in items[:2]])
        live = tier.heat_records()
        assert live == entry_records(tier.state_dict())
        assert sorted((r["shard"], r["location"], r["hits"]) for r in live) == [
            (0, 0, 1), (0, 2, 0), (1, 1, 1),
        ]

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError, match="layout"):
            entry_records({"partitions": []})
