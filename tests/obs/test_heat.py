"""Memo-tier heat analytics: per-entry last-hit/hit-count metadata.

Satellite contract: heat survives ``state_dict``/``from_state`` round
trips and partition-level absorb merges take max(last-hit) / sum(hits).
Acceptance: the heat report's projected-reclaimable-bytes matches an
independent ground-truth recount of the per-entry metadata.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MemoConfig
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import MemoShardRouter, ShardInsert, ShardQuery
from repro.kvstore import encoded_nbytes
from repro.kvstore import store as store_mod
from repro.kvstore.store import KVStore
from repro.net.server import MemoServerDaemon
from repro.obs.heat import (
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


V = np.zeros(3, dtype=np.uint8)  # any value: heat is about touches


def heat(store: KVStore, key) -> tuple[float, int] | None:
    """``(last_hit, hits)`` of one entry, read off ``heat_entries()``."""
    return {k: (last, hits) for k, last, hits, _n in store.heat_entries()}.get(key)


class TestStoreHeat:
    def test_hits_refresh_and_count(self, clock):
        s = KVStore()
        s.put(1, V)
        assert heat(s, 1) == (1000.0, 0)
        clock["now"] = 1500.0
        s.get(1)
        s.get(1)
        assert heat(s, 1) == (1500.0, 2)
        assert s.get(404) is None  # a miss touches nothing
        assert heat(s, 404) is None

    def test_roundtrip_through_state_dict(self, clock):
        s = KVStore()
        s.put(1, V)
        s.put(7, V)
        clock["now"] = 1200.0
        s.get(1)
        restored = KVStore.from_state(s.state_dict())
        assert heat(restored, 1) == (1200.0, 1)
        assert heat(restored, 7) == (1000.0, 0)
        # restored stores keep accounting heat identically
        clock["now"] = 1300.0
        restored.get(7)
        assert heat(restored, 7) == (1300.0, 1)

    def test_overwrite_resets_heat(self, clock):
        s = KVStore()
        s.put(1, V)
        s.get(1)
        clock["now"] = 2000.0
        s.put(1, V + 1)
        assert heat(s, 1) == (2000.0, 0)

    def test_merge_heat_takes_max_last_and_sums_hits(self, clock):
        ours, theirs = KVStore(), KVStore()
        SHARED = 0
        for only, s in enumerate((ours, theirs), start=1):
            s.put(SHARED, V)
            s.put(only, V)
        ours.get(SHARED)  # ours: (1000, 1)
        clock["now"] = 3000.0
        theirs.get(SHARED)
        theirs.get(SHARED)  # theirs: (3000, 2)
        ours.merge_heat(theirs)
        assert heat(ours, SHARED) == (3000.0, 3)
        assert heat(ours, 1) == (1000.0, 0) and heat(ours, 2) is None


MEMO = MemoConfig(index_train_min=4, index_clusters=2, index_nprobe=2)
#: what the serialized frame adds to a 1-d uint8 value's payload
H = encoded_nbytes(np.zeros(0, dtype=np.uint8))


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
    absorbs) are pinned against ``SharedMemoService`` in
    ``tests/net/test_tier.py::TestSchedulerTier``."""

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
    def _tree(self, clock):
        """A 2-shard tier: two ``Fu1D`` entries at location 0 (shard 0) — one
        hit four times, last at t=9000, one never hit since t=1000 — and one
        never-hit ``Fu2D`` entry at location 3 (shard 1)."""
        tier = MemoShardRouter(2, make_db_factory(MEMO))
        rng = np.random.default_rng(9)

        def insert(op, loc, n):
            key = rng.normal(size=12).astype(np.float32)
            tier.insert_batch([ShardInsert(op, loc, key, np.zeros(n, np.uint8))])
            return ShardQuery(op, loc, key)

        hot = insert("Fu1D", 0, 10)
        insert("Fu1D", 0, 30)
        insert("Fu2D", 3, 50)
        clock["now"] = 9000.0
        assert all(o.hit for o in tier.query_batch([hot] * 4))
        return tier.state_dict()

    def test_reclaimable_bytes_matches_ground_truth_recount(self, clock):
        records = entry_records(self._tree(clock))
        now, cutoff = 10000.0, 3600.0
        report = build_heat_report(records, now=now, stale_after=cutoff)
        # independent recount straight off the per-entry metadata
        expected = sum(
            r["nbytes"] for r in records if now - r["last"] >= cutoff
        )
        assert report["reclaimable_bytes"] == expected == (H + 30) + (H + 50)
        assert report["entries"] == 3 and report["nbytes"] == 3 * H + 90
        assert report["cold_entries"] == 2
        assert report["cold_fraction"] == pytest.approx(2 / 3)
        by_op = {g["op"]: g for g in report["by_op"]}
        assert by_op["Fu1D"]["reclaimable"] == H + 30
        assert by_op["Fu2D"]["reclaimable"] == H + 50
        assert [(g["shard"], g["entries"], g["hits"]) for g in report["by_shard"]] == [
            (0, 2, 4), (1, 1, 0),
        ]
        text = render_heat_report(report)
        assert "projected reclaimable" in text and "by shard" in text

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
        for not_a_tree in ({"partitions": []}, {"n_shards": 2}, [], None):
            with pytest.raises(ValueError, match="not a memo-state tree"):
                entry_records(not_a_tree)

    def test_a_malformed_partition_is_a_value_error_not_a_cold_record(self, clock):
        """The tree is read by installing it, so it is held to the same
        contract as any pushed tree."""
        tree = self._tree(clock)
        tree["partitions"][0]["db"]["values"]["heat_last"] = np.zeros(1)
        with pytest.raises(ValueError, match="columns disagree"):
            entry_records(tree)
