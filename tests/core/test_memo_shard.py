"""Sharded memoization service: routing, batched API, aggregated stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MemoDatabase,
    MemoShardRouter,
    ShardInsert,
    ShardQuery,
    shard_of_location,
)


def make_db(dim: int) -> MemoDatabase:
    return MemoDatabase(dim=dim, tau=0.9, index_clusters=2, index_nprobe=2, train_min=4)


def key(seed: int, dim: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(dim).astype(np.float32)


class TestRouting:
    def test_consistent_and_balanced(self):
        owners = [shard_of_location(loc, 4) for loc in range(64)]
        assert owners == [shard_of_location(loc, 4) for loc in range(64)]
        for s in range(4):
            assert owners.count(s) == 16

    def test_single_shard_owns_everything(self):
        assert all(shard_of_location(loc, 1) == 0 for loc in range(100))

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_of_location(3, 0)
        with pytest.raises(ValueError):
            MemoShardRouter(0, make_db)

    def test_router_matches_function(self):
        router = MemoShardRouter(3, make_db)
        for loc in range(20):
            assert router.shard_of(loc) == shard_of_location(loc, 3)


class TestBatchedService:
    def test_insert_then_query_roundtrip(self):
        router = MemoShardRouter(2, make_db)
        k = key(0)
        v = np.arange(6, dtype=np.complex64)
        router.insert_batch([ShardInsert("Fu2D", 3, k, v, meta=(1.0, 0j))])
        [outcome] = router.query_batch([ShardQuery("Fu2D", 3, k)])
        assert outcome.hit
        np.testing.assert_array_equal(outcome.value, v)
        assert outcome.stored_meta == (1.0, 0j)

    def test_outcomes_keep_request_order_across_shards(self):
        router = MemoShardRouter(3, make_db)
        locs = [0, 1, 2, 3, 4, 5]
        inserts = [
            ShardInsert("Fu1D", loc, key(loc), np.full(4, loc, dtype=np.complex64))
            for loc in locs
        ]
        router.insert_batch(inserts)
        outcomes = router.query_batch(
            [ShardQuery("Fu1D", loc, key(loc)) for loc in reversed(locs)]
        )
        for loc, outcome in zip(reversed(locs), outcomes):
            assert outcome.hit
            np.testing.assert_array_equal(
                outcome.value, np.full(4, loc, dtype=np.complex64)
            )

    def test_locations_partition_by_shard(self):
        router = MemoShardRouter(2, make_db)
        router.insert_batch(
            [ShardInsert("Fu1D", loc, key(loc), np.zeros(2, np.complex64)) for loc in range(6)]
        )
        held = [sorted(r["location"] for r in shard.heat_records()) for shard in router.shards]
        assert held == [[0, 2, 4], [1, 3, 5]]

    def test_ops_partition_independently(self):
        """The same location under two ops is two independent partitions."""
        router = MemoShardRouter(2, make_db)
        va = np.full(3, 1, dtype=np.complex64)
        vb = np.full(3, 2, dtype=np.complex64)
        router.insert_batch([ShardInsert("Fu1D", 0, key(1), va)])
        router.insert_batch([ShardInsert("Fu2D", 0, key(1), vb)])
        [qa] = router.query_batch([ShardQuery("Fu1D", 0, key(1))])
        [qb] = router.query_batch([ShardQuery("Fu2D", 0, key(1))])
        np.testing.assert_array_equal(qa.value, va)
        np.testing.assert_array_equal(qb.value, vb)

    def test_query_miss_below_tau(self):
        router = MemoShardRouter(2, make_db)
        router.insert_batch([ShardInsert("Fu1D", 0, key(1), np.zeros(2, np.complex64))])
        [outcome] = router.query_batch([ShardQuery("Fu1D", 0, -key(1))])
        assert not outcome.hit


class TestStats:
    def test_aggregation_across_shards(self):
        router = MemoShardRouter(3, make_db)
        router.insert_batch(
            [ShardInsert("Fu1D", loc, key(loc), np.zeros(4, np.complex64)) for loc in range(9)]
        )
        router.query_batch([ShardQuery("Fu1D", loc, key(loc)) for loc in range(9)])
        agg = router.stats()
        assert agg.inserts == 9
        assert agg.queries == 9
        assert agg.hits == 9
        per = router.shard_stats()
        assert sum(s.queries for s, _n in per) == agg.queries
        assert sum(s.inserts for s, _n in per) == agg.inserts
        assert router.entries() == 9
        assert [n for _s, n in per] == [3, 3, 3]

    def test_shard_message_counters(self):
        router = MemoShardRouter(2, make_db)
        router.insert_batch(
            [ShardInsert("Fu1D", loc, key(loc), np.zeros(4, np.complex64)) for loc in range(4)]
        )
        router.query_batch([ShardQuery("Fu1D", loc, key(loc)) for loc in range(4)])
        # one batch hit both shards: one sub-message each
        assert [s.insert_messages for s in router.shards] == [1, 1]
        assert [s.query_messages for s in router.shards] == [1, 1]
        # each sub-message spans 2 single-location partitions -> 4 batched
        # per-partition calls in total
        assert router.stats().query_batches == 4
        assert router.stats().insert_batches == 4

    def test_merged_accessor_field_math(self):
        """Regression for the single merged ``stats()`` accessor: every
        counter is the exact field-wise sum over shards — nothing dropped,
        nothing double-counted — and merging never mutates the parts."""
        from repro.core import MemoDBStats

        parts = [
            MemoDBStats(queries=3, hits=1, inserts=2, bytes_inserted=10,
                        bytes_fetched=5, query_batches=1, insert_batches=1),
            MemoDBStats(queries=7, hits=4, inserts=0, bytes_inserted=0,
                        bytes_fetched=20, query_batches=2, insert_batches=0),
            MemoDBStats(),
        ]
        snapshot = [p.as_dict() for p in parts]
        agg = MemoDBStats.merged(parts)
        assert agg.as_dict() == {
            "queries": 10, "hits": 5, "inserts": 2, "bytes_inserted": 10,
            "bytes_fetched": 25, "query_batches": 3, "insert_batches": 1,
        }
        assert [p.as_dict() for p in parts] == snapshot
        assert agg.hit_rate == 0.5
        assert MemoDBStats.merged([]).as_dict() == MemoDBStats().as_dict()
        # delta is merge's inverse: (a merged b).delta(a) == b
        assert MemoDBStats.merged(parts).delta(parts[0]).as_dict() == (
            MemoDBStats.merged(parts[1:]).as_dict()
        )

    def test_router_stats_equals_manual_partition_sum(self):
        """The router's merged stats() must equal a hand-rolled walk over
        every shard's partitions (the aggregation it replaces)."""
        from repro.core import MemoDBStats

        router = MemoShardRouter(3, make_db)
        router.insert_batch(
            [ShardInsert("Fu1D", loc, key(loc), np.zeros(4, np.complex64))
             for loc in range(9)]
        )
        router.query_batch(
            [ShardQuery("Fu1D", loc, key(loc + 100)) for loc in range(9)]
        )
        manual = MemoDBStats()
        for shard in router.shards:
            for db in shard._dbs.values():
                manual.merge(db.stats)
        assert router.stats().as_dict() == manual.as_dict()
        assert router.stats("Fu1D").as_dict() == manual.as_dict()
        assert router.stats("Fu2D").as_dict() == MemoDBStats().as_dict()


class TestMemoDatabaseBatchAPI:
    def test_query_batch_matches_sequential_queries(self):
        db_a, db_b = make_db(8), make_db(8)
        keys = [key(i) for i in range(6)]
        vals = [np.full(3, i, dtype=np.complex64) for i in range(6)]
        db_a.insert_batch(list(zip(keys, vals, [None] * 6)))
        for k, v in zip(keys, vals):
            db_b.insert(k, v)
        batched = db_a.query_batch(keys)
        sequential = [db_b.query(k) for k in keys]
        for got, want in zip(batched, sequential):
            assert got.hit == want.hit
            assert got.similarity == pytest.approx(want.similarity)
            np.testing.assert_array_equal(got.value, want.value)
        assert db_a.stats.query_batches == 1
        assert db_a.stats.insert_batches == 1
        # the scalar form is a one-item message
        assert db_b.stats.query_batches == 6
        assert db_b.stats.insert_batches == 6

    def test_empty_batches_are_noops(self):
        db = make_db(4)
        assert db.query_batch([]) == []
        assert db.insert_batch([]) == []
        assert db.stats.query_batches == 0
        assert db.stats.insert_batches == 0
