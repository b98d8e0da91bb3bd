"""Memoization database: insert/query semantics, tau gating, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MemoDatabase
from repro.core.coalescer import KeyCoalescer


def key(rng, dim=8):
    return rng.standard_normal(dim).astype(np.float32)


class TestMemoDatabase:
    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            MemoDatabase(dim=8, tau=1.5)

    def test_query_empty_misses(self, rng):
        db = MemoDatabase(dim=8, tau=0.9)
        out = db.query(key(rng))
        assert not out.hit
        assert db.stats.queries == 1

    def test_insert_then_exact_query_hits(self, rng):
        db = MemoDatabase(dim=8, tau=0.9, train_min=2)
        k = key(rng)
        v = rng.standard_normal((3, 3)).astype(np.complex64)
        db.insert(k, v, meta=(2.0, 1j))
        out = db.query(k)
        assert out.hit
        np.testing.assert_array_equal(out.value, v)
        assert out.stored_meta == (2.0, 1j)
        assert out.similarity == pytest.approx(1.0)

    def test_tau_gates_dissimilar_keys(self, rng):
        db = MemoDatabase(dim=8, tau=0.99, train_min=2)
        db.insert(key(rng), np.zeros(2))
        out = db.query(key(rng))
        assert not out.hit
        assert out.similarity < 0.99

    def test_wrong_dim_rejected(self, rng):
        db = MemoDatabase(dim=8)
        with pytest.raises(ValueError):
            db.insert(key(rng, 5), np.zeros(2))

    def test_index_trains_after_threshold(self, rng):
        db = MemoDatabase(dim=8, tau=0.5, train_min=4, index_clusters=2)
        for _ in range(3):
            db.insert(key(rng), np.zeros(1))
        assert not db.index.is_trained
        db.insert(key(rng), np.zeros(1))
        assert db.index.is_trained
        assert len(db) == 4

    def test_cold_database_still_serves(self, rng):
        """Queries work through the linear-scan fallback before training."""
        db = MemoDatabase(dim=8, tau=0.9, train_min=100)
        k = key(rng)
        db.insert(k, np.ones(2))
        out = db.query(k)
        assert out.hit

    def test_probe_of_empty_lists_is_a_miss_with_no_candidate(self):
        """A trained index can hold an empty inverted list (duplicate keys
        train duplicate centroids); a query whose probed lists are all empty
        finds no candidate: a miss with id -1 and the no-neighbour gate -2."""
        a = np.array([1, 0, 0, 0], dtype=np.float32)
        live = MemoDatabase(dim=4, tau=0.9, train_min=2, index_clusters=2, index_nprobe=1)
        live.insert_batch([(a, np.zeros(2, np.complex64), None)] * 2)
        state = live.state_dict()
        assert [len(ids) for ids in state["index"]["list_ids"]] == [2, 0]
        state["index"]["centroids"][1] = -a  # the empty list now has a region of its own
        db = MemoDatabase.from_state(state)
        near_empty, near_full = db.query_batch([-a, a])
        assert (near_empty.value, near_empty.similarity, near_empty.matched_id) == (None, -2.0, -1)
        assert near_full.hit and near_full.matched_id == 0
        assert (db.stats.queries, db.stats.hits) == (2, 1)

    def test_values_roundtrip_dtype_and_shape(self, rng):
        db = MemoDatabase(dim=8, tau=0.5, train_min=1)
        v = (rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))).astype(
            np.complex64
        )
        k = key(rng)
        db.insert(k, v)
        out = db.query(k)
        assert out.value.dtype == np.complex64
        assert out.value.shape == (2, 4, 3)

    def test_stats_accounting(self, rng):
        db = MemoDatabase(dim=8, tau=0.9, train_min=1)
        k = key(rng)
        db.insert(k, np.zeros(4, dtype=np.float32))
        db.query(k)
        db.query(key(rng))
        assert db.stats.inserts == 1
        assert db.stats.hits == 1
        assert db.stats.queries == 2
        assert db.stats.bytes_inserted > 0
        assert db.stats.bytes_fetched > 0
        assert db.stats.hit_rate == pytest.approx(0.5)


class TestKeyCoalescer:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            KeyCoalescer(key_bytes=0)
        with pytest.raises(ValueError):
            KeyCoalescer(key_bytes=100, payload_bytes=50)

    def test_flush_at_payload_threshold(self):
        c = KeyCoalescer(key_bytes=100, payload_bytes=400)
        assert c.offer("a") is None
        assert c.offer("b") is None
        assert c.offer("c") is None
        batch = c.offer("d")
        assert batch == ["a", "b", "c", "d"]
        assert c.pending == 0

    def test_manual_flush(self):
        c = KeyCoalescer(key_bytes=100, payload_bytes=400)
        c.offer("x")
        assert c.flush() == ["x"]
        assert c.flush() is None

    def test_stats(self):
        c = KeyCoalescer(key_bytes=240, payload_bytes=4096)
        for i in range(40):
            c.offer(i)
        c.flush()
        assert c.stats.keys == 40
        assert c.stats.messages >= 2
        assert c.stats.mean_batch > 1
        assert c.keys_per_message == 4096 // 240
