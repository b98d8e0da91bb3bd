"""Batched memoization service: batch == scalar, zero-copy == serialized.

A ``query_batch``/``insert_batch`` message must answer exactly like the
same keys sent one per message (``query``/``insert``, the one-item form) —
same outcomes bit for bit, same ``MemoDBStats`` byte counters, message
counters differing only by the message count — across trained and cold
(pretrain) databases, and the zero-copy value store must account every byte
as the serialized frame.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MemoDatabase
from repro.core.memo_db import MemoDBStats
from repro.kvstore import encode_array


def make_keys(rng, n, dim=8, dup_every=4):
    """Random keys with exact duplicates sprinkled in (memoization traffic
    repeats chunk keys across iterations)."""
    keys = rng.standard_normal((n, dim)).astype(np.float32)
    for i in range(dup_every, n, dup_every):
        keys[i] = keys[i - dup_every]
    return keys


def make_values(rng, n):
    return [
        (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))).astype(
            np.complex64
        )
        for _ in range(n)
    ]


def populated_pair(rng, n=48, train_min=16, tau=0.9):
    """Two identically-populated databases (same insertion order/content)."""
    keys, values = make_keys(rng, n), make_values(rng, n)
    dbs = []
    for _ in range(2):
        db = MemoDatabase(dim=8, tau=tau, train_min=train_min)
        for k, v in zip(keys, values):
            db.insert(k, v, meta=(float(np.linalg.norm(v)), complex(v.mean())))
        dbs.append(db)
    return dbs[0], dbs[1]


def assert_outcomes_identical(a, b):
    assert len(a) == len(b)
    for oa, ob in zip(a, b):
        assert oa.hit == ob.hit
        assert oa.similarity == ob.similarity  # bit-identical, not approx
        assert oa.matched_id == ob.matched_id
        assert oa.n_entries == ob.n_entries
        assert oa.stored_meta == ob.stored_meta
        if oa.hit:
            np.testing.assert_array_equal(np.asarray(oa.value), np.asarray(ob.value))


def assert_stats_match(batched: MemoDBStats, scalar: MemoDBStats, query_batches, insert_batches):
    """Batched counters equal the scalar loop's, except the message counts:
    the scalar loop sent every key as its own one-item message."""
    assert batched.queries == scalar.queries
    assert batched.hits == scalar.hits
    assert batched.inserts == scalar.inserts
    assert batched.bytes_inserted == scalar.bytes_inserted
    assert batched.bytes_fetched == scalar.bytes_fetched
    assert batched.query_batches == query_batches
    assert batched.insert_batches == insert_batches
    assert scalar.query_batches == scalar.queries
    assert scalar.insert_batches == scalar.inserts


class TestQueryBatchEquivalence:
    def test_trained_batch_equals_scalar_loop(self, rng):
        db_b, db_s = populated_pair(rng, n=48, train_min=16)
        assert db_b.index.is_trained
        probes = np.concatenate(
            [make_keys(rng, 16), db_b._keys.view[3][None], db_b._keys.view[7][None]]
        )
        batched = db_b.query_batch(list(probes))
        scalar = [db_s.query(k) for k in probes]
        assert any(o.hit for o in batched)  # exercise the hit path
        assert_outcomes_identical(batched, scalar)
        # (populated_pair filled both with 48 one-item insert messages)
        assert_stats_match(db_b.stats, db_s.stats, query_batches=1, insert_batches=48)

    def test_cold_batch_equals_scalar_loop(self, rng):
        db_b, db_s = populated_pair(rng, n=10, train_min=100)
        assert not db_b.index.is_trained
        probes = np.concatenate([make_keys(rng, 6), db_b._keys.view[2][None]])
        batched = db_b.query_batch(list(probes))
        scalar = [db_s.query(k) for k in probes]
        assert any(o.hit for o in batched)
        assert_outcomes_identical(batched, scalar)
        assert_stats_match(db_b.stats, db_s.stats, query_batches=1, insert_batches=10)

    def test_cold_miss_hides_candidate_id(self, rng):
        db = MemoDatabase(dim=8, tau=0.999999, train_min=100)
        db.insert(make_keys(rng, 1)[0], np.zeros(2))
        (out,) = db.query_batch(make_keys(rng, 1))
        assert not out.hit and out.matched_id == -1

    def test_empty_batch_counts_nothing(self, rng):
        db = MemoDatabase(dim=8)
        assert db.query_batch([]) == []
        assert db.insert_batch([]) == []
        assert db.stats.queries == 0
        assert db.stats.query_batches == 0
        assert db.stats.insert_batches == 0

    def test_query_on_empty_database(self):
        db = MemoDatabase(dim=8)
        (out,) = db.query_batch([np.ones(8, dtype=np.float32)])
        assert not out.hit and out.similarity == -2.0 and out.matched_id == -1


class TestInsertBatchEquivalence:
    @pytest.mark.parametrize("train_min", [4, 10, 100])
    def test_batch_insert_equals_scalar_loop(self, rng, train_min):
        """Including train_min mid-batch: the quantizer trains at the same
        item either way, so ids and final state coincide."""
        keys, values = make_keys(rng, 14), make_values(rng, 14)
        items = [(k, v, (float(i), 1j * i)) for i, (k, v) in enumerate(zip(keys, values))]
        db_b = MemoDatabase(dim=8, tau=0.9, train_min=train_min)
        db_s = MemoDatabase(dim=8, tau=0.9, train_min=train_min)
        ids_b = db_b.insert_batch(items)
        ids_s = [db_s.insert(k, v, meta=m) for k, v, m in items]
        assert ids_b == ids_s
        assert db_b.index.is_trained == db_s.index.is_trained
        assert len(db_b) == len(db_s)
        assert_stats_match(db_b.stats, db_s.stats, query_batches=0, insert_batches=1)
        probes = np.concatenate([keys[:5], make_keys(rng, 5)])
        assert_outcomes_identical(
            [db_b.query(k) for k in probes], [db_s.query(k) for k in probes]
        )

    def test_batch_insert_dim_validation(self, rng):
        db = MemoDatabase(dim=8)
        with pytest.raises(ValueError):
            db.insert_batch([(np.ones(5, dtype=np.float32), np.zeros(2), None)])
        # nothing was half-committed
        assert len(db) == 0 and db.stats.inserts == 0

    @pytest.mark.parametrize("train_min", [4, 100])
    def test_a_refused_item_leaves_every_column_as_it_was(self, rng, train_min):
        """A bad value, metadata or key anywhere in a batch is refused before
        the first row is appended: no column outgrows the value column, so
        the state still loads (``from_state`` refuses ragged columns)."""
        keys, values = make_keys(rng, 6), make_values(rng, 6)
        db = MemoDatabase(dim=8, tau=0.9, train_min=train_min)
        db.insert_batch([(k, v, None) for k, v in zip(keys[:5], values[:5])])
        good = (keys[5], values[5], (1.0, 2j))
        for bad, error in [
            ((keys[5], values[5].tobytes(), None), TypeError),  # not an ndarray
            ((keys[5], values[5], "meta"), TypeError),
            ((keys[5][:3], values[5], None), ValueError),
        ]:
            with pytest.raises(error):
                db.insert_batch([good, bad])
            assert len(db._keys) == len(db._meta_has) == len(db) == 5
            assert len(db.index) == (5 if db.index.is_trained else 0)
            assert db.stats.inserts == 5 and db.stats.insert_batches == 1
        restored = MemoDatabase.from_state(db.state_dict())
        assert_outcomes_identical(
            [restored.query(k) for k in keys], [db.query(k) for k in keys]
        )


class TestValueStore:
    def test_bytes_are_accounted_as_the_serialized_frame(self, rng):
        """Values stay ndarrays in memory, but every byte statistic counts
        the ``encode_array`` frame the wire / spill paths would carry."""
        keys, values = make_keys(rng, 40, dup_every=100), make_values(rng, 40)
        db = MemoDatabase(dim=8, tau=0.9, train_min=16)
        for k, v in zip(keys, values):
            db.insert(k, v)
        frames = [len(encode_array(v)) for v in values]
        assert db.stats.bytes_inserted == sum(frames)
        assert db.values.stats.bytes_in == db.values.nbytes == sum(frames)
        hits = db.query_batch([keys[5], keys[7]])
        assert [o.matched_id for o in hits if o.hit] == [5, 7]
        assert db.stats.bytes_fetched == frames[5] + frames[7]
        assert db.values.stats.bytes_out == db.stats.bytes_fetched

    def test_hits_are_zero_copy_and_read_only(self, rng):
        db = MemoDatabase(dim=8, tau=0.5, train_min=100)
        k = make_keys(rng, 1)[0]
        v = np.arange(6, dtype=np.complex64).reshape(2, 3)
        db.insert(k, v)
        out1, out2 = db.query(k), db.query(k)
        assert out1.hit and out1.value is out2.value  # the stored array itself
        assert not out1.value.flags.writeable
        np.testing.assert_array_equal(out1.value, v)

    def test_insert_detaches_from_caller_buffer(self, rng):
        db = MemoDatabase(dim=8, tau=0.5, train_min=100)
        k = make_keys(rng, 1)[0]
        v = np.ones(4, dtype=np.complex64)
        db.insert(k, v)
        v[:] = 99.0  # producer reuses its buffer
        np.testing.assert_array_equal(db.query(k).value, np.ones(4, dtype=np.complex64))
