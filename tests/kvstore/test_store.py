"""KV store semantics: eviction, stats, stored values, state columns; array frames."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kvstore import KVStore, decode_array, encode_array, encoded_nbytes


def blob(n: int, fill: int = 0) -> np.ndarray:
    """A value whose accounted (serialized-frame) size is ``n + HEADER``."""
    return np.full(n, fill, dtype=np.uint8)


#: what ``encoded_nbytes`` adds to a 1-d uint8 array's payload
HEADER = encoded_nbytes(blob(0))


class TestPutGet:
    def test_roundtrip(self):
        kv = KVStore()
        kv.put(1, blob(5, 7))
        np.testing.assert_array_equal(kv.get(1), blob(5, 7))

    def test_miss_returns_none_and_counts(self):
        kv = KVStore()
        assert kv.get(404) is None
        assert kv.stats.misses == 1

    def test_overwrite_replaces_bytes(self):
        kv = KVStore()
        kv.put(1, blob(4, 1))
        kv.put(1, blob(2, 2))
        np.testing.assert_array_equal(kv.get(1), blob(2, 2))
        assert kv.nbytes == HEADER + 2

    def test_non_array_rejected(self):
        kv = KVStore()
        for value in (123, b"bytes", [1.0, 2.0]):
            with pytest.raises(TypeError):
                kv.put(1, value)
        assert len(kv) == 0 and kv.nbytes == 0

    def test_delete(self):
        kv = KVStore()
        kv.put(1, blob(1))
        assert kv.delete(1) is True
        assert kv.delete(1) is False
        assert kv.nbytes == 0

    def test_keys_and_len(self):
        kv = KVStore()
        kv.put(1, blob(1))
        kv.put(2, blob(1))
        assert kv.keys() == [1, 2]
        assert len(kv) == 2


class TestEviction:
    def test_fifo_evicts_oldest(self):
        kv = KVStore(capacity_bytes=2 * (HEADER + 5), eviction="fifo")
        kv.put(1, blob(5))
        kv.put(2, blob(5))
        kv.put(3, blob(1))  # evicts 1
        assert 1 not in kv.keys() and 2 in kv.keys() and 3 in kv.keys()
        assert kv.stats.evictions == 1

    def test_lru_protects_recently_used(self):
        kv = KVStore(capacity_bytes=2 * (HEADER + 5), eviction="lru")
        kv.put(1, blob(5))
        kv.put(2, blob(5))
        kv.get(1)  # refresh 1
        kv.put(3, blob(1))  # must evict 2, not 1
        assert 1 in kv.keys() and 2 not in kv.keys()

    def test_oversized_value_rejected(self, rng):
        with pytest.raises(ValueError):
            KVStore(capacity_bytes=HEADER + 4).put(1, blob(5))
        with pytest.raises(ValueError):
            KVStore(capacity_bytes=64).put(1, rng.standard_normal(100))

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            KVStore(eviction="random")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            KVStore(capacity_bytes=0)

    def test_nbytes_never_exceeds_capacity(self):
        cap = 3 * HEADER + 16
        kv = KVStore(capacity_bytes=cap)
        for i in range(50):
            kv.put(i, blob(i % 7 + 1))
            assert kv.nbytes <= cap

    def test_eviction_by_encoded_size(self, rng):
        a = rng.standard_normal(8).astype(np.float32)
        kv = KVStore(capacity_bytes=2 * encoded_nbytes(a) + 1)
        kv.put(0, a)
        kv.put(1, a)
        kv.put(2, a)  # must evict the FIFO-oldest entry
        assert kv.stats.evictions == 1
        assert 0 not in kv.keys() and 1 in kv.keys() and 2 in kv.keys()


class TestOverwriteAccounting:
    """nbytes must equal the exact sum of live values through overwrites,
    including overwrites that trigger eviction under a capacity bound."""

    @staticmethod
    def _live_bytes(kv: KVStore) -> int:
        return sum(encoded_nbytes(kv.get(k)) for k in kv.keys())

    def test_overwrite_grow_forces_eviction_and_stays_consistent(self):
        kv = KVStore(capacity_bytes=2 * HEADER + 10, eviction="fifo")
        kv.put(1, blob(4))
        kv.put(2, blob(4))
        # growing 1 to HEADER + 9 bytes must drop the old 1 and evict 2
        kv.put(1, blob(HEADER + 9))
        assert 2 not in kv.keys() and 1 in kv.keys()
        assert kv.nbytes == 2 * HEADER + 9 == self._live_bytes(kv)
        assert kv.stats.evictions == 1

    def test_overwrite_shrink_releases_bytes(self):
        kv = KVStore(capacity_bytes=2 * HEADER + 10)
        kv.put(1, blob(8))
        kv.put(1, blob(2))
        assert kv.nbytes == HEADER + 2 == self._live_bytes(kv)
        # the freed space is genuinely reusable without eviction
        kv.put(2, blob(8))
        assert kv.stats.evictions == 0
        assert kv.nbytes == 2 * HEADER + 10 == self._live_bytes(kv)

    def test_overwrite_same_size_is_neutral(self):
        kv = KVStore(capacity_bytes=2 * (HEADER + 4))
        kv.put(1, blob(4, 1))
        kv.put(2, blob(4, 2))
        kv.put(1, blob(4, 3))
        assert 2 in kv.keys()
        np.testing.assert_array_equal(kv.get(1), blob(4, 3))
        assert kv.nbytes == 2 * (HEADER + 4) == self._live_bytes(kv)
        assert kv.stats.evictions == 0

    def test_overwrite_never_self_evicts_fresh_value(self):
        """Overwriting the only id with a capacity-sized value must not
        evict anything (the old bytes are released first)."""
        kv = KVStore(capacity_bytes=HEADER + 8)
        kv.put(1, blob(8, 1))
        kv.put(1, blob(8, 2))
        np.testing.assert_array_equal(kv.get(1), blob(8, 2))
        assert kv.nbytes == HEADER + 8 == self._live_bytes(kv)
        assert kv.stats.evictions == 0

    def test_delete_after_overwrite_accounting(self):
        kv = KVStore(capacity_bytes=2 * HEADER + 20)
        kv.put(1, blob(3))
        kv.put(1, blob(7))
        assert kv.delete(1) is True
        assert kv.nbytes == 0 and len(kv) == 0


class TestStats:
    def test_hit_rate(self):
        kv = KVStore()
        kv.put(1, blob(1))
        kv.get(1)
        kv.get(1)
        kv.get(404)
        assert kv.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate_zero(self):
        assert KVStore().stats.hit_rate == 0.0

    def test_byte_accounting_is_the_serialized_frame(self, rng):
        """Every byte counter is the length of the ``encode_array`` frame of
        the value — what a serialized store would have held."""
        arrays = [
            rng.standard_normal((4, 3)).astype(np.complex64),
            rng.standard_normal(7).astype(np.float32),
            rng.standard_normal((2, 2, 2)),
        ]
        frames = [len(encode_array(a)) for a in arrays]
        kv = KVStore()
        for i, a in enumerate(arrays):
            kv.put(i, a)
        kv.get(0)
        kv.get(99)
        assert kv.nbytes == kv.stats.bytes_in == sum(frames)
        assert kv.stats.bytes_out == frames[0]
        assert (kv.stats.hits, kv.stats.misses, kv.stats.puts) == (1, 1, 3)
        kv.delete(1)
        assert kv.nbytes == frames[0] + frames[2]


class TestSerialization:
    @given(
        arr=hnp.arrays(
            dtype=st.sampled_from([np.float32, np.complex64, np.int32, np.float64]),
            shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_array(self, arr):
        out = decode_array(encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)

    def test_noncontiguous_input(self, rng):
        a = rng.standard_normal((6, 6))[::2, ::2]
        np.testing.assert_array_equal(decode_array(encode_array(a)), a)

    def test_encoded_nbytes_matches(self, rng):
        a = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))).astype(
            np.complex64
        )
        assert encoded_nbytes(a) == len(encode_array(a))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_array(b"XXXX" + bytes(32))

    def test_truncated_buffer_rejected(self):
        with pytest.raises(ValueError):
            decode_array(b"mL")



class TestStoredValues:
    """Zero-copy ndarray values: read-only, owning; shared when already so,
    detached otherwise — by ``put`` and by ``from_state`` alike."""

    def test_get_returns_stored_array_read_only(self, rng):
        st_ = KVStore()
        a = rng.standard_normal((3, 4)).astype(np.complex64)
        st_.put(0, a)
        got = st_.get(0)
        assert isinstance(got, np.ndarray)
        assert not got.flags.writeable
        assert st_.get(0) is got  # zero-copy: the stored array itself
        np.testing.assert_array_equal(got, a)

    def test_put_detaches_from_caller_buffer(self, rng):
        st_ = KVStore()
        a = np.ones(4, dtype=np.float32)
        st_.put(0, a)
        a[:] = 7.0
        np.testing.assert_array_equal(st_.get(0), np.ones(4, dtype=np.float32))

    def test_put_refuses_a_non_array(self):
        with pytest.raises(TypeError, match="ndarray"):
            KVStore().put(0, [1.0, 2.0])

    @staticmethod
    def _via_put(values: dict) -> KVStore:
        store = KVStore()
        for key, value in values.items():
            store.put(key, value)
        return store

    @staticmethod
    def _via_from_state(values: dict) -> KVStore:
        state = KVStore().state_dict()
        state["ids"] = np.array(list(values), dtype=np.int64)
        state["vals"] = list(values.values())
        state["heat_last"] = np.zeros(len(values))
        state["heat_hits"] = np.zeros(len(values), dtype=np.int64)
        return KVStore.from_state(state)

    @pytest.mark.parametrize("install", ["_via_put", "_via_from_state"])
    def test_immutable_owning_values_are_shared_and_the_rest_detached(self, rng, install):
        """One rule on both ways in: a value that is read-only, C-contiguous
        and owns its buffer has no writable alias anywhere, so the store
        keeps *it* (a miss's frozen output enters the tier without a copy; a
        tier handing partitions to a job moves no value bytes).  A writable
        array, a read-only *view* of someone's writable buffer, or a
        non-contiguous one is copied — mutating the source afterwards cannot
        change a stored value."""
        frozen = rng.standard_normal((2, 3)).astype(np.complex64)
        frozen.setflags(write=False)
        writable = np.ones(4, dtype=np.float32)
        base = np.full(6, 2.0, dtype=np.float32)
        borrowed = base[1:5]
        borrowed.setflags(write=False)
        strided = np.asfortranarray(rng.standard_normal((3, 2)))
        strided.setflags(write=False)
        FROZEN, WRITABLE, BORROWED, STRIDED = 9, 10, 11, 12
        values = {FROZEN: frozen, WRITABLE: writable, BORROWED: borrowed, STRIDED: strided}

        store = getattr(self, install)(values)
        assert store.get(FROZEN) is frozen
        for key, source in ((WRITABLE, writable), (BORROWED, base), (STRIDED, strided)):
            got = store.get(key)
            assert not np.shares_memory(got, source)
            assert not got.flags.writeable and got.flags.c_contiguous and got.flags.owndata
        writable[:] = 9.0
        base[:] = 9.0
        np.testing.assert_array_equal(store.get(WRITABLE), np.ones(4, np.float32))
        np.testing.assert_array_equal(store.get(BORROWED), np.full(4, 2.0, np.float32))
        np.testing.assert_array_equal(store.get(STRIDED), strided)
        assert store.nbytes == sum(encoded_nbytes(v) for v in values.values())

    def test_a_restored_store_shares_the_live_stores_values(self, rng):
        live = KVStore()
        for key in range(3):
            live.put(key, rng.standard_normal((2, 3)).astype(np.complex64))
        restored = KVStore.from_state(live.state_dict())
        for key in range(3):
            assert restored.get(key) is live.get(key)


class TestStateColumns:
    def test_state_is_columns_of_one_length(self, rng):
        kv = KVStore(capacity_bytes=10_000, eviction="lru")
        for key in (5, 2, 9):
            kv.put(key, rng.standard_normal(3))
        kv.get(5)  # LRU: 5 moves to the back
        state = kv.state_dict()
        assert set(state) == {"capacity_bytes", "eviction", "ids", "vals",
                              "heat_last", "heat_hits", "stats"}
        assert state["ids"].dtype == np.int64 and state["ids"].tolist() == [2, 9, 5]
        assert state["heat_last"].dtype == np.float64
        assert state["heat_hits"].dtype == np.int64
        assert state["heat_hits"].tolist() == [0, 0, 1]
        assert [v is kv.get(k) for k, v in zip((2, 9, 5), state["vals"])] == [True] * 3

    @pytest.mark.parametrize("column", ["ids", "heat_last", "heat_hits", "vals"])
    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_columns_of_unequal_length_are_rejected(self, rng, column, edit):
        kv = KVStore()
        for key in range(4):
            kv.put(key, rng.standard_normal(2))
        state = kv.state_dict()
        col = state[column]
        state[column] = col[:2] if edit == "short" else list(col) + list(col[:1])
        with pytest.raises(ValueError, match="columns disagree"):
            KVStore.from_state(state)

    @pytest.mark.parametrize("key", ["a", 1.5, True, (1, 2)])
    def test_an_id_that_is_not_an_int_is_refused_by_state_dict(self, key):
        kv = KVStore()
        kv.put(key, blob(1))
        with pytest.raises(TypeError, match="id type"):
            kv.state_dict()

    def test_a_non_array_value_in_a_state_is_a_type_error(self):
        state = KVStore().state_dict()
        state.update(ids=np.array([0]), vals=[b"raw"], heat_last=np.zeros(1),
                     heat_hits=np.zeros(1, dtype=np.int64))
        with pytest.raises(TypeError, match="ndarray"):
            KVStore.from_state(state)
