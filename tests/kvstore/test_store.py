"""KV store semantics: eviction, stats, serialization round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kvstore import KVStore, decode_array, encode_array, encoded_nbytes


class TestPutGet:
    def test_roundtrip(self):
        kv = KVStore()
        kv.put("a", b"hello")
        assert kv.get("a") == b"hello"

    def test_miss_returns_none_and_counts(self):
        kv = KVStore()
        assert kv.get("nope") is None
        assert kv.stats.misses == 1

    def test_overwrite_replaces_bytes(self):
        kv = KVStore()
        kv.put("k", b"xxxx")
        kv.put("k", b"yy")
        assert kv.get("k") == b"yy"
        assert kv.nbytes == 2

    def test_non_bytes_rejected(self):
        kv = KVStore()
        with pytest.raises(TypeError):
            kv.put("k", 123)

    def test_delete(self):
        kv = KVStore()
        kv.put("k", b"v")
        assert kv.delete("k") is True
        assert kv.delete("k") is False
        assert kv.nbytes == 0

    def test_contains_and_len(self):
        kv = KVStore()
        kv.put(1, b"a")
        kv.put(2, b"b")
        assert 1 in kv and 3 not in kv
        assert len(kv) == 2

    def test_clear(self):
        kv = KVStore()
        kv.put("k", b"v")
        kv.clear()
        assert len(kv) == 0 and kv.nbytes == 0


class TestEviction:
    def test_fifo_evicts_oldest(self):
        kv = KVStore(capacity_bytes=10, eviction="fifo")
        kv.put("a", b"12345")
        kv.put("b", b"12345")
        kv.put("c", b"1")  # evicts a
        assert "a" not in kv and "b" in kv and "c" in kv
        assert kv.stats.evictions == 1

    def test_lru_protects_recently_used(self):
        kv = KVStore(capacity_bytes=10, eviction="lru")
        kv.put("a", b"12345")
        kv.put("b", b"12345")
        kv.get("a")  # refresh a
        kv.put("c", b"1")  # must evict b, not a
        assert "a" in kv and "b" not in kv

    def test_oversized_value_rejected(self):
        kv = KVStore(capacity_bytes=4)
        with pytest.raises(ValueError):
            kv.put("k", b"12345")

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            KVStore(eviction="random")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            KVStore(capacity_bytes=0)

    def test_nbytes_never_exceeds_capacity(self):
        kv = KVStore(capacity_bytes=16)
        for i in range(50):
            kv.put(i, bytes(i % 7 + 1))
            assert kv.nbytes <= 16


class TestOverwriteAccounting:
    """nbytes must equal the exact sum of live values through overwrites,
    including overwrites that trigger eviction under a capacity bound."""

    @staticmethod
    def _live_bytes(kv: KVStore) -> int:
        return sum(len(kv.get(k)) for k in kv.keys())

    def test_overwrite_grow_forces_eviction_and_stays_consistent(self):
        kv = KVStore(capacity_bytes=10, eviction="fifo")
        kv.put("a", b"1234")
        kv.put("b", b"1234")
        # growing "a" to 9 bytes must drop the old "a" (4) and evict "b"
        kv.put("a", b"123456789")
        assert "b" not in kv and "a" in kv
        assert kv.nbytes == 9 == self._live_bytes(kv)
        assert kv.stats.evictions == 1

    def test_overwrite_shrink_releases_bytes(self):
        kv = KVStore(capacity_bytes=10)
        kv.put("a", b"12345678")
        kv.put("a", b"12")
        assert kv.nbytes == 2 == self._live_bytes(kv)
        # the freed space is genuinely reusable without eviction
        kv.put("b", b"12345678")
        assert kv.stats.evictions == 0
        assert kv.nbytes == 10 == self._live_bytes(kv)

    def test_overwrite_same_size_is_neutral(self):
        kv = KVStore(capacity_bytes=8)
        kv.put("a", b"1234")
        kv.put("b", b"1234")
        kv.put("a", b"abcd")
        assert "b" in kv and kv.get("a") == b"abcd"
        assert kv.nbytes == 8 == self._live_bytes(kv)
        assert kv.stats.evictions == 0

    def test_overwrite_never_self_evicts_fresh_value(self):
        """Overwriting the only key with a capacity-sized value must not
        evict anything (the old bytes are released first)."""
        kv = KVStore(capacity_bytes=8)
        kv.put("a", b"12345678")
        kv.put("a", b"abcdefgh")
        assert kv.get("a") == b"abcdefgh"
        assert kv.nbytes == 8 == self._live_bytes(kv)
        assert kv.stats.evictions == 0

    def test_delete_after_overwrite_accounting(self):
        kv = KVStore(capacity_bytes=20)
        kv.put("a", b"123")
        kv.put("a", b"1234567")
        assert kv.delete("a") is True
        assert kv.nbytes == 0 and len(kv) == 0


class TestStats:
    def test_hit_rate(self):
        kv = KVStore()
        kv.put("k", b"v")
        kv.get("k")
        kv.get("k")
        kv.get("missing")
        assert kv.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate_zero(self):
        assert KVStore().stats.hit_rate == 0.0

    def test_byte_accounting(self):
        kv = KVStore()
        kv.put("k", b"abcd")
        kv.get("k")
        assert kv.stats.bytes_in == 4
        assert kv.stats.bytes_out == 4


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

    def test_store_integration(self, rng):
        kv = KVStore()
        a = rng.standard_normal((3, 4)).astype(np.float32)
        kv.put("arr", encode_array(a))
        np.testing.assert_array_equal(decode_array(kv.get("arr")), a)


class TestArrayStore:
    """Zero-copy ndarray store: same accounting as serialized bytes."""

    def test_get_returns_stored_array_read_only(self, rng):
        from repro.kvstore import ArrayStore

        st_ = ArrayStore()
        a = rng.standard_normal((3, 4)).astype(np.complex64)
        st_.put("k", a)
        got = st_.get("k")
        assert isinstance(got, np.ndarray)
        assert not got.flags.writeable
        assert st_.get("k") is got  # zero-copy: the stored array itself
        np.testing.assert_array_equal(got, a)

    def test_put_detaches_from_caller_buffer(self, rng):
        from repro.kvstore import ArrayStore

        st_ = ArrayStore()
        a = np.ones(4, dtype=np.float32)
        st_.put("k", a)
        a[:] = 7.0
        np.testing.assert_array_equal(st_.get("k"), np.ones(4, dtype=np.float32))

    def test_put_detaches_even_from_an_immutable_source(self, rng):
        """``put`` never adopts the caller's array, read-only or not — only
        ``from_state`` may share (below)."""
        from repro.kvstore import ArrayStore

        a = rng.standard_normal(4).astype(np.float32)
        a.setflags(write=False)
        st_ = ArrayStore()
        st_.put("k", a)
        assert not np.shares_memory(st_.get("k"), a)

    def test_from_state_shares_immutable_values_and_copies_the_rest(self, rng):
        """A state tree's value that is read-only and owns its buffer is
        what a store already holds: ``from_state`` shares it (a tier
        handing partitions to a job moves no value bytes).  A writable
        array, or a read-only *view* of someone's writable buffer, is
        copied — mutating the source afterwards cannot change a stored
        value."""
        from repro.kvstore import ArrayStore

        live = ArrayStore()
        for key in range(3):
            live.put(key, rng.standard_normal((2, 3)).astype(np.complex64))
        state = live.state_dict()
        writable = np.ones(4, dtype=np.float32)
        base = np.full(6, 2.0, dtype=np.float32)
        borrowed = base[1:5]
        borrowed.setflags(write=False)
        strided = np.asfortranarray(rng.standard_normal((3, 2)))
        strided.setflags(write=False)
        state["keys"] += [["s", "writable"], ["s", "borrowed"], ["s", "strided"]]
        state["vals"] += [writable, borrowed, strided]
        state["heat_last"] += [0.0] * 3
        state["heat_hits"] += [0] * 3

        restored = ArrayStore.from_state(state)
        for key in range(3):
            assert np.shares_memory(restored.get(key), live.get(key))
            assert restored.get(key) is live.get(key)
        for key, source in (("writable", writable), ("borrowed", base),
                            ("strided", strided)):
            got = restored.get(key)
            assert not np.shares_memory(got, source)
            assert not got.flags.writeable and got.flags.c_contiguous
        writable[:] = 9.0
        base[:] = 9.0
        np.testing.assert_array_equal(restored.get("writable"), np.ones(4, np.float32))
        np.testing.assert_array_equal(restored.get("borrowed"), np.full(4, 2.0, np.float32))
        np.testing.assert_array_equal(restored.get("strided"), strided)
        assert restored.nbytes == sum(
            encoded_nbytes(v) for v in state["vals"]
        )

    def test_non_array_rejected(self):
        from repro.kvstore import ArrayStore

        with pytest.raises(TypeError):
            ArrayStore().put("k", b"bytes")

    def test_accounting_matches_serialized_kvstore(self, rng):
        """Every byte counter must equal a KVStore holding encode_array
        payloads of the same values — the property that keeps the traffic
        figures identical across value modes."""
        from repro.kvstore import ArrayStore

        arrays = [
            rng.standard_normal((4, 3)).astype(np.complex64),
            rng.standard_normal(7).astype(np.float32),
            rng.standard_normal((2, 2, 2)),
        ]
        st_a, st_b = ArrayStore(), KVStore()
        for i, a in enumerate(arrays):
            st_a.put(i, a)
            st_b.put(i, encode_array(a))
        st_a.get(0)
        st_b.get(0)
        st_a.get(99)
        st_b.get(99)
        assert st_a.nbytes == st_b.nbytes
        assert st_a.stats == st_b.stats
        st_a.delete(1)
        st_b.delete(1)
        assert st_a.nbytes == st_b.nbytes

    def test_eviction_by_encoded_size(self, rng):
        from repro.kvstore import ArrayStore

        a = rng.standard_normal(8).astype(np.float32)
        cap = 2 * encoded_nbytes(a) + 1
        st_ = ArrayStore(capacity_bytes=cap)
        st_.put(0, a)
        st_.put(1, a)
        st_.put(2, a)  # must evict the FIFO-oldest entry
        assert st_.stats.evictions == 1
        assert 0 not in st_ and 1 in st_ and 2 in st_

    def test_oversized_value_rejected(self, rng):
        from repro.kvstore import ArrayStore

        a = rng.standard_normal(100).astype(np.float64)
        with pytest.raises(ValueError):
            ArrayStore(capacity_bytes=64).put("k", a)
