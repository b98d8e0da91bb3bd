"""Snapshot layer: versioned on-disk round trips, bit-identical restores."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.ann import IVFFlatIndex
from repro.core import CNNKeyEncoder, MemoDatabase
from repro.kvstore import KVStore, encode_array
from repro.kvstore.serialization import encode_tree
from repro.nn import ChunkEncoder
from repro.service import SNAPSHOT_VERSION, SnapshotError, read_snapshot, write_snapshot

# the file layout, as the module docstring of repro.service.snapshot gives it
HEADER = struct.Struct("<8sH32sQ32s")  # magic, version, kind, length, sha256


def through_disk(path, obj, kind: str, *inputs):
    """``obj`` rebuilt from its own state tree after a disk round trip
    (``inputs``: what its ``from_state`` takes besides the tree)."""
    write_snapshot(path, obj.state_dict(), kind=kind)
    return type(obj).from_state(read_snapshot(path, expect_kind=kind), *inputs)


def rewrite_header(path, **fields) -> None:
    """Overwrite named header fields of the snapshot under ``path``."""
    target = path / "snapshot.mlr"
    raw = target.read_bytes()
    names = ("magic", "version", "kind", "length", "sha256")
    header = dict(zip(names, HEADER.unpack_from(raw)))
    header.update(fields)
    target.write_bytes(HEADER.pack(*(header[n] for n in names)) + raw[HEADER.size:])


def rand_keys(n: int, dim: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)


def outcomes_equal(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.similarity == y.similarity
        assert x.matched_id == y.matched_id
        assert x.n_entries == y.n_entries
        assert (x.value is None) == (y.value is None)
        assert x.stored_meta == y.stored_meta
        if x.value is not None:
            assert x.value.dtype == y.value.dtype
            assert np.array_equal(x.value, y.value)


# -- the container format ---------------------------------------------------------------


class TestContainer:
    def test_round_trip_preserves_structure(self, tmp_path):
        tree = {
            "i": 3,
            "f": 0.1,
            "s": "x",
            "none": None,
            "flag": True,
            "arr": np.arange(6, dtype=np.complex64).reshape(2, 3),
            "blob": b"\x00\x01\xff",
            "nested": {"list": [1, {"a": np.ones(2, dtype=np.float32)}, "z"]},
        }
        write_snapshot(tmp_path / "s", tree, kind="test")
        back = read_snapshot(tmp_path / "s", expect_kind="test")
        assert back["i"] == 3 and back["f"] == 0.1 and back["s"] == "x"
        assert back["none"] is None and back["flag"] is True
        assert back["arr"].dtype == np.complex64
        assert np.array_equal(back["arr"], tree["arr"])
        assert back["blob"] == b"\x00\x01\xff"
        assert np.array_equal(back["nested"]["list"][1]["a"], np.ones(2))

    def test_kind_and_version_checked(self, tmp_path):
        write_snapshot(tmp_path / "s", {"x": 1}, kind="test")
        with pytest.raises(SnapshotError, match="kind"):
            read_snapshot(tmp_path / "s", expect_kind="other")
        rewrite_header(tmp_path / "s", version=99)
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(tmp_path / "s")

    def test_pre_v3_manifest_directory_is_an_unsupported_version(self, tmp_path):
        """No reader is kept for the manifest + npz formats: such a
        directory is refused by version, as a v1 directory always was."""
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "manifest.json").write_text('{"version": 2}')
        with pytest.raises(SnapshotError, match="unsupported snapshot version"):
            read_snapshot(tmp_path / "old")

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            read_snapshot(tmp_path / "nope")

    def test_corruption_detected(self, tmp_path):
        write_snapshot(tmp_path / "s", {"arr": np.arange(128.0)}, kind="test")
        rewrite_header(tmp_path / "s", sha256=b"\0" * 32)
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(tmp_path / "s")

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="unserializable"):
            write_snapshot(tmp_path / "s", {"bad": object()}, kind="test")
        assert not os.path.exists(tmp_path / "s")  # refused before touching disk

    def test_header_reports_what_was_written(self, tmp_path):
        header = write_snapshot(tmp_path / "s", {"x": np.arange(4)}, kind="test")
        size = os.path.getsize(tmp_path / "s" / "snapshot.mlr")
        assert header["version"] == SNAPSHOT_VERSION and header["kind"] == "test"
        assert header["nbytes"] == size - HEADER.size

    def test_a_snapshot_directory_holds_one_file(self, tmp_path):
        write_snapshot(tmp_path / "s", {"x": 1}, kind="test")
        write_snapshot(tmp_path / "s", {"x": 2}, kind="test")  # and a rewrite
        assert os.listdir(tmp_path / "s") == ["snapshot.mlr"]


# -- ANN indexes ------------------------------------------------------------------------


class TestIndexRoundTrips:
    dim = 12

    def queries(self):
        return rand_keys(9, self.dim, seed=99)

    def assert_search_identical(self, live, restored, k=3):
        d1, i1 = live.search(self.queries(), k=k)
        d2, i2 = restored.search(self.queries(), k=k)
        assert np.array_equal(d1, d2) and d1.dtype == d2.dtype
        assert np.array_equal(i1, i2)

    def test_ivf_trained(self, tmp_path):
        ix = IVFFlatIndex(self.dim, n_clusters=5, nprobe=2)
        ix.train(rand_keys(50, self.dim, seed=1))
        vecs = rand_keys(80, self.dim, seed=2)
        for lo, hi in ((0, 1), (1, 30), (30, 31), (31, 80)):  # mixed batch sizes
            ix.add(vecs[lo:hi])
        restored = through_disk(tmp_path / "ix", ix, "ann-index", vecs)
        assert restored.is_trained and len(restored) == len(ix)
        assert np.array_equal(restored.centroids, ix.centroids)
        for mine, theirs in zip(restored.state_dict()["list_ids"], ix.state_dict()["list_ids"]):
            assert np.array_equal(mine, theirs)
        # the list rows are regathered and their norms recomputed: same bits
        # as the ones kept incrementally, whatever batch a row arrived in
        for c in range(ix.n_clusters):
            assert np.array_equal(restored._lists[c].view, ix._lists[c].view)
            assert np.array_equal(restored._list_norms2[c].view, ix._list_norms2[c].view)
            assert np.array_equal(restored._list_ids[c].view, ix._list_ids[c].view)
        self.assert_search_identical(ix, restored)
        # dynamic insertion continues identically (same ids, same lists)
        more = rand_keys(7, self.dim, seed=3)
        assert np.array_equal(ix.add(more), restored.add(more))
        self.assert_search_identical(ix, restored)

    def test_ivf_untrained_mid_training(self, tmp_path):
        """An IVF snapshotted before its quantizer is trained restores as
        untrained and trains later exactly like the live instance."""
        ix = IVFFlatIndex(self.dim, n_clusters=4, nprobe=2)
        restored = through_disk(tmp_path / "ix", ix, "ann-index",
                                np.zeros((0, self.dim), dtype=np.float32))
        assert not restored.is_trained
        with pytest.raises(RuntimeError):
            restored.search(self.queries())
        samples = rand_keys(30, self.dim, seed=4)
        ix.train(samples)
        restored.train(samples)
        assert np.array_equal(ix.centroids, restored.centroids)
        added = rand_keys(20, self.dim, seed=5)
        ix.add(added)
        restored.add(added)
        self.assert_search_identical(ix, restored)

    def test_the_state_holds_no_vectors(self):
        ix = IVFFlatIndex(self.dim, n_clusters=3, nprobe=2)
        ix.train(rand_keys(20, self.dim, seed=1))
        ix.add(rand_keys(20, self.dim, seed=1))
        state = ix.state_dict()
        assert set(state) == {"dim", "n_clusters", "nprobe", "ndis", "trained",
                              "centroids", "list_ids"}
        assert [ids.dtype for ids in state["list_ids"]] == [np.int64] * 3
        assert sorted(np.concatenate(state["list_ids"]).tolist()) == list(range(20))


# -- key-value stores -------------------------------------------------------------------


class TestStoreRoundTrips:
    def test_lru_store_with_traffic(self):
        store = KVStore(capacity_bytes=4096, eviction="lru")
        store.put(1, np.arange(3, dtype=np.uint8))
        store.put(2, np.full(10, 7, dtype=np.uint8))
        store.get(1)
        store.get(404)
        restored = KVStore.from_state(store.state_dict())
        assert restored.keys() == store.keys() == [2, 1]
        assert restored.nbytes == store.nbytes
        assert (restored.capacity_bytes, restored.eviction) == (4096, "lru")
        assert restored.stats == store.stats
        assert np.array_equal(restored.get(1), np.arange(3, dtype=np.uint8))
        assert np.array_equal(restored.get(2), np.full(10, 7, dtype=np.uint8))
        assert restored.stats.hits == store.stats.hits + 2

    def test_restored_values_read_only(self):
        store = KVStore()
        a = np.arange(6, dtype=np.complex64).reshape(2, 3)
        store.put(0, a)
        restored = KVStore.from_state(store.state_dict())
        got = restored.get(0)
        assert np.array_equal(got, a) and got.dtype == a.dtype
        assert not got.flags.writeable
        assert restored.nbytes == store.nbytes == len(encode_array(a))

    def test_eviction_order_preserved(self):
        """Entry order *is* the FIFO eviction order; a restored store must
        evict the same ids the live one would."""
        payload = np.zeros(10, dtype=np.uint8)
        live = KVStore(capacity_bytes=3 * len(encode_array(payload)))
        for k in range(3):
            live.put(k, payload)
        restored = KVStore.from_state(live.state_dict())
        live.put(99, payload)
        restored.put(99, payload)
        assert live.keys() == restored.keys() == [1, 2, 99]


# -- the INT8-quantized key encoder -----------------------------------------------------


class TestEncoderRoundTrip:
    def test_quantized_cnn_encoder(self, tmp_path):
        enc = CNNKeyEncoder(ChunkEncoder(input_hw=8, embed_dim=10, seed=5),
                            quantized=True)
        restored = through_disk(tmp_path / "enc", enc, "key-encoder")
        assert restored.quantized and restored.dim == enc.dim
        rng = np.random.default_rng(2)
        chunk = (rng.standard_normal((3, 8, 8))
                 + 1j * rng.standard_normal((3, 8, 8))).astype(np.complex64)
        assert np.array_equal(enc.encode(chunk), restored.encode(chunk))
        # the INT8 tensors are a deterministic function of the float weights
        for (k1, _m1, w1, b1), (k2, _m2, w2, b2) in zip(
            enc._enc._layers, restored._enc._layers
        ):
            assert k1 == k2
            if w1 is not None:
                assert np.array_equal(w1.q, w2.q) and w1.scale == w2.scale
                assert np.array_equal(b1, b2)

    def test_float_encoder_flag(self, tmp_path):
        enc = CNNKeyEncoder(ChunkEncoder(input_hw=8, embed_dim=6, seed=1),
                            quantized=False)
        assert not through_disk(tmp_path / "enc", enc, "key-encoder").quantized


# -- the memoization database -----------------------------------------------------------


def populated_db(n: int, dim: int = 8, train_min: int = 6):
    rng = np.random.default_rng(7)
    db = MemoDatabase(dim=dim, tau=0.9, index_clusters=3, index_nprobe=2,
                      train_min=train_min)
    for i in range(n):
        k = rng.standard_normal(dim).astype(np.float32)
        v = (rng.standard_normal((3, 4))
             + 1j * rng.standard_normal((3, 4))).astype(np.complex64)
        meta = (float(np.abs(k).sum()), complex(rng.standard_normal(),
                                                rng.standard_normal()))
        db.insert(k, v, meta=meta if i % 3 else None)
    return db


def probe_keys(db: MemoDatabase, dim: int = 8):
    rng = np.random.default_rng(13)
    probes = list(np.array(db._keys.view, copy=True))
    probes += [k + rng.normal(0, 1e-3, k.shape).astype(np.float32)
               for k in probes[:6]]
    probes += [rng.standard_normal(dim).astype(np.float32) for _ in range(6)]
    probes.append(np.zeros(dim, dtype=np.float32))
    return probes


class TestDatabaseRoundTrips:
    def test_trained_db_bit_identical(self, tmp_path):
        db = populated_db(n=25)
        assert db.index.is_trained
        restored = through_disk(tmp_path / "db", db, "memo-database")
        assert len(restored) == len(db)
        assert db.stats.as_dict() == restored.stats.as_dict()
        probes = probe_keys(db)
        outcomes_equal(db.query_batch(probes), restored.query_batch(probes))
        outcomes_equal([db.query(k) for k in probes[:5]],
                       [restored.query(k) for k in probes[:5]])
        assert db.stats.as_dict() == restored.stats.as_dict()
        assert sum(o.hit for o in restored.query_batch(probes[:len(db._keys)])) > 0

    @pytest.mark.parametrize("n", [25, 4])  # trained, cold
    def test_the_state_holds_every_key_once_in_arrays(self, n):
        """One table: besides ``keys`` the only array with ``dim`` columns
        is the index's centroids, and no per-entry python list or boxed
        scalar remains — ids, heat and metadata are arrays of length n."""
        db = populated_db(n=n, train_min=6)
        assert db.index.is_trained == (n == 25)
        state = db.state_dict()
        with_dim_columns, per_entry_lists = [], []

        def walk(node, path):
            if isinstance(node, dict):
                for key, child in node.items():
                    walk(child, f"{path}.{key}")
            elif isinstance(node, list):
                if len(node) == n and path != "db.values.vals":
                    per_entry_lists.append(path)
                for i, child in enumerate(node):
                    walk(child, f"{path}[{i}]")
            elif isinstance(node, np.ndarray) and node.ndim == 2 and node.shape[1] == db.dim:
                with_dim_columns.append(path)

        walk(state, "db")
        assert with_dim_columns == (
            ["db.index.centroids", "db.keys"] if db.index.is_trained else ["db.keys"]
        )
        assert per_entry_lists == []
        for column, dtype in (("key_ids", np.int64), ("meta_has", np.uint8),
                              ("meta_ac", np.float64), ("meta_dc", np.complex128)):
            assert state[column].shape == (n,) and state[column].dtype == dtype
        assert state["keys"].shape == (n, db.dim) and state["keys"].dtype == np.float32
        values = state["values"]
        assert values["ids"].tolist() == list(range(n)) == state["key_ids"].tolist()
        assert values["heat_last"].shape == values["heat_hits"].shape == (n,)
        assert len(values["vals"]) == n
        assert all(isinstance(v, np.ndarray) for v in values["vals"])

    def test_mid_training_db_bit_identical(self, tmp_path):
        """Snapshotted before the IVF quantizer trains: the cold scan
        must answer identically, and later training must proceed
        identically."""
        db = populated_db(n=4, train_min=32)
        assert not db.index.is_trained and len(db._keys) == 4
        restored = through_disk(tmp_path / "db", db, "memo-database")
        assert not restored.index.is_trained
        assert len(restored._keys) == len(db._keys)
        probes = probe_keys(db)
        outcomes_equal(db.query_batch(probes), restored.query_batch(probes))
        # inserting up to train_min trains both identically
        rng = np.random.default_rng(3)
        items = [
            (rng.standard_normal(8).astype(np.float32),
             np.ones((2, 2), dtype=np.complex64), None)
            for _ in range(40)
        ]
        assert db.insert_batch(items) == restored.insert_batch(items)
        assert db.index.is_trained and restored.index.is_trained
        outcomes_equal(db.query_batch(probes), restored.query_batch(probes))

    @pytest.mark.parametrize("n", [25, 4])  # trained, cold
    def test_restored_columns_are_the_trees_and_stay_untouched(self, n, monkeypatch):
        """Like the values, the key and metadata columns cross
        ``from_state`` by reference: a restored partition is full, so its
        first insert moves to buffers of its own and neither the tree nor a
        second partition restored from it ever changes."""
        monkeypatch.setattr("repro.kvstore.store._heat_clock", lambda: 1000.0)
        db = populated_db(n=n)
        state = db.state_dict()
        frozen = encode_tree(state)
        a, b = MemoDatabase.from_state(state), MemoDatabase.from_state(state)
        assert np.shares_memory(a._keys.view, state["keys"])
        probes = probe_keys(db)
        item = (np.ones(8, dtype=np.float32), np.ones(2, dtype=np.complex64), (1.0, 2j))
        assert a.insert_batch([item] * 9) == db.insert_batch([item] * 9)
        outcomes_equal(a.query_batch(probes), db.query_batch(probes))
        assert encode_tree(a.state_dict()) == encode_tree(db.state_dict())
        assert encode_tree(state) == frozen
        assert encode_tree(b.state_dict()) == frozen

    def test_empty_db_round_trip(self, tmp_path):
        db = MemoDatabase(dim=8, tau=0.92)
        restored = through_disk(tmp_path / "db", db, "memo-database")
        assert len(restored) == 0
        probes = [np.ones(8, dtype=np.float32), np.zeros(8, dtype=np.float32)]
        outcomes_equal(db.query_batch(probes), restored.query_batch(probes))
        assert all(not o.hit for o in restored.query_batch(probes))

    def test_opaque_meta_rejected(self):
        """Reuse metadata is a column: ``None`` or an ``(ac, dc)`` pair,
        refused at insert before anything is stored."""
        db = MemoDatabase(dim=4, tau=0.9)
        with pytest.raises(TypeError, match="pair"):
            db.insert(np.ones(4, dtype=np.float32), np.ones(2, dtype=np.complex64),
                      meta=object())
        assert len(db) == 0 and len(db.state_dict()["keys"]) == 0
