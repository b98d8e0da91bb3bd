"""Flat / IVF index behavior and recall guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import FlatIndex, IVFFlatIndex


def dataset(rng, n=200, dim=8):
    return rng.standard_normal((n, dim)).astype(np.float32)


class TestFlat:
    def test_empty_search(self):
        idx = FlatIndex(4)
        d, i = idx.search(np.zeros((1, 4)), k=3)
        assert np.all(np.isinf(d)) and np.all(i == -1)

    def test_exact_nearest(self, rng):
        vecs = dataset(rng)
        idx = FlatIndex(8)
        idx.add(vecs)
        q = vecs[17] + 0.001
        d, i = idx.search(q, k=1)
        assert i[0, 0] == 17

    def test_k_larger_than_index(self, rng):
        idx = FlatIndex(4)
        idx.add(rng.standard_normal((2, 4)).astype(np.float32))
        assert len(idx) == 2
        d, i = idx.search(np.zeros((1, 4)), k=5)
        assert (i[0, :2] >= 0).all() and (i[0, 2:] == -1).all()

    def test_custom_ids(self, rng):
        idx = FlatIndex(4)
        vecs = dataset(rng, n=3, dim=4)
        idx.add(vecs, ids=np.array([100, 200, 300]))
        _, i = idx.search(vecs[1], k=1)
        assert i[0, 0] == 200

    def test_dim_mismatch(self, rng):
        idx = FlatIndex(4)
        with pytest.raises(ValueError):
            idx.add(rng.standard_normal((2, 5)).astype(np.float32))

    def test_distances_sorted_and_euclidean(self, rng):
        vecs = dataset(rng, n=50)
        idx = FlatIndex(8)
        idx.add(vecs)
        q = rng.standard_normal(8).astype(np.float32)
        d, i = idx.search(q, k=5)
        assert (np.diff(d[0]) >= -1e-6).all()
        np.testing.assert_allclose(
            d[0, 0], np.linalg.norm(vecs[i[0, 0]] - q), rtol=1e-4
        )


class TestIVF:
    def test_requires_training(self, rng):
        idx = IVFFlatIndex(8)
        with pytest.raises(RuntimeError):
            idx.add(dataset(rng, 4))
        with pytest.raises(RuntimeError):
            idx.search(np.zeros((1, 8)))

    def test_recall_with_full_probe(self, rng):
        """nprobe == n_clusters makes IVF exact."""
        vecs = dataset(rng, n=300)
        ivf = IVFFlatIndex(8, n_clusters=8, nprobe=8)
        ivf.train(vecs[:100])
        ivf.add(vecs)
        flat = FlatIndex(8)
        flat.add(vecs)
        q = dataset(rng, n=20)
        _, want = flat.search(q, k=1)
        _, got = ivf.search(q, k=1)
        assert (got == want).mean() == 1.0

    def test_recall_reasonable_with_small_probe(self, rng):
        vecs = dataset(rng, n=400)
        ivf = IVFFlatIndex(8, n_clusters=16, nprobe=4)
        ivf.train(vecs[:200])
        ivf.add(vecs)
        flat = FlatIndex(8)
        flat.add(vecs)
        q = dataset(rng, n=50)
        _, want = flat.search(q, k=1)
        _, got = ivf.search(q, k=1)
        assert (got == want).mean() > 0.6

    def test_dynamic_insertion_is_list_append(self, rng):
        """Adding must not restructure: list sizes only grow by the inserted
        count (the property the paper picks IVF for)."""
        vecs = dataset(rng, n=64)
        ivf = IVFFlatIndex(8, n_clusters=4)
        ivf.train(vecs)
        ivf.add(vecs[:32])
        before = [len(ids) for ids in ivf.state_dict()["list_ids"]]
        ivf.add(vecs[32:])
        after = [len(ids) for ids in ivf.state_dict()["list_ids"]]
        assert sum(after) - sum(before) == 32
        assert all(a >= b for a, b in zip(after, before))

    def test_len_counts_entries(self, rng):
        vecs = dataset(rng, n=10)
        ivf = IVFFlatIndex(8, n_clusters=2)
        ivf.train(vecs)
        assert len(ivf) == 0
        ivf.add(vecs)
        assert len(ivf) == 10

    def test_ids_returned_on_add(self, rng):
        vecs = dataset(rng, n=6)
        ivf = IVFFlatIndex(8, n_clusters=2)
        ivf.train(vecs)
        ids1 = ivf.add(vecs[:3])
        ids2 = ivf.add(vecs[3:])
        assert set(ids1) | set(ids2) == set(range(6))

    def test_more_clusters_than_samples_clamped(self, rng):
        vecs = dataset(rng, n=5)
        ivf = IVFFlatIndex(8, n_clusters=32, nprobe=32)
        ivf.train(vecs)
        assert ivf.n_clusters == 5

    def test_batched_search_fewer_centroid_scans(self, rng):
        """One batched call computes fewer distances than per-query calls —
        the effect key coalescing exploits."""
        vecs = dataset(rng, n=200)
        q = dataset(rng, n=16)
        a = IVFFlatIndex(8, n_clusters=8, nprobe=2)
        a.train(vecs[:100]); a.add(vecs)
        a.n_distance_computations = 0
        a.search(q, k=1)
        batched = a.n_distance_computations
        b = IVFFlatIndex(8, n_clusters=8, nprobe=2)
        b.train(vecs[:100]); b.add(vecs)
        b.n_distance_computations = 0
        for row in q:
            b.search(row[None], k=1)
        sequential = b.n_distance_computations
        assert batched <= sequential


class TestGrowableRows:
    """The contiguous growable buffer behind Flat/IVF and the memo pretrain."""

    def test_append_and_view(self):
        from repro.ann import GrowableRows

        g = GrowableRows((3,), np.float32, capacity=2)
        for i in range(9):  # forces several doublings
            g.append(np.full(3, i, dtype=np.float32))
        assert len(g) == 9
        np.testing.assert_array_equal(g.view[:, 0], np.arange(9, dtype=np.float32))
        assert g.view.base is not None  # a view, not a copy

    def test_scalar_rows(self):
        from repro.ann import GrowableRows

        g = GrowableRows((), np.int64, capacity=1)
        g.extend(np.arange(5))
        g.append(99)
        np.testing.assert_array_equal(g.view, [0, 1, 2, 3, 4, 99])

    def test_extend_shape_validated(self):
        from repro.ann import GrowableRows

        g = GrowableRows((4,), np.float32)
        with pytest.raises(ValueError):
            g.extend(np.zeros((2, 5), dtype=np.float32))

    def test_invalid_capacity(self):
        from repro.ann import GrowableRows

        with pytest.raises(ValueError):
            GrowableRows((2,), capacity=0)

    def test_adopted_rows_are_shared_and_never_written(self):
        from repro.ann import GrowableRows

        rows = np.arange(6, dtype=np.float32).reshape(3, 2)
        rows.setflags(write=False)  # a write through the buffer would raise
        g = GrowableRows.adopting(rows)
        assert len(g) == 3 and g.row_shape == (2,) and g.dtype == np.float32
        assert np.shares_memory(g.view, rows)  # not a copy ...
        g.append([6.0, 7.0])  # ... and full: growing moves to a fresh buffer
        g.extend(np.full((5, 2), 9, dtype=np.float32))
        assert len(g) == 9 and not np.shares_memory(g.view, rows)
        np.testing.assert_array_equal(g.view[:4].ravel(), np.arange(8))
        np.testing.assert_array_equal(rows.ravel(), np.arange(6))
        empty = GrowableRows.adopting(rows[:0])  # no rows to adopt: still grows
        empty.append([1.0, 2.0])
        assert empty.view.tolist() == [[1.0, 2.0]]


class TestIncrementalBuffers:
    """Index results must not depend on how the collection was grown."""

    def test_flat_incremental_adds_match_bulk(self, rng):
        vecs = dataset(rng, n=120)
        inc, bulk = FlatIndex(8), FlatIndex(8)
        for i in range(0, 120, 7):  # ragged increments
            inc.add(vecs[i : i + 7])
        bulk.add(vecs)
        q = dataset(rng, n=10)
        d_i, i_i = inc.search(q, k=3)
        d_b, i_b = bulk.search(q, k=3)
        np.testing.assert_array_equal(i_i, i_b)
        np.testing.assert_allclose(d_i, d_b, rtol=1e-6)

    def test_flat_distance_count_unchanged_by_growth(self, rng):
        """n_distance_computations stays nq * n_stored regardless of the
        internal buffer capacity."""
        idx = FlatIndex(8)
        idx.add(dataset(rng, n=33))
        idx.search(dataset(rng, n=5), k=2)
        assert idx.n_distance_computations == 5 * 33

    def test_ivf_incremental_adds_match_bulk(self, rng):
        vecs = dataset(rng, n=200)
        a = IVFFlatIndex(8, n_clusters=8, nprobe=8)
        b = IVFFlatIndex(8, n_clusters=8, nprobe=8)
        a.train(vecs[:100])
        b.train(vecs[:100])
        for i in range(0, 200, 11):
            a.add(vecs[i : i + 11])
        b.add(vecs)
        q = dataset(rng, n=20)
        _, ia = a.search(q, k=1)
        _, ib = b.search(q, k=1)
        np.testing.assert_array_equal(ia, ib)

    def test_ivf_single_append_fast_path(self, rng):
        vecs = dataset(rng, n=40)
        ivf = IVFFlatIndex(8, n_clusters=4, nprobe=4)
        ivf.train(vecs)
        for v in vecs:  # one-at-a-time dynamic insertion (the memo pattern)
            ivf.add(v[None])
        assert len(ivf) == 40
        _, got = ivf.search(vecs[:10], k=1)
        assert (got[:, 0] == np.arange(10)).all()
