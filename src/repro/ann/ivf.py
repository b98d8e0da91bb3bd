"""Cluster-based (inverted-file) approximate nearest-neighbor index.

This is the Faiss ``IVFFlat`` structure the paper picks for the memoization
index database: "We use the cluster-based ANN in Faiss because it allows
dynamic insertion with minimal overhead compared to the graph-based ANN,
which incurs high reconstruction costs."  A k-means coarse quantizer
partitions key space; each cluster owns an inverted list of vectors;
queries scan the ``nprobe`` nearest clusters.  Inserts append to one list —
O(1), no restructuring — which is the property mLR relies on.

Inverted lists are growable contiguous buffers with squared norms
maintained at insert time (:class:`~repro.ann.buffer.GrowableRows`), so the
candidate scan of a query is pure vector arithmetic over contiguous memory
— the per-query ``np.stack`` over a Python list (an O(list) copy per probe)
is gone.

The list rows are the index's working copy, not its state: ``state_dict``
carries the centroids and each list's ids, and ``from_state`` regathers the
rows from the matrix its owner keeps (a memo partition's key column), so a
serialized partition holds every vector once.
"""

from __future__ import annotations

import numpy as np

from .buffer import GrowableRows
from .kmeans import kmeans

__all__ = ["IVFFlatIndex"]


class IVFFlatIndex:
    """IVF-Flat ANN index with dynamic insertion and batched search."""

    def __init__(self, dim: int, n_clusters: int = 16, nprobe: int = 2) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if not (1 <= nprobe):
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.dim = dim
        self.n_clusters = n_clusters
        self.nprobe = min(nprobe, n_clusters)
        self.centroids: np.ndarray | None = None
        self._cent_norms2: np.ndarray | None = None
        self._lists: list[GrowableRows] = []
        self._list_norms2: list[GrowableRows] = []
        self._list_ids: list[GrowableRows] = []
        self._next_id = 0
        self.n_distance_computations = 0

    # -- lifecycle -------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self.centroids is not None

    def __len__(self) -> int:
        return sum(len(lst) for lst in self._list_ids)

    def train(self, samples: np.ndarray, seed: int = 0) -> None:
        """Fit the coarse quantizer on representative key vectors."""
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float32))
        if samples.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {samples.shape[1]}")
        k = min(self.n_clusters, samples.shape[0])
        centers, _ = kmeans(samples, k, seed=seed)
        self.n_clusters = k
        self.nprobe = min(self.nprobe, k)
        self.centroids = centers.astype(np.float32)
        self._cent_norms2 = np.sum(self.centroids**2, axis=1)
        self._new_lists()

    def _new_lists(self) -> None:
        k = self.n_clusters
        self._lists = [GrowableRows((self.dim,), np.float32) for _ in range(k)]
        self._list_norms2 = [GrowableRows((), np.float32) for _ in range(k)]
        self._list_ids = [GrowableRows((), np.int64) for _ in range(k)]

    # -- snapshot hooks ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Restorable state — valid both before and after training — minus
        the vectors, which the owner of the index keeps (once).

        An untrained index (the coarse quantizer not yet fitted) serializes
        as configuration only; a trained one carries the centroids and every
        inverted list's ids, in list order.
        """
        state = {
            "dim": self.dim,
            "n_clusters": self.n_clusters,
            "nprobe": self.nprobe,
            "ndis": self.n_distance_computations,
            "trained": self.is_trained,
        }
        if self.is_trained:
            state["centroids"] = np.array(self.centroids, copy=True)
            state["list_ids"] = [np.array(ids.view, copy=True) for ids in self._list_ids]
        return state

    @classmethod
    def from_state(cls, state: dict, vecs: np.ndarray) -> "IVFFlatIndex":
        """Rebuild an index that answers ``search`` bit-identically to the
        instance that produced ``state`` (training state included).

        ``vecs`` is the matrix the index was filled from, row ``i`` the
        vector of id ``i``: list rows are regathered from it and their
        squared norms recomputed (a row's norm does not depend on the batch
        it was added in).  The list ids of a trained index must partition
        ``[0, len(vecs))`` — anything else is a ``ValueError``.
        """
        ix = cls(
            int(state["dim"]),
            n_clusters=int(state["n_clusters"]),
            nprobe=int(state["nprobe"]),
        )
        if state["trained"]:
            vecs = np.asarray(vecs, dtype=np.float32)
            ix.centroids = np.asarray(state["centroids"], dtype=np.float32)
            list_ids = [np.asarray(ids, dtype=np.int64) for ids in state["list_ids"]]
            if (
                ix.centroids.shape != (ix.n_clusters, ix.dim)
                or vecs.shape != (len(vecs), ix.dim)
                or len(list_ids) != ix.n_clusters
                or not np.array_equal(
                    np.sort(np.concatenate(list_ids)), np.arange(len(vecs))
                )
            ):
                raise ValueError(
                    f"IVF state is not {ix.n_clusters} lists partitioning the "
                    f"ids [0, {len(vecs)}) of {ix.dim}-dim vectors"
                )
            ix._cent_norms2 = np.sum(ix.centroids**2, axis=1)
            ix._new_lists()
            for c, ids in enumerate(list_ids):
                rows = vecs[ids]
                ix._lists[c].extend(rows)
                ix._list_norms2[c].extend(np.sum(rows**2, axis=1))
                ix._list_ids[c].extend(ids)
            ix._next_id = len(vecs)
        ix.n_distance_computations = int(state["ndis"])
        return ix

    # -- insertion ---------------------------------------------------------------------

    def add(self, vecs: np.ndarray) -> np.ndarray:
        """Dynamic insertion: O(1) append to the nearest cluster's list.
        Returns the ids given — dense, in insertion order from 0."""
        if not self.is_trained:
            raise RuntimeError("index must be trained before adding vectors")
        vecs = np.atleast_2d(np.asarray(vecs, dtype=np.float32))
        ids = np.arange(self._next_id, self._next_id + len(vecs), dtype=np.int64)
        self._next_id += len(vecs)
        cl = self._nearest_clusters(vecs, 1)[:, 0]
        norms2 = np.sum(vecs**2, axis=1)
        if len(vecs) == 1:
            c = int(cl[0])
            self._lists[c].append(vecs[0])
            self._list_norms2[c].append(norms2[0])
            self._list_ids[c].append(ids[0])
        else:
            for c in np.unique(cl):
                mask = cl == c  # mask indexing preserves input order in-cluster
                self._lists[c].extend(vecs[mask])
                self._list_norms2[c].extend(norms2[mask])
                self._list_ids[c].extend(ids[mask])
        return ids

    # -- search -----------------------------------------------------------------------

    def _nearest_clusters(self, queries: np.ndarray, n: int) -> np.ndarray:
        d = (
            np.sum(queries**2, axis=1)[:, None]
            - 2.0 * queries @ self.centroids.T
            + self._cent_norms2[None, :]
        )
        self.n_distance_computations += d.size
        return np.argsort(d, axis=1)[:, :n]

    def search(self, queries: np.ndarray, k: int = 1):
        """Batched ``nprobe`` search; returns Euclidean ``(distances, ids)``.

        Batching queries amortizes the centroid scan — the benefit the
        paper's key-coalescing optimization exploits ("batched lookup in the
        index database") — and the candidate scan runs as **one** GEMM of
        all queries against the union of their probed inverted lists, with
        non-probed (query, candidate) pairs masked out.  The distance
        counter still reflects only the probed pairs, mirroring Faiss'
        ``ndis`` semantics.
        """
        if not self.is_trained:
            raise RuntimeError("index must be trained before searching")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        nq = queries.shape[0]
        dists = np.full((nq, k), np.inf, dtype=np.float32)
        ids = np.full((nq, k), -1, dtype=np.int64)
        probes = self._nearest_clusters(queries, self.nprobe)
        probed_union = [int(c) for c in np.unique(probes) if len(self._lists[c])]
        if not probed_union:
            return dists, ids
        if nq == 1:
            # lean single-query path (the scalar `MemoDatabase.query` shape):
            # same candidates in the same (sorted-union) order, no masking
            if len(probed_union) == 1:
                c = probed_union[0]
                cand = self._lists[c].view
                cn2 = self._list_norms2[c].view
                cand_ids = self._list_ids[c].view
            else:
                cand = np.concatenate([self._lists[c].view for c in probed_union])
                cn2 = np.concatenate([self._list_norms2[c].view for c in probed_union])
                cand_ids = np.concatenate(
                    [self._list_ids[c].view for c in probed_union]
                )
            q = queries[0]
            d2 = np.maximum(cn2 - 2.0 * (cand @ q) + np.sum(q**2), 0.0)
            self.n_distance_computations += d2.size
            kk = min(k, d2.shape[0])
            order = np.argsort(d2)[:kk]
            dists[0, :kk] = np.sqrt(d2[order])
            ids[0, :kk] = cand_ids[order]
            return dists, ids
        if len(probed_union) == 1:  # zero-copy views when one list serves all
            c = probed_union[0]
            cand = self._lists[c].view
            cn2 = self._list_norms2[c].view
            cand_ids = self._list_ids[c].view
        else:
            cand = np.concatenate([self._lists[c].view for c in probed_union])
            cn2 = np.concatenate([self._list_norms2[c].view for c in probed_union])
            cand_ids = np.concatenate([self._list_ids[c].view for c in probed_union])
        cluster_of = np.repeat(
            probed_union, [len(self._lists[c]) for c in probed_union]
        )
        probe_mask = np.zeros((nq, self.n_clusters), dtype=bool)
        probe_mask[np.arange(nq)[:, None], probes] = True
        mask = probe_mask[:, cluster_of]  # (nq, ncand): probed pairs only
        d2 = np.maximum(
            np.sum(queries**2, axis=1)[:, None]
            - 2.0 * queries @ cand.T
            + cn2[None, :],
            0.0,
        )
        self.n_distance_computations += int(np.count_nonzero(mask))
        d2 = np.where(mask, d2, np.inf)
        kk = min(k, cand.shape[0])
        order = np.argsort(d2, axis=1)[:, :kk]
        best = np.take_along_axis(d2, order, axis=1)
        found = np.isfinite(best)
        dists[:, :kk] = np.where(found, np.sqrt(np.where(found, best, 0.0)), np.inf)
        ids[:, :kk] = np.where(found, cand_ids[order], -1)
        return dists, ids
