"""Brute-force exact nearest-neighbor index (ground truth for ANN recall)."""

from __future__ import annotations

import numpy as np

from .buffer import GrowableRows

__all__ = ["FlatIndex"]


class FlatIndex:
    """Exact L2 index with incremental adds.

    The distance-computation counter mirrors Faiss' ``ndis`` statistic and is
    what the private-vs-global cache comparison of the paper measures.

    Vectors live in a growable contiguous matrix whose squared norms are
    maintained at insert time, so a search is one GEMM against the stored
    prefix — no per-query re-stacking of the collection.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._vecs = GrowableRows((dim,), np.float32)
        self._norms2 = GrowableRows((), np.float32)
        self._ids = GrowableRows((), np.int64)
        self.n_distance_computations = 0

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, vecs: np.ndarray, ids: np.ndarray | None = None) -> None:
        vecs = np.atleast_2d(np.asarray(vecs, dtype=np.float32))
        if vecs.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vecs.shape[1]}")
        start = len(self._ids)
        ids = np.arange(start, start + len(vecs)) if ids is None else np.asarray(ids)
        if len(ids) != len(vecs):
            raise ValueError("ids and vecs length mismatch")
        self._vecs.extend(vecs)
        self._norms2.extend(np.sum(vecs**2, axis=1))
        self._ids.extend(ids.astype(np.int64))

    def search(self, queries: np.ndarray, k: int = 1):
        """Return ``(distances, ids)`` of the ``k`` nearest stored vectors.

        Distances are Euclidean (not squared).  Missing neighbors (index
        smaller than ``k``) are reported as ``(inf, -1)``.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        nq = queries.shape[0]
        dists = np.full((nq, k), np.inf, dtype=np.float32)
        ids = np.full((nq, k), -1, dtype=np.int64)
        if not len(self._ids):
            return dists, ids
        mat = self._vecs.view
        d2 = (
            np.sum(queries**2, axis=1)[:, None]
            - 2.0 * queries @ mat.T
            + self._norms2.view[None, :]
        )
        self.n_distance_computations += d2.size
        kk = min(k, mat.shape[0])
        order = np.argsort(d2, axis=1)[:, :kk]
        dists[:, :kk] = np.sqrt(np.maximum(np.take_along_axis(d2, order, axis=1), 0.0))
        ids[:, :kk] = self._ids.view[order]
        return dists, ids
