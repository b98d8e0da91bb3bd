"""Memoization-service throughput: one batched message vs one key per message.

Both sides run against the same kind of database (the zero-copy array
value store): the baseline is the pre-batching service shape — a Python
loop of one-key ``query`` / ``insert`` messages — and the optimized path is
one ``query_batch`` / ``insert_batch`` message, the exact service path the
memoized executor drives.
"""

from __future__ import annotations

import numpy as np

from repro.core import MemoDatabase

from .harness import pair_entry, time_fn


def _workload(quick: bool):
    rng = np.random.default_rng(1)
    dim = 64
    n_entries = 256 if quick else 1024
    batch = 64 if quick else 256
    value_shape = (16, 32, 32)  # ~128 KB complex64 chunk output
    keys = rng.standard_normal((n_entries, dim)).astype(np.float32)
    value = (
        rng.standard_normal(value_shape) + 1j * rng.standard_normal(value_shape)
    ).astype(np.complex64)
    # queries: half near-duplicates of stored keys (hits), half fresh (misses)
    probes = np.concatenate(
        [
            keys[rng.integers(0, n_entries, size=batch // 2)]
            + 1e-4 * rng.standard_normal((batch // 2, dim)).astype(np.float32),
            rng.standard_normal((batch - batch // 2, dim)).astype(np.float32),
        ]
    ).astype(np.float32)
    return dim, keys, value, probes


def run(quick: bool = True, repeat: int = 5) -> dict:
    dim, keys, value, probes = _workload(quick)
    db = MemoDatabase(dim=dim, tau=0.9, train_min=32)
    db.insert_batch([(k, value, None) for k in keys])
    probe_list = list(probes)

    def scalar_query_loop():
        for k in probe_list:
            db.query(k)

    def batched_query():
        db.query_batch(probe_list)

    # sanity: both paths agree on hit/miss before we time them
    scalar_out = [db.query(k) for k in probe_list]
    batch_out = db.query_batch(probe_list)
    assert [o.hit for o in scalar_out] == [o.hit for o in batch_out]
    assert any(o.hit for o in batch_out)

    query = pair_entry(
        time_fn(scalar_query_loop, repeat=repeat),
        time_fn(batched_query, repeat=repeat),
        batch=len(probe_list),
        value_nbytes=int(value.nbytes),
    )

    ins_items = [(k, value, None) for k in probes]

    def scalar_insert_loop():
        fresh = MemoDatabase(dim=dim, tau=0.9, train_min=32)
        for k, v, m in ins_items:
            fresh.insert(k, v, meta=m)

    def batched_insert():
        MemoDatabase(dim=dim, tau=0.9, train_min=32).insert_batch(ins_items)

    insert = pair_entry(
        time_fn(scalar_insert_loop, repeat=repeat),
        time_fn(batched_insert, repeat=repeat),
        batch=len(ins_items),
        value_nbytes=int(value.nbytes),
    )
    return {"memo_query_batch": query, "memo_insert_batch": insert}
