"""Remote-transport overhead: loopback TCP vs the in-process shard router.

The baseline is the in-process ``MemoShardRouter`` servicing one coalesced
key batch; the "optimized" side is the same batch through
``RemoteMemoClient`` -> loopback ``MemoServerDaemon`` — so the reported
"speedup" is really the *transport overhead factor* (expected < 1): what
one framed, checksummed, round-tripped message costs on top of the raw
service.  A second entry measures the pipelined insert path, where the
client does not wait for acknowledgements and the gap narrows.
"""

from __future__ import annotations

import numpy as np

from repro.core import MemoConfig
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import MemoShardRouter, ShardInsert, ShardQuery
from repro.net import MemoServerDaemon, RemoteMemoClient

from .harness import pair_entry, time_fn

N_SHARDS = 2


def _workload(quick: bool):
    rng = np.random.default_rng(3)
    dim = 64
    n_locations = 16
    per_loc = 8 if quick else 32
    batch = 32 if quick else 128
    value_shape = (8, 16, 16) if quick else (16, 32, 32)
    value = (
        rng.standard_normal(value_shape) + 1j * rng.standard_normal(value_shape)
    ).astype(np.complex64)
    inserts = [
        ShardInsert(
            "Fu1D", loc,
            rng.standard_normal(dim).astype(np.float32), value,
            meta=(1.0, 0j),
        )
        for loc in range(n_locations)
        for _ in range(per_loc)
    ]
    probes = [
        ShardQuery(
            "Fu1D",
            int(rng.integers(0, n_locations)),
            inserts[int(rng.integers(0, len(inserts)))].key
            + 1e-4 * rng.standard_normal(dim).astype(np.float32),
        )
        for _ in range(batch)
    ]
    return inserts, probes


def _memo() -> MemoConfig:
    return MemoConfig(tau=0.9, index_train_min=32)


def run(quick: bool = True, repeat: int = 5) -> dict:
    inserts, probes = _workload(quick)
    local = MemoShardRouter(N_SHARDS, make_db_factory(_memo()))
    local.insert_batch(inserts)

    out: dict = {}
    with MemoServerDaemon(n_shards=N_SHARDS, memo=_memo()) as daemon:
        client = RemoteMemoClient(daemon.address, expect_tau=_memo().tau)
        client.insert_batch(inserts)
        client.flush()

        # sanity: the wire answers bit-identically before we time it
        for a, b in zip(local.query_batch(probes), client.query_batch(probes)):
            assert a.hit == b.hit and a.similarity == b.similarity

        inproc = time_fn(lambda: local.query_batch(probes), repeat=repeat)
        tcp = time_fn(lambda: client.query_batch(probes), repeat=repeat)
        per_query_us = (tcp.best_s - inproc.best_s) / len(probes) * 1e6
        out["net_query_batch_roundtrip"] = pair_entry(
            inproc, tcp,
            note="baseline=inproc router, optimized=loopback tcp; "
                 "'speedup'<1 is the transport overhead factor",
            batch=len(probes),
            overhead_x=tcp.best_s / inproc.best_s if inproc.best_s else None,
            overhead_us_per_query=per_query_us,
        )

        insert_sample = inserts[: len(probes)]
        inproc_ins = time_fn(lambda: local.insert_batch(insert_sample),
                             repeat=repeat)
        tcp_ins = time_fn(lambda: client.insert_batch(insert_sample),
                          repeat=repeat)
        client.flush()
        out["net_insert_batch_pipelined"] = pair_entry(
            inproc_ins, tcp_ins,
            note="pipelined insert: the client returns without awaiting the "
                 "ack, so the wire cost is encode+send only",
            batch=len(insert_sample),
            overhead_x=(
                tcp_ins.best_s / inproc_ins.best_s if inproc_ins.best_s else None
            ),
        )

        client.close()
    return out
