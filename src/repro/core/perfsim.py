"""Trace-driven performance simulation at paper scale.

The real (scaled-down) solver produces numerics — hit/miss traces, accuracy,
convergence.  This module replays those traces on the modeled Polaris
platform (:mod:`repro.cluster`) at the paper's problem dimensions to
regenerate the timing figures:

- the chunked GPU pipeline of Figure 1 (H2D / FFT / D2H per chunk, overlap
  through separate PCIe and compute engines),
- the memoization pipeline of Figure 3 (encode, coalesced query, value
  retrieval, asynchronous insertion),
- operation cancellation/fusion variants (Figure 5, Algorithm 1 vs 2),
- multi-GPU / multi-node distribution with inter-node rechunking exchanges
  and the shared memory-node NIC as a contention point (Figures 14--16).

Everything is deterministic; no wall clocks are involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.costmodel import CostModel, ProblemDims
from ..cluster.des import Timeline
from ..cluster.topology import ClusterModel
from .memo_engine import CASE_CACHE, CASE_DB, CASE_MISS, MemoEvent
from .memo_shard import shard_of_location
from .scaling import distribute_chunks

__all__ = [
    "IterationPerf",
    "simulate_iteration",
    "memo_case_breakdown",
    "coalesce_comparison",
]

#: op phases per inner iteration for each pipeline variant
_VARIANT_OPS = {
    "alg1": ("Fu1D", "Fu2D", "F2D*", "F2D", "Fu2D*", "Fu1D*"),
    "canc": ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*"),
    "canc_fused": ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*"),
}

MEMOIZABLE = ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*")


@dataclass
class IterationPerf:
    """Timing artifacts of one simulated ADMM iteration."""

    timeline: Timeline
    cluster: ClusterModel
    lsp_time: float
    phase_durations: dict[str, float]
    op_phase_times: dict[str, float] = field(default_factory=dict)
    query_latencies: list[float] = field(default_factory=list)
    gpu_busy: float = 0.0

    @property
    def iteration_time(self) -> float:
        return self.lsp_time + sum(
            v for k, v in self.phase_durations.items() if k != "lsp"
        )

    @property
    def exposed_fraction(self) -> float:
        """Fraction of LSP wall time the GPUs sit idle (transfers/queries
        exposed on the critical path)."""
        if self.lsp_time <= 0:
            return 0.0
        per_gpu_busy = self.gpu_busy / max(1, self.cluster.n_gpus)
        return max(0.0, 1.0 - per_gpu_busy / self.lsp_time)

    def memory_nic_utilization(self) -> float:
        if self.cluster.memory_nic is None:
            return 0.0
        return self.timeline.busy_between(
            self.cluster.memory_nic, 0.0, self.lsp_time
        ) / (self.cluster.memory_nic.capacity * self.lsp_time)


def _trace_lookup(
    trace: list[MemoEvent] | None, n_paper_chunks: int, by_location: bool = False
):
    """Map (inner, op, paper-chunk) -> memoization case from a sim trace.

    The sim-scale run has fewer chunk locations than the paper-scale replay;
    paper chunk ``j`` inherits the decision of the sim chunk at the same
    relative position.

    With ``by_location=True`` the mapping scales chunk *positions* instead of
    round-robin interleaving: paper chunk ``j`` inherits sim location
    ``j * n_sim // n_paper``.  Because both scales distribute contiguous
    location blocks over workers, this preserves the worker and shard
    locality a :class:`~repro.core.memo_engine.MemoizedExecutor` trace
    carries — the mode the sharded scaling experiment replays.
    """
    if trace is None:
        return None
    if by_location:
        by_loc: dict[tuple[int, str], dict[int, str]] = {}
        # location counts are per op (Fu1D sweeps the volume axis, Fu2D the
        # detector rows), so the position scaling must be per group too
        n_sim_by: dict[tuple[int, str], int] = {}
        for ev in trace:
            key = (ev.inner, ev.op)
            by_loc.setdefault(key, {})[ev.chunk] = ev.case
            n_sim_by[key] = max(n_sim_by.get(key, 0), ev.chunk + 1)

        def lookup(inner: int, op: str, chunk: int) -> str:
            cases = by_loc.get((inner, op))
            if not cases:
                return CASE_MISS
            n_sim = n_sim_by[(inner, op)]
            sim_chunk = chunk * n_sim // max(1, n_paper_chunks)
            return cases.get(sim_chunk, CASE_MISS)

        return lookup

    by_key: dict[tuple[int, str], list[str]] = {}
    for ev in trace:
        by_key.setdefault((ev.inner, ev.op), []).append(ev.case)

    def lookup(inner: int, op: str, chunk: int) -> str:
        cases = by_key.get((inner, op))
        if not cases:
            return CASE_MISS
        # round-robin mapping interleaves the sim-scale case pattern across
        # the paper-scale chunks, so per-GPU case mixes stay balanced
        return cases[chunk % len(cases)]

    return lookup


def simulate_iteration(
    dims: ProblemDims,
    cost: CostModel | None = None,
    n_gpus: int = 1,
    variant: str = "canc_fused",
    n_inner: int = 4,
    trace: list[MemoEvent] | None = None,
    coalesce: bool = True,
    db_keys: int = 100_000,
    local_cache: bool = True,
    n_shards: int = 1,
    trace_by_location: bool = False,
) -> IterationPerf:
    """Schedule one outer ADMM iteration's LSP on the modeled platform.

    ``n_shards`` shards the memory node's index database over independent
    service engines: each coalesced message is split into per-shard
    sub-batches using the same consistent location -> shard routing the
    numeric :class:`~repro.core.memo_engine.MemoizedExecutor` uses, each
    shard searches only its ~1/N share of the keys, and the sub-batches are
    serviced concurrently — the Figure 14 workers x shards scaling surface.
    """
    if variant not in _VARIANT_OPS:
        raise ValueError(f"variant must be one of {sorted(_VARIANT_OPS)}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    cost = cost or CostModel()
    tl = Timeline()
    cluster = ClusterModel(tl, n_gpus=n_gpus, spec=cost.node, n_index_shards=n_shards)
    assign = distribute_chunks(dims.n_chunks, n_gpus)
    lookup = _trace_lookup(trace, dims.n_chunks, by_location=trace_by_location)
    keys_per_msg = cost.keys_per_coalesced_message() if coalesce else 1

    op_phase_start: dict[str, float] = {}
    barrier = None
    for inner in range(n_inner):
        for op in _VARIANT_OPS[variant]:
            phase_t0 = tl.makespan
            last_tasks = []
            # group queries per GPU for coalescing
            pending_batch: dict[int, list] = {g: [] for g in range(n_gpus)}
            # insertions are asynchronous and low-priority: submit them after
            # the phase's latency-critical messages (NIC QoS for small
            # control messages over bulk stores)
            deferred_inserts: list = []

            # op/pending_batch rebind every phase; pin this phase's values
            def flush_batch(gpu_idx: int, op=op, pending_batch=pending_batch):
                batch = pending_batch[gpu_idx]
                if not batch:
                    return
                gpu = cluster.gpus[gpu_idx]
                nbytes = max(len(batch) * cost.key_bytes, cost.key_bytes)
                send = tl.add(
                    f"qsend/{op}", cluster.nic_of(gpu), cost.net_time(nbytes),
                    deps=[t for t, _ in batch],
                )
                # the memory node routes the message's keys to their owning
                # index shards; sub-batches are serviced concurrently, each
                # searching only its share of the key population
                groups: dict[int, list] = {}
                for entry in batch:
                    shard = shard_of_location(entry[1], n_shards)
                    groups.setdefault(shard, []).append(entry)
                shard_keys = max(1, db_keys // n_shards)
                for shard, group in sorted(groups.items()):
                    svc = tl.add(
                        f"qsvc/{op}",
                        cluster.index_shard(shard),
                        cost.index_query_time(shard_keys, batch=len(group)),
                        deps=[send],
                    )
                    gbytes = max(len(group) * cost.key_bytes, cost.key_bytes)
                    resp = tl.add(
                        f"qresp/{op}", cluster.memory_nic, cost.net_time(gbytes),
                        deps=[svc],
                    )
                    for enc_task, _chunk in group:
                        # zero-width marker task: its (end - release) is the
                        # per-query latency collected from tl.tasks below
                        tl.add(
                            f"query/{op}", None, 0.0, deps=[resp],
                            release=enc_task.end,
                        )
                pending_batch[gpu_idx] = []

            for chunk in range(dims.n_chunks):
                gpu_idx = assign.owner_of(chunk)
                gpu = cluster.gpus[gpu_idx]
                case = (
                    lookup(inner, op, chunk)
                    if (lookup is not None and op in MEMOIZABLE)
                    else None
                )
                deps = [barrier] if barrier is not None else []
                if case in (CASE_CACHE, CASE_DB, CASE_MISS):
                    enc = tl.add(
                        f"encode/{op}", cluster.cpu_of(gpu), cost.encode_time(dims),
                        deps=deps,
                    )
                    if case == CASE_CACHE and local_cache:
                        cmp_t = tl.add(
                            f"cachecmp/{op}", cluster.cpu_of(gpu),
                            cost.cache_compare_time(1), deps=[enc],
                        )
                        last_tasks.append(cmp_t)
                        continue
                    pending_batch[gpu_idx].append((enc, chunk))
                    if len(pending_batch[gpu_idx]) >= keys_per_msg:
                        flush_batch(gpu_idx)
                    if case == CASE_DB:
                        # value retrieval: memory-node NIC then compute-node NIC
                        fetch = tl.add(
                            f"vfetch/{op}", cluster.memory_nic,
                            cost.net_time(cost.value_fetch_wire_bytes(dims)),
                            deps=deps + [enc],
                        )
                        recv = tl.add(
                            f"vrecv/{op}", cluster.nic_of(gpu),
                            cost.net_time(cost.value_fetch_wire_bytes(dims)),
                            deps=[fetch],
                        )
                        last_tasks.append(recv)
                        continue
                    # CASE_MISS falls through to the compute pipeline below;
                    # the asynchronous insertion is scheduled after it.
                # -- the Figure 1 chunk pipeline --------------------------------
                h2d = tl.add(f"h2d/{op}", gpu.pcie, cost.h2d_time(dims), deps=deps)
                cdeps = [h2d]
                if variant == "canc_fused" and op == "Fu2D":
                    # the fused kernel's extra dhat-chunk argument rides a
                    # second transfer that overlaps the previous compute
                    extra = tl.add(
                        f"h2d_dhat/{op}", gpu.pcie, cost.h2d_time(dims), deps=deps
                    )
                    cdeps.append(extra)
                comp = tl.add(
                    f"fft/{op}", gpu.compute, cost.fft_time(op, dims), deps=cdeps
                )
                d2h = tl.add(f"d2h/{op}", gpu.pcie, cost.d2h_time(dims), deps=[comp])
                tail = d2h
                if variant == "canc" and op == "Fu2D":
                    # un-fused: frequency-domain subtraction on the host CPU
                    tail = tl.add(
                        f"cpusub/{op}", cluster.cpu_of(gpu),
                        cost.cpu_subtract_time(dims), deps=[d2h],
                    )
                if case == CASE_MISS:
                    deferred_inserts.append((gpu, tail))
                last_tasks.append(tail)
            for g in range(n_gpus):
                flush_batch(g)
            for gpu, dep in deferred_inserts:
                # async insertion: value store to the memory node, off the
                # critical path (nothing depends on it)
                tl.add(
                    f"insert/{op}", cluster.nic_of(gpu),
                    cost.net_time(cost.value_fetch_wire_bytes(dims)),
                    deps=[dep],
                )
            # rechunking boundary: intra-node via NVLink, inter-node via NICs
            if n_gpus > 1:
                bytes_per_gpu = dims.chunk_bytes * dims.n_chunks / n_gpus
                for gpu in cluster.gpus:
                    if cluster.n_nodes > 1:
                        cross = bytes_per_gpu * (cluster.n_nodes - 1) / cluster.n_nodes
                        last_tasks.append(
                            tl.add(
                                f"xnode/{op}", cluster.nic_of(gpu),
                                cost.net_time(cross), deps=list(last_tasks[-1:]),
                            )
                        )
                    local = bytes_per_gpu / max(1, cluster.n_nodes)
                    last_tasks.append(
                        tl.add(f"nvl/{op}", gpu.compute, cost.nvlink_time(local))
                    )
            barrier = tl.add(f"barrier/{op}/{inner}", None, 0.0, deps=last_tasks)
            op_phase_start[op] = op_phase_start.get(op, 0.0) + (tl.makespan - phase_t0)

    lsp_time = tl.makespan
    gpu_busy = sum(g.compute.busy_time for g in cluster.gpus)
    sched = cost.cpu_phase_times(dims)
    return IterationPerf(
        timeline=tl,
        cluster=cluster,
        lsp_time=lsp_time,
        phase_durations={"lsp": lsp_time, **sched},
        op_phase_times={k: v / n_inner for k, v in op_phase_start.items()},
        query_latencies=[
            t.latency for t in tl.tasks if t.name.startswith("query/")
        ],
        gpu_busy=gpu_busy,
    )


def memo_case_breakdown(
    dims: ProblemDims,
    cost: CostModel | None = None,
    db_keys: int = 1_000_000,
) -> dict[str, dict[str, dict[str, float]]]:
    """Figure 10: per-op, per-case component times for one chunk.

    Cases: ``orig`` (no memoization), ``fail`` (failed memoization: original
    computation + insertion overheads), ``suc`` (value retrieved from the
    remote database), ``cached`` (served by the local memoization cache).
    Components: ``orig_comp``, ``key_encoding``, ``communication``,
    ``similarity_search``, ``others``.
    """
    cost = cost or CostModel()
    out: dict[str, dict[str, dict[str, float]]] = {}
    for op in MEMOIZABLE:
        comp = cost.fft_time(op, dims) + cost.h2d_time(dims) + cost.d2h_time(dims)
        enc = cost.encode_time(dims)
        search = cost.index_query_time(db_keys)
        key_comm = 2 * cost.net_time(cost.coalesce_payload_bytes) / max(
            1, cost.keys_per_coalesced_message()
        )
        value_comm = 2 * cost.net_time(cost.value_fetch_wire_bytes(dims))
        out[op] = {
            "orig": {"orig_comp": comp},
            "fail": {
                "orig_comp": comp,
                "key_encoding": enc,
                "similarity_search": search,
                "communication": key_comm,
                "others": cost.rpc_overhead_s,
            },
            "suc": {
                "key_encoding": enc,
                "similarity_search": search,
                "communication": key_comm + value_comm,
                "others": cost.value_db_service_s,
            },
            "cached": {
                "key_encoding": enc,
                "similarity_search": cost.cache_compare_time(1),
                "others": cost.rpc_overhead_s,
            },
        }
    return out


def coalesce_comparison(
    dims: ProblemDims,
    cost: CostModel | None = None,
    db_keys: int = 1_000_000,
) -> dict[str, dict[str, float]]:
    """Figure 11: per-key communication + similarity-search time with and
    without key coalescing."""
    cost = cost or CostModel()
    k = cost.keys_per_coalesced_message()
    without = {
        "communication": 2 * cost.net_time(cost.key_bytes),
        "similarity_search": cost.index_query_time(db_keys, batch=1),
    }
    with_coalesce = {
        "communication": 2 * cost.net_time(cost.coalesce_payload_bytes) / k,
        "similarity_search": cost.index_query_time(db_keys, batch=k) / k,
    }
    return {"without": without, "with": with_coalesce}
