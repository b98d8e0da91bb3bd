"""One regenerator per table/figure of the paper's evaluation (Section 6).

Every ``fig*``/``tab*`` function reproduces the corresponding artifact's
rows/series: real scaled-down solver runs supply the numerics (hit traces,
accuracy, convergence, cache hit rates); the calibrated discrete-event
platform model replays traces at paper scale for all timing results.  Each
returns one :class:`Figure`: the titled tables and note lines the paper's
plot is read from, built where they are computed, plus the plain ``values``
the benchmark checks assert on.  ``Figure.report()`` renders every artifact
through the one table renderer, :func:`repro.obs.report.table`.  Figures
14, 15 and 16 share one sweep: :func:`fig14_scaling` prints all three.

``quick=True`` (the default used by tests) shrinks iteration counts; the
benchmarks run the fuller settings each ``benchmarks/test_fig*.py`` passes
(reports land in ``benchmarks/results/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.costmodel import CostModel
from ..core.config import MemoConfig, MLRConfig, PipelineConfig
from ..core.memo_engine import MemoEvent, MemoizedExecutor
from ..core.mlr_solver import MLRSolver
from ..core.offload import (
    IterationSchedule,
    OffloadPlanner,
    greedy_offload,
    lru_offload,
)
from ..core.perfsim import (
    coalesce_comparison,
    memo_case_breakdown,
    simulate_iteration,
    simulate_pipeline,
)
from ..lamino.operators import LaminoOperators
from ..memio.variables import admm_variables
from ..obs.report import table
from ..solvers.admm import ADMMConfig, ADMMSolver
from ..solvers.metrics import accuracy
from .datasets import DATASETS, SMALL, DatasetSpec, build

__all__ = [
    "Figure",
    "fig02_memory_breakdown",
    "fig04_chunk_similarity",
    "fig08_overall",
    "fig09_cancellation",
    "fig10_memo_breakdown",
    "fig11_coalesce",
    "fig12_cache_hitrate",
    "fig13_offload",
    "fig14_scaling",
    "fig14_sharded",
    "tab01_accuracy",
    "fig17_convergence",
    "fig18_pipeline_overlap",
    "fig_warmstart",
]

_DEFAULT_ADMM = dict(alpha=1e-3, rho=0.5, n_inner=4, step_max_rel=4.0)


@dataclass
class Figure:
    """One regenerated artifact: ``(title, headers, rows)`` tables, the note
    lines printed after them, and the ``values`` its checks read."""

    tables: list[tuple[str, list[str], list[list]]]
    notes: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def report(self) -> str:
        tables = [table(headers, rows, title) for title, headers, rows in self.tables]
        return "\n".join(["\n\n".join(tables), *self.notes])


def _admm_config(n_outer: int) -> ADMMConfig:
    return ADMMConfig(n_outer=n_outer, **_DEFAULT_ADMM)


def _memo_config(tau: float = 0.92, **over) -> MemoConfig:
    base = dict(
        tau=tau,
        warmup_iterations=2,
        index_train_min=8,
        index_clusters=4,
        index_nprobe=2,
    )
    base.update(over)
    return MemoConfig(**base)


class _Problem:
    """The set-up every numeric experiment starts from: one dataset
    instantiated (geometry, ground truth, noisy projections), one operator
    stack, and the two solvers built on it — so solvers compared within an
    experiment share the stack's plans and Lipschitz estimate."""

    def __init__(self, spec: DatasetSpec) -> None:
        self.spec = spec
        self.geometry, self.truth, self.data = build(spec)
        self.ops = LaminoOperators(self.geometry)

    def admm(self, n_outer: int) -> ADMMSolver:
        """The un-memoized reference solver."""
        return ADMMSolver(self.ops, _admm_config(n_outer))

    def mlr(self, n_outer: int, tau: float = 0.92, memo_over=None, **config) -> MLRSolver:
        """An mLR solver; ``memo_over`` overrides :func:`_memo_config`
        fields, ``config`` the other :class:`MLRConfig` fields."""
        cfg = MLRConfig(
            chunk_size=self.spec.sim_chunk,
            memo=_memo_config(tau, **(memo_over or {})),
            **config,
        )
        return MLRSolver(self.geometry, cfg, admm=_admm_config(n_outer), ops=self.ops)


def _run_mlr(spec: DatasetSpec, n_outer: int, **memo_over):
    """One default mLR reconstruction of ``spec``: ``(solver, result)``."""
    problem = _Problem(spec)
    solver = problem.mlr(n_outer, memo_over=memo_over)
    return solver, solver.reconstruct(problem.data)


def _steady_trace(events: list[MemoEvent], outer: int) -> list[MemoEvent]:
    return [ev for ev in events if ev.outer == outer]


# ---------------------------------------------------------------------------
# Figure 2 — memory breakdown and LSP dominance
# ---------------------------------------------------------------------------


def fig02_memory_breakdown(spec: DatasetSpec = DATASETS["medium"]) -> Figure:
    variable_bytes = {k: v.nbytes for k, v in admm_variables(spec.paper_n).items()}
    phases = dict(
        simulate_iteration(spec.dims, n_gpus=1, variant="alg1", n_inner=4).phase_durations
    )
    total_bytes = sum(variable_bytes.values())
    total_s = sum(phases.values())
    lsp_fraction = phases["lsp"] / total_s if total_s else 0.0
    memory = [
        [name, nbytes / 2**30, 100.0 * nbytes / total_bytes]
        for name, nbytes in sorted(variable_bytes.items(), key=lambda kv: -kv[1])
    ]
    return Figure(
        tables=[
            ("Figure 2: CPU memory", ["variable", "GiB", "% of total"], memory),
            (f"Figure 2: phase times (LSP fraction = {lsp_fraction:.2f})",
             ["phase", "seconds"], [[k, v] for k, v in phases.items()]),
        ],
        values=dict(
            variable_bytes=variable_bytes, total_bytes=total_bytes, lsp_fraction=lsp_fraction
        ),
    )


# ---------------------------------------------------------------------------
# Figure 4 — chunk similarity across iterations
# ---------------------------------------------------------------------------


def fig04_chunk_similarity(
    spec: DatasetSpec = SMALL, n_outer: int = 40, tau: float = 0.93, quick: bool = True
) -> Figure:
    if quick:
        n_outer = min(n_outer, 24)
    problem = _Problem(spec)
    memo = _memo_config(tau, track_similarity_census=True, warmup_iterations=10_000)
    ex = MemoizedExecutor(problem.ops, config=memo, chunk_size=2)
    ADMMSolver(problem.ops, _admm_config(n_outer), executor=ex).run(problem.data)
    census = ex.similarity_census("Fu2D", tau=tau)
    locations = sorted(census)
    picks = {
        "top": census[locations[0]],
        "middle": census[locations[len(locations) // 2]],
        "bottom": census[locations[-1]],
    }
    # census is per op call (n_inner per outer); keep one sample per outer
    n_inner = _DEFAULT_ADMM["n_inner"]
    counts = {k: v[::n_inner] for k, v in picks.items()}
    rows = [
        [it] + [v[it] if it < len(v) else "" for v in counts.values()]
        for it in range(max(len(v) for v in counts.values()))
    ]
    return Figure(
        tables=[(f"Figure 4: tau-similar prior chunks per location (tau={tau})",
                 ["iteration"] + list(counts), rows)],
        values=dict(counts=counts),
    )


# ---------------------------------------------------------------------------
# Figure 8 — overall performance on three datasets
# ---------------------------------------------------------------------------


def fig08_overall(n_outer: int = 60, sim_outer: int = 16, quick: bool = True) -> Figure:
    if quick:
        sim_outer = min(sim_outer, 10)
    rows = []  # dataset, original s, mLR s, normalized
    for key in ("small", "medium", "large"):
        spec = DATASETS[key]
        _solver, result = _run_mlr(spec, sim_outer)
        dims = spec.dims
        orig_iter = simulate_iteration(dims, variant="alg1", n_inner=4).iteration_time
        # replay each simulated outer iteration's trace; extrapolate the
        # steady state (last iteration) over the remaining outer iterations
        mlr_total = 0.0
        db_keys = 1
        for outer in range(sim_outer):
            trace = _steady_trace(result.events, outer)
            perf = simulate_iteration(
                dims, variant="canc_fused", n_inner=4, trace=trace, db_keys=max(db_keys, 1)
            )
            mlr_total += perf.iteration_time
            db_keys += sum(1 for ev in trace if ev.case == "miss")
        steady = simulate_iteration(
            dims,
            variant="canc_fused",
            n_inner=4,
            trace=_steady_trace(result.events, sim_outer - 1),
            db_keys=db_keys,
        ).iteration_time
        mlr_total += steady * (n_outer - sim_outer)
        orig_total = orig_iter * n_outer
        rows.append(
            [spec.name, orig_total, mlr_total, mlr_total / orig_total]
        )
    mean_improvement = 1.0 - sum(r[3] for r in rows) / len(rows)
    return Figure(
        tables=[("Figure 8: overall performance (60-iteration runtime)",
                 ["dataset", "original (s)", "mLR (s)", "normalized"], rows)],
        notes=[f"mean improvement: {100 * mean_improvement:.1f}%"],
        values=dict(rows=rows, mean_improvement=mean_improvement),
    )


# ---------------------------------------------------------------------------
# Figure 9 — operation cancellation and fusion
# ---------------------------------------------------------------------------


def fig09_cancellation(quick: bool = True) -> Figure:
    del quick  # DES-only: always cheap
    variants = [
        ("w/ cancellation w/ fusion", "canc_fused"),
        ("w/ cancellation w/o fusion", "canc"),
        ("w/o cancellation w/o fusion", "alg1"),
    ]
    rows = []
    for key in ("small", "medium"):
        dims = DATASETS[key].dims
        for label, variant in variants:
            fft = simulate_iteration(dims, variant=variant, n_inner=1).lsp_time
            lsp = simulate_iteration(dims, variant=variant, n_inner=4).lsp_time
            rows.append([DATASETS[key].name, "FFT", label, fft])
            rows.append([DATASETS[key].name, "LSP(4xFFT)", label, lsp])
    return Figure(
        tables=[("Figure 9: operation cancellation and fusion (FFT = 1 fwd+adj pass; "
                 "LSP = 4 inner iterations)",
                 ["dataset", "workload", "variant", "seconds"], rows)],
        values=dict(rows=rows),
    )


# ---------------------------------------------------------------------------
# Figure 10 — memoization breakdown
# ---------------------------------------------------------------------------


def fig10_memo_breakdown(
    spec: DatasetSpec = SMALL, sim_outer: int = 12, quick: bool = True
) -> Figure:
    if quick:
        sim_outer = min(sim_outer, 8)
    data = memo_case_breakdown(spec.dims)
    _solver, result = _run_mlr(spec, sim_outer)
    counts = {k: v for k, v in result.case_counts.items() if k != "direct"}
    total = sum(counts.values()) or 1
    dist = {k: v / total for k, v in counts.items()}
    parts = ("orig_comp", "key_encoding", "communication", "similarity_search", "others")
    rows = [
        [op, case, sum(comps.values())] + [comps.get(k, 0.0) for k in parts]
        for op, cases in data.items()
        for case, comps in cases.items()
    ]
    notes = []
    if dist:
        notes.append("case distribution: " + ", ".join(f"{k}={v:.0%}" for k, v in dist.items()))
    return Figure(
        tables=[("Figure 10: memoization breakdown per chunk-operation",
                 ["op", "case", "total (s)", "orig_comp", "key_enc", "comm", "search",
                  "others"], rows)],
        notes=notes,
        values=dict(data=data, case_distribution=dist),
    )


# ---------------------------------------------------------------------------
# Figure 11 — key coalescing
# ---------------------------------------------------------------------------


def fig11_coalesce(spec: DatasetSpec = SMALL) -> Figure:
    per_key = coalesce_comparison(spec.dims)
    w = sum(per_key["with"].values())
    wo = sum(per_key["without"].values())
    improvement = 1.0 - w / wo if wo else 0.0
    rows = [
        [k, v["communication"], v["similarity_search"], sum(v.values())]
        for k, v in per_key.items()
    ]
    return Figure(
        tables=[("Figure 11: key coalescing",
                 ["mode", "communication (s/key)", "search (s/key)", "total"], rows)],
        notes=[f"improvement: {100 * improvement:.0f}%"],
        values=dict(per_key=per_key, improvement=improvement),
    )


# ---------------------------------------------------------------------------
# Figure 12 — private vs global cache hit rate
# ---------------------------------------------------------------------------


def fig12_cache_hitrate(
    spec: DatasetSpec = SMALL, n_outer: int = 30, quick: bool = True
) -> Figure:
    if quick:
        n_outer = min(n_outer, 16)
    stats = {}
    for mode in ("private", "global"):
        solver, _result = _run_mlr(spec, n_outer, cache=mode)
        stats[mode] = solver.executor.cache_stats("Fu2D")
    private, glob = stats["private"], stats["global"]
    saving = 1.0 - private.comparisons / glob.comparisons if glob.comparisons else 0.0
    private_series, global_series = private.hit_rate_series(), glob.hit_rate_series()
    global_rates = dict(global_series)
    rows = [[it, hr, global_rates.get(it, float("nan"))] for it, hr in private_series]
    return Figure(
        tables=[("Figure 12: Fu2D cache hit rate",
                 ["iteration", "private hit rate", "global hit rate"], rows)],
        notes=[f"similarity comparisons: private={private.comparisons} "
               f"global={glob.comparisons} (saving {100 * saving:.0f}%)"],
        values=dict(
            private_series=private_series,
            global_series=global_series,
            private_comparisons=private.comparisons,
            global_comparisons=glob.comparisons,
            comparison_saving=saving,
        ),
    )


# ---------------------------------------------------------------------------
# Figure 13 — ADMM-Offload
# ---------------------------------------------------------------------------


def fig13_offload(spec: DatasetSpec = SMALL) -> Figure:
    cost = CostModel()
    sched = IterationSchedule.from_cost_model(spec.dims, cost)
    planner = OffloadPlanner(sched, cost)
    outcomes = {  # strategy -> PlanOutcome
        "ADMM (no offload)": planner.evaluate(()),
        "ADMM greedy offload": greedy_offload(sched, cost),
        "ADMM LRU offload": lru_offload(sched, cost),
        "ADMM-Offload": planner.best_plan(),
    }
    rows = [
        [name, o.peak_bytes / 2**30, 100 * o.memory_saving, 100 * o.time_loss,
         o.mt if o.mt != float("inf") else "inf", ",".join(o.offloaded) or "-"]
        for name, o in outcomes.items()
    ]
    return Figure(
        tables=[("Figure 13: ADMM-Offload vs baselines",
                 ["strategy", "peak RSS (GiB)", "mem saving %", "perf loss %", "MT",
                  "offloaded"], rows)],
        values=dict(outcomes=outcomes),
    )


# ---------------------------------------------------------------------------
# Figures 14/15/16 — scalability, bandwidth, latency
# ---------------------------------------------------------------------------


def cdf_rows(values, quantiles=(0.25, 0.5, 0.75, 0.9, 0.99)) -> list[list]:
    """Quantile rows summarizing a latency distribution."""
    vals = sorted(values)
    if not vals:
        return [[q, float("nan")] for q in quantiles]
    return [[q, vals[min(len(vals) - 1, int(q * len(vals)))]] for q in quantiles]


def fig14_scaling(
    spec: DatasetSpec = SMALL,
    gpu_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    sim_outer: int = 12,
    n_outer: int = 60,
    quick: bool = True,
) -> Figure:
    """Figures 14, 15 and 16 from one sweep: per-op and overall time,
    memory-node NIC utilization, and the query-latency CDF per GPU count."""
    if quick:
        sim_outer = min(sim_outer, 8)
    _solver, result = _run_mlr(spec, sim_outer)
    trace = _steady_trace(result.events, sim_outer - 1)
    db_keys = sum(1 for ev in result.events if ev.case == "miss")
    op_times: dict[str, list[float]] = {op: [] for op in ("Fu1D", "Fu1D*", "Fu2D", "Fu2D*")}
    overall, util, lats = [], [], {}
    for g in gpu_counts:
        perf = simulate_iteration(
            spec.dims, n_gpus=g, variant="canc_fused", n_inner=4,
            trace=trace, db_keys=max(db_keys, 1),
        )
        for op in op_times:
            op_times[op].append(perf.op_phase_times.get(op, 0.0))
        overall.append(perf.iteration_time * n_outer)
        util.append(perf.memory_nic_utilization())
        lats[g] = perf.query_latencies
    tables = [
        ("Figure 14: scalability over GPUs", ["GPUs"] + list(op_times) + ["overall (s)"],
         [[g] + [t[i] for t in op_times.values()] + [overall[i]]
          for i, g in enumerate(gpu_counts)]),
        ("Figure 15", ["GPUs", "bandwidth utilization %"],
         [[g, 100 * u] for g, u in zip(gpu_counts, util)]),
    ]
    for g in gpu_counts:
        frac = float(np.mean([v > 0.1 for v in lats[g]])) if lats[g] else 0.0
        tables.append(
            (f"Figure 16: query latency CDF at {g} GPUs (>100ms: {frac:.0%})",
             ["quantile", "latency (s)"], cdf_rows(lats[g]))
        )
    return Figure(
        tables=tables,
        values=dict(
            gpu_counts=list(gpu_counts),
            op_times=op_times,
            overall=overall,
            nic_utilization=util,
            latencies=lats,
        ),
    )


def fig14_sharded(
    spec: DatasetSpec = SMALL,
    n_workers: int = 4,
    n_shards: int = 2,
    grid_workers: tuple[int, ...] = (1, 2, 4, 8, 16),
    grid_shards: tuple[int, ...] = (1, 2, 4),
    sim_outer: int = 12,
    db_keys: int = 4_000_000,
    quick: bool = True,
) -> Figure:
    """The distributed-memoization scaling study (paper Sections 4.3/5.2),
    Figure 14's workers x shards companion.

    Runs the real (scaled-down) reconstruction once on a
    :class:`~repro.core.memo_engine.MemoizedExecutor` with
    ``n_workers x n_shards`` (private caches make the numerics independent
    of the worker/shard counts) and reports its per-shard and per-worker
    statistics, then replays its worker-tagged steady trace on the DES over
    the ``grid_workers x grid_shards`` surface.  ``db_keys`` is the modeled
    beamline-scale key population — large enough that index search time is
    visible next to the wire time, which is what sharding attacks.
    """
    if quick:
        sim_outer = min(sim_outer, 8)
    problem = _Problem(spec)
    solver = problem.mlr(sim_outer, n_workers=n_workers, n_shards=n_shards)
    result = solver.reconstruct(problem.data)
    ex = solver.executor

    shard_stats = ex.router.shard_stats()
    coalesce = ex.per_worker_coalesce_stats()
    trace = _steady_trace(result.events, sim_outer - 1)

    lsp_times = {
        (w, s): simulate_iteration(
            spec.dims, n_gpus=w, variant="canc_fused", n_inner=4,
            trace=trace, db_keys=db_keys, n_shards=s,
            trace_by_location=True,
        ).lsp_time
        for w in grid_workers
        for s in grid_shards
    }
    values = dict(
        n_workers=n_workers,
        n_shards=n_shards,
        shard_hit_rates=[st.hit_rate for st, _n in shard_stats],
        shard_queries=[st.queries for st, _n in shard_stats],
        shard_entries=[n for _st, n in shard_stats],
        worker_keys=[c.keys for c in coalesce],
        worker_messages=[c.messages for c in coalesce],
        worker_mean_batch=[c.mean_batch for c in coalesce],
        case_counts=dict(result.case_counts),
        grid_workers=list(grid_workers),
        grid_shards=list(grid_shards),
        lsp_times=lsp_times,
    )
    return Figure(
        tables=[
            (f"Sharded memoization service ({n_workers} workers x {n_shards} shards, "
             "numeric run)",
             ["shard", "queries", "hit rate", "entries"],
             [[s, st.queries, st.hit_rate, n] for s, (st, n) in enumerate(shard_stats)]),
            ("Per-worker key coalescing", ["worker", "keys", "messages", "mean batch"],
             [[w, c.keys, c.messages, c.mean_batch] for w, c in enumerate(coalesce)]),
            ("Figure 14 (sharded): LSP seconds over the workers x shards grid",
             ["workers \\ shards"] + [str(s) for s in grid_shards],
             [[w] + [lsp_times[(w, s)] for s in grid_shards] for w in grid_workers]),
        ],
        values=values,
    )


# ---------------------------------------------------------------------------
# Table 1 + Figure 17 — accuracy and convergence
# ---------------------------------------------------------------------------


def tab01_accuracy(
    spec: DatasetSpec = SMALL,
    taus: tuple[float, ...] = (0.86, 0.88, 0.90, 0.92, 0.94, 0.96),
    n_outer: int = 60,
    quick: bool = True,
) -> Figure:
    if quick:
        n_outer = min(n_outer, 20)
        taus = tuple(taus[::2])
    problem = _Problem(spec)
    ref = problem.admm(n_outer).run(problem.data)
    accs, memos = [], []
    for tau in taus:
        res = problem.mlr(n_outer, tau).reconstruct(problem.data)
        accs.append(accuracy(ref.u.real, res.u.real))
        memos.append(res.memoized_fraction)
    return Figure(
        tables=[("Table 1: impact of memoization on reconstruction accuracy",
                 ["tau", "accuracy", "memoized fraction"],
                 [list(r) for r in zip(taus, accs, memos)])],
        values=dict(taus=list(taus), accuracies=accs, memo_fractions=memos),
    )


# ---------------------------------------------------------------------------
# Figure 18 — streaming pipeline overlap
# ---------------------------------------------------------------------------


def fig18_pipeline_overlap(
    spec: DatasetSpec = SMALL,
    queue_depths: tuple[int, ...] = (1, 2, 4),
    worker_counts: tuple[int, ...] = (1, 2, 4),
    sim_outer: int = 6,
    quick: bool = True,
) -> Figure:
    """The streaming-pipeline study (overlapped read -> memoized compute ->
    write; :mod:`repro.pipeline`): functional bit-identity at simulation
    scale plus the overlapped-phase makespan surface at paper scale.

    The *functional* half runs the real solver twice — monolithic and
    ``pipeline=`` mode — and checks bit-identity, plus a streaming-ingest
    run where projections arrive block by block from a producer thread.
    The *modeled* half schedules one paper-scale sweep on the DES across
    the (queue depth, compute workers) grid, with SSD chunk reads/writes
    as the outer stages.  ``values["read_backpressure"]`` (producer blocks
    of the functional run) is timing-dependent, so the report leaves it
    out: its output is committed.
    """
    if quick:
        sim_outer = min(sim_outer, 4)

    # -- functional: serial vs pipelined vs streaming, bit for bit --------------
    problem = _Problem(spec)
    geometry, data = problem.geometry, problem.data

    serial_result = problem.mlr(sim_outer).reconstruct(data)
    piped_solver = problem.mlr(sim_outer, pipeline=PipelineConfig(queue_depth=2))
    piped_result = piped_solver.reconstruct(data)
    stats = piped_solver.executor.pipeline_stats()

    streaming_solver = problem.mlr(sim_outer)
    ingest = streaming_solver.make_ingest()

    from ..pipeline import QueueClosed

    def produce() -> None:
        block = max(1, spec.sim_chunk - 1)  # deliberately chunk-misaligned
        try:
            with ingest:
                for lo in range(0, geometry.data_shape[0], block):
                    ingest.push(data[lo:lo + block])
        except QueueClosed:
            pass  # the consumer died and tore the stream down

    import threading

    feeder = threading.Thread(target=produce)
    feeder.start()
    try:
        streaming_result = streaming_solver.reconstruct_streaming(ingest)
    finally:
        feeder.join()

    # -- modeled: the overlapped-phase surface at paper scale -------------------
    cost = CostModel()
    dims = spec.dims
    read = cost.chunk_read_time(dims)
    write = cost.chunk_write_time(dims)
    compute = cost.chunk_compute_time(dims)
    perfs = {  # (queue_depth, workers) -> PipelinePerf
        (q, w): simulate_pipeline(
            dims.n_chunks, read, compute, write, queue_depth=q, n_workers=w
        )
        for q in queue_depths
        for w in worker_counts
    }

    io_time = read + write  # modeled per-chunk read + write seconds
    bitwise = bool(np.array_equal(serial_result.u, piped_result.u))
    streaming = bool(np.array_equal(serial_result.u, streaming_result.u))
    serial_time = next(iter(perfs.values())).serial_time
    rows = [
        [q, w, perf.pipelined_time, perf.speedup, perf.speedup_bound, perf.fill_drain_time]
        for (q, w), perf in sorted(perfs.items())
    ]
    return Figure(
        tables=[(f"Figure 18: pipelined sweep makespan (serial = {serial_time:.3f} s, "
                 f"per-chunk I/O = {io_time * 1e3:.2f} ms)",
                 ["queue depth", "workers", "pipelined (s)", "speedup", "bound",
                  "fill/drain (s)"], rows)],
        notes=[f"functional run: pipelined == serial bit-for-bit: {bitwise}; "
               f"streaming ingest == batch: {streaming}; {stats.items} chunk-ops pipelined"],
        values=dict(
            queue_depths=list(queue_depths),
            worker_counts=list(worker_counts),
            perfs=perfs,
            io_time=io_time,
            bitwise_identical=bitwise,
            streaming_identical=streaming,
            pipeline_items=stats.items,
            read_backpressure=stats.read_queue.producer_blocks,
            case_counts=dict(piped_result.case_counts),
        ),
    )


def fig17_convergence(
    spec: DatasetSpec = SMALL, n_outer: int = 60, tau: float = 0.92, quick: bool = True
) -> Figure:
    if quick:
        n_outer = min(n_outer, 20)
    problem = _Problem(spec)
    ops, data = problem.ops, problem.data

    # The memoized run's internal residuals are themselves approximated, so
    # both curves report the *true* loss of the iterate, evaluated with the
    # exact operators.
    from ..solvers.tv import tv_norm

    dhat = ops.f2d(np.ascontiguousarray(data, dtype=np.complex64))
    alpha = _DEFAULT_ADMM["alpha"]

    def true_loss(u: np.ndarray) -> float:
        r = ops.forward_freq(u) - dhat
        return 0.5 * float(np.vdot(r, r).real) + alpha * tv_norm(u)

    losses: dict[str, list[float]] = {"ref": [], "mlr": []}

    def cb(name):
        return lambda it, u, hist: losses[name].append(true_loss(u))

    problem.admm(n_outer).run(data, callback=cb("ref"))
    problem.mlr(n_outer, tau).solver.run(data, callback=cb("mlr"))
    return Figure(
        tables=[("Figure 17: convergence with and without memoization",
                 ["iteration", "loss w/o memoization", "loss w/ memoization"],
                 [[i, a, b] for i, (a, b) in enumerate(zip(losses["ref"], losses["mlr"]))])],
        values=dict(loss_without=losses["ref"], loss_with=losses["mlr"]),
    )


# ---------------------------------------------------------------------------
# Warm start — cross-job memoization through the reconstruction service
# ---------------------------------------------------------------------------


def fig_warmstart(
    spec: DatasetSpec = SMALL,
    sim_outer: int = 6,
    tau: float = 0.9,
    quick: bool = True,
    snapshot_dir: str | None = None,
) -> Figure:
    """Cross-job memoization: the IC-inspection operating mode where
    near-identical samples are scanned job after job.

    Three reconstructions of two scans (same sample, independent noise):

    - ``scan-1`` and ``scan-2`` run as *service jobs* on a
      :class:`~repro.service.ReconstructionScheduler` whose shared memo
      service hands job 1's database tier to job 2 (the warm start),
    - ``scan-2 (cold)`` runs standalone on a fresh database — the control
      the warm hit rate is measured against.

    ``values["warm_gain"]`` is the absolute db hit rate warm-starting the
    second scan gains over that control.  With ``snapshot_dir`` the cold
    solver's database tier is also saved there as an on-disk snapshot (the
    artifact the service example keeps).
    """
    from ..lamino.projector import simulate_data
    from ..service import JobSpec, ReconstructionScheduler, ServiceConfig

    if quick:
        sim_outer = min(sim_outer, 5)
    problem = _Problem(spec)
    geometry, data1 = problem.geometry, problem.data
    data2 = simulate_data(problem.truth, geometry, noise_level=spec.noise, seed=17)

    # control: the second scan on a fresh (cold) database
    cold = problem.mlr(sim_outer, tau)
    cfg, admm = cold.config, cold.admm_config
    cold.reconstruct(data2)
    cold_stats = cold.executor.db_stats_total()

    # the service runs both scans as jobs sharing one memo tier
    with ReconstructionScheduler(ServiceConfig(n_workers=1, share_memo=True)) as sched:
        jobs = [
            sched.submit(
                JobSpec(name=name, geometry=geometry, projections=d,
                        config=cfg, admm=admm)
            )
            for name, d in (("scan-1", data1), ("scan-2", data2))
        ]
        for handle in jobs:
            if not handle.wait(timeout=600):
                raise RuntimeError(f"job {handle.spec.name} did not finish")
            if handle.error is not None:
                raise handle.error

    if snapshot_dir is not None:
        cold.save_memo_snapshot(snapshot_dir)

    def row(name, mode, stats, entries):
        return [name, mode, stats.queries, stats.hits,
                round(stats.hit_rate, 4), entries]

    h1, h2 = jobs
    job_rows = [  # job, mode, queries, hits, hit rate, entries at start
        row("scan-1", "service (cold)", h1.memo_delta, h1.db_entries_start),
        row("scan-2", "service (warm)", h2.memo_delta, h2.db_entries_start),
        row("scan-2", "standalone cold", cold_stats, 0),
    ]
    cold_rate, warm_rate = cold_stats.hit_rate, h2.memo_delta.hit_rate
    return Figure(
        tables=[("Warm start: per-job memo-database traffic (deltas)",
                 ["job", "mode", "db queries", "db hits", "hit rate", "entries at start"],
                 job_rows)],
        notes=[f"second-scan hit rate: cold {cold_rate:.3f} -> warm {warm_rate:.3f} "
               f"(gain +{warm_rate - cold_rate:.3f})"],
        values=dict(
            job_rows=job_rows,
            first_job_hit_rate=h1.memo_delta.hit_rate,
            cold_hit_rate=cold_rate,
            warm_hit_rate=warm_rate,
            warm_gain=warm_rate - cold_rate,
        ),
    )
