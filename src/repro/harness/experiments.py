"""One regenerator per table/figure of the paper's evaluation (Section 6).

Every ``fig*``/``tab*`` function reproduces the corresponding artifact's
rows/series: real scaled-down solver runs supply the numerics (hit traces,
accuracy, convergence, cache hit rates); the calibrated discrete-event
platform model replays traces at paper scale for all timing results.  Each
returns a result object with a ``report()`` string printing the same
quantities the paper plots.

``quick=True`` (the default used by tests) shrinks iteration counts; the
benchmarks run the fuller settings each ``benchmarks/test_fig*.py`` passes
(reports land in ``benchmarks/results/``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    PipelinePerf,
    coalesce_comparison,
    memo_case_breakdown,
    simulate_iteration,
    simulate_pipeline,
)
from ..lamino.operators import LaminoOperators
from ..memio.variables import admm_variables
from ..solvers.admm import ADMMConfig, ADMMSolver
from ..solvers.metrics import accuracy
from . import report
from .datasets import DATASETS, SMALL, DatasetSpec, build

__all__ = [
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
    "fig15_bandwidth",
    "fig16_latency_cdf",
    "tab01_accuracy",
    "fig17_convergence",
    "fig18_pipeline_overlap",
    "fig_warmstart",
]

_DEFAULT_ADMM = dict(alpha=1e-3, rho=0.5, n_inner=4, step_max_rel=4.0)


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


@dataclass
class MemoryBreakdownResult:
    variable_bytes: dict[str, int]
    phase_seconds: dict[str, float]

    @property
    def total_bytes(self) -> int:
        return sum(self.variable_bytes.values())

    @property
    def lsp_fraction(self) -> float:
        total = sum(self.phase_seconds.values())
        return self.phase_seconds["lsp"] / total if total else 0.0

    def report(self) -> str:
        rows = [
            [name, nbytes / 2**30, 100.0 * nbytes / self.total_bytes]
            for name, nbytes in sorted(
                self.variable_bytes.items(), key=lambda kv: -kv[1]
            )
        ]
        t1 = report.table(["variable", "GiB", "% of total"], rows, "Figure 2: CPU memory")
        rows2 = [[k, v] for k, v in self.phase_seconds.items()]
        t2 = report.table(
            ["phase", "seconds"], rows2,
            f"Figure 2: phase times (LSP fraction = {self.lsp_fraction:.2f})",
        )
        return t1 + "\n\n" + t2


def fig02_memory_breakdown(spec: DatasetSpec = DATASETS["medium"]) -> MemoryBreakdownResult:
    variables = admm_variables(spec.paper_n)
    perf = simulate_iteration(spec.dims, n_gpus=1, variant="alg1", n_inner=4)
    return MemoryBreakdownResult(
        variable_bytes={k: v.nbytes for k, v in variables.items()},
        phase_seconds=dict(perf.phase_durations),
    )


# ---------------------------------------------------------------------------
# Figure 4 — chunk similarity across iterations
# ---------------------------------------------------------------------------


@dataclass
class SimilarityCensusResult:
    counts: dict[str, list[int]]  # location label -> similar-prior counts/iter
    tau: float

    def report(self) -> str:
        rows = []
        n_iter = max(len(v) for v in self.counts.values())
        for it in range(n_iter):
            rows.append(
                [it] + [v[it] if it < len(v) else "" for v in self.counts.values()]
            )
        return report.table(
            ["iteration"] + list(self.counts),
            rows,
            f"Figure 4: tau-similar prior chunks per location (tau={self.tau})",
        )


def fig04_chunk_similarity(
    spec: DatasetSpec = SMALL, n_outer: int = 40, tau: float = 0.93, quick: bool = True
) -> SimilarityCensusResult:
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
    picks = {k: v[::n_inner] for k, v in picks.items()}
    return SimilarityCensusResult(counts=picks, tau=tau)


# ---------------------------------------------------------------------------
# Figure 8 — overall performance on three datasets
# ---------------------------------------------------------------------------


@dataclass
class OverallPerfResult:
    rows: list[list]  # dataset, original s, mLR s, normalized

    @property
    def mean_improvement(self) -> float:
        norms = [r[3] for r in self.rows]
        return 1.0 - sum(norms) / len(norms)

    def report(self) -> str:
        t = report.table(
            ["dataset", "original (s)", "mLR (s)", "normalized"],
            self.rows,
            "Figure 8: overall performance (60-iteration runtime)",
        )
        return t + f"\nmean improvement: {100 * self.mean_improvement:.1f}%"


def fig08_overall(
    n_outer: int = 60, sim_outer: int = 16, quick: bool = True
) -> OverallPerfResult:
    if quick:
        sim_outer = min(sim_outer, 10)
    rows = []
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
    return OverallPerfResult(rows=rows)


# ---------------------------------------------------------------------------
# Figure 9 — operation cancellation and fusion
# ---------------------------------------------------------------------------


@dataclass
class CancellationResult:
    rows: list[list]  # dataset, workload, variant, seconds

    def report(self) -> str:
        return report.table(
            ["dataset", "workload", "variant", "seconds"],
            self.rows,
            "Figure 9: operation cancellation and fusion (FFT = 1 fwd+adj pass; "
            "LSP = 4 inner iterations)",
        )


def fig09_cancellation(quick: bool = True) -> CancellationResult:
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
    return CancellationResult(rows=rows)


# ---------------------------------------------------------------------------
# Figure 10 — memoization breakdown
# ---------------------------------------------------------------------------


@dataclass
class MemoBreakdownResult:
    data: dict[str, dict[str, dict[str, float]]]
    case_distribution: dict[str, float] | None = None

    def report(self) -> str:
        rows = []
        for op, cases in self.data.items():
            for case, comps in cases.items():
                rows.append(
                    [op, case, sum(comps.values())]
                    + [comps.get(k, 0.0) for k in (
                        "orig_comp", "key_encoding", "communication", "similarity_search", "others"
                    )]
                )
        t = report.table(
            ["op", "case", "total (s)", "orig_comp", "key_enc", "comm", "search", "others"],
            rows,
            "Figure 10: memoization breakdown per chunk-operation",
        )
        if self.case_distribution:
            t += "\ncase distribution: " + ", ".join(
                f"{k}={v:.0%}" for k, v in self.case_distribution.items()
            )
        return t


def fig10_memo_breakdown(
    spec: DatasetSpec = SMALL, sim_outer: int = 12, quick: bool = True
) -> MemoBreakdownResult:
    if quick:
        sim_outer = min(sim_outer, 8)
    data = memo_case_breakdown(spec.dims)
    _solver, result = _run_mlr(spec, sim_outer)
    counts = {k: v for k, v in result.case_counts.items() if k != "direct"}
    total = sum(counts.values()) or 1
    dist = {k: v / total for k, v in counts.items()}
    return MemoBreakdownResult(data=data, case_distribution=dist)


# ---------------------------------------------------------------------------
# Figure 11 — key coalescing
# ---------------------------------------------------------------------------


@dataclass
class CoalesceResult:
    per_key: dict[str, dict[str, float]]

    @property
    def improvement(self) -> float:
        w = sum(self.per_key["with"].values())
        wo = sum(self.per_key["without"].values())
        return 1.0 - w / wo if wo else 0.0

    def report(self) -> str:
        rows = [
            [k, v["communication"], v["similarity_search"], sum(v.values())]
            for k, v in self.per_key.items()
        ]
        t = report.table(
            ["mode", "communication (s/key)", "search (s/key)", "total"],
            rows,
            "Figure 11: key coalescing",
        )
        return t + f"\nimprovement: {100 * self.improvement:.0f}%"


def fig11_coalesce(spec: DatasetSpec = SMALL) -> CoalesceResult:
    return CoalesceResult(per_key=coalesce_comparison(spec.dims))


# ---------------------------------------------------------------------------
# Figure 12 — private vs global cache hit rate
# ---------------------------------------------------------------------------


@dataclass
class CacheHitRateResult:
    private_series: list[tuple[int, float]]
    global_series: list[tuple[int, float]]
    private_comparisons: int
    global_comparisons: int

    @property
    def comparison_saving(self) -> float:
        if self.global_comparisons == 0:
            return 0.0
        return 1.0 - self.private_comparisons / self.global_comparisons

    def report(self) -> str:
        gd = dict(self.global_series)
        rows = [
            [it, hr, gd.get(it, float("nan"))] for it, hr in self.private_series
        ]
        t = report.table(
            ["iteration", "private hit rate", "global hit rate"],
            rows,
            "Figure 12: Fu2D cache hit rate",
        )
        return t + (
            f"\nsimilarity comparisons: private={self.private_comparisons} "
            f"global={self.global_comparisons} "
            f"(saving {100 * self.comparison_saving:.0f}%)"
        )


def fig12_cache_hitrate(
    spec: DatasetSpec = SMALL, n_outer: int = 30, quick: bool = True
) -> CacheHitRateResult:
    if quick:
        n_outer = min(n_outer, 16)
    stats = {}
    for mode in ("private", "global"):
        solver, _result = _run_mlr(spec, n_outer, cache=mode)
        stats[mode] = solver.executor.cache_stats("Fu2D")
    return CacheHitRateResult(
        private_series=stats["private"].hit_rate_series(),
        global_series=stats["global"].hit_rate_series(),
        private_comparisons=stats["private"].comparisons,
        global_comparisons=stats["global"].comparisons,
    )


# ---------------------------------------------------------------------------
# Figure 13 — ADMM-Offload
# ---------------------------------------------------------------------------


@dataclass
class OffloadResult:
    outcomes: dict[str, object]  # strategy -> PlanOutcome

    def report(self) -> str:
        rows = []
        for name, o in self.outcomes.items():
            rows.append(
                [
                    name,
                    o.peak_bytes / 2**30,
                    100 * o.memory_saving,
                    100 * o.time_loss,
                    o.mt if o.mt != float("inf") else "inf",
                    ",".join(o.offloaded) or "-",
                ]
            )
        return report.table(
            ["strategy", "peak RSS (GiB)", "mem saving %", "perf loss %", "MT", "offloaded"],
            rows,
            "Figure 13: ADMM-Offload vs baselines",
        )


def fig13_offload(spec: DatasetSpec = SMALL) -> OffloadResult:
    cost = CostModel()
    sched = IterationSchedule.from_cost_model(spec.dims, cost)
    planner = OffloadPlanner(sched, cost)
    base = planner.evaluate(())
    best = planner.best_plan()
    greedy = greedy_offload(sched, cost)
    lru = lru_offload(sched, cost)
    return OffloadResult(
        outcomes={
            "ADMM (no offload)": base,
            "ADMM greedy offload": greedy,
            "ADMM LRU offload": lru,
            "ADMM-Offload": best,
        }
    )


# ---------------------------------------------------------------------------
# Figures 14/15/16 — scalability, bandwidth, latency
# ---------------------------------------------------------------------------


@dataclass
class ScalingResult:
    gpu_counts: list[int]
    op_times: dict[str, list[float]]
    overall: list[float]
    nic_utilization: list[float]
    latencies: dict[int, list[float]]

    def report(self) -> str:
        rows = [
            [g] + [self.op_times[op][i] for op in self.op_times] + [self.overall[i]]
            for i, g in enumerate(self.gpu_counts)
        ]
        t = report.table(
            ["GPUs"] + list(self.op_times) + ["overall (s)"],
            rows,
            "Figure 14: scalability over GPUs",
        )
        rows2 = [
            [g, 100 * u] for g, u in zip(self.gpu_counts, self.nic_utilization)
        ]
        t += "\n\n" + report.table(
            ["GPUs", "bandwidth utilization %"], rows2, "Figure 15"
        )
        for g in self.gpu_counts:
            lat = self.latencies[g]
            frac = float(np.mean([v > 0.1 for v in lat])) if lat else 0.0
            t += "\n" + report.table(
                ["quantile", "latency (s)"],
                report.cdf_rows(lat),
                f"Figure 16: query latency CDF at {g} GPUs (>100ms: {frac:.0%})",
            )
        return t


def fig14_scaling(
    spec: DatasetSpec = SMALL,
    gpu_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    sim_outer: int = 12,
    n_outer: int = 60,
    quick: bool = True,
) -> ScalingResult:
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
    return ScalingResult(
        gpu_counts=list(gpu_counts),
        op_times=op_times,
        overall=overall,
        nic_utilization=util,
        latencies=lats,
    )


@dataclass
class ShardedScalingResult:
    """Figure 14 companion: the workers x shards scaling surface.

    The numeric run is executed once at ``n_workers x n_shards`` (private
    caches make the numerics independent of the worker/shard counts); its
    per-worker and per-shard statistics are reported directly, and its
    worker-tagged steady-state trace is replayed on the DES across the
    (workers, shards) grid.
    """

    n_workers: int
    n_shards: int
    shard_hit_rates: list[float]
    shard_queries: list[int]
    shard_entries: list[int]
    worker_keys: list[int]
    worker_messages: list[int]
    worker_mean_batch: list[float]
    case_counts: dict[str, int]
    grid_workers: list[int]
    grid_shards: list[int]
    lsp_times: dict[tuple[int, int], float]
    query_p50: dict[tuple[int, int], float]

    def report(self) -> str:
        rows = [
            [s, self.shard_queries[s], self.shard_hit_rates[s], self.shard_entries[s]]
            for s in range(self.n_shards)
        ]
        t = report.table(
            ["shard", "queries", "hit rate", "entries"],
            rows,
            f"Sharded memoization service ({self.n_workers} workers x "
            f"{self.n_shards} shards, numeric run)",
        )
        rows2 = [
            [w, self.worker_keys[w], self.worker_messages[w], self.worker_mean_batch[w]]
            for w in range(self.n_workers)
        ]
        t += "\n\n" + report.table(
            ["worker", "keys", "messages", "mean batch"],
            rows2,
            "Per-worker key coalescing",
        )
        rows3 = [
            [w] + [self.lsp_times[(w, s)] for s in self.grid_shards]
            for w in self.grid_workers
        ]
        t += "\n\n" + report.table(
            ["workers \\ shards"] + [str(s) for s in self.grid_shards],
            rows3,
            "Figure 14 (sharded): LSP seconds over the workers x shards grid",
        )
        return t


def fig14_sharded(
    spec: DatasetSpec = SMALL,
    n_workers: int = 4,
    n_shards: int = 2,
    grid_workers: tuple[int, ...] = (1, 2, 4, 8, 16),
    grid_shards: tuple[int, ...] = (1, 2, 4),
    sim_outer: int = 12,
    db_keys: int = 4_000_000,
    quick: bool = True,
) -> ShardedScalingResult:
    """The distributed-memoization scaling study (paper Sections 4.3/5.2).

    Runs the real (scaled-down) reconstruction on a
    :class:`~repro.core.memo_engine.MemoizedExecutor` with
    ``n_workers x n_shards``, then replays its worker-tagged steady trace on
    the DES over the ``grid_workers x grid_shards`` surface.  ``db_keys`` is
    the modeled beamline-scale key population — large enough that index
    search time is visible next to the wire time, which is what sharding
    attacks.
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

    lsp_times: dict[tuple[int, int], float] = {}
    p50: dict[tuple[int, int], float] = {}
    for w in grid_workers:
        for s in grid_shards:
            perf = simulate_iteration(
                spec.dims, n_gpus=w, variant="canc_fused", n_inner=4,
                trace=trace, db_keys=db_keys, n_shards=s,
                trace_by_location=True,
            )
            lsp_times[(w, s)] = perf.lsp_time
            lat = sorted(perf.query_latencies)
            p50[(w, s)] = lat[len(lat) // 2] if lat else 0.0

    return ShardedScalingResult(
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
        query_p50=p50,
    )


def fig15_bandwidth(**kwargs) -> ScalingResult:
    """Figure 15 shares the Figure 14 sweep."""
    return fig14_scaling(**kwargs)


def fig16_latency_cdf(**kwargs) -> ScalingResult:
    """Figure 16 shares the Figure 14 sweep."""
    return fig14_scaling(**kwargs)


# ---------------------------------------------------------------------------
# Table 1 + Figure 17 — accuracy and convergence
# ---------------------------------------------------------------------------


@dataclass
class AccuracyResult:
    taus: list[float]
    accuracies: list[float]
    memo_fractions: list[float]

    def report(self) -> str:
        rows = [
            [t, a, m]
            for t, a, m in zip(self.taus, self.accuracies, self.memo_fractions)
        ]
        return report.table(
            ["tau", "accuracy", "memoized fraction"],
            rows,
            "Table 1: impact of memoization on reconstruction accuracy",
        )


def tab01_accuracy(
    spec: DatasetSpec = SMALL,
    taus: tuple[float, ...] = (0.86, 0.88, 0.90, 0.92, 0.94, 0.96),
    n_outer: int = 60,
    quick: bool = True,
) -> AccuracyResult:
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
    return AccuracyResult(taus=list(taus), accuracies=accs, memo_fractions=memos)


# ---------------------------------------------------------------------------
# Figure 18 — streaming pipeline overlap
# ---------------------------------------------------------------------------


@dataclass
class PipelineOverlapResult:
    """Serial vs pipelined execution: functional bit-identity at simulation
    scale plus the overlapped-phase makespan surface at paper scale."""

    queue_depths: list[int]
    worker_counts: list[int]
    perfs: dict[tuple[int, int], PipelinePerf]  # (queue_depth, workers) -> perf
    io_time: float  # modeled per-chunk read + write seconds
    bitwise_identical: bool
    streaming_identical: bool
    pipeline_items: int
    #: producer blocks observed by the functional run — timing-dependent, so
    #: not part of ``report()`` (whose output is committed)
    read_backpressure: int
    case_counts: dict[str, int]

    @property
    def serial_time(self) -> float:
        return next(iter(self.perfs.values())).serial_time

    def report(self) -> str:
        rows = []
        for (q, w), perf in sorted(self.perfs.items()):
            rows.append(
                [q, w, perf.pipelined_time, perf.speedup, perf.speedup_bound,
                 perf.fill_drain_time]
            )
        t = report.table(
            ["queue depth", "workers", "pipelined (s)", "speedup", "bound",
             "fill/drain (s)"],
            rows,
            f"Figure 18: pipelined sweep makespan (serial = "
            f"{self.serial_time:.3f} s, per-chunk I/O = {self.io_time * 1e3:.2f} ms)",
        )
        t += (
            f"\nfunctional run: pipelined == serial bit-for-bit: "
            f"{self.bitwise_identical}; streaming ingest == batch: "
            f"{self.streaming_identical}; {self.pipeline_items} chunk-ops pipelined"
        )
        return t


def fig18_pipeline_overlap(
    spec: DatasetSpec = SMALL,
    queue_depths: tuple[int, ...] = (1, 2, 4),
    worker_counts: tuple[int, ...] = (1, 2, 4),
    sim_outer: int = 6,
    quick: bool = True,
) -> PipelineOverlapResult:
    """The streaming-pipeline study (overlapped read -> memoized compute ->
    write; :mod:`repro.pipeline`).

    The *functional* half runs the real solver twice — monolithic and
    ``pipeline=`` mode — and checks bit-identity, plus a streaming-ingest
    run where projections arrive block by block from a producer thread.
    The *modeled* half schedules one paper-scale sweep on the DES across
    the (queue depth, compute workers) grid, with SSD chunk reads/writes
    as the outer stages.
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
    perfs = {
        (q, w): simulate_pipeline(
            dims.n_chunks, read, compute, write, queue_depth=q, n_workers=w
        )
        for q in queue_depths
        for w in worker_counts
    }

    return PipelineOverlapResult(
        queue_depths=list(queue_depths),
        worker_counts=list(worker_counts),
        perfs=perfs,
        io_time=read + write,
        bitwise_identical=bool(np.array_equal(serial_result.u, piped_result.u)),
        streaming_identical=bool(np.array_equal(serial_result.u, streaming_result.u)),
        pipeline_items=stats.items,
        read_backpressure=stats.read_queue.producer_blocks,
        case_counts=dict(piped_result.case_counts),
    )


@dataclass
class ConvergenceResult:
    loss_without: list[float]
    loss_with: list[float]

    def report(self) -> str:
        rows = [
            [i, a, b]
            for i, (a, b) in enumerate(zip(self.loss_without, self.loss_with))
        ]
        return report.table(
            ["iteration", "loss w/o memoization", "loss w/ memoization"],
            rows,
            "Figure 17: convergence with and without memoization",
        )


def fig17_convergence(
    spec: DatasetSpec = SMALL, n_outer: int = 60, tau: float = 0.92, quick: bool = True
) -> ConvergenceResult:
    if quick:
        n_outer = min(n_outer, 20)
    problem = _Problem(spec)
    ops, data = problem.ops, problem.data

    # The memoized run's internal residuals are themselves approximated, so
    # both curves report the *true* loss of the iterate, evaluated with the
    # exact operators.
    import numpy as np

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
    return ConvergenceResult(loss_without=losses["ref"], loss_with=losses["mlr"])


# ---------------------------------------------------------------------------
# Warm start — cross-job memoization through the reconstruction service
# ---------------------------------------------------------------------------


@dataclass
class WarmstartResult:
    """The cross-job experiment: repeated scans of one sample, reconstructed
    as service jobs over the scheduler's shared (persistable) memo tier."""

    job_rows: list[list]  # job, mode, queries, hits, hit rate, entries at start
    first_job_hit_rate: float
    cold_hit_rate: float  # second scan on a fresh database
    warm_hit_rate: float  # second scan warm-started from the first job's db

    @property
    def warm_gain(self) -> float:
        """Absolute db hit-rate gained by warm-starting the second scan."""
        return self.warm_hit_rate - self.cold_hit_rate

    def report(self) -> str:
        t = report.table(
            ["job", "mode", "db queries", "db hits", "hit rate", "entries at start"],
            self.job_rows,
            "Warm start: per-job memo-database traffic (deltas)",
        )
        lines = [
            t,
            "",
            f"second-scan hit rate: cold {self.cold_hit_rate:.3f} -> "
            f"warm {self.warm_hit_rate:.3f} (gain +{self.warm_gain:.3f})",
        ]
        return "\n".join(lines)


def fig_warmstart(
    spec: DatasetSpec = SMALL,
    sim_outer: int = 6,
    tau: float = 0.9,
    quick: bool = True,
    snapshot_dir: str | None = None,
) -> WarmstartResult:
    """Cross-job memoization: the IC-inspection operating mode where
    near-identical samples are scanned job after job.

    Three reconstructions of two scans (same sample, independent noise):

    - ``scan-1`` and ``scan-2`` run as *service jobs* on a
      :class:`~repro.service.ReconstructionScheduler` whose shared memo
      service hands job 1's database tier to job 2 (the warm start),
    - ``scan-2 (cold)`` runs standalone on a fresh database — the control
      the warm hit rate is measured against.

    With ``snapshot_dir`` the cold solver's database tier is also saved
    there as an on-disk snapshot (the artifact the service example keeps).
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
    return WarmstartResult(
        job_rows=[
            row("scan-1", "service (cold)", h1.memo_delta, h1.db_entries_start),
            row("scan-2", "service (warm)", h2.memo_delta, h2.db_entries_start),
            row("scan-2", "standalone cold", cold_stats, 0),
        ],
        first_job_hit_rate=h1.memo_delta.hit_rate,
        cold_hit_rate=cold_stats.hit_rate,
        warm_hit_rate=h2.memo_delta.hit_rate,
    )
