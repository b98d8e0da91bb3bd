"""One run of one workload: pre-fault, set-up, reference solve, jobs, checks.

``--trace 0`` times whole jobs with nothing installed and yields the
end-to-end metrics; ``--trace 1`` interleaves untraced and traced jobs and
yields the per-layer metrics (the difference between the two kinds is the
tracing overhead).  The shims exist only while a traced job or the traced
set-up runs.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

from repro.core.memo_engine import memo_state_partitions

from .inputs import accuracy, adjoint_rel_error
from .metrics import END_TO_END, PER_LAYER, JobTrace, end_to_end, per_layer
from .tracing import Tracer
from .workloads import WORKLOADS, tier_mb

__all__ = ["RESULTS_DIR", "contract_line", "keep_heap", "prefault", "run"]

_HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(_HERE, "results")

#: fresh operator stacks built and timed after the jobs; ``setup_s`` is their
#: median (the run's first, process-cold set-up is ``info.first_setup_s``)
SETUP_REPS = 3
#: envelope of a memoized reconstruction's error over the same-data direct
#: solve's, for one run.  A run sees one noise draw on ``mlr_cold`` and
#: ``mlr_tcp``; typical is 1.06x, but 1 seed in 40 chains a stale value and
#: lands at 1.36x, and a check that failed on it would make a verdict depend
#: on the seeds drawn.  So this one catches breakage (a zero volume is 1.63x)
#: and ``compare.ENVELOPE`` holds the median over a set's runs to 1.20x.
ENVELOPE_ONE_RUN = 1.5


def keep_heap() -> None:
    """Make glibc keep every page this process has touched: one arena, no
    ``mmap`` for large blocks, no trimming.

    Otherwise each fresh operator stack and every large temporary is mapped
    anew, and in this sandbox a first touch is a host-level fault whose cost
    swings between 0.3 and 60 ms/MB from one minute to the next (measured:
    six set-ups in a row 1.5-9.2 s without this, 1.23-1.41 s with it).  The
    program's own work is unchanged; ``peak_rss_mb`` reads 0-4 % higher.
    """
    mallopt = ctypes.CDLL(None).mallopt
    m_trim_threshold, m_mmap_max, m_arena_max = -1, -4, -8
    for param, value in ((m_arena_max, 1), (m_mmap_max, 0), (m_trim_threshold, 2**31 - 1)):
        if not mallopt(param, value):
            raise OSError(f"mallopt({param}, {value}) refused")


def prefault(mb: int) -> float:
    """Have a short-lived child allocate and touch ``mb`` megabytes.

    In this sandbox memory the guest has not touched for a minute costs
    4-6 ms/MB on first touch, which would land in ``setup_s`` and the first
    jobs.  A child pays it instead, so this process's ``ru_maxrss`` stays
    the workload's own.
    """
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(_HERE, "prefault.py"), str(mb)], check=True
    )
    return perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same(a, b) -> bool:
    return bool(np.array_equal(a.u, b.u)) and a.case_counts == b.case_counts


class _Checks:
    """Named pass/fail checks; a failed one makes the run incorrect."""

    def __init__(self) -> None:
        self.results: dict[str, dict] = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.results.values())


def _common_checks(checks, wl, jobs, reference) -> int:
    """Checks shared by both modes; returns the failed-operation count:
    jobs not completed or not reproducing what they must, plus degraded or
    retried memo batches."""
    failed = sum(not j.done for j in jobs)
    checks.add("jobs_done", failed == 0, f"{failed} of {len(jobs)} not DONE")
    net_bad = sum(
        j.net.get("retries", 0)
        + j.net.get("degraded_query_batches", 0)
        + j.net.get("degraded_insert_batches", 0)
        for j in jobs
    )
    if wl.name == "mlr_tcp":
        checks.add("tcp_clean", net_bad == 0, f"{net_bad} retried/degraded batches")
    if wl.name != "service_warm":
        # same data, same start state: every job must return the same bits —
        # on mlr_tcp the bits of the in-process 2 x 2 solve
        differ = sum(not _same(j, reference) for j in jobs if j.done)
        checks.add("jobs_identical", differ == 0, f"{differ} jobs differ from the reference job")
        failed += differ
    return failed + net_bad


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload once; returns the result record (see ``README.md``)."""
    wl = WORKLOADS[name](tiny)
    try:
        return _run(wl, seed, seconds, trace)
    finally:
        wl.close()


def _run(wl, seed: int, seconds: float, trace: bool) -> dict:
    checks = _Checks()
    tracer = Tracer()
    prefault_s = prefault(wl.prefault_mb)

    # -- set-up: the operator stack the jobs run on ------------------------------------------
    if trace:
        with tracer:
            tracer.begin_job("setup")
            first_setup_s = wl.setup()
            tracer.end_job()
    else:
        first_setup_s = wl.setup()
    info = {"prefault_s": prefault_s, "first_setup_s": first_setup_s}
    wl.prepare(seed)
    ops, u_true = wl.ops, wl.inputs.u_true
    adj = adjoint_rel_error(ops, seed)
    checks.add("adjoint", adj < 1e-4, f"rel {adj:.2e}")

    # -- reference solve (the process's warm-up job) -----------------------------------------
    reference = wl.reference()
    ref_err, ref_res = accuracy(ops, reference.u, reference.d, u_true)
    info.update(reference_job_s=reference.wall_s, reference_recon_rel_err=ref_err,
                reference_data_residual_rel=ref_res, adjoint_rel_err=adj)
    extras = {"prefault_s": prefault_s}
    if trace:
        extras["lamino.first_job_extra_s"] = reference.wall_s - wl.reference().wall_s
    # what every job must reproduce bit for bit: the direct reference on
    # admm_direct, the in-process 2 x 2 solve on mlr_tcp, else the first job
    same_as = reference if wl.name == "admm_direct" else None
    if wl.name == "mlr_tcp":
        same_as = wl.inproc_job()
        info["inproc_job_s"] = same_as.wall_s
    cold = None
    if wl.name == "service_warm":
        cold = wl.job(tag="cold")  # untimed: it is the tier's cold start
        info["cold_job_s"] = cold.wall_s
        extras["service.cold_job_s"] = cold.wall_s

    # -- jobs ---------------------------------------------------------------------------
    if trace:
        plan = wl.trace_plan
        jobs = []
        for i, kind in enumerate(plan):
            if kind == "T":
                with tracer:
                    jobs.append(wl.job(tracer, tag=f"T{i}"))
            else:
                jobs.append(wl.job(tag=f"{kind}{i}", obs=kind == "O"))
    else:
        plan = "U" * wl.n_timed(seconds)
        jobs = [wl.job(tag=f"U{i}") for i in range(len(plan))]
    attempted = jobs + ([cold] if cold else [])
    failed = _common_checks(checks, wl, attempted, same_as or jobs[0])
    info["job_walls_s"] = [j.wall_s for j in jobs]
    if not all(j.done for j in attempted):  # nothing to measure: incorrect, no metrics
        return _record(wl, seed, seconds, trace, checks, len(attempted), failed, {}, info, [])

    # -- accuracy (exact forward model, outside every clock) ---------------------------
    if wl.name == "service_warm":  # every job has its own noise draw
        accuracies = [accuracy(ops, j.u, j.d, u_true) for j in jobs]
    else:
        accuracies = [accuracy(ops, jobs[-1].u, jobs[-1].d, u_true)]
    err = statistics.median(a[0] for a in accuracies)
    res = statistics.median(a[1] for a in accuracies)
    info.update(job_accuracies=accuracies, recon_rel_err=err, data_residual_rel=res)
    extras["accuracy.data_residual_rel"] = res
    extras["accuracy.excess_over_direct"] = err / ref_err - 1.0
    if wl.name == "admm_direct":
        checks.add("direct_residual", res < 0.05, f"data_residual_rel {res:.4f}")
    else:
        checks.add(
            "accuracy_envelope", err <= ENVELOPE_ONE_RUN * ref_err,
            f"recon_rel_err {err:.4f} vs {ENVELOPE_ONE_RUN} x direct {ref_err:.4f}",
        )

    if not trace:
        # set-up is timed last, on fresh stacks in a process whose heap is
        # warm: the run's first set-up (first_setup_s) costs twice as much in
        # first-touch page faults, whatever the pre-fault child did
        ops = None  # or the jobs' stack would stay alive next to each fresh one
        info["setup_samples_s"] = [wl.setup() for _ in range(SETUP_REPS)]
        metrics = end_to_end(info["setup_samples_s"], jobs, err, _peak_rss_mb())
        return _record(wl, seed, seconds, trace, checks, len(attempted), failed, metrics,
                       info, [])

    # -- per-layer metrics ----------------------------------------------------------------
    traced = [(JobTrace(tracer.spans, f"T{i}", j.wall_s), j)
              for i, (j, kind) in enumerate(zip(jobs, plan)) if kind == "T"]
    extras["lamino.plan_build_s"] = sum(
        s[4] - s[3] for s in tracer.spans if s[5] == "setup" and s[2] == "lamino.plan_build"
    )
    extras["trace.overhead_frac"] = _overhead(jobs, plan, "T")
    if "O" in plan:
        extras["obs.on_overhead_frac"] = _overhead(jobs, plan, "O")
    if wl.name == "mlr_tcp":
        untraced = statistics.median(j.wall_s for j, kind in zip(jobs, plan) if kind == "U")
        extras["net.tcp_penalty_s"] = untraced - same_as.wall_s
    if wl.name == "service_warm":
        extras.update(_service_extras(wl, jobs, accuracies))
    span_cost = tracer.span_cost_s()
    extras["trace.span_cost_frac"] = statistics.median(
        sum(t.count.values()) * span_cost / t.wall for t, _ in traced
    )
    metrics = per_layer(traced, extras)
    checks.add(
        "trace_attributed", metrics["trace.unattributed_frac"] <= 0.10,
        f"unattributed {metrics['trace.unattributed_frac']:.3f}",
    )
    # held on the span count, not on trace.overhead_frac: traced against
    # untraced walls read +-5 % in this sandbox whatever tracing costs
    checks.add(
        "trace_overhead", metrics["trace.span_cost_frac"] <= 0.05,
        f"{span_cost * 1e6:.2f} us/span is {metrics['trace.span_cost_frac']:.4f} of the wall; "
        f"measured against untraced neighbours {metrics['trace.overhead_frac']:+.3f}",
    )
    info["layer_self_s"] = {
        layer: statistics.median(t.self_by_layer.get(layer, 0.0) for t, _ in traced)
        for layer in sorted({k for t, _ in traced for k in t.self_by_layer})
    }
    return _record(wl, seed, seconds, trace, checks, len(attempted), failed, metrics, info,
                   tracer.spans)


def _overhead(jobs, plan: str, kind: str) -> float:
    """Median over the jobs of ``kind`` of their wall over the mean wall of
    the nearest untraced job on either side, minus 1.  Neighbours, because
    the sandbox's speed drifts within a run."""
    walls = [j.wall_s for j in jobs]
    untraced = [i for i, k in enumerate(plan) if k == "U"]
    ratios = []
    for i, k in enumerate(plan):
        if k == kind:
            before = max(u for u in untraced if u < i)
            after = min(u for u in untraced if u > i)
            ratios.append(2.0 * walls[i] / (walls[before] + walls[after]))
    return statistics.median(ratios) - 1.0


def _service_extras(wl, jobs, accuracies) -> dict:
    """Run-level ``service.*`` metrics of ``service_warm``."""
    # least squares over the warm-job index: what a tier that only grows
    # costs the next job (traced jobs included; their overhead is ~1 %)
    slope = float(np.polyfit(range(len(jobs)), [j.wall_s for j in jobs], 1)[0])
    service = wl.scheduler.memo_service
    tree = service.state()
    # persistence of the final tier, after every clock has stopped
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as tmp:
        path = os.path.join(tmp, "tier")
        t0 = perf_counter()
        service.save(path)
        t1 = perf_counter()
        service.load(path)
        t2 = perf_counter()
        snapshot_mb = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _dirs, files in os.walk(path) for f in files
        ) / 1e6
    return {
        "service.queue_wait_s": statistics.median(j.service["queue_wait_s"] for j in jobs),
        "service.run_s": statistics.median(j.service["run_s"] for j in jobs),
        "service.latency_slope_s_per_job": slope,
        "service.warm_hit_rate": sum(j.db["hits"] for j in jobs)
        / max(1, sum(j.db["queries"] for j in jobs)),
        "service.worst_recon_rel_err": max(a[0] for a in accuracies),
        "service.worst_data_residual_rel": max(a[1] for a in accuracies),
        "service.tier_entries_end": sum(
            len(p["db"]["key_ids"]) for p in memo_state_partitions(tree)
        ),
        "service.tier_mb_end": tier_mb(tree),
        "service.snapshot_save_s": t1 - t0,
        "service.snapshot_load_s": t2 - t1,
        "service.snapshot_mb": snapshot_mb,
    }


def _record(wl, seed, seconds, trace, checks, attempted, failed, metrics, info, spans) -> dict:
    units = {n: v[0] for n, v in (PER_LAYER if trace else END_TO_END).items()}
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": checks.ok and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
        "checks": checks.results,
        "info": info,
        "spans": spans,
    }


def contract_line(record: dict) -> str:
    """The one-line JSON object the driver reads off the end of stdout."""
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})
