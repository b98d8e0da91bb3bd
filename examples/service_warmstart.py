"""Reconstruction service: multi-job scheduling + cross-job warm starts.

The IC-inspection operating mode: near-identical samples are scanned job
after job, so the memoization database accumulated by one reconstruction is
a head start for the next.  This demo drives the `repro.service` subsystem
end to end:

1. **Two-job warm start** — scan-1 and scan-2 (same sample, independent
   noise) run as prioritized jobs on a `ReconstructionScheduler`; the
   scheduler's shared memo service seeds job 2 from job 1's database tier,
   and the per-job `MemoDBStats` deltas quantify the gain against a cold
   control run of the same scan.
2. **Persistence** — the cold control's database tier is saved as a
   versioned on-disk snapshot (one checksummed file of the state-tree
   codec) and kept as an artifact; that restored databases answer
   `query_batch` bit-identically is the test suite's job
   (`tests/service/test_warmstart.py`).
3. **Operations** — a burst of prioritized jobs on a bounded queue shows
   priority ordering, cooperative cancellation and admission control.

Run:  python examples/service_warmstart.py [--quick] [--out DIR]
"""

import argparse
import json
import os

import numpy as np

from repro.core import MemoConfig, MLRConfig
from repro.harness import experiments as E
from repro.harness.datasets import SMALL
from repro.lamino import LaminoGeometry, brain_like, simulate_data
from repro.service import (
    AdmissionError,
    JobSpec,
    JobState,
    ReconstructionScheduler,
    ServiceConfig,
)
from repro.solvers import ADMMConfig


def warmstart_demo(out_dir: str, quick: bool) -> dict:
    snapshot_dir = os.path.join(out_dir, "snapshot")
    result = E.fig_warmstart(
        spec=SMALL, sim_outer=4 if quick else 8, quick=quick,
        snapshot_dir=snapshot_dir,
    )
    print(result.report())
    assert result.warm_hit_rate > result.cold_hit_rate, (
        "warm-started job must beat its cold run"
    )
    snapshot_nbytes = os.path.getsize(os.path.join(snapshot_dir, "snapshot.mlr"))
    print(f"snapshot: {snapshot_nbytes / 1024:.1f} KiB on disk")
    return {
        "cold_hit_rate": result.cold_hit_rate,
        "warm_hit_rate": result.warm_hit_rate,
        "warm_gain": result.warm_gain,
        "first_job_hit_rate": result.first_job_hit_rate,
        "snapshot_nbytes": snapshot_nbytes,
        "jobs": [
            dict(zip(["job", "mode", "queries", "hits", "hit_rate",
                      "entries_at_start"], row))
            for row in result.job_rows
        ],
    }


def iteration_timing(handle) -> tuple[float, float]:
    """``(to_first_iteration_s, mean_iteration_s)`` of a finished job, from
    its event log: the seconds from ``running`` to the first ``iteration``
    event (materialize, seed, solver construction and one outer iteration)
    and the mean spacing of the iteration events after it.  The first job
    of a geometry pays the Lipschitz power iteration in the former; every
    later one reads the estimate."""
    running = next(ev.t for ev in handle.events if ev.kind == "running")
    iterations = [ev.t for ev in handle.events if ev.kind == "iteration"]
    later = len(iterations) - 1
    mean = (iterations[-1] - iterations[0]) / later if later else float("nan")
    return iterations[0] - running, mean


def operations_demo(quick: bool) -> dict:
    """Priority ordering, cancellation and admission control in one burst."""
    n = 12 if quick else 16
    geometry = LaminoGeometry((n, n, n), n_angles=n, det_shape=(n, n), tilt_deg=61.0)
    data = simulate_data(brain_like(geometry.vol_shape, seed=7), geometry,
                         noise_level=0.05, seed=1)
    cfg = MLRConfig(
        chunk_size=4,
        memo=MemoConfig(tau=0.9, warmup_iterations=1, index_train_min=8,
                        index_clusters=4, index_nprobe=2),
    )
    admm = ADMMConfig(n_outer=2, n_inner=2, step_max_rel=4.0)

    def spec(name: str, priority: int) -> JobSpec:
        return JobSpec(name=name, geometry=geometry, projections=data,
                       config=cfg, admm=admm, priority=priority)

    rejected = 0
    with ReconstructionScheduler(
        ServiceConfig(n_workers=1, max_queue_depth=4, share_memo=True)
    ) as sched:
        handles = [sched.submit(spec(f"job-p{p}", priority=p)) for p in (0, 2, 1, 3)]
        victim = handles[2]
        victim.cancel()  # cooperative: queued jobs die in place
        for i in range(8):
            try:
                handles.append(sched.submit(spec(f"burst-{i}", priority=0)))
            except AdmissionError as exc:
                if not rejected:
                    print(f"admission control: {exc}")
                rejected += 1
        for handle in handles:
            handle.wait(timeout=600)
    states = {h.spec.name: h.state.value for h in handles}
    print(f"job states: {states}")
    assert states["job-p1"] == JobState.CANCELLED.value
    assert rejected > 0, "the burst should overflow the bounded queue"
    done = [h for h in handles if h.state is JobState.DONE]
    assert done and all(h.result is not None for h in done)
    # in completion order: the first job of the geometry ran the estimate
    done.sort(key=lambda h: h.events[-1].t)
    timings = {h.spec.name: iteration_timing(h) for h in done}
    print("job          to first iteration   mean iteration")
    for name, (first, mean) in timings.items():
        print(f"{name:<12} {first * 1e3:15.1f} ms {mean * 1e3:13.1f} ms")
    return {
        "states": states,
        "to_first_iteration_s": {name: first for name, (first, _m) in timings.items()},
        "mean_iteration_s": {name: mean for name, (_f, mean) in timings.items()},
        "rejected": rejected,
        "scheduler": {
            "submitted": sched.stats.submitted,
            "completed": sched.stats.completed,
            "cancelled": sched.stats.cancelled,
            "rejected": sched.stats.rejected,
            "peak_queue_depth": sched.stats.peak_queue_depth,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller/faster run")
    parser.add_argument("--out", default=os.path.join("benchmarks", "results", "service"),
                        help="artifact directory (snapshot + report)")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    np.random.seed(0)  # the demo itself is deterministic; belt and braces

    report = {"quick": args.quick}
    print("== two-job warm start over the shared memo service ==")
    report["warmstart"] = warmstart_demo(args.out, args.quick)
    print("\n== scheduler operations: priority / cancellation / admission ==")
    report["operations"] = operations_demo(args.quick)

    report_path = os.path.join(args.out, "warmstart_report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\n[report saved to {report_path}; snapshot under "
          f"{os.path.join(args.out, 'snapshot')}]")


if __name__ == "__main__":
    main()
