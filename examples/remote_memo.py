"""Remote memoization: two hosts sharing one memo server daemon.

The multi-host deployment of the mLR memo tier, demonstrated over loopback
TCP in one process (in production the daemon runs standalone:
``python -m repro.net.server --port 9876 --shards 4``):

1. **Shared-tier warm start** — a `MemoServerDaemon` is spawned; job 1
   (scan 1) reconstructs with ``MemoConfig(transport="tcp")``, populating
   the daemon's sharded database; job 2 (scan 2 of the same sample,
   independent noise — the IC-inspection recurrence) runs as a *fresh*
   solver against the same daemon and hits the tier job 1 built.
2. **Scheduler tier over the wire** — a `ReconstructionScheduler` with
   ``ServiceConfig(memo_transport="tcp")`` seeds a job from the daemon
   (its `SharedMemoService` holds the daemon's client as its tier — what a
   second beamline host's scheduler would do).
3. **Fail-open** — the daemon is killed mid-reconstruction: the job
   completes on cold compute (degraded queries are counted, nothing
   fails), and once a daemon is back on the address the same client
   reconnects.

Run:  python examples/remote_memo.py [--quick] [--out DIR]
"""

import argparse
import json
import os

import numpy as np

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, brain_like, simulate_data
from repro.net import MemoServerDaemon
from repro.service import JobSpec, ReconstructionScheduler, ServiceConfig
from repro.solvers import ADMMConfig


def build_problem(quick: bool):
    n = 16 if quick else 32
    g = LaminoGeometry((n, n, n), n_angles=12 if quick else 24,
                       det_shape=(n, n), tilt_deg=61.0)
    truth = brain_like(g.vol_shape, seed=7)
    scans = [simulate_data(truth, g, noise_level=0.03, seed=s) for s in (1, 2)]
    return g, scans


def memo_cfg(**over) -> MemoConfig:
    base = dict(tau=0.9, warmup_iterations=1, index_train_min=8,
                index_clusters=4, index_nprobe=2)
    base.update(over)
    return MemoConfig(**base)


def shared_tier_demo(g, scans, admm) -> dict:
    print("== shared-tier warm start over loopback TCP ==")
    report = {}
    with MemoServerDaemon(n_shards=2, memo=memo_cfg(),
                          name="demo-daemon") as daemon:
        host, port = daemon.address
        print(f"daemon listening on {host}:{port} (2 shards)")

        def tcp_config():
            return MLRConfig(
                chunk_size=4,
                memo=memo_cfg(transport="tcp", server_address=(host, port)),
                n_workers=2, n_shards=2,
            )

        rates = []
        for i, d in enumerate(scans):
            solver = MLRSolver(g, tcp_config(), admm=admm)
            result = solver.reconstruct(d)
            ns = solver.memo_executor.router.net_stats
            rates.append(result.memoized_fraction)
            print(
                f"job {i + 1}: hit rate {rates[-1]:.2f}  "
                f"(requests {ns.requests}, pipelined inserts "
                f"{ns.pipelined_inserts}, degraded {ns.degraded_queries})"
            )
            report[f"job{i + 1}"] = {
                "hit_rate": rates[-1],
                "requests": ns.requests,
                "pipelined_inserts": ns.pipelined_inserts,
                "degraded_queries": ns.degraded_queries,
            }
            solver.close()
        assert rates[1] > rates[0], "job 2 must warm-start from the shared tier"
        report["daemon"] = {
            "entries": daemon.router.entries(),
            "queries": daemon.stats.queries,
            "connections": daemon.stats.connections,
        }
        print(f"daemon tier: {daemon.router.entries()} entries, "
              f"{daemon.stats.queries} queries served")

        print("\n== scheduler warm start from the daemon's tier ==")
        sched = ReconstructionScheduler(
            ServiceConfig(n_workers=1, memo_transport="tcp",
                          memo_server=(host, port))
        )
        # an inproc job seeded from the remote tier (a second host's scheduler)
        job = sched.submit(
            JobSpec("remote-seeded", g, scans[1],
                    config=MLRConfig(chunk_size=4, memo=memo_cfg()), admm=admm)
        )
        job.wait()
        sched.shutdown()
        assert any(ev.kind == "warm_start" for ev in job.events), (
            "scheduler must seed from the daemon tier"
        )
        report["scheduler_job"] = {
            "warm_started": True,
            "hit_rate": job.memo_delta.hit_rate,
            "db_entries_start": job.db_entries_start,
        }
        print(f"scheduler job warm-started: hit rate "
              f"{job.memo_delta.hit_rate:.2f}, seeded "
              f"{job.db_entries_start} entries")
    return report


def fail_open_demo(g, scans, admm) -> dict:
    print("\n== fail-open: daemon killed mid-reconstruction ==")
    daemon = MemoServerDaemon(n_shards=2, memo=memo_cfg(), name="doomed-daemon")
    host, port = daemon.address
    cfg = MLRConfig(
        chunk_size=4,
        memo=memo_cfg(transport="tcp", server_address=(host, port)),
        n_workers=2, n_shards=2,
    )
    solver = MLRSolver(g, cfg, admm=admm)

    def kill_at_iteration(it, _u, _info):
        if it == 1 and daemon.running:
            print("  ... killing the daemon mid-run")
            daemon.close()

    result = solver.reconstruct(scans[0], callback=kill_at_iteration)
    ns = solver.memo_executor.router.net_stats
    assert np.isfinite(result.u).all(), "fail-open job must still complete"
    assert ns.degraded_queries > 0 or ns.degraded_insert_batches > 0
    print(f"job completed cold: {ns.degraded_queries} degraded queries, "
          f"{ns.degraded_insert_batches} dropped insert batches")

    with MemoServerDaemon(host=host, port=port, n_shards=2, memo=memo_cfg()):
        connects_before = ns.connects
        solver.memo_executor.router.reset_backoff()  # "the daemon is back"
        solver.reconstruct(scans[0])
        assert ns.connects == connects_before + 1, "client must reconnect"
        print("daemon restarted on the same address: client reconnected "
              f"(connect #{ns.connects})")
    solver.close()
    return {
        "completed": True,
        "degraded_queries": ns.degraded_queries,
        "degraded_insert_batches": ns.degraded_insert_batches,
        "reconnects": ns.connects,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small problem / few iterations (CI configuration)")
    parser.add_argument("--out", default="benchmarks/results/remote-memo",
                        help="report output directory")
    args = parser.parse_args()

    g, scans = build_problem(args.quick)
    admm = ADMMConfig(n_outer=4 if args.quick else 8, n_inner=2,
                      step_max_rel=4.0)
    report = {
        "quick": bool(args.quick),
        "shared_tier": shared_tier_demo(g, scans, admm),
        "fail_open": fail_open_demo(g, scans, admm),
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "remote_memo.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
