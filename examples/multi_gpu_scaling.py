"""Multi-GPU scaling study on the simulated Polaris platform.

Runs a real (scaled-down) reconstruction on the memoized executor at
4 simulated GPU workers over a 2-shard memoization service,
then replays its worker-tagged trace at paper scale across 1..16 simulated
A100s and 1..4 index shards: the Section 5.2 / Figures 14-16 experiment
(intra-node scaling, the inter-node dip, memory-node NIC saturation,
query-latency inflation) plus the sharded-service surface.

Run:  python examples/multi_gpu_scaling.py
"""

import numpy as np

from repro.cluster import ProblemDims
from repro.core import MemoConfig, MLRConfig, MLRSolver, simulate_iteration


def main() -> None:
    # -- real run at simulation scale to harvest the memoization trace ---------
    from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
    from repro.solvers import ADMMConfig

    n = 32
    n_workers, n_shards = 4, 2
    geometry = LaminoGeometry((n, n, n), n_angles=n, det_shape=(n, n), tilt_deg=61.0)
    data = simulate_data(brain_like(geometry.vol_shape, seed=3), geometry,
                         noise_level=0.05, seed=1)
    ops = LaminoOperators(geometry)
    admm = ADMMConfig(n_outer=10, n_inner=4, step_max_rel=4.0)
    solver = MLRSolver(
        geometry,
        MLRConfig(chunk_size=4, memo=MemoConfig(tau=0.92, warmup_iterations=2),
                  n_workers=n_workers, n_shards=n_shards),
        admm=admm,
        ops=ops,
    )
    result = solver.reconstruct(data)
    ex = solver.executor
    steady = [ev for ev in result.events if ev.outer == admm.n_outer - 1]
    print(f"trace harvested: {len(steady)} chunk-ops in the steady iteration, "
          f"{ex.router.entries()} database entries, "
          f"{n_workers} workers x {n_shards} shards")

    print("\nper-shard memoization service:")
    for s, (st, n_entries) in enumerate(ex.router.shard_stats()):
        print(f"  shard {s}: {st.queries} queries, hit rate {st.hit_rate:.0%}, "
              f"{n_entries} entries")
    print("per-worker key coalescing:")
    for w, cs in enumerate(ex.per_worker_coalesce_stats()):
        print(f"  worker {w}: {cs.keys} keys in {cs.messages} messages "
              f"(mean batch {cs.mean_batch:.2f})")

    # -- paper-scale replay across GPU counts and index shards -------------------
    # the key population is the modeled beamline-scale database (months of
    # accumulated scans), not the sim-scale entry count: index search has to
    # be visible next to the wire time for the shard dimension to mean much
    dims = ProblemDims(n=1024, n_chunks=64)
    paper_keys = 100_000_000
    print(f"\n{'GPUs':>5} {'shards':>7} {'LSP (s)':>9} {'speedup':>8} "
          f"{'mem-NIC util':>13} {'query p50 (ms)':>15} {'>100ms':>7}")
    base = None
    for g in (1, 2, 4, 8, 16):
        for s in (1, 4):
            perf = simulate_iteration(
                dims, n_gpus=g, variant="canc_fused", n_inner=4,
                trace=steady, db_keys=paper_keys, n_shards=s,
                trace_by_location=True,
            )
            base = base or perf.lsp_time
            lat = np.asarray(perf.query_latencies)
            print(f"{g:>5} {s:>7} {perf.lsp_time:>9.2f} {base / perf.lsp_time:>8.2f} "
                  f"{perf.memory_nic_utilization():>12.0%} "
                  f"{np.median(lat) * 1e3 if lat.size else 0:>15.1f} "
                  f"{np.mean(lat > 0.1) if lat.size else 0:>7.0%}")
    print("\nintra-node scaling is near-linear; crossing nodes (>4 GPUs) adds "
          "all-to-all rechunking traffic, and the shared memory-node NIC "
          "becomes the bottleneck — sharding the index database parallelizes "
          "the similarity search but cannot widen the NIC (Figures 14-16).")


if __name__ == "__main__":
    main()
