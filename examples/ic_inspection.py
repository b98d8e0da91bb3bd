"""IC inspection scenario: fine features, strict threshold, offload planning.

The paper motivates laminography with integrated-circuit imaging at
sub-10-nm resolution: fine signal traces demand the strict similarity
threshold (tau = 0.95 per Section 4.5), and the full-resolution problem
does not fit in CPU memory — ADMM-Offload plans which variables spill to
SSD.  This example runs both parts: a scaled-down IC reconstruction with
strict-tau memoization, and the paper-scale offload plan for the same
experiment.

Run:  python examples/ic_inspection.py
"""

from repro.cluster import CostModel, ProblemDims
from repro.core import (
    IterationSchedule,
    MemoConfig,
    MLRConfig,
    MLRSolver,
    OffloadPlanner,
    greedy_offload,
)
from repro.lamino import LaminoGeometry, LaminoOperators, ic_layers, simulate_data
from repro.solvers import ADMMConfig, ADMMSolver, accuracy


def main() -> None:
    # -- scaled-down IC reconstruction with strict tau --------------------------
    n = 32
    geometry = LaminoGeometry((n, n, n), n_angles=n, det_shape=(n, n), tilt_deg=61.0)
    truth = ic_layers(geometry.vol_shape, n_layers=3, seed=7)
    data = simulate_data(truth, geometry, noise_level=0.02, seed=2)
    ops = LaminoOperators(geometry)
    admm = ADMMConfig(alpha=5e-4, rho=0.5, n_outer=16, n_inner=4, step_max_rel=4.0)

    reference = ADMMSolver(ops, admm).run(data)
    config = MLRConfig(
        chunk_size=4,
        memo=MemoConfig(tau=0.95, warmup_iterations=2),  # fine IC features
    )
    result = MLRSolver(geometry, config, admm=admm, ops=ops).reconstruct(data)
    print("IC phantom, strict threshold tau=0.95 (Section 4.5):")
    print(f"  served: {100 * result.memoized_fraction:.0f}% of memoized-op lookups")
    print(f"  accuracy vs original: {accuracy(reference.u.real, result.u.real):.3f}")

    # -- paper-scale offload plan for the same run -------------------------------
    cost = CostModel()
    dims = ProblemDims(n=1024, n_chunks=64)
    schedule = IterationSchedule.from_cost_model(dims, cost)
    planner = OffloadPlanner(schedule, cost)
    best = planner.best_plan()
    greedy = greedy_offload(schedule, cost)
    print("\nADMM-Offload plan at (1K)^3 (Section 5.1):")
    print(f"  offloaded variables: {', '.join(best.offloaded)}")
    print(f"  peak RSS: {best.peak_bytes / 2**30:.1f} GiB "
          f"(baseline {best.baseline_peak_bytes / 2**30:.1f} GiB, "
          f"saving {100 * best.memory_saving:.1f}%)")
    print(f"  exposed transfer time: {best.exposed_time:.2f} s "
          f"({100 * best.time_loss:.1f}% of the iteration)")
    print(f"  MT metric: {best.mt if best.mt != float('inf') else 'inf'} "
          f"(greedy baseline: {greedy.mt:.2f})")


if __name__ == "__main__":
    main()
