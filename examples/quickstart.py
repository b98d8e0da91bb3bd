"""Quickstart: memoized laminography reconstruction in ~30 lines.

Builds a synthetic flat specimen, simulates a laminography scan, and
reconstructs it twice — with the original ADMM-FFT and with mLR's
memoization — then compares quality and the fraction of FFT operations the
memoization replaced.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.solvers import ADMMConfig, ADMMSolver, accuracy, psnr


def main() -> None:
    n = 32
    geometry = LaminoGeometry(
        vol_shape=(n, n, n), n_angles=n, det_shape=(n, n), tilt_deg=61.0
    )
    truth = brain_like(geometry.vol_shape, seed=3)
    data = simulate_data(truth, geometry, noise_level=0.03, seed=1)
    print(f"geometry: {geometry.vol_shape} volume, {geometry.n_angles} angles, "
          f"tilt {geometry.tilt_deg} deg")

    ops = LaminoOperators(geometry)
    admm = ADMMConfig(alpha=1e-3, rho=0.5, n_outer=20, n_inner=4, step_max_rel=4.0)

    # -- original ADMM-FFT ----------------------------------------------------
    reference = ADMMSolver(ops, admm).run(data)
    print(f"\noriginal ADMM-FFT: loss {reference.history['loss'][0]:.2f} -> "
          f"{reference.history['loss'][-1]:.2f}, "
          f"PSNR vs truth {psnr(truth, reference.u.real):.1f} dB")

    # -- mLR (memoized) ---------------------------------------------------------
    config = MLRConfig(chunk_size=4, memo=MemoConfig(tau=0.94, warmup_iterations=2))
    solver = MLRSolver(geometry, config, admm=admm, ops=ops)
    result = solver.reconstruct(data)
    served = result.case_counts.get("db_hit", 0) + result.case_counts.get("cache_hit", 0)
    print(f"mLR (tau={config.memo.tau}): memoization served "
          f"{100 * result.memoized_fraction:.0f}% of memoized-op lookups, "
          f"{100 * served / sum(result.case_counts.values()):.0f}% of all "
          f"sweep chunk-operations")
    print(f"case counts: {result.case_counts}")
    print(f"accuracy vs original reconstruction (paper Eq. 5): "
          f"{accuracy(reference.u.real, result.u.real):.3f}")
    print(f"PSNR vs ground truth: {psnr(truth, result.u.real):.1f} dB")

    mid = geometry.vol_shape[1] // 2
    err = np.abs(reference.u.real - result.u.real)[:, mid, :]
    print(f"max mid-slice deviation between the two reconstructions: {err.max():.4f}")


if __name__ == "__main__":
    main()
