"""USFFT op-sweep microbenchmarks: vectorized kernels vs reference kernels.

Times full chunked sweeps of the four memoizable operations (the shapes the
executors actually drive through ``_sweep``) in complex64, with the
same plans and inputs on both paths.  ``usfft2d_type2_sweep`` also records
``gauges.nnz_per_row``, the taps per target of the complex64 slice
operators it times, so ``trend.py`` fails if the stencil widens.
"""

from __future__ import annotations

import numpy as np

from repro.lamino import usfft as U

from .harness import pair_entry, time_fn


def _plans(quick: bool):
    rng = np.random.default_rng(0)
    if quick:
        n, ns = 64, 48
        shape2d, nsl, npts = (48, 48), 32, 24 * 48
    else:
        n, ns = 128, 96
        shape2d, nsl, npts = (64, 64), 64, 48 * 64
    plan1d = U.USFFT1DPlan(n, rng.uniform(-n / 2, n / 2, size=ns))
    pts = np.stack(
        [
            rng.uniform(-shape2d[0] / 2, shape2d[0] / 2, size=(nsl, npts)),
            rng.uniform(-shape2d[1] / 2, shape2d[1] / 2, size=(nsl, npts)),
        ],
        axis=-1,
    )
    plan2d = U.USFFT2DPlan(shape2d, pts)
    return rng, plan1d, plan2d


def run(quick: bool = True, repeat: int = 5) -> dict:
    rng, plan1d, plan2d = _plans(quick)
    lead = 24 if quick else 48
    chunk = 8
    f1 = (
        rng.standard_normal((lead, plan1d.n, lead))
        + 1j * rng.standard_normal((lead, plan1d.n, lead))
    ).astype(np.complex64)
    F1 = U.usfft1d_type2(f1, plan1d, axis=1)
    f2 = (
        rng.standard_normal((plan2d.nslices, *plan2d.shape))
        + 1j * rng.standard_normal((plan2d.nslices, *plan2d.shape))
    ).astype(np.complex64)
    F2 = U.usfft2d_type2(f2, plan2d)

    def sweep_1d_type2():
        U.usfft1d_type2(f1, plan1d, axis=1)

    def sweep_1d_type1():
        U.usfft1d_type1(F1, plan1d, axis=1)

    # chunked exactly like the executors: one call per location slab
    slabs = [
        slice(lo, min(lo + chunk, plan2d.nslices)) for lo in range(0, plan2d.nslices, chunk)
    ]

    def sweep_2d_type2():
        for rows in slabs:
            U.usfft2d_type2(f2[rows], plan2d, slices=rows)

    def sweep_2d_type1():
        for rows in slabs:
            U.usfft2d_type1(F2[rows], plan2d, slices=rows)

    out = {}
    for name, fn in [
        ("usfft1d_type2_sweep", sweep_1d_type2),
        ("usfft1d_type1_sweep", sweep_1d_type1),
        ("usfft2d_type2_sweep", sweep_2d_type2),
        ("usfft2d_type1_sweep", sweep_2d_type1),
    ]:
        opt = time_fn(fn, repeat=repeat)
        with U.reference_kernels():
            ref = time_fn(fn, repeat=repeat)
        out[name] = pair_entry(ref, opt, dtype="complex64")
    # cached by the sweeps above
    gathers = [plan2d.slice_gather(i, np.complex64) for i in range(plan2d.nslices)]
    out["usfft2d_type2_sweep"]["gauges"] = {
        "nnz_per_row": sum(m.nnz for m in gathers) / sum(m.shape[0] for m in gathers)
    }
    return out
