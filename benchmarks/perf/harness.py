"""Timing scaffolding shared by the perf microbenchmarks.

Every benchmark times a (baseline, optimized) pair on identical inputs and
reports best-of-N wall time plus the speedup.  The baseline is the honest
pre-vectorization code path, which the source keeps runnable —
:func:`repro.lamino.usfft.reference_kernels` for the kernels, a loop of
one-key messages for the memo service — so the numbers are measured, never
estimated.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass

__all__ = ["Timing", "time_fn", "pair_entry", "write_json", "RESULTS_DIR", "RESULTS_JSON"]

_HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(_HERE, "..", "results")
RESULTS_JSON = os.path.join(RESULTS_DIR, "BENCH_perf.json")


@dataclass
class Timing:
    best_s: float
    mean_s: float
    repeats: int
    p50_s: float | None = None
    p95_s: float | None = None
    p99_s: float | None = None

    def as_dict(self) -> dict:
        out = {"best_s": self.best_s, "mean_s": self.mean_s, "repeats": self.repeats}
        if self.p50_s is not None:
            out.update({"p50_s": self.p50_s, "p95_s": self.p95_s, "p99_s": self.p99_s})
        return out


def _percentile(sorted_times: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample."""
    if len(sorted_times) == 1:
        return sorted_times[0]
    pos = q * (len(sorted_times) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_times) - 1)
    return sorted_times[lo] + (sorted_times[hi] - sorted_times[lo]) * (pos - lo)


def time_fn(fn, repeat: int = 5, warmup: int = 1) -> Timing:
    """Best-of-``repeat`` wall time of ``fn()`` after ``warmup`` calls."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    ordered = sorted(times)
    return Timing(
        best_s=ordered[0],
        mean_s=sum(times) / len(times),
        repeats=repeat,
        p50_s=_percentile(ordered, 0.50),
        p95_s=_percentile(ordered, 0.95),
        p99_s=_percentile(ordered, 0.99),
    )


def pair_entry(baseline: Timing, optimized: Timing, **meta) -> dict:
    """One benchmark record: both timings plus the best-of speedup."""
    entry = {
        "baseline": baseline.as_dict(),
        "optimized": optimized.as_dict(),
        "speedup": baseline.best_s / optimized.best_s if optimized.best_s > 0 else None,
    }
    entry.update(meta)
    return entry


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
    }


def write_json(payload: dict, paths=(RESULTS_JSON,)) -> list[str]:
    written = []
    for path in paths:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
        written.append(os.path.abspath(path))
    return written
