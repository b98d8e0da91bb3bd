"""Run all hot-path microbenchmarks and write ``BENCH_perf.json``.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf/run_all.py [--quick]

Writes the machine-readable results to
``benchmarks/results/BENCH_perf.json`` (the CI artifact directory) and
appends one line to ``history.jsonl`` there.  These are kernel and service
micro-benchmarks; whole-job wall time is the perf ledger's
(``python -m benchmarks.ledger``).  The ``acceptance`` block carries the
batched memo-query speedup over the one-key-per-message loop.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", ".."))  # make `benchmarks` importable

from benchmarks.perf import (  # noqa: E402
    bench_construction,
    bench_memo,
    bench_net,
    bench_usfft,
)
from benchmarks.perf.harness import RESULTS_JSON, machine_info, write_json  # noqa: E402
from benchmarks.perf.trend import HISTORY_PATH, append_history  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller problem sizes / fewer repeats (the CI configuration)",
    )
    parser.add_argument(
        "--output", default=None,
        help="extra path to write the JSON to (besides the default)",
    )
    args = parser.parse_args(argv)
    repeat = 3 if args.quick else 5

    benchmarks: dict = {}
    print("[perf] usfft op sweeps (optimized vs reference kernels)...")
    benchmarks.update(bench_usfft.run(quick=args.quick, repeat=repeat))
    print("[perf] memo service throughput (one batched message vs one key per message)...")
    benchmarks.update(bench_memo.run(quick=args.quick, repeat=repeat))
    print("[perf] remote transport round-trip overhead (loopback tcp vs inproc)...")
    benchmarks.update(bench_net.run(quick=args.quick, repeat=repeat))
    print(
        "[perf] solver construction (shared stack / fresh stack of a known geometry"
        " vs a cold stack per solver)..."
    )
    benchmarks.update(bench_construction.run(quick=args.quick, repeat=repeat))

    payload = {
        # /2: every timing block additionally carries p50_s/p95_s/p99_s
        "schema": "mlr-bench-perf/2",
        "generated_unix": int(time.time()),
        "quick": bool(args.quick),
        "machine": machine_info(),
        "benchmarks": benchmarks,
        "acceptance": {
            "memo_query_batch_speedup": benchmarks["memo_query_batch"]["speedup"],
        },
    }
    paths = [RESULTS_JSON]
    if args.output:
        paths.append(args.output)
    for path in write_json(payload, paths):
        print(f"[perf] wrote {path}")
    # append-only perf trail: `python -m benchmarks.perf.trend` gates on it
    append_history(payload)
    print(f"[perf] appended history entry to {os.path.abspath(HISTORY_PATH)}")
    for name, entry in benchmarks.items():
        print(
            f"[perf] {name}: baseline {entry['baseline']['best_s']*1e3:8.2f} ms"
            f" -> optimized {entry['optimized']['best_s']*1e3:8.2f} ms"
            f"  ({entry['speedup']:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
