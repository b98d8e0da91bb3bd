"""Hot-path microbenchmarks: op sweeps, memo service throughput, wire overhead.

Run ``python benchmarks/perf/run_all.py [--quick]`` (with ``PYTHONPATH=src``)
to produce ``benchmarks/results/BENCH_perf.json`` — the machine-readable
trajectory of the kernels and services the whole-job perf ledger
(``python -m benchmarks.ledger``) cannot see into.
"""
