"""The perf ledger: whole-job workloads, accuracy-paired wall-time metrics and
an outside-in per-layer trace (see ``README.md`` and the root
``BENCHMARK.json``)."""
