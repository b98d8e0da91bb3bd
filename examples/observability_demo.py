"""Observability demo: one instrumented reconstruction, dumped and reported.

Runs a reconstruction against a loopback memo server daemon with
the :mod:`repro.obs` runtime enabled (``MLRConfig(obs=ObsConfig())``), so
every tier records as it works:

- trace spans — solver / ADMM outer iterations / per-chunk sweep kernels /
  USFFT fft+interp phases / ANN queries / wire dispatch,
- metrics — per-op memo hit counters, client/server request latency
  histograms.

The daemon runs in the demo's own process, so its request histograms and
handler spans land in the same registry and span rings as the solver's;
trace context rides the request frames, which puts each handler span under
the client request span that sent it.

Then it prints the daemon's traffic counters and the server series of the
Prometheus text view, cross-checks that the published ``memo_db_*`` gauges
reconcile exactly with ``MemoDBStats`` (and that histogram buckets are
cumulative), writes the memo-tier heat report (``python -m repro.obs
heat``) and the JSONL dump, and prints the per-stage latency / throughput
tables with the per-hop wire-cost table (the same output as ``python -m
repro.obs report run.jsonl``).

Run:  python examples/observability_demo.py [--quick] [--out DIR]
"""

import argparse
import os
import re

from repro.core import MemoConfig, MLRConfig, MLRSolver, ObsConfig
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.net import MemoServerDaemon
from repro.obs import dump_jsonl, load_report, render_report, to_prometheus
from repro.obs import runtime as obs
from repro.obs.heat import build_heat_report, entry_records, render_heat_report
from repro.solvers import ADMMConfig


def build_problem(quick: bool):
    n = 16 if quick else 32
    g = LaminoGeometry((n, n, n), n_angles=12 if quick else 24,
                       det_shape=(n, n), tilt_deg=61.0)
    truth = brain_like(g.vol_shape, seed=7)
    data = simulate_data(truth, g, noise_level=0.03, seed=1)
    return g, LaminoOperators(g), data


def memo_cfg(**over) -> MemoConfig:
    # index_train_min is low so the ANN index trains even at --quick scale
    # and the memo.ann_query stage shows up in the report
    base = dict(tau=0.9, warmup_iterations=1, index_train_min=4,
                index_clusters=2, index_nprobe=2)
    base.update(over)
    return MemoConfig(**base)


def _assert_cumulative_buckets(text: str) -> int:
    """Every histogram's buckets must be non-decreasing in le-order."""
    last: dict = {}
    n = 0
    for line in text.splitlines():
        if "_bucket{" not in line:
            continue
        key = re.sub(r'le="[^"]*",?', "", line.rsplit(" ", 1)[0])
        val = float(line.rsplit(" ", 1)[1])
        assert val >= last.get(key, 0.0), f"non-cumulative bucket: {line}"
        last[key] = val
        n += 1
    return n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem + few iterations (the CI configuration)")
    parser.add_argument("--out", default=None,
                        help="directory for the JSONL dump (default: cwd)")
    args = parser.parse_args()

    g, ops, data = build_problem(args.quick)
    admm = ADMMConfig(n_outer=5 if args.quick else 8, n_inner=2,
                      step_max_rel=4.0)

    print("== instrumented reconstruction over loopback TCP ==")
    with MemoServerDaemon(n_shards=2, memo=memo_cfg(), name="obs-demo") as daemon:
        host, port = daemon.address
        print(f"daemon listening on {host}:{port} (2 shards)")
        cfg = MLRConfig(
            chunk_size=4,
            memo=memo_cfg(transport="tcp", server_address=daemon.address),
            obs=ObsConfig(),  # the only line observability costs
        )
        solver = MLRSolver(g, cfg, admm=admm, ops=ops)
        result = solver.reconstruct(data)
        print(f"reconstructed: {result.u.shape}, served "
              f"{100 * result.memoized_fraction:.0f}% of memoized-op lookups")

        # the server's view: its traffic counters, and its request
        # histograms in the Prometheus text of the shared registry
        print(f"\n== server traffic (daemon.stats) ==\n{daemon.stats}")
        prom = to_prometheus(obs.snapshot())
        served = [ln for ln in prom.splitlines()
                  if ln.startswith("net_server_") and "bucket" not in ln][:6]
        print("\n== server metrics (prometheus text, excerpt) ==")
        print("\n".join(served))

        # reconcile the published gauges against the authoritative stats
        snapshot = obs.snapshot()
        for op in cfg.memo.memo_ops:
            expected = solver.memo_executor.db_stats(op).as_dict()
            got = {
                e["name"][len("memo_db_"):]: e["value"]
                for e in snapshot
                if e["labels"].get("op") == op and e["name"].startswith("memo_db_")
                and e["name"] != "memo_db_hit_rate"
            }
            mismatches = {k: (v, got.get(k)) for k, v in expected.items()
                          if got.get(k) != v}
            assert not mismatches, mismatches
        print("\nmemo_db_* gauges reconcile exactly with MemoDBStats for "
              f"{len(cfg.memo.memo_ops)} ops")
        solver.close()
        n_buckets = _assert_cumulative_buckets(to_prometheus(obs.snapshot()))
        print(f"every histogram's {n_buckets} buckets are cumulative")

        # -- memo-tier heat, straight off the live daemon state --
        heat_text = render_heat_report(
            build_heat_report(list(entry_records(daemon.router.state_dict()))))

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    heat_path = os.path.join(out_dir, "heat_report.txt")
    with open(heat_path, "w", encoding="utf-8") as fh:
        fh.write(heat_text + "\n")
    print("\n== memo-tier heat (python -m repro.obs heat HOST:PORT) ==")
    print(heat_text)
    print(f"wrote heat report to {heat_path}")
    dump_path = os.path.join(out_dir, "observability_demo.jsonl")
    n_lines = dump_jsonl(dump_path)
    print(f"\nwrote {n_lines} JSONL records to {dump_path}")

    print("\n== per-stage report (python -m repro.obs report) ==")
    report = render_report(load_report(dump_path))
    print(report)
    assert "wire hops" in report, "expected handler spans under the client requests"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
