"""Observability demo: one instrumented reconstruction, dumped and reported.

Runs a reconstruction against a loopback memo server daemon with
the :mod:`repro.obs` runtime enabled (``MLRConfig(obs=ObsConfig())``), so
every tier records as it works:

- trace spans — solver / ADMM outer iterations / per-chunk sweep kernels /
  USFFT fft+interp phases / ANN queries / wire dispatch,
- metrics — per-op memo hit counters, client/server request latency
  histograms.

Then it writes the JSONL dump, prints the per-stage latency / throughput
tables (the same output as ``python -m repro.obs report run.jsonl``), the
server's Prometheus text view, and cross-checks that the published
``memo_db_*`` gauges reconcile exactly with ``MemoDBStats``.

The daemon also brings up its live telemetry plane (``telemetry_port=0``):
the demo scrapes ``/metrics`` and ``/healthz`` over HTTP while the daemon
is serving, asserts the scrape reconciles exactly with the in-process
registry (and that histogram buckets are cumulative), and writes the
memo-tier heat report (``python -m repro.obs heat``) next to the dump.

With ``--distributed`` the daemon instead runs as a separate *process*
(``python -m repro.net.server --telemetry-port``): trace context rides the
request frames, the daemon's spans are read from its telemetry plane's
``/snapshot``, and the two dumps are merged into one stitched
cross-process trace tree with the per-hop wire-cost table.

Run:  python examples/observability_demo.py [--quick] [--distributed] [--out DIR]
"""

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.request

from repro.core import MemoConfig, MLRConfig, MLRSolver, ObsConfig
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.net import MemoServerDaemon
from repro.obs import dump_jsonl, load_report, render_report, to_prometheus
from repro.obs import runtime as obs
from repro.obs.export import dump_lines
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


def _http_get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        assert resp.status == 200, (url, resp.status)
        return resp.read()


def _series(text: str) -> dict:
    """{sample-line-without-value: value} for every non-heat series.

    ``memo_entry_*`` heat histograms age with the wall clock between the
    scrape and the local render, so they are excluded from the exact-match
    reconciliation (their bucket shape is still validated)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("memo_entry_"):
            continue
        key, val = line.rsplit(" ", 1)
        out[key] = val
    return out


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


def spawn_server(port: int, plane_port: int) -> subprocess.Popen:
    """Start ``python -m repro.net.server`` with tracing enabled and a
    telemetry plane, and wait until both listeners accept."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    env["REPRO_OBS"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.server",
         "--host", "127.0.0.1", "--port", str(port),
         "--shards", "2", "--tau", "0.9",
         "--telemetry-port", str(plane_port)],
        env=env, cwd=repo,
    )
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        try:
            # the plane binds last: once it answers, both ports do
            for p in (port, plane_port):
                socket.create_connection(("127.0.0.1", p), timeout=1.0).close()
            return proc
        except OSError:
            time.sleep(0.1)
    proc.terminate()
    raise RuntimeError("memo server subprocess never came up")


def run_distributed(args) -> int:
    g, ops, data = build_problem(args.quick)
    admm = ADMMConfig(n_outer=5 if args.quick else 8, n_inner=2,
                      step_max_rel=4.0)
    ports = []
    for _ in range(2):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            ports.append(s.getsockname()[1])
    port, plane_port = ports

    print("== cross-process traced reconstruction ==")
    proc = spawn_server(port, plane_port)
    print(f"spawned `python -m repro.net.server` (pid {proc.pid}) "
          f"on 127.0.0.1:{port}, telemetry plane on 127.0.0.1:{plane_port}")
    try:
        cfg = MLRConfig(
            chunk_size=4,
            memo=memo_cfg(transport="tcp", server_address=("127.0.0.1", port)),
            obs=ObsConfig(),
        )
        solver = MLRSolver(g, cfg, admm=admm, ops=ops)
        result = solver.reconstruct(data)
        print(f"reconstructed: {result.u.shape}, "
              f"memoized fraction {100 * result.memoized_fraction:.0f}%")
        solver.close()
        # the daemon's side of the story, from its telemetry plane (what
        # `python -m repro.obs report client.jsonl 127.0.0.1:PORT` reads)
        pulled = json.loads(
            _http_get(f"http://127.0.0.1:{plane_port}/snapshot").decode("utf-8")
        )
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    local_path = os.path.join(out_dir, "observability_demo_client.jsonl")
    n_lines = dump_jsonl(local_path)
    server_path = os.path.join(out_dir, "observability_demo_server.jsonl")
    with open(server_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(dump_lines(
            pulled["metrics"], pulled["spans"], pulled["meta"]["dropped_spans"]
        )) + "\n")
    print(f"\nwrote {n_lines} client records to {local_path}")
    print(f"wrote {len(pulled['spans'])} server spans from "
          f"'{pulled['meta']['server']}' to {server_path}")

    print("\n== stitched cross-process report "
          "(python -m repro.obs report client.jsonl server.jsonl) ==")
    report = render_report(load_report(local_path, server_path))
    print(report)
    assert "processes" in report and " 2 processes" in report, \
        "expected the trace tree to span both processes"
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem + few iterations (the CI configuration)")
    parser.add_argument("--distributed", action="store_true",
                        help="run the memo daemon as a separate process and "
                             "stitch the cross-process trace")
    parser.add_argument("--out", default=None,
                        help="directory for the JSONL dump (default: cwd)")
    args = parser.parse_args()

    if args.distributed:
        return run_distributed(args)

    g, ops, data = build_problem(args.quick)
    admm = ADMMConfig(n_outer=5 if args.quick else 8, n_inner=2,
                      step_max_rel=4.0)

    print("== instrumented reconstruction over loopback TCP ==")
    with MemoServerDaemon(n_shards=2, memo=memo_cfg(), name="obs-demo",
                          telemetry_port=0) as daemon:
        host, port = daemon.address
        print(f"daemon listening on {host}:{port} (2 shards), "
              f"telemetry plane at {daemon.telemetry.url}")
        cfg = MLRConfig(
            chunk_size=4,
            memo=memo_cfg(transport="tcp", server_address=daemon.address),
            obs=ObsConfig(),  # the only line observability costs
        )
        solver = MLRSolver(g, cfg, admm=admm, ops=ops)
        result = solver.reconstruct(data)
        print(f"reconstructed: {result.u.shape}, "
              f"memoized fraction {100 * result.memoized_fraction:.0f}%")

        # the server's view, as a Prometheus scrape sees it
        prom = _http_get(daemon.telemetry.url + "/metrics").decode("utf-8")
        served = [ln for ln in prom.splitlines()
                  if ln.startswith("net_server_") and "_max" not in ln
                  and "bucket" not in ln and "_sum" not in ln][:6]
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

        # -- live telemetry plane: scrape the daemon's HTTP endpoints --
        base = daemon.telemetry.url
        assert _http_get(base + "/healthz") == b"ok\n"
        scraped = _http_get(base + "/metrics").decode("utf-8")
        n_buckets = _assert_cumulative_buckets(scraped)
        scraped_series = _series(scraped)
        local_series = _series(to_prometheus(obs.snapshot()))
        drift = {k: (scraped_series.get(k), local_series.get(k))
                 for k in scraped_series.keys() | local_series.keys()
                 if scraped_series.get(k) != local_series.get(k)}
        assert not drift, dict(list(drift.items())[:8])
        print(f"\nlive scrape of {base}/metrics reconciles exactly with the "
              f"in-process registry ({len(scraped_series)} series, "
              f"{n_buckets} cumulative buckets); /healthz is ok")

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
    print(render_report(load_report(dump_path)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
