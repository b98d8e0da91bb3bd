"""CLI: ``python -m repro.obs {report,heat,top} ...``.

- ``report <dump.jsonl | host:port> [more ...]`` — per-stage latency /
  throughput tables for JSONL observability dumps and/or live telemetry
  planes (a memo daemon's ``--telemetry-port``), merged into one stitched
  cross-process trace report; ``--profile`` appends the sampling-profiler
  self-time table.
- ``heat <snapshot-dir | host:port> [--stale-after S]`` — memo-tier heat
  report (hit distribution by op / shard / age decile, cold-entry
  fraction, projected reclaimable bytes) from an on-disk memo snapshot or
  a live daemon's wire port.
- ``top HOST:PORT`` — live polling terminal view over a telemetry
  server's ``/snapshot`` endpoint: queue depths, memo hit rates, p95
  latencies, circuit-breaker states.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import urllib.request

from .export import load_jsonl
from .registry import _bucket_quantile
from .report import _fmt_s, _table, build_report, merge_dumps, render_report

_CIRCUIT_NAMES = {0.0: "closed", 1.0: "half-open", 2.0: "open"}

#: gauge names worth a row in the `top` view (beyond circuit_state)
_TOP_GAUGE_TOKENS = ("queue", "running", "connection", "inflight", "worker")


def _fetch_snapshot(target: str, timeout: float = 5.0) -> dict:
    """GET ``/snapshot`` from a telemetry server given ``host:port``."""
    base = target if "://" in target else f"http://{target}"
    with urllib.request.urlopen(f"{base.rstrip('/')}/snapshot", timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _load_source(source: str) -> dict:
    """One ``report`` input: a JSONL dump on disk, else a telemetry
    ``host:port`` whose ``/snapshot`` has the same shape."""
    if os.path.exists(source) or ":" not in source:
        return load_jsonl(source)
    return _fetch_snapshot(source)


def _heat_tree(source: str) -> dict:
    """Resolve the ``heat`` source: a snapshot directory is read (and
    checksum-verified) off disk; ``host:port`` pulls the live tier over
    the memo wire protocol (fail-closed — errors surface, no empty-tier
    fallback)."""
    if os.path.isdir(source):
        from ..service.snapshot import read_snapshot

        return read_snapshot(source, expect_kind="memo-state")
    if ":" in source:
        from ..net import connect_tier

        with connect_tier(source, fail_open=False, client_name="obs-heat") as tier:
            return tier.state_dict()
    raise SystemExit(
        f"heat source {source!r} is neither a snapshot directory nor host:port"
    )


def _metric_rows(metrics: list[dict]) -> dict[str, list[dict]]:
    by_kind: dict[str, list[dict]] = {"counter": [], "gauge": [], "histogram": []}
    for entry in metrics:
        by_kind.setdefault(entry.get("kind", "?"), []).append(entry)
    return by_kind


def _labels_str(labels: dict) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def render_top(snap: dict, *, target: str, tick: int) -> str:
    """One frame of the live `top` view from a ``/snapshot`` payload."""
    meta = snap.get("meta") or {}
    metrics = snap.get("metrics") or []
    by_kind = _metric_rows(metrics)
    lines = [
        f"repro.obs top — {target}  server={meta.get('server', '?')}  "
        f"tick={tick}  metrics={len(metrics)}",
        "",
    ]

    gauges = [
        g
        for g in by_kind["gauge"]
        if g["name"] != "circuit_state"
        and any(tok in g["name"] for tok in _TOP_GAUGE_TOKENS)
    ]
    if gauges:
        lines.append("== queues / load ==")
        lines.extend(
            _table(
                ["gauge", "labels", "value", "max"],
                [
                    [g["name"], _labels_str(g.get("labels") or {}),
                     f"{g['value']:g}", f"{g['max']:g}"]
                    for g in sorted(gauges, key=lambda g: g["name"])
                ],
            )
        )
        lines.append("")

    chunk_counters = [
        c for c in by_kind["counter"] if c["name"] == "memo_chunks_total"
    ]
    if chunk_counters:
        per_op: dict[str, dict[str, float]] = {}
        for c in chunk_counters:
            labels = c.get("labels") or {}
            op = str(labels.get("op", "?"))
            per_op.setdefault(op, {})[str(labels.get("case", "?"))] = c["value"]
        lines.append("== memo hit rates ==")
        rows = []
        for op in sorted(per_op):
            cases = per_op[op]
            total = sum(cases.values())
            hits = sum(v for case, v in cases.items() if case.endswith("_hit"))
            rate = 100.0 * hits / total if total else 0.0
            rows.append(
                [op, f"{int(total)}", f"{int(hits)}", f"{rate:.1f}%",
                 " ".join(f"{k}:{int(v)}" for k, v in sorted(cases.items()))]
            )
        lines.extend(_table(["op", "chunks", "hits", "hit%", "cases"], rows))
        lines.append("")

    hists = [h for h in by_kind["histogram"] if h.get("count")]
    if hists:
        lines.append("== latency p95 ==")
        lines.extend(
            _table(
                ["histogram", "labels", "count", "p50", "p95", "max"],
                [
                    [h["name"], _labels_str(h.get("labels") or {}),
                     str(h["count"]),
                     _fmt_s(_bucket_quantile(h["edges"], h["counts"], h["count"],
                                             h["min"], h["max"], 0.50)),
                     _fmt_s(_bucket_quantile(h["edges"], h["counts"], h["count"],
                                             h["min"], h["max"], 0.95)),
                     _fmt_s(h["max"])]
                    for h in sorted(
                        hists, key=lambda h: (h["name"],
                                              _labels_str(h.get("labels") or {}))
                    )
                ],
            )
        )
        lines.append("")

    breakers = [g for g in by_kind["gauge"] if g["name"] == "circuit_state"]
    if breakers:
        lines.append("== circuit breakers ==")
        lines.extend(
            _table(
                ["replica", "state"],
                [
                    [str((g.get("labels") or {}).get("replica", "?")),
                     _CIRCUIT_NAMES.get(g["value"], f"?{g['value']:g}")]
                    for g in sorted(
                        breakers,
                        key=lambda g: str((g.get("labels") or {}).get("replica")),
                    )
                ],
            )
        )
        lines.append("")

    if len(lines) == 2:
        lines.append("(no matching metrics yet — is the workload running?)")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="print per-stage latency/throughput tables")
    rep.add_argument(
        "paths",
        nargs="+",
        metavar="path",
        help="JSONL dump(s) written by repro.obs.export.dump_jsonl and/or "
             "HOST:PORT telemetry planes (e.g. a memo daemon's "
             "--telemetry-port); several are merged into one stitched "
             "cross-process report",
    )
    rep.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregated report as JSON instead of tables",
    )
    rep.add_argument(
        "--profile",
        action="store_true",
        help="append the sampling profiler's span-attributed self-time table "
             "(requires the dump to carry a profile record)",
    )

    heat_p = sub.add_parser(
        "heat", help="memo-tier heat report (cold entries, reclaimable bytes)"
    )
    heat_p.add_argument(
        "source",
        help="memo-state snapshot directory, or HOST:PORT of a live memo daemon",
    )
    heat_p.add_argument(
        "--stale-after",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="staleness cutoff for the projected-reclaimable-bytes estimate "
             "(default: 3600)",
    )
    heat_p.add_argument(
        "--json", action="store_true", help="emit the heat report as JSON"
    )

    top_p = sub.add_parser(
        "top", help="live polling view over a telemetry server's /snapshot"
    )
    top_p.add_argument("target", metavar="HOST:PORT", help="telemetry HTTP endpoint")
    top_p.add_argument(
        "--interval", type=float, default=2.0, help="poll period in seconds"
    )
    top_p.add_argument(
        "--count",
        type=int,
        default=0,
        help="number of frames to render (0 = until interrupted)",
    )
    top_p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the terminal between polls",
    )
    args = parser.parse_args(argv)

    if args.command == "report":
        if len(args.paths) == 1:
            data = _load_source(args.paths[0])
        else:
            data = merge_dumps(_load_source(p) for p in args.paths)
        report = build_report(data)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_report(report, include_profile=args.profile))
    elif args.command == "heat":
        from .heat import build_heat_report, entry_records, render_heat_report

        records = entry_records(_heat_tree(args.source))
        report = build_heat_report(records, stale_after=args.stale_after)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_heat_report(report))
    elif args.command == "top":
        tick = 0
        try:
            while True:
                tick += 1
                try:
                    frame = render_top(
                        _fetch_snapshot(args.target), target=args.target, tick=tick
                    )
                except OSError as exc:
                    frame = f"repro.obs top — {args.target}: unreachable ({exc})\n"
                if not args.no_clear:
                    sys.stdout.write("\x1b[2J\x1b[H")
                sys.stdout.write(frame)
                sys.stdout.flush()
                if args.count and tick >= args.count:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
