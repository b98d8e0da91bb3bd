"""Per-stage latency / throughput report over JSONL observability dumps.

``python -m repro.obs report run.jsonl [memnode:9900 ...]`` merges any
number of dumps (one per process: a solver run's local dump plus the
telemetry plane — ``/snapshot`` — of each memo daemon) and prints:

- **trace tree** — the stitched cross-process span tree: spans are linked
  by ``parent_id`` / ``trace_id`` across dumps, aggregated by name path,
  and indented by depth, so a ``solver.reconstruct`` root shows its
  ``net_client.request`` children and *their* ``net_server.request`` /
  ``net_server.shard`` children from the daemon's dump,
- **wire hops** — per request type: the client-side round trip minus the
  matched server-side handler time = wire + queue cost of the hop,
- **spans** — per span name: count, total busy time, mean and exact
  p50/p95/p99 over the recorded durations,
- **histograms** — per metric series: count, mean, and bucket-resolution
  p50/p95/p99 (log-interpolated inside the containing bucket),
- **counters / gauges** — final values, e.g. per-op memo hit/miss
  breakdowns and queue high-water marks.

This is the artifact every perf PR tunes against: it turns one
end-to-end ``BENCH_perf.json`` number into a per-phase breakdown.
"""

from __future__ import annotations

import json
import os

from .export import DUMP_VERSION, load_jsonl
from .registry import _bucket_quantile

__all__ = [
    "build_report",
    "build_trace",
    "load_report",
    "merge_dumps",
    "render_report",
    "table",
]

_QUANTILES = (0.50, 0.95, 0.99)


def _exact_quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def _fmt_s(seconds: float) -> str:
    if seconds == 0.0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def merge_dumps(datas) -> dict:
    """Concatenate loaded dumps (one per process) into one dataset.

    Metrics and spans are plain concatenations — metric entries from
    different processes are distinguishable by their labels (and span
    records by their ``proc`` field), so no keyed merge is needed.  Drop
    counts sum."""
    datas = list(datas)
    merged = {
        "meta": {
            "version": DUMP_VERSION,
            "dropped_spans": 0,
            "merged_dumps": len(datas),
        },
        "metrics": [],
        "spans": [],
    }
    for data in datas:
        meta = data.get("meta") or {}
        merged["meta"]["dropped_spans"] += int(meta.get("dropped_spans") or 0)
        merged["metrics"].extend(data.get("metrics") or [])
        merged["spans"].extend(data.get("spans") or [])
    return merged


# -- cross-process trace stitching ----------------------------------------------------------


def build_trace(spans: list[dict]) -> dict | None:
    """Stitch span records (possibly from several processes) into the
    aggregated trace tree plus the per-hop wire-cost tables.

    Spans link by ``parent_id``: a server handler span carries the client
    request span's id there (it rode the request frame), so once both
    dumps are merged the walk crosses the process boundary like any other
    edge.  Aggregation is by *name path* — every span with the same chain
    of ancestor names lands in one row — which keeps the tree readable at
    any span count.  Returns ``None`` for pre-trace dumps (no span ids).
    """
    by_id: dict[int, dict] = {}
    for rec in spans:
        sid = rec.get("span_id")
        if isinstance(sid, int):
            by_id[sid] = rec
    if not by_id:
        return None

    paths: dict[int, tuple[str, ...]] = {}
    orphans = 0

    def path_of(sid: int) -> tuple[str, ...]:
        nonlocal orphans
        # iterative walk with memoization; a cycle (corrupt dump) or a
        # missing parent (its dump wasn't merged in) roots the chain there
        chain: list[int] = []
        cur: int | None = sid
        base: tuple[str, ...] = ()
        seen: set[int] = set()
        while cur is not None:
            if cur in paths:
                base = paths[cur]
                break
            if cur in seen:
                break  # cycle guard
            seen.add(cur)
            rec = by_id.get(cur)
            if rec is None:
                break
            chain.append(cur)
            parent = rec.get("parent_id")
            if parent is not None and parent not in by_id:
                orphans += 1  # parent span lost (ring overflow / not pulled)
                parent = None
            cur = parent
        for node in reversed(chain):
            base = base + (str(by_id[node].get("name", "?")),)
            paths[node] = base
        return paths[sid]

    rows: dict[tuple[str, ...], dict] = {}
    traces: set[int] = set()
    procs: set[str] = set()
    errors = 0
    for sid, rec in by_id.items():
        path = path_of(sid)
        dur = float(rec.get("dur_s") or 0.0)
        row = rows.setdefault(
            path,
            {"path": path, "count": 0, "total_s": 0.0, "procs": set(), "errors": 0},
        )
        row["count"] += 1
        row["total_s"] += dur
        if rec.get("proc"):
            row["procs"].add(str(rec["proc"]))
            procs.add(str(rec["proc"]))
        if rec.get("error"):
            row["errors"] += 1
            errors += 1
        if isinstance(rec.get("trace_id"), int):
            traces.add(rec["trace_id"])

    tree = []
    for path in sorted(rows):
        row = rows[path]
        tree.append(
            {
                "path": list(path),
                "name": path[-1],
                "depth": len(path) - 1,
                "count": row["count"],
                "total_s": row["total_s"],
                "mean_s": row["total_s"] / row["count"],
                "procs": sorted(row["procs"]),
                "errors": row["errors"],
            }
        )

    # per-hop wire cost: a server handler span whose parent is a client
    # request span measures the same logical request from the other side
    # of the wire — the difference is time spent on the wire + in queues
    hop_acc: dict[str, dict] = {}
    for rec in by_id.values():
        if rec.get("name") != "net_server.request":
            continue
        parent = by_id.get(rec.get("parent_id"))
        if parent is None or parent.get("name") != "net_client.request":
            continue
        rtype = str((rec.get("attrs") or {}).get("type", "?"))
        client_s = float(parent.get("dur_s") or 0.0)
        server_s = float(rec.get("dur_s") or 0.0)
        acc = hop_acc.setdefault(
            rtype, {"type": rtype, "count": 0, "client_s": 0.0, "server_s": 0.0}
        )
        acc["count"] += 1
        acc["client_s"] += client_s
        acc["server_s"] += server_s
    hops = []
    for rtype in sorted(hop_acc):
        acc = hop_acc[rtype]
        n = acc["count"]
        client_mean = acc["client_s"] / n
        server_mean = acc["server_s"] / n
        hops.append(
            {
                "type": rtype,
                "count": n,
                "client_mean_s": client_mean,
                "server_mean_s": server_mean,
                # pipelined sends close their client span before the server
                # replies, so the subtraction can go negative: floor at 0
                "wire_mean_s": max(0.0, client_mean - server_mean),
            }
        )

    shard_acc: dict[str, dict] = {}
    for rec in by_id.values():
        if rec.get("name") != "net_server.shard":
            continue
        shard = str((rec.get("attrs") or {}).get("shard", "?"))
        acc = shard_acc.setdefault(shard, {"shard": shard, "count": 0, "total_s": 0.0})
        acc["count"] += 1
        acc["total_s"] += float(rec.get("dur_s") or 0.0)
    shards = []
    for shard in sorted(shard_acc):
        acc = shard_acc[shard]
        shards.append(
            {
                "shard": shard,
                "count": acc["count"],
                "total_s": acc["total_s"],
                "mean_s": acc["total_s"] / acc["count"],
            }
        )

    return {
        "traces": len(traces),
        "procs": len(procs),
        "orphans": orphans,
        "errors": errors,
        "tree": tree,
        "hops": hops,
        "shards": shards,
    }


def build_report(data: dict) -> dict:
    """Aggregate a loaded dump into span / histogram / scalar tables."""
    by_name: dict[str, list[float]] = {}
    for rec in data["spans"]:
        by_name.setdefault(rec["name"], []).append(float(rec["dur_s"]))
    span_rows = []
    for name in sorted(by_name):
        durs = sorted(by_name[name])
        total = sum(durs)
        row = {
            "name": name,
            "count": len(durs),
            "total_s": total,
            "mean_s": total / len(durs),
        }
        for q in _QUANTILES:
            row[f"p{int(q * 100)}_s"] = _exact_quantile(durs, q)
        span_rows.append(row)

    hist_rows = []
    scalar_rows = []
    for entry in sorted(
        data["metrics"], key=lambda e: (e["name"], sorted(e.get("labels", {}).items()))
    ):
        labels = entry.get("labels", {})
        if entry["kind"] == "histogram":
            count = entry["count"]
            row = {
                "name": entry["name"],
                "labels": labels,
                "count": count,
                "mean_s": (entry["sum"] / count) if count else 0.0,
            }
            for q in _QUANTILES:
                row[f"p{int(q * 100)}_s"] = _bucket_quantile(
                    entry["edges"],
                    entry["counts"],
                    count,
                    entry.get("min", 0.0),
                    entry.get("max", 0.0),
                    q,
                )
            hist_rows.append(row)
        else:
            row = {
                "name": entry["name"],
                "labels": labels,
                "kind": entry["kind"],
                "value": entry["value"],
            }
            if entry["kind"] == "gauge":
                row["max"] = entry.get("max", entry["value"])
            scalar_rows.append(row)

    return {
        "meta": data.get("meta", {}),
        "trace": build_trace(data["spans"]),
        "spans": span_rows,
        "histograms": hist_rows,
        "scalars": scalar_rows,
    }


def table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width plain-text table, optionally under a title line: strings
    pass through, numbers are formatted compactly (see :func:`_fmt`), and no
    line carries trailing spaces.  The one renderer of every table this
    package and :mod:`repro.harness` print."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def render_report(report: dict) -> str:
    lines: list[str] = []
    dropped = report.get("meta", {}).get("dropped_spans", 0)
    if dropped:
        lines += [f"warning: {dropped} spans dropped (ring buffer overflow)", ""]

    trace = report.get("trace")
    if trace and trace["tree"]:
        header = (
            f"== trace tree ({trace['traces']} traces, "
            f"{trace['procs']} processes"
        )
        if trace["orphans"]:
            header += f", {trace['orphans']} orphaned spans"
        if trace["errors"]:
            header += f", {trace['errors']} errored spans"
        rows = [
            ["  " * r["depth"] + r["name"], r["count"], _fmt_s(r["total_s"]),
             _fmt_s(r["mean_s"]), ",".join(r["procs"]) or "-"]
            for r in trace["tree"]
        ]
        lines += [table(["span", "count", "total", "mean", "procs"], rows,
                        header + ") =="), ""]

    if trace and trace["hops"]:
        rows = [
            [r["type"], r["count"], _fmt_s(r["client_mean_s"]),
             _fmt_s(r["server_mean_s"]), _fmt_s(r["wire_mean_s"])]
            for r in trace["hops"]
        ]
        lines += [
            table(["type", "count", "client mean", "server mean", "wire mean"], rows,
                  "== wire hops (client round trip - server handler = wire+queue) =="),
            "",
        ]

    if trace and trace["shards"]:
        rows = [
            [r["shard"], r["count"], _fmt_s(r["total_s"]), _fmt_s(r["mean_s"])]
            for r in trace["shards"]
        ]
        lines += [table(["shard", "count", "total", "mean"], rows,
                        "== server shards =="), ""]

    if report["spans"]:
        rows = [
            [r["name"], r["count"]]
            + [_fmt_s(r[k]) for k in ("total_s", "mean_s", "p50_s", "p95_s", "p99_s")]
            for r in report["spans"]
        ]
        lines += [table(["name", "count", "total", "mean", "p50", "p95", "p99"], rows,
                        "== spans (per-stage latency) =="), ""]

    if report["histograms"]:
        rows = [
            [r["name"], _fmt_labels(r["labels"]), r["count"]]
            + [_fmt_s(r[k]) for k in ("mean_s", "p50_s", "p95_s", "p99_s")]
            for r in report["histograms"]
        ]
        lines += [table(["name", "labels", "count", "mean", "p50", "p95", "p99"], rows,
                        "== histograms =="), ""]

    if report["scalars"]:
        rows = []
        for r in report["scalars"]:
            value = f"{r['value']:g}"
            if r["kind"] == "gauge" and r.get("max", r["value"]) != r["value"]:
                value += f" (max {r['max']:g})"
            rows.append([r["name"], _fmt_labels(r["labels"]), r["kind"], value])
        lines += [table(["name", "labels", "kind", "value"], rows,
                        "== counters / gauges =="), ""]

    if len(lines) == 0:
        lines.append("(empty dump: no spans or metrics recorded)")
    return "\n".join(lines).rstrip() + "\n"


def _load_source(source: str) -> dict:
    """One ``report`` input: a JSONL dump on disk, else a telemetry
    ``host:port`` whose ``/snapshot`` has the same shape."""
    if os.path.exists(source) or ":" not in source:
        return load_jsonl(source)
    import urllib.request  # function-level: every solver imports obs, none fetches

    base = source if "://" in source else f"http://{source}"
    with urllib.request.urlopen(f"{base.rstrip('/')}/snapshot", timeout=5.0) as resp:
        return json.loads(resp.read().decode("utf-8"))


def load_report(*sources: str) -> dict:
    """The aggregated report over JSONL dumps and/or live telemetry planes
    (``host:port``): one source as loaded, several merged into one stitched
    dataset (e.g. a run's local dump plus each daemon's ``/snapshot``).
    What ``python -m repro.obs report`` prints, through :func:`render_report`
    or as JSON."""
    datas = [_load_source(s) for s in sources]
    return build_report(datas[0] if len(datas) == 1 else merge_dumps(datas))
