"""Memo-tier heat analytics: per-entry last-hit/hit-count roll-ups.

The value stores track per-entry heat metadata (last-hit tick + hit count
beside each value of a :class:`~repro.kvstore.KVStore`, persisted through
``state_dict``/snapshots and merged on absorb).  The per-entry
``{op, shard, location, last, hits, nbytes}`` records have one producer,
:meth:`repro.core.memo_shard.MemoShardRouter.heat_records` on a live tier;
this module turns them into the views the eviction work (ROADMAP) and
capacity planning act on:

- :func:`entry_records` — the same records for a memo-state tree
  (snapshot or wire pull), by installing it into a scratch router,
- :func:`build_heat_report` / :func:`render_heat_report` — hit
  distribution by op, by shard and by age decile, the cold-entry fraction,
  and the projected bytes reclaimable at a staleness cutoff
  (``python -m repro.obs heat <snapshot-or-host:port>``),
- :func:`age_histogram_entries` — ``memo_entry_age_seconds`` histogram
  entries in registry-snapshot format, computed *fresh* per scrape (ages
  move with the clock, so they must never accumulate into a cumulative
  histogram) for the ``/metrics`` telemetry endpoint.
"""

from __future__ import annotations

import time

from .registry import log_bucket_edges
from .report import _fmt_s, table

__all__ = [
    "entry_records",
    "age_histogram_entries",
    "build_heat_report",
    "render_heat_report",
]

#: age bucket edges for memo_entry_age_seconds: one per decade from 1s to
#: ~11 days; entries older than the last edge land in the +Inf bucket
AGE_EDGES = log_bucket_edges(1.0, 1e6, 1)


def entry_records(tree: dict) -> list[dict]:
    """Per-entry heat records for every partition of a memo-state tree:
    the tree is installed into a scratch router of its own shard count
    (values by reference where a store would share them anyway) and read
    back through the one producer of heat records, so shard attribution is
    ``shard_of_location(location, n_shards)``."""
    # function-level: obs is imported by core, not the other way round
    from ..core.memo_db import MemoDatabase
    from ..core.memo_shard import MemoShardRouter

    if not isinstance(tree, dict) or not {"n_shards", "partitions"} <= tree.keys():
        raise ValueError("not a memo-state tree (needs 'n_shards' and 'partitions')")
    scratch = MemoShardRouter(int(tree["n_shards"]), MemoDatabase)
    scratch.push_state(tree)
    return scratch.heat_records()


def age_histogram_entries(records: list[dict], now: float | None = None) -> list[dict]:
    """``memo_entry_age_seconds`` histogram entries (registry-snapshot
    format, one per ``(op, shard)``) over per-entry time-since-last-hit.
    Recomputed from scratch at every call: ages are a function of *now*,
    so a scrape-time histogram is the only honest representation."""
    if now is None:
        now = time.time()
    by_series: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        age = max(0.0, now - rec["last"])
        by_series.setdefault((rec["op"], rec["shard"]), []).append(age)
    entries = []
    for (op, shard), ages in sorted(by_series.items()):
        counts = [0] * len(AGE_EDGES)
        for age in ages:
            for i, edge in enumerate(AGE_EDGES):
                if age <= edge:
                    counts[i] += 1
                    break
        entries.append(
            {
                "kind": "histogram",
                "name": "memo_entry_age_seconds",
                "labels": {"op": op, "shard": str(shard)},
                "edges": list(AGE_EDGES),
                "counts": counts,
                "count": len(ages),
                "sum": float(sum(ages)),
                "min": float(min(ages)),
                "max": float(max(ages)),
            }
        )
    return entries


def _group_rows(records: list[dict], key: str, now: float, stale_after: float):
    groups: dict = {}
    for rec in records:
        g = groups.setdefault(
            rec[key],
            {key: rec[key], "entries": 0, "hits": 0, "cold": 0,
             "nbytes": 0, "reclaimable": 0},
        )
        g["entries"] += 1
        g["hits"] += rec["hits"]
        g["nbytes"] += rec["nbytes"]
        if rec["hits"] == 0:
            g["cold"] += 1
        if now - rec["last"] >= stale_after:
            g["reclaimable"] += rec["nbytes"]
    return [groups[k] for k in sorted(groups)]


def build_heat_report(
    records: list[dict],
    now: float | None = None,
    stale_after: float = 3600.0,
) -> dict:
    """Aggregate per-entry heat records into the eviction-planning report.

    ``stale_after`` (seconds since last hit) is the staleness cutoff for
    the projected-reclaimable-bytes number: the bytes an eviction pass with
    that cutoff would free, recounted from the per-entry metadata."""
    if now is None:
        now = time.time()
    if stale_after <= 0:
        raise ValueError(f"stale_after must be positive, got {stale_after}")
    total_entries = len(records)
    total_bytes = sum(r["nbytes"] for r in records)
    total_hits = sum(r["hits"] for r in records)
    cold = sum(1 for r in records if r["hits"] == 0)
    reclaimable = sum(
        r["nbytes"] for r in records if now - r["last"] >= stale_after
    )

    # age deciles: entries ranked by age, split into 10 equal-count bands —
    # "is the hit mass concentrated in the young tail?" at a glance
    deciles = []
    if records:
        ranked = sorted(records, key=lambda r: now - r["last"])
        n = len(ranked)
        for d in range(10):
            lo, hi = (d * n) // 10, ((d + 1) * n) // 10
            band = ranked[lo:hi]
            if not band:
                continue
            deciles.append(
                {
                    "decile": d + 1,
                    "age_min_s": now - band[0]["last"],
                    "age_max_s": now - band[-1]["last"],
                    "entries": len(band),
                    "hits": sum(r["hits"] for r in band),
                    "nbytes": sum(r["nbytes"] for r in band),
                }
            )

    return {
        "now": now,
        "stale_after_s": stale_after,
        "entries": total_entries,
        "hits": total_hits,
        "nbytes": total_bytes,
        "cold_entries": cold,
        "cold_fraction": (cold / total_entries) if total_entries else 0.0,
        "reclaimable_bytes": reclaimable,
        "by_op": _group_rows(records, "op", now, stale_after),
        "by_shard": _group_rows(records, "shard", now, stale_after),
        "age_deciles": deciles,
    }


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"


def render_heat_report(report: dict) -> str:
    lines = [
        f"== memo tier heat ({report['entries']} entries, "
        f"{_fmt_bytes(report['nbytes'])}, {report['hits']} hits) ==",
        f"cold entries (never hit): {report['cold_entries']} "
        f"({100.0 * report['cold_fraction']:.1f}%)",
        f"projected reclaimable at staleness >= "
        f"{_fmt_s(report['stale_after_s'])}: "
        f"{_fmt_bytes(report['reclaimable_bytes'])}",
        "",
    ]
    for key in ("op", "shard"):
        if report[f"by_{key}"]:
            rows = [
                [g[key], g["entries"], g["hits"], g["cold"], _fmt_bytes(g["nbytes"]),
                 _fmt_bytes(g["reclaimable"])]
                for g in report[f"by_{key}"]
            ]
            lines += [table([key, "entries", "hits", "cold", "bytes", "reclaimable"],
                            rows, f"== by {key} =="), ""]
    if report["age_deciles"]:
        rows = [
            [d["decile"], f"{_fmt_s(d['age_min_s'])}..{_fmt_s(d['age_max_s'])}",
             d["entries"], d["hits"], _fmt_bytes(d["nbytes"])]
            for d in report["age_deciles"]
        ]
        lines += [table(["decile", "age range", "entries", "hits", "bytes"], rows,
                        "== hit distribution by age decile (youngest first) =="), ""]
    if not report["entries"]:
        lines.append("(tier is empty)")
    return "\n".join(lines).rstrip() + "\n"
