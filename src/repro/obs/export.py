"""Exporters: Prometheus text format and a JSONL span/metrics dump.

The JSONL dump is how a process's telemetry leaves it, and what ``python
-m repro.obs report`` reads: one JSON object per line, discriminated by a
``"rec"`` key —

- ``{"rec": "meta", ...}`` — one header line (version, drop counts),
- ``{"rec": "metric", ...}`` — one per metric, the registry snapshot entry,
- ``{"rec": "span", ...}`` — one per finished span record.
"""

from __future__ import annotations

import json
import re

from . import runtime

__all__ = ["to_prometheus", "dump_jsonl", "dump_lines", "load_jsonl"]

DUMP_VERSION = 1

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _NAME_BAD.sub("_", name)


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(str(k))}="{str(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _merge_labels(labels: dict, extra: dict) -> dict:
    out = dict(labels)
    out.update(extra)
    return out


def to_prometheus(snapshot: list[dict] | None = None) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    Histograms use the conventional cumulative ``_bucket{le=...}`` series
    plus ``_count`` and ``_sum``; gauges also expose their high-water mark
    as ``<name>_max``.
    """
    if snapshot is None:
        snapshot = runtime.snapshot()
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot:
        name = _prom_name(entry["name"])
        labels = entry.get("labels", {})
        kind = entry["kind"]
        if kind == "counter":
            header(name, "counter")
            lines.append(f"{name}{_prom_labels(labels)} {entry['value']:g}")
        elif kind == "gauge":
            header(name, "gauge")
            lines.append(f"{name}{_prom_labels(labels)} {entry['value']:g}")
            header(f"{name}_max", "gauge")
            lines.append(f"{name}_max{_prom_labels(labels)} {entry['max']:g}")
        elif kind == "histogram":
            header(name, "histogram")
            cum = 0
            for edge, n in zip(entry["edges"], entry["counts"]):
                cum += n
                le = _merge_labels(labels, {"le": f"{edge:g}"})
                lines.append(f"{name}_bucket{_prom_labels(le)} {cum}")
            le = _merge_labels(labels, {"le": "+Inf"})
            lines.append(f"{name}_bucket{_prom_labels(le)} {entry['count']}")
            lines.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {entry['sum']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def dump_lines(
    snapshot: list[dict] | None = None,
    spans: list[dict] | None = None,
    dropped_spans: int = 0,
) -> list[str]:
    """The JSONL dump as a list of serialized lines (no trailing newlines)."""
    if snapshot is None:
        snapshot = runtime.snapshot()
    if spans is None:
        spans, dropped_spans = runtime.drain_spans()
    lines = [
        json.dumps(
            {"rec": "meta", "version": DUMP_VERSION, "dropped_spans": dropped_spans},
            sort_keys=True,
        )
    ]
    for entry in snapshot:
        rec = {"rec": "metric"}
        rec.update(entry)
        lines.append(json.dumps(rec, sort_keys=True))
    for record in spans:
        rec = {"rec": "span"}
        rec.update(record)
        lines.append(json.dumps(rec, sort_keys=True))
    return lines


def dump_jsonl(
    path: str,
    snapshot: list[dict] | None = None,
    spans: list[dict] | None = None,
    dropped_spans: int = 0,
) -> int:
    """Write the dump to ``path``; returns the number of lines written."""
    lines = dump_lines(snapshot, spans, dropped_spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


def load_jsonl(path: str) -> dict:
    """Parse a dump back into ``{"meta": ..., "metrics": [...], "spans":
    [...]}``."""
    meta: dict = {"version": DUMP_VERSION, "dropped_spans": 0}
    metrics: list[dict] = []
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            rec = json.loads(raw)
            kind = rec.pop("rec", None)
            if kind == "meta":
                meta = rec
            elif kind == "metric":
                metrics.append(rec)
            elif kind == "span":
                spans.append(rec)
            elif kind != "profile":  # older dumps carry one; nothing reads it
                raise ValueError(f"unknown record type {kind!r} in {path}")
    return {"meta": meta, "metrics": metrics, "spans": spans}
