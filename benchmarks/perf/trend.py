"""Perf-trend gating over the benchmark history.

Every ``run_all.py`` invocation appends one compact record per benchmark
(the optimized ``best_s``) to ``benchmarks/results/history.jsonl`` — an
append-only, committable trail of the perf trajectory.  This module is
the gate::

    PYTHONPATH=src python -m benchmarks.perf.trend [--threshold 0.25]

compares the latest entry against the previous *comparable* one (same
``--quick`` flag) and exits nonzero when any benchmark's ``best_s`` — or
one of its ``gauges``, the lower-is-better sizes a benchmark records next
to its timings (``solver_construction.operator_mb``) — grew by more than the
threshold (default 25%).

Machine identity matters: CI runners are heterogeneous VMs, so a
cross-machine comparison would gate on hardware, not code.  When the two
entries disagree on machine fingerprint the gate warns and passes
(``--strict-machine`` turns that into a failure for pinned-hardware
setups).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
if __package__ in (None, ""):  # `python benchmarks/perf/trend.py` direct run
    sys.path.insert(0, os.path.join(_HERE, "..", ".."))

from benchmarks.perf.harness import RESULTS_DIR  # noqa: E402

__all__ = [
    "HISTORY_PATH",
    "HISTORY_SCHEMA",
    "history_entry",
    "append_history",
    "load_history",
    "compare",
    "retired",
    "main",
]

HISTORY_PATH = os.path.join(RESULTS_DIR, "history.jsonl")
HISTORY_SCHEMA = "mlr-bench-history/1"


def history_entry(payload: dict, now: float | None = None) -> dict:
    """Compress one ``BENCH_perf.json`` payload into a history record:
    the optimized ``best_s`` per benchmark plus the acceptance speedups —
    enough to gate on, small enough to commit forever."""
    best_s, gauges = {}, {}
    for name, entry in (payload.get("benchmarks") or {}).items():
        try:
            best_s[name] = float(entry["optimized"]["best_s"])
        except (KeyError, TypeError, ValueError):
            continue
        for key, value in (entry.get("gauges") or {}).items():
            gauges[f"{name}.{key}"] = float(value)
    return {
        "schema": HISTORY_SCHEMA,
        "t": int(payload.get("generated_unix") or (now if now is not None else time.time())),
        "quick": bool(payload.get("quick")),
        "machine": payload.get("machine") or {},
        "best_s": best_s,
        "gauges": gauges,
        "acceptance": payload.get("acceptance") or {},
    }


def append_history(payload: dict, path: str | None = None) -> dict:
    """Append the payload's history record to ``history.jsonl``."""
    path = path or HISTORY_PATH
    record = history_entry(payload)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path: str | None = None) -> list[dict]:
    path = path or HISTORY_PATH
    if not os.path.isfile(path):
        return []
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            rec = json.loads(raw)
            if isinstance(rec, dict) and rec.get("schema") == HISTORY_SCHEMA:
                entries.append(rec)
    return entries


def same_machine(a: dict, b: dict) -> bool:
    """Fingerprint equality on the fields that change timings."""
    ka, kb = a.get("machine") or {}, b.get("machine") or {}
    fields = ("platform", "python", "numpy", "scipy", "cpus")
    return all(ka.get(f) == kb.get(f) for f in fields)


def compare(prev: dict, cur: dict, threshold: float = 0.25) -> list[dict]:
    """Per-benchmark regression check: ``best_s`` (or a gauge) growing by
    more than ``threshold`` (relative) is a regression.  Benchmarks present
    in only one entry are skipped — adding or retiring a benchmark is not a
    regression (:func:`retired` names the ones that went, so the gate can
    say what it no longer covers)."""
    regressions = []
    prev_best = {**(prev.get("best_s") or {}), **(prev.get("gauges") or {})}
    cur_best = {**(cur.get("best_s") or {}), **(cur.get("gauges") or {})}
    for name in sorted(set(prev_best) & set(cur_best)):
        old, new = float(prev_best[name]), float(cur_best[name])
        if old <= 0.0:
            continue
        ratio = new / old
        if ratio > 1.0 + threshold:
            regressions.append(
                {"benchmark": name, "prev_s": old, "cur_s": new, "ratio": ratio}
            )
    return regressions


def retired(prev: dict, cur: dict) -> list[str]:
    """Benchmarks (and gauges) the previous entry timed and the current one
    does not: no longer gated from here on."""
    gone = set(prev.get("best_s") or {}) | set(prev.get("gauges") or {})
    return sorted(gone - set(cur.get("best_s") or {}) - set(cur.get("gauges") or {}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history", default=None, metavar="FILE",
        help=f"history file (default: {os.path.relpath(HISTORY_PATH)})",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative best_s growth that fails the gate (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--strict-machine", action="store_true",
        help="fail (instead of warn-and-pass) when the compared entries ran "
             "on different machines",
    )
    args = parser.parse_args(argv)

    entries = load_history(args.history)
    if len(entries) < 2:
        print(f"[trend] {len(entries)} history entries — nothing to compare, passing")
        return 0
    cur = entries[-1]
    prev = next(
        (e for e in reversed(entries[:-1]) if e.get("quick") == cur.get("quick")),
        None,
    )
    if prev is None:
        print("[trend] no previous entry with a matching --quick flag, passing")
        return 0
    if not same_machine(prev, cur):
        msg = "[trend] compared entries ran on different machines"
        if args.strict_machine:
            print(msg + " (--strict-machine: failing)")
            return 1
        print(msg + " — hardware, not code; passing")
        return 0
    regressions = compare(prev, cur, threshold=args.threshold)
    for name in retired(prev, cur):
        print(f"[trend] {name}: in the previous entry, not in this one — no longer gated")
    for reg in regressions:
        print(
            f"[trend] REGRESSION {reg['benchmark']}: "
            f"{reg['prev_s']:.4g} -> {reg['cur_s']:.4g} "
            f"({(reg['ratio'] - 1.0) * 100:.0f}% worse)"
        )
    if regressions:
        print(
            f"[trend] {len(regressions)} benchmark(s) regressed past "
            f"{args.threshold * 100:.0f}% — failing the gate"
        )
        return 1
    checked = sorted(set(cur.get("best_s") or {}) & set(prev.get("best_s") or {}))
    print(f"[trend] {len(checked)} benchmarks within {args.threshold * 100:.0f}% — ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
