"""CLI: ``python -m repro.obs {report,heat} ...``.

- ``report <dump.jsonl | host:port> [more ...]`` — per-stage latency /
  throughput tables for JSONL observability dumps and/or live telemetry
  planes (a memo daemon's ``--telemetry-port``), merged into one stitched
  cross-process trace report.
- ``heat <snapshot-dir | host:port> [--stale-after S]`` — memo-tier heat
  report (hit distribution by op / shard / age decile, cold-entry
  fraction, projected reclaimable bytes) from an on-disk memo snapshot or
  a live daemon's wire port.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .report import load_report, render_report


def _heat_tree(source: str) -> dict:
    """Resolve the ``heat`` source: a snapshot directory is read (and
    checksum-verified) off disk; ``host:port`` pulls the live tier over
    the memo wire protocol (fail-closed — errors surface, no empty-tier
    fallback)."""
    if os.path.isdir(source):
        from ..service.snapshot import read_snapshot

        return read_snapshot(source, expect_kind="memo-state")
    if ":" in source:
        from ..net import RemoteMemoClient

        with RemoteMemoClient(source, fail_open=False, client_name="obs-heat") as tier:
            return tier.state_dict()
    raise SystemExit(
        f"heat source {source!r} is neither a snapshot directory nor host:port"
    )


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

    args = parser.parse_args(argv)

    if args.command == "report":
        report = load_report(*args.paths)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_report(report))
    elif args.command == "heat":
        from .heat import build_heat_report, entry_records, render_heat_report

        records = entry_records(_heat_tree(args.source))
        report = build_heat_report(records, stale_after=args.stale_after)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_heat_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
