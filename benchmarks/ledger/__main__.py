"""Command line of the perf ledger.

One workload, one run (what the driver of ``BENCHMARK.json`` calls)::

    python3 -m benchmarks.ledger --workload mlr_cold --seed 3 --seconds 12 --trace 0

Every workload, each run in a fresh subprocess, one results file::

    python3 -m benchmarks.ledger --all [--seed S] [--runs N] [--trace 0|1] [--out FILE]

Two results files against the benchmark's own bounds::

    python3 -m benchmarks.ledger compare A.json B.json

Exit code 0 only if every check of every run (and of the set) passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# the command of BENCHMARK.json may name nothing outside the benchmark's own
# directory, so the package finds the program's source tree itself
sys.path.insert(0, os.path.join(_ROOT, "src"))

from . import compare as compare_mod  # noqa: E402
from .runner import RESULTS_DIR, contract_line, keep_heap, run  # noqa: E402
from .workloads import RUN_SECONDS, WORKLOADS  # noqa: E402


def _print_record(record: dict) -> None:
    mode = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    for layer, seconds in record["info"].get("layer_self_s", {}).items():
        print(f"self time  {layer:25s} {seconds:14.6g} s")
    print(f"{'failed_frac':36s} {record['failed_frac']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} jobs)")
    for name, check in record["checks"].items():
        print(f"check {name:30s} {'ok  ' if check['ok'] else 'FAIL'} {check['detail']}")


def _save(record_or_set: dict, out: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record_or_set, fh)


def _run_one(args) -> int:
    trace = args.trace or 0
    keep_heap()
    record = run(args.workload, args.seed, args.seconds, bool(trace))
    out = args.out or os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{trace}.json"
    )
    _save(record, out)
    _print_record(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


def _run_all(args) -> int:
    """Each (workload, seed, mode) in its own process, one after another."""
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in WORKLOADS:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                tmp = os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{trace}.json")
                cmd = [sys.executable, "-m", "benchmarks.ledger", "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", tmp]
                proc = subprocess.run(cmd, cwd=_ROOT, stdout=subprocess.PIPE, text=True)
                if proc.returncode not in (0, 1) or not os.path.exists(tmp):
                    print(proc.stdout)
                    print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}")
                    return 2
                with open(tmp) as fh:
                    record = json.load(fh)
                record.pop("spans")  # stay in the per-run file
                runs.append(record)
                _print_record(record)
    result = {"runs": runs}
    out = args.out or os.path.join(RESULTS_DIR, f"ledger-seed{args.seed}.json")
    _save(result, out)
    print(f"\nwrote {out}")
    return 1 if compare_mod.summary(result) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.ledger compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare_mod.compare(args.a, args.b)
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time of an untraced run: the timed-job count "
                             f"scales with it (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, nothing installed (the default of "
                             "--workload); 1: per-layer metrics from interleaved traced "
                             "jobs; --all runs both unless told which")
    parser.add_argument("--runs", type=int, default=1,
                        help="--all: runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--out", help="results file (default: under results/)")
    args = parser.parse_args(argv)
    return _run_all(args) if args.all else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
