"""Judge results files against the benchmark's own bounds.

A results file is what ``--all`` writes: ``{"runs": [record, ...]}``, any
number of runs (seeds) per workload.  ``summary`` prints one set's medians
and run-to-run spreads and holds the set to the checks that need more than
one run to judge; ``compare`` puts two sets side by side, one row per
(end-to-end metric, workload), and demands exact equality of the count
metrics, which repeat exactly for a given seed on the three workloads whose
jobs all see the same data.  Both return the number of violations.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from .metrics import END_TO_END, PER_LAYER

__all__ = ["ENVELOPE", "EXCESS_BOUND", "compare", "summary"]

#: workloads whose count metrics are exact functions of the seed
_EXACT_COUNT_WORKLOADS = ("admm_direct", "mlr_cold", "mlr_tcp")
#: a memo workload's median ``recon_rel_err`` over the same-data direct solve's
ENVELOPE = 1.20
#: share by which B's median excess over the direct solve may exceed A's.
#: The excess is what memoization costs in accuracy; ``recon_rel_err`` itself
#: is 94 % un-memoized floor and hides it.
EXCESS_BOUND = 0.25


def _load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    # a single-run file (what --workload writes) is a set of one
    return data if "runs" in data else {"runs": [data]}


def _values(result: dict, trace: int) -> dict:
    """(workload, metric) -> [value per run], in run order."""
    out = defaultdict(list)
    for run in result["runs"]:
        if run["trace"] == trace:
            for name, m in run["metrics"].items():
                out[run["workload"], name].append(m["value"])
    return out


def _excess(result: dict) -> dict:
    """workload -> [recon_rel_err / the same-data direct solve's - 1 per
    untraced run], memo workloads only."""
    out = defaultdict(list)
    for run in result["runs"]:
        if run["trace"] == 0 and run["workload"] != "admm_direct" and run["metrics"]:
            info = run["info"]
            out[run["workload"]].append(
                info["recon_rel_err"] / info["reference_recon_rel_err"] - 1.0
            )
    return out


def _quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _failed_runs(result: dict, label: str = "") -> int:
    """Print every run that is incorrect or has failed operations."""
    bad = [r for r in result["runs"] if not r["correct"] or r["failed"]]
    for r in bad:
        failing = [k for k, c in r["checks"].items() if not c["ok"]]
        print(f"FAILED {label}{r['workload']} seed {r['seed']} trace {r['trace']}: "
              f"{r['failed']} of {r['attempted']} failed, checks {failing or 'ok'}")
    return len(bad)


def summary(result: dict) -> int:
    """Median and interquartile spread of every end-to-end metric, the
    Fig. 8 ratio (derived, not gated), and the set-level checks: no failed
    run, memo accuracy inside the envelope.  A spread beyond the metric's
    bound means a comparison against this set is ``unresolved``.  Returns
    the number of violated checks."""
    values = _values(result, trace=0)
    print(f"\n{'workload':14s} {'metric':20s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s} runs")
    for (workload, name), vals in values.items():
        bound = END_TO_END[name][2]
        spread = _spread(vals)
        flag = "" if len(vals) < 2 or spread <= bound / 3 else (
            "  > bound/3" if spread <= bound else "  > bound: unresolved")
        print(f"{workload:14s} {name:20s} {_quartiles(vals)[1]:12.5g} {spread:8.4f} "
              f"{bound:6.2f} {len(vals)}{flag}")
    direct, memo = values.get(("admm_direct", "job_wall_s")), values.get(("mlr_cold", "job_wall_s"))
    if direct and memo:
        ratio = statistics.median(direct) / statistics.median(memo)
        print(f"\nFig. 8 ratio  admm_direct.job_wall_s / mlr_cold.job_wall_s = {ratio:.3f} "
              f"(base: admm_direct {statistics.median(direct):.3f} s)")

    print()
    bad = _failed_runs(result)
    for workload, vals in _excess(result).items():
        ratio = 1.0 + statistics.median(vals)
        ok = ratio <= ENVELOPE
        bad += not ok
        print(f"check {workload:14s} recon_rel_err {ratio:.4f} x direct, median of {len(vals)} "
              f"(envelope {ENVELOPE}): {'ok' if ok else 'FAIL'}")
    return bad


def _verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """``within-bound`` / ``worse`` / ``unresolved`` for B against A, and
    the share of A's median by which B's is worse (negative = better)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / abs(med_a) if better == "lower" else (med_a - med_b) / abs(med_a)
    if max(_spread(a), _spread(b)) > bound:
        # too noisy to call, unless every run of B beats every run of A
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("within-bound" if b_wins else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "within-bound"), worse_by


def _row(workload, name, a, b, better, bound) -> bool:
    """Print one comparison row; true if B is ``worse``."""
    verdict, worse_by = _verdict(a, b, better, bound)
    print(f"{workload:14s} {name:18s} " + " ".join(f"{v:10.5g}" for v in _quartiles(a) + _quartiles(b))
          + f" {worse_by:+9.2%} {bound:6.2f}  {verdict}")
    return verdict == "worse"


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison; returns 1 if any run of either set failed, any
    (metric, workload) pair of A is missing from B or ``worse`` in B, or any
    count differs, else 0 (``unresolved`` rows are flagged, not failed)."""
    res_a, res_b = _load(path_a), _load(path_b)
    vals_a, vals_b = _values(res_a, 0), _values(res_b, 0)
    print(f"A = {path_a}\nB = {path_b}\n")
    bad = _failed_runs(res_a, "A ") + _failed_runs(res_b, "B ")
    print(f"{'workload':14s} {'metric':18s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
          f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'worse by':>9s} {'bound':>6s}  verdict")
    for (workload, name), a in vals_a.items():
        if (workload, name) not in vals_b:
            print(f"{workload:14s} {name:18s} MISSING from B")
            bad += 1
            continue
        _unit, better, bound = END_TO_END[name]
        bad += _row(workload, name, a, vals_b[workload, name], better, bound)

    print("\nmemoization's accuracy loss: recon_rel_err over the same-data direct solve's, minus 1")
    excess_a, excess_b = _excess(res_a), _excess(res_b)
    for workload, a in excess_a.items():
        if workload in excess_b:
            bad += _row(workload, "excess_over_direct", a, excess_b[workload], "lower", EXCESS_BOUND)

    print("\ncount metrics, per (workload, seed): must be equal")
    counts_a, counts_b = _counts(res_a), _counts(res_b)
    differing = [k for k in counts_a if k in counts_b and counts_a[k] != counts_b[k]]
    for workload, seed, name in differing:
        print(f"  DIFFERS {workload} seed {seed} {name}: "
              f"{counts_a[workload, seed, name]} vs {counts_b[workload, seed, name]}")
    shared = sum(k in counts_b for k in counts_a)
    print(f"  {shared - len(differing)} of {shared} shared counts equal")
    return 1 if bad or differing else 0


def _counts(result: dict) -> dict:
    out = {}
    for run in result["runs"]:
        if run["trace"] == 1 and run["workload"] in _EXACT_COUNT_WORKLOADS:
            for name, m in run["metrics"].items():
                if PER_LAYER[name][0] == "count":
                    out[run["workload"], run["seed"], name] = m["value"]
    return out
