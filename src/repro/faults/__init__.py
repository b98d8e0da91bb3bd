"""Deterministic, seeded fault injection for the net/memo/snapshot tier.

The memoization tier is fail-open by construction — a cold recompute is
always correct — which makes it safe to degrade aggressively, but only a
systematic way to *inject* faults proves the degradation paths actually
hold.  This package is that layer:

- :class:`~repro.faults.plan.FaultPlan` — a seeded, rule-driven schedule
  of faults (connection refusals, mid-frame socket drops, injected
  latency, truncated / bit-flipped frames, slow-shard stalls, snapshot
  corruption) whose every decision is recorded in a replayable trace,
- :mod:`repro.faults.runtime` — the process-wide injection seam the
  production code calls (zero-overhead no-ops while no plan is
  installed), wrapping the socket layer of :mod:`repro.net` and the
  snapshot I/O of :mod:`repro.service.snapshot`.

Determinism contract: one :class:`FaultPlan` seed fixes every decision
stream (keyed per injection site), so a single-threaded client replays
the exact same fault trace run after run — asserted by the chaos suite.
"""

from .plan import FaultEvent, FaultPlan, FaultRule
from .runtime import active_plan, install, installed, uninstall

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "install",
    "installed",
    "uninstall",
]
