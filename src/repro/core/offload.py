"""ADMM-Offload (paper Section 5.1): constraint-driven variable offloading.

One ADMM iteration has four execution phases — LSP, RSP, lambda update,
penalty update.  Variables idle between their last access in one phase and
their first access in a later phase can live on SSD in between.  The
planner:

1. builds an :class:`IterationSchedule` (phase durations at paper scale from
   the cost model; per-phase variable access points from the solver's honest
   phase trace),
2. enumerates offload plans (subsets of alias-free candidate variables),
3. applies the paper's four constraints —

   (1) prefetch strictly after offload,
   (2) no offload when the prefetch distance would be zero,
   (3) offload time must fit inside the variable's MPD window,
   (4) prefetch must complete before the consuming phase starts
       (otherwise the phase is delayed and the overshoot is exposed),

4. scores each plan with ``MT = M / T`` where ``M`` is the fractional peak-
   memory saving and ``T`` the fractional execution-time loss (matching the
   paper's reported MT=1.38 for ADMM-Offload vs 0.51 for greedy), and picks
   the argmax.

The greedy and LRU baselines of Section 6.6 are implemented alongside.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..cluster.costmodel import CostModel, ProblemDims
from ..memio.variables import TrackedVariable, admm_variables

__all__ = [
    "AccessPoint",
    "IterationSchedule",
    "OffloadAction",
    "PlanOutcome",
    "OffloadPlanner",
    "greedy_offload",
    "lru_offload",
]

PHASES = ("lsp", "rsp", "lambda_update", "penalty_update")


@dataclass(frozen=True)
class AccessPoint:
    """A variable's first/last access inside one phase, as phase fractions."""

    variable: str
    phase: str
    first_frac: float
    last_frac: float


@dataclass
class IterationSchedule:
    """Paper-scale phase durations plus variable access geometry.

    ``transient_vars`` maps variables that are only *allocated* during one
    phase (the LSP pipeline work buffers) to that phase; they contribute to
    RSS only there, which is why Figure 13's no-offload curve itself varies
    over an iteration.
    """

    phase_durations: dict[str, float]
    accesses: list[AccessPoint]
    variables: dict[str, TrackedVariable]
    transient_vars: dict[str, str] = field(default_factory=lambda: {"work": "lsp"})

    @property
    def iteration_time(self) -> float:
        return sum(self.phase_durations.values())

    def phase_start(self, phase: str) -> float:
        t = 0.0
        for name in PHASES:
            if name == phase:
                return t
            t += self.phase_durations[name]
        raise KeyError(phase)

    def access_times(self, variable: str) -> list[tuple[float, float]]:
        """Absolute (first, last) access times of each phase touching it."""
        out = []
        for ap in self.accesses:
            if ap.variable == variable:
                start = self.phase_start(ap.phase)
                dur = self.phase_durations[ap.phase]
                out.append((start + ap.first_frac * dur, start + ap.last_frac * dur))
        return sorted(out)

    @classmethod
    def from_cost_model(
        cls,
        dims: ProblemDims,
        cost: CostModel,
        n_inner: int = 4,
        lsp_time: float | None = None,
    ) -> "IterationSchedule":
        """Canonical ADMM iteration (validated against the solver's real
        phase trace in the test suite)."""
        if lsp_time is None:
            per_inner = sum(
                dims.n_chunks
                * (cost.fft_time(op, dims) + cost.h2d_time(dims) + cost.d2h_time(dims))
                for op in ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*")
            )
            lsp_time = n_inner * per_inner
        durations = {"lsp": lsp_time, **cost.cpu_phase_times(dims)}
        accesses = [
            # LSP: psi/lam are read once at entry (forming g); the CG memory
            # g_prev is first needed after the first gradient evaluation and
            # dhat once the first forward pass reaches the subtraction, so
            # their residency staggers against psi/lam's early exit — the
            # structure Figure 7's offload/prefetch timeline exploits.
            AccessPoint("psi", "lsp", 0.0, 0.02),
            AccessPoint("lam", "lsp", 0.0, 0.02),
            AccessPoint("g", "lsp", 0.0, 1.0),
            AccessPoint("g_prev", "lsp", 0.15, 1.0),
            AccessPoint("dhat", "lsp", 0.05, 1.0),
            AccessPoint("u", "lsp", 0.0, 1.0),
            AccessPoint("work", "lsp", 0.05, 1.0),
            # RSP reads u, lam; rewrites psi.
            AccessPoint("u", "rsp", 0.0, 1.0),
            AccessPoint("lam", "rsp", 0.0, 0.9),
            AccessPoint("psi", "rsp", 0.1, 1.0),
            # lambda update reads psi, rewrites lam.
            AccessPoint("psi", "lambda_update", 0.0, 0.9),
            AccessPoint("lam", "lambda_update", 0.0, 1.0),
            # penalty update reads psi and lam norms.
            AccessPoint("psi", "penalty_update", 0.0, 0.8),
            AccessPoint("lam", "penalty_update", 0.0, 0.8),
        ]
        return cls(
            phase_durations=durations,
            accesses=accesses,
            variables=admm_variables(dims.n),
        )


@dataclass(frozen=True)
class OffloadAction:
    """One planned movement."""

    variable: str
    kind: str  # 'offload' | 'prefetch'
    start: float
    end: float


@dataclass
class PlanOutcome:
    """Evaluated offload plan."""

    offloaded: tuple[str, ...]
    actions: list[OffloadAction] = field(default_factory=list)
    peak_bytes: int = 0
    baseline_peak_bytes: int = 0
    exposed_time: float = 0.0
    iteration_time: float = 0.0
    rss_timeline: list[tuple[float, float]] = field(default_factory=list)
    feasible: bool = True

    @property
    def memory_saving(self) -> float:
        if self.baseline_peak_bytes == 0:
            return 0.0
        return 1.0 - self.peak_bytes / self.baseline_peak_bytes

    @property
    def time_loss(self) -> float:
        if self.iteration_time == 0.0:
            return 0.0
        return self.exposed_time / self.iteration_time

    @property
    def mt(self) -> float:
        """The paper's selection metric: memory saving x 1/performance loss."""
        if self.time_loss <= 0.0:
            return float("inf") if self.memory_saving > 0 else 0.0
        return self.memory_saving / self.time_loss


class OffloadPlanner:
    """Evaluates offload plans for the steady-state ADMM iteration."""

    def __init__(self, schedule: IterationSchedule, cost: CostModel) -> None:
        self.schedule = schedule
        self.cost = cost

    # -- plan evaluation ----------------------------------------------------------------

    def candidates(self) -> list[str]:
        """Alias-free variables that are idle for part of the iteration."""
        out = []
        for name, var in self.schedule.variables.items():
            if not var.offload_candidate:
                continue
            if self.schedule.access_times(name):
                out.append(name)
        return sorted(out)

    def evaluate(self, offloaded: tuple[str, ...]) -> PlanOutcome:
        """Apply the four constraints to one candidate subset.

        A variable offloads after its last access of an idle window and
        prefetches for the window's closing phase; any prefetch overshoot
        past that phase's start is exposed time (constraint 4's penalty).
        Steady state is modeled by wrapping windows around the iteration
        boundary.
        """
        sched = self.schedule
        it_time = sched.iteration_time
        actions: list[OffloadAction] = []
        exposed = 0.0
        feasible = True
        for name in offloaded:
            var = sched.variables[name]
            windows = sched.access_times(name)
            if not windows:
                feasible = False
                continue
            write_t = self.cost.ssd_write_time(var.nbytes)
            read_t = self.cost.ssd_read_time(var.nbytes)
            for i, (_first, last) in enumerate(windows):
                nxt_first = (
                    windows[i + 1][0] if i + 1 < len(windows) else windows[0][0] + it_time
                )
                mpd = nxt_first - last
                if mpd <= 0:
                    continue  # constraint (2): zero prefetch distance
                if write_t >= mpd:
                    continue  # constraint (3): offload does not fit
                off_start = last
                off_end = off_start + write_t
                # constraint (4): aim to finish the prefetch by the start of
                # the consuming phase; constraint (1): not before offload end.
                consuming_phase_start = self._phase_start_of_time(nxt_first % it_time)
                if nxt_first >= it_time:
                    consuming_phase_start += it_time
                pf_start = max(off_end, consuming_phase_start - read_t)
                pf_end = pf_start + read_t
                exposed += max(0.0, pf_end - consuming_phase_start)
                actions.append(OffloadAction(name, "offload", off_start, off_end))
                actions.append(OffloadAction(name, "prefetch", pf_start, pf_end))
        outcome = self._account(tuple(offloaded), actions, exposed)
        outcome.feasible = feasible
        return outcome

    def _phase_start_of_time(self, t: float) -> float:
        start = 0.0
        for name in PHASES:
            dur = self.schedule.phase_durations[name]
            if t < start + dur:
                return start
            start += dur
        return start

    def _account(self, offloaded, actions, exposed) -> PlanOutcome:
        sched = self.schedule
        it_time = sched.iteration_time
        timeline = self._sampled_rss(actions)
        peak = max(v for _, v in timeline)
        baseline_peak = max(v for _, v in self._sampled_rss([]))
        return PlanOutcome(
            offloaded=offloaded,
            actions=actions,
            peak_bytes=int(peak),
            baseline_peak_bytes=int(baseline_peak),
            exposed_time=exposed,
            iteration_time=it_time,
            rss_timeline=timeline,
        )

    _SAMPLES = 256

    def _sampled_rss(self, actions) -> list[tuple[float, float]]:
        """RSS over one steady-state iteration from per-variable residency.

        Residency is piecewise linear: offload writes ramp a variable's
        contribution down over the transfer window (it spills chunkwise, as
        the real system does), prefetch reads ramp it back up, and transient
        buffers ramp in over the first tenth of their phase.  Wrap-around is
        handled by unrolling the periodic action schedule over three periods
        and sampling the middle one.
        """
        import numpy as np

        sched = self.schedule
        it_time = sched.iteration_time
        ts = np.linspace(it_time, 2.0 * it_time, self._SAMPLES, endpoint=False)
        rss = np.zeros(self._SAMPLES)
        for name, var in sched.variables.items():
            xs: list[float] = []
            ys: list[float] = []
            acts = sorted(
                (a for a in actions if a.variable == name), key=lambda a: a.start
            )
            for shift in (-it_time, 0.0, it_time, 2.0 * it_time):
                for a in acts:
                    if a.kind == "offload":
                        xs += [a.start + shift, a.end + shift]
                        ys += [1.0, 0.0]
                    else:
                        xs += [a.start + shift, a.end + shift]
                        ys += [0.0, 1.0]
            if xs:
                order = np.argsort(xs)
                prof = np.interp(ts, np.asarray(xs)[order], np.asarray(ys)[order])
            else:
                prof = np.ones(self._SAMPLES)
            phase = sched.transient_vars.get(name)
            if phase is not None:
                # pipeline buffers fill over the first tenth of their phase
                # and drain over the last tenth (chunk pipeline fill/drain)
                t0 = sched.phase_start(phase)
                t1 = t0 + sched.phase_durations[phase]
                ramp = max(0.1 * (t1 - t0), 1e-9)
                local = (ts - it_time)  # position within the sampled period
                alloc = np.clip((local - t0) / ramp, 0.0, 1.0)
                alloc = np.minimum(alloc, np.clip((t1 - local) / ramp, 0.0, 1.0))
                prof = np.minimum(prof, alloc)
            rss += var.nbytes * prof
        return [(float(t - it_time), float(v)) for t, v in zip(ts, rss)]

    # -- plan selection -----------------------------------------------------------------

    def best_plan(self, max_vars: int | None = None) -> PlanOutcome:
        """Exhaustively score candidate subsets and return the max-MT plan."""
        cands = self.candidates()
        best: PlanOutcome | None = None
        limit = max_vars if max_vars is not None else len(cands)
        for r in range(1, limit + 1):
            for subset in itertools.combinations(cands, r):
                outcome = self.evaluate(subset)
                if not outcome.feasible or outcome.memory_saving <= 0:
                    continue
                # maximize MT; among equal MT (e.g. several zero-loss plans)
                # prefer the larger memory saving
                if best is None or (outcome.mt, outcome.memory_saving) > (
                    best.mt,
                    best.memory_saving,
                ):
                    best = outcome
        if best is None:
            best = self.evaluate(())
        return best


def greedy_offload(
    schedule: IterationSchedule, cost: CostModel, top_k: int = 4
) -> PlanOutcome:
    """Section 6.6 baseline: offload the ``top_k`` largest variables
    immediately upon generation and fetch them on demand — both transfer
    directions land on the critical path."""
    cands = sorted(
        (v for v in schedule.variables.values() if v.offload_candidate),
        key=lambda v: v.nbytes,
        reverse=True,
    )[:top_k]
    exposed = 0.0
    actions: list[OffloadAction] = []
    it_time = schedule.iteration_time
    for var in cands:
        windows = schedule.access_times(var.name)
        write_t = cost.ssd_write_time(var.nbytes)
        read_t = cost.ssd_read_time(var.nbytes)
        for i, (_first, last) in enumerate(windows):
            nxt_first = (
                windows[i + 1][0] if i + 1 < len(windows) else windows[0][0] + it_time
            )
            if nxt_first - last <= 0:
                continue
            # write exposed after last use, read exposed at next access
            exposed += write_t + read_t
            actions.append(OffloadAction(var.name, "offload", last, last + write_t))
            actions.append(
                OffloadAction(var.name, "prefetch", nxt_first, nxt_first + read_t)
            )
    planner = OffloadPlanner(schedule, cost)
    outcome = planner._account(tuple(v.name for v in cands), actions, exposed)
    return outcome


def lru_offload(
    schedule: IterationSchedule, cost: CostModel, capacity_fraction: float = 0.7
) -> PlanOutcome:
    """LRU baseline (the 'Why not LRU?' discussion): evict least-recently
    used candidates when residency exceeds the capacity; every fetch is on
    demand, so its read time is exposed, and LRU cannot prefetch."""
    if not (0.0 < capacity_fraction <= 1.0):
        raise ValueError("capacity_fraction must be in (0, 1]")
    sched = schedule
    baseline = sum(v.nbytes for v in sched.variables.values())
    capacity = capacity_fraction * baseline
    # chronological access stream: (time, variable)
    stream = sorted(
        (sched.phase_start(ap.phase) + ap.first_frac * sched.phase_durations[ap.phase], ap.variable)
        for ap in sched.accesses
    )
    resident: dict[str, float] = {v: 0.0 for v in sched.variables}  # var -> last use
    on_ssd: set[str] = set()
    exposed = 0.0
    actions: list[OffloadAction] = []
    rss = baseline

    def rss_now() -> float:
        return sum(
            sched.variables[v].nbytes for v in sched.variables if v not in on_ssd
        )

    timeline = [(0.0, float(rss))]
    for t, var in stream:
        if var in on_ssd:  # demand fetch: fully exposed
            read_t = cost.ssd_read_time(sched.variables[var].nbytes)
            exposed += read_t
            actions.append(OffloadAction(var, "prefetch", t, t + read_t))
            on_ssd.discard(var)
            timeline.append((t, rss_now()))
        resident[var] = t
        # evict LRU candidates until under capacity
        while rss_now() > capacity:
            lru_order = sorted(
                (
                    (resident[v], v)
                    for v in sched.variables
                    if v not in on_ssd
                    and sched.variables[v].offload_candidate
                    and v != var
                ),
            )
            if not lru_order:
                break
            _, victim = lru_order[0]
            write_t = cost.ssd_write_time(sched.variables[victim].nbytes)
            exposed += write_t
            actions.append(OffloadAction(victim, "offload", t, t + write_t))
            on_ssd.add(victim)
            timeline.append((t, rss_now()))
    peak = max(v for _, v in timeline)
    return PlanOutcome(
        offloaded=tuple(sorted({a.variable for a in actions})),
        actions=actions,
        peak_bytes=int(peak),
        baseline_peak_bytes=baseline,
        exposed_time=exposed,
        iteration_time=sched.iteration_time,
        rss_timeline=timeline,
    )
