"""Phase-level variable-access tracing of an ADMM iteration.

The offload planner's constraints are expressed in terms of *first and last
accesses of a variable within each execution phase* (LSP, RSP, lambda
update, penalty update).  :class:`PhaseTrace` is the tracer object the
solver accepts: the solver calls ``begin_iteration`` / ``begin_phase`` /
``touch`` at its honest instrumentation points, and the planner reads the
ordered access log back.  "This requires profiling only a single ADMM-FFT
iteration" (Section 5.1) — one traced iteration is enough because the
pattern repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Access", "PhaseTrace"]


@dataclass(frozen=True)
class Access:
    iteration: int
    phase: str
    variable: str
    mode: str  # 'r' | 'w' | 'rw'
    seq: int


@dataclass
class PhaseTrace:
    """Ordered access log across iterations."""

    accesses: list[Access] = field(default_factory=list)
    _iteration: int = -1
    _phase: str = ""
    _seq: int = 0

    # -- solver-facing hooks ---------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration

    def begin_phase(self, phase: str) -> None:
        self._phase = phase

    def touch(self, variable: str, mode: str) -> None:
        if mode not in ("r", "w", "rw"):
            raise ValueError(f"mode must be r/w/rw, got {mode!r}")
        self.accesses.append(
            Access(self._iteration, self._phase, variable, mode, self._seq)
        )
        self._seq += 1

    def end_iteration(self) -> None:
        self._phase = ""

    # -- planner-facing queries --------------------------------------------------------

    def phases(self, iteration: int) -> list[str]:
        seen: list[str] = []
        for a in self.accesses:
            if a.iteration == iteration and a.phase not in seen:
                seen.append(a.phase)
        return seen

    def variables(self) -> list[str]:
        return sorted({a.variable for a in self.accesses})

    def phase_access_map(self, iteration: int) -> dict[str, set[str]]:
        """phase -> set of variables it touches, for one iteration."""
        out: dict[str, set[str]] = {}
        for a in self.accesses:
            if a.iteration == iteration:
                out.setdefault(a.phase, set()).add(a.variable)
        return out

    def last_access_phase(self, iteration: int, variable: str) -> str | None:
        last = None
        for a in self.accesses:
            if a.iteration == iteration and a.variable == variable:
                last = a.phase
        return last
