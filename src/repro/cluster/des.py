"""Deterministic discrete-event timeline scheduler.

The performance figures of the paper (Figs. 8--16) are about pipeline
overlap, bandwidth serialization and queueing contention on a Polaris-class
machine.  This module provides the simulation kernel those experiments run
on: a *list scheduler* over shared resources.

Model: a :class:`Task` occupies one :class:`Resource` channel for a fixed
duration and may depend on other tasks.  Scheduling is greedy in submission
order — a task starts at the latest of (its release time, its dependencies'
completion, the earliest channel availability of its resource) — which is
exactly the FIFO-per-engine behavior of CUDA streams, DMA engines, and NIC
queues that the real system exhibits.  Because everything is deterministic,
experiments are exactly reproducible.

The scheduler records per-resource busy time (for the bandwidth-utilization
figure) and per-task latencies (for the query-latency CDF figure).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["Resource", "Task", "Timeline"]


@dataclass
class Resource:
    """A serially shared device engine (or ``capacity`` identical channels).

    Examples: one GPU compute stream, one PCIe DMA engine, one NIC, one SSD
    controller.  Bandwidth sharing is modeled by serialization, the standard
    first-order model for DMA/NIC queues.
    """

    name: str
    capacity: int = 1
    busy_time: float = 0.0
    _channels: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self._channels = [0.0] * self.capacity
        heapq.heapify(self._channels)

    def earliest_free(self) -> float:
        return self._channels[0]

    def occupy(self, start: float, duration: float) -> float:
        """Place work on the earliest-free channel; returns the end time."""
        free = heapq.heappop(self._channels)
        begin = max(free, start)
        end = begin + duration
        heapq.heappush(self._channels, end)
        self.busy_time += duration
        return end

    def reset(self) -> None:
        self._channels = [0.0] * self.capacity
        heapq.heapify(self._channels)
        self.busy_time = 0.0


@dataclass
class Task:
    """A scheduled unit of work."""

    name: str
    resource: Resource | None
    duration: float
    start: float = 0.0
    end: float = 0.0
    release: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Completion minus release — queueing delay plus service time."""
        return self.end - self.release


class Timeline:
    """Greedy deterministic scheduler over shared resources."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.resources: dict[str, Resource] = {}

    # -- resources -----------------------------------------------------------------

    def resource(self, name: str, capacity: int = 1) -> Resource:
        """Get-or-create a named resource."""
        if name not in self.resources:
            self.resources[name] = Resource(name, capacity)
        return self.resources[name]

    # -- scheduling ----------------------------------------------------------------

    def add(
        self,
        name: str,
        resource: Resource | str | None,
        duration: float,
        deps: list[Task] | None = None,
        release: float = 0.0,
        **tags,
    ) -> Task:
        """Schedule a task immediately (greedy, in submission order).

        ``resource=None`` models pure dependency nodes (zero-width barriers
        are fine with ``duration=0``).
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        res = self.resources[resource] if isinstance(resource, str) else resource
        ready = release
        for dep in deps or ():
            ready = max(ready, dep.end)
        task = Task(name=name, resource=res, duration=duration, release=release, tags=tags)
        if res is None:
            task.start = ready
            task.end = ready + duration
        else:
            # find the begin time the resource will actually grant
            task.end = res.occupy(ready, duration)
            task.start = task.end - duration
        self.tasks.append(task)
        return task

    # -- results ---------------------------------------------------------------------

    @property
    def makespan(self) -> float:
        return max((t.end for t in self.tasks), default=0.0)

    def utilization(self, resource: Resource | str) -> float:
        """busy / (capacity * makespan) for one resource."""
        res = self.resources[resource] if isinstance(resource, str) else resource
        span = self.makespan
        if span <= 0:
            return 0.0
        return res.busy_time / (res.capacity * span)

    def latencies(self, name_prefix: str = "") -> list[float]:
        """Latency (end - release) of all tasks whose name matches the prefix."""
        return [t.latency for t in self.tasks if t.name.startswith(name_prefix)]

    def busy_between(self, resource: Resource | str, t0: float, t1: float) -> float:
        """Busy time of a resource's tasks overlapping the window [t0, t1]."""
        res = self.resources[resource] if isinstance(resource, str) else resource
        total = 0.0
        for t in self.tasks:
            if t.resource is res:
                total += max(0.0, min(t.end, t1) - max(t.start, t0))
        return total
