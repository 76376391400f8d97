"""Schedulers: list scheduling (critical-path priority) and FCFS baseline.

Both schedulers produce the same artifact -- a :class:`Schedule` of
(operation, resource, start, end) entries that respects dependencies and
resource capacities -- so the benchmark (experiment X2) compares them
head-to-head on makespan and utilisation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .binder import Binder


@dataclass(frozen=True)
class ScheduledOp:
    """One scheduled operation instance."""

    op_id: str
    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Schedule:
    """A complete schedule with validation and metrics."""

    entries: list = field(default_factory=list)

    def entry(self, op_id) -> ScheduledOp:
        for entry in self.entries:
            if entry.op_id == op_id:
                return entry
        raise KeyError(f"operation {op_id!r} not scheduled")

    @property
    def makespan(self) -> float:
        return max((e.end for e in self.entries), default=0.0)

    def resource_busy_time(self):
        """Map resource name -> total busy time [s]."""
        busy = {}
        for entry in self.entries:
            busy[entry.resource] = busy.get(entry.resource, 0.0) + entry.duration
        return busy

    def utilisation(self, binder):
        """Map resource name -> busy / (capacity * makespan)."""
        makespan = self.makespan
        if makespan == 0.0:
            return {}
        result = {}
        for name, busy in self.resource_busy_time().items():
            capacity = binder.resource(name).capacity
            result[name] = busy / (capacity * makespan)
        return result

    def average_utilisation(self, binder) -> float:
        values = list(self.utilisation(binder).values())
        return sum(values) / len(values) if values else 0.0

    def validate(self, graph, binder):
        """Assert dependency and capacity correctness; returns True.

        * every operation scheduled exactly once, with its duration;
        * no operation starts before all predecessors end;
        * at no instant does a resource exceed its capacity.
        """
        scheduled = {e.op_id for e in self.entries}
        graph_ops = {op.op_id for op in graph.operations()}
        if scheduled != graph_ops:
            missing = graph_ops - scheduled
            extra = scheduled - graph_ops
            raise ValueError(f"schedule mismatch: missing {missing}, extra {extra}")
        by_id = {e.op_id: e for e in self.entries}
        for op in graph.operations():
            entry = by_id[op.op_id]
            if abs(entry.duration - op.duration) > 1e-9:
                raise ValueError(f"{op.op_id}: scheduled duration differs from graph")
            for pred in graph.predecessors(op.op_id):
                if by_id[pred].end - entry.start > 1e-9:
                    raise ValueError(
                        f"{op.op_id} starts at {entry.start} before "
                        f"predecessor {pred} ends at {by_id[pred].end}"
                    )
        # capacity: sweep events per resource
        events = {}
        for entry in self.entries:
            events.setdefault(entry.resource, []).append((entry.start, 1))
            events.setdefault(entry.resource, []).append((entry.end, -1))
        for name, evs in events.items():
            capacity = binder.resource(name).capacity
            level = 0
            for __, delta in sorted(evs, key=lambda e: (e[0], e[1])):
                level += delta
                if level > capacity:
                    raise ValueError(f"resource {name} exceeds capacity {capacity}")
        return True


class _ResourceState:
    """Tracks committed (start, end) intervals on one resource.

    ``earliest_slot`` finds the first time >= ready_time at which the
    occupancy stays below capacity for an entire operation duration --
    candidate starts are the ready time and every interval end after it
    (occupancy only decreases at interval ends).

    The occupancy is kept as a step function, and the stretches where
    it is at capacity as sorted, disjoint ``[start, end)`` runs.  A
    candidate fits exactly when its window meets no run; when it meets
    one, every candidate before that run's end fails too, and the run's
    end is itself a candidate.  A query is therefore one bisection per
    run it skips, not a scan over every interval per candidate.
    """

    def __init__(self, resource):
        self.resource = resource
        self._times = []  # step-function breakpoints, sorted
        self._levels = []  # occupancy on [times[i], times[i + 1])
        self._full_starts = []  # runs at capacity, sorted and disjoint
        self._full_ends = []

    def earliest_slot(self, ready_time, duration):
        """Earliest start >= ready_time with capacity for ``duration``."""
        if duration <= 0.0:
            duration = 1e-12  # degenerate ops still occupy an instant
        candidate = ready_time
        while True:
            # the first run ending after the candidate is the only one
            # its window can meet: at the candidate itself, or at a
            # start inside the window (a tiny duration can round the
            # window end back onto the candidate)
            run = bisect_right(self._full_ends, candidate)
            if run == len(self._full_ends):
                return candidate
            start = self._full_starts[run]
            if start > candidate and start >= candidate + duration:
                return candidate
            candidate = self._full_ends[run]

    def commit(self, start, end):
        if end <= start:
            return  # an empty interval never adds to the occupancy
        first = self._breakpoint(start)
        last = self._breakpoint(end)
        levels = self._levels
        for index in range(first, last):
            levels[index] += 1
            if levels[index] == self.resource.capacity:
                self._mark_full(self._times[index], self._times[index + 1])

    def _breakpoint(self, instant):
        """Index of the step-function segment starting at ``instant``,
        splitting the segment that holds it if needed."""
        index = bisect_left(self._times, instant)
        if index == len(self._times) or self._times[index] != instant:
            self._times.insert(index, instant)
            self._levels.insert(index, self._levels[index - 1] if index else 0)
        return index

    def _mark_full(self, start, end):
        """Merge ``[start, end)`` into the runs at capacity."""
        starts, ends = self._full_starts, self._full_ends
        lo = bisect_left(ends, start)  # first run reaching start
        hi = bisect_right(starts, end)  # past the last run starting by end
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]


@dataclass
class ListScheduler:
    """Bottom-level (critical path) priority list scheduler.

    Repeatedly takes the ready operation with the longest remaining
    critical path and places it on the candidate resource offering the
    earliest start.  The textbook DAG-scheduling heuristic; within a
    small constant of optimal on the workloads we generate.
    """

    binder: Binder

    def schedule(self, graph) -> Schedule:
        graph.validate()
        self.binder.validate_graph(graph)
        levels = graph.bottom_levels()
        indegree = {
            op.op_id: len(graph.dependencies(op.op_id)) for op in graph.operations()
        }
        finish = {}
        states = {r.name: _ResourceState(r) for r in self.binder.resources}
        ready = [
            (-levels[op_id], op_id)
            for op_id, deg in indegree.items()
            if deg == 0
        ]
        heapq.heapify(ready)
        entries = []
        while ready:
            __, op_id = heapq.heappop(ready)
            operation = graph.operation(op_id)
            ready_time = max(
                (finish[p] for p in graph.dependencies(op_id)), default=0.0
            )
            best = None
            for resource in self.binder.candidates(operation):
                start = states[resource.name].earliest_slot(
                    ready_time, operation.duration
                )
                if best is None or start < best[0]:
                    best = (start, resource.name)
            start, resource_name = best
            end = start + operation.duration
            states[resource_name].commit(start, end)
            finish[op_id] = end
            entries.append(ScheduledOp(op_id, resource_name, start, end))
            for succ in graph.successors(op_id):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (-levels[succ], succ))
        if len(entries) != len(graph):
            raise RuntimeError("scheduler failed to place every operation")
        return Schedule(entries=entries)


@dataclass
class FcfsScheduler:
    """First-come-first-served baseline.

    Operations are released in topological insertion order and greedily
    placed as they arrive, with no priority for the critical path; late
    discovery of long chains inflates the makespan, which is the gap the
    list scheduler closes.
    """

    binder: Binder

    def schedule(self, graph) -> Schedule:
        graph.validate()
        self.binder.validate_graph(graph)
        finish = {}
        states = {r.name: _ResourceState(r) for r in self.binder.resources}
        entries = []
        for operation in graph.operations():  # plain topological order
            ready_time = max(
                (finish[p] for p in graph.dependencies(operation.op_id)),
                default=0.0,
            )
            # FCFS: take the *first* capable resource, not the best one.
            resource = self.binder.candidates(operation)[0]
            start = states[resource.name].earliest_slot(
                ready_time, operation.duration
            )
            end = start + operation.duration
            states[resource.name].commit(start, end)
            finish[operation.op_id] = end
            entries.append(ScheduledOp(operation.op_id, resource.name, start, end))
        return Schedule(entries=entries)
