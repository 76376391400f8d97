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

from .binder import Binder, BindingError


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

    def validate(self, graph, binder):
        """Check the schedule runs ``graph`` on ``binder``; returns True.

        Raises ValueError unless

        * every operation of the graph is scheduled, exactly once, and
          nothing else is;
        * each entry lasts its operation's duration (to 1e-9 s);
        * each entry's resource can run its operation's type and, for
          an operation pinned to a region, is that region;
        * no operation starts before each of its predecessors ends (to
          1e-9 s);
        * at no instant does a resource hold more operations than its
          capacity (one ending at t frees its slot for one starting at
          t).

        An entry on a resource the binder does not have raises
        :class:`~repro.scheduling.binder.BindingError`.  One pass over
        the entries checks all but capacity; the capacity sweep sorts
        the entries' start and end events only on a resource holding
        more entries than its capacity, since no other can overflow.
        """
        ops, preds = graph._ops, graph._preds
        by_id = {entry.op_id: entry for entry in self.entries}
        if len(by_id) != len(self.entries):
            seen = set()
            for entry in self.entries:
                if entry.op_id in seen:
                    raise ValueError(
                        f"operation {entry.op_id!r} scheduled more than once")
                seen.add(entry.op_id)
        if by_id.keys() != ops.keys():
            missing = ops.keys() - by_id.keys()
            extra = by_id.keys() - ops.keys()
            raise ValueError(f"schedule mismatch: missing {missing}, extra {extra}")
        held = {}  # resource name -> its entries
        runs = set()  # (resource name, op type) pairs found runnable
        for entry in self.entries:
            op_id, name, start = entry.op_id, entry.resource, entry.start
            operation = ops[op_id]
            if abs(entry.end - start - operation.duration) > 1e-9:
                raise ValueError(f"{op_id}: scheduled duration differs from graph")
            if (name, operation.op_type) not in runs:
                if not binder.resource(name).supports(operation.op_type):
                    raise ValueError(
                        f"{op_id}: resource {name} cannot run {operation.op_type}")
                runs.add((name, operation.op_type))
            if operation.region is not None and operation.region != name:
                raise ValueError(
                    f"{op_id}: scheduled on {name}, pinned to {operation.region}")
            for pred in preds[op_id]:
                if by_id[pred].end - start > 1e-9:
                    raise ValueError(
                        f"{op_id} starts at {start} before "
                        f"predecessor {pred} ends at {by_id[pred].end}"
                    )
            held.setdefault(name, []).append(entry)
        for name, entries in held.items():
            capacity = binder.resource(name).capacity
            if len(entries) <= capacity:
                continue
            events = [(e.start, 1) for e in entries]
            events += [(e.end, -1) for e in entries]
            events.sort()
            level = 0
            for __, delta in events:
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

    Fewer intervals than the capacity can never fill the resource, so
    the first ``capacity - 1`` are only held; the step function is
    built from them, in commit order, when the next one arrives.
    """

    __slots__ = ("resource", "_times", "_levels", "_full_starts",
                 "_full_ends", "_held")

    def __init__(self, resource):
        self.resource = resource
        self._held = []  # intervals not yet in the step function
        # no run at capacity until the step function is built
        self._full_starts = self._full_ends = ()

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
        held = self._held
        if held is None:
            self._add(start, end)
            return
        held.append((start, end))
        if len(held) == self.resource.capacity:
            self._held = None
            self._times = []  # step-function breakpoints, sorted
            self._levels = []  # occupancy on [times[i], times[i + 1])
            self._full_starts = []  # runs at capacity, sorted and disjoint
            self._full_ends = []
            for interval in held:
                self._add(*interval)

    def _add(self, start, end):
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
        """Place every operation of ``graph``; returns the schedule.

        One reverse topological pass checks the graph (no cycle, no
        negative duration, every operation bindable) while it finds
        each operation's bottom level and candidate resources.  When
        that pass meets a problem, :meth:`AssayGraph.validate
        <repro.scheduling.taskgraph.AssayGraph.validate>` and
        :meth:`Binder.validate_graph
        <repro.scheduling.binder.Binder.validate_graph>` run and raise
        the first problem in their order, before anything is placed.
        """
        ops, preds, succs = graph._ops, graph._preds, graph._succs
        order = graph._order()
        binder = self.binder
        levels = {}
        candidates = {}  # op_id -> its candidate resources
        indegree = {}
        ready = []  # (-bottom level, op_id) of the roots
        try:
            if len(order) != len(ops):
                raise ValueError("assay graph has a cycle")
            for op_id in reversed(order):
                operation = ops[op_id]
                duration = operation.duration
                if duration < 0.0:
                    raise ValueError(f"operation {op_id} has negative duration")
                after = succs[op_id]
                level = levels[op_id] = duration + (
                    max(map(levels.__getitem__, after)) if after else 0.0
                )
                candidates[op_id] = binder.candidates(operation)
                indegree[op_id] = len(preds[op_id])
                if not indegree[op_id]:
                    ready.append((-level, op_id))
        except (ValueError, BindingError):
            # the checks' own order decides which problem is reported
            graph.validate()
            binder.validate_graph(graph)
            raise
        heapq.heapify(ready)
        states = {r.name: _ResourceState(r) for r in binder.resources}
        finish = {}
        entries = []
        # (-level, op_id) is unique, so the pop order cannot depend on
        # the order successors are pushed in
        while ready:
            __, op_id = heapq.heappop(ready)
            duration = ops[op_id].duration
            deps = preds[op_id]
            ready_time = max(map(finish.__getitem__, deps)) if deps else 0.0
            best = best_start = None
            for resource in candidates[op_id]:
                state = states[resource.name]
                start = state.earliest_slot(ready_time, duration)
                if best is None or start < best_start:
                    best, best_start = state, start
                    if start == ready_time:
                        break  # no later candidate can start sooner
            end = best_start + duration
            best.commit(best_start, end)
            finish[op_id] = end
            entries.append(
                ScheduledOp(op_id, best.resource.name, best_start, end))
            for succ in succs[op_id]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    heapq.heappush(ready, (-levels[succ], succ))
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
