"""The list scheduler, the schedule check and the run order against the
code they replaced.

``ParentListScheduler`` and ``parent_validate`` are the list scheduler
and ``Schedule.validate`` as they were before the scheduler fused its
graph and binding checks into its bottom-level pass and the check
became one pass over the entries.  The scheduler must place every
generated graph exactly as the oracle does, and raise the oracle's
exception, with its message, before it places anything.  The check
must agree with the oracle on every schedule the oracle could judge,
and also reject the two schedules the oracle let through: an operation
scheduled twice, and an entry on a resource that cannot run it.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import ElectrodeGrid
from repro.core import compiler
from repro.core.compiler import compile_protocol
from repro.core.protocol import Protocol
from repro.core.session import Session
from repro.physics.constants import um
from repro.scheduling import schedulers
from repro.scheduling.binder import Binder, BindingError, Resource
from repro.scheduling.binder import default_chip_resources
from repro.scheduling.schedulers import (
    FcfsScheduler,
    ListScheduler,
    Schedule,
    ScheduledOp,
)
from repro.scheduling.taskgraph import OpType
from repro.service.cache import ProgramCache
from repro.workloads import random_assay

# -- the oracle: the code before the rewrite ---------------------------------


class _ParentResourceState:
    """The slot search as it was: the step function kept from the first
    commit on."""

    def __init__(self, resource):
        self.resource = resource
        self._times = []
        self._levels = []
        self._full_starts = []
        self._full_ends = []

    def earliest_slot(self, ready_time, duration):
        if duration <= 0.0:
            duration = 1e-12
        candidate = ready_time
        while True:
            run = schedulers.bisect_right(self._full_ends, candidate)
            if run == len(self._full_ends):
                return candidate
            start = self._full_starts[run]
            if start > candidate and start >= candidate + duration:
                return candidate
            candidate = self._full_ends[run]

    def commit(self, start, end):
        if end <= start:
            return
        first = self._breakpoint(start)
        last = self._breakpoint(end)
        levels = self._levels
        for index in range(first, last):
            levels[index] += 1
            if levels[index] == self.resource.capacity:
                self._mark_full(self._times[index], self._times[index + 1])

    def _breakpoint(self, instant):
        index = schedulers.bisect_left(self._times, instant)
        if index == len(self._times) or self._times[index] != instant:
            self._times.insert(index, instant)
            self._levels.insert(index, self._levels[index - 1] if index else 0)
        return index

    def _mark_full(self, start, end):
        starts, ends = self._full_starts, self._full_ends
        lo = schedulers.bisect_left(ends, start)
        hi = schedulers.bisect_right(starts, end)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]


class ParentListScheduler:
    """The list scheduler as it was: both checks as separate passes,
    then bottom levels, then placement over sorted successor lists."""

    def __init__(self, binder):
        self.binder = binder

    def schedule(self, graph):
        graph.validate()
        self.binder.validate_graph(graph)
        levels = graph.bottom_levels()
        indegree = {
            op.op_id: len(graph.dependencies(op.op_id)) for op in graph.operations()
        }
        finish = {}
        states = {r.name: _ParentResourceState(r) for r in self.binder.resources}
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


def parent_validate(schedule, graph, binder):
    """``Schedule.validate`` as it was."""
    scheduled = {e.op_id for e in schedule.entries}
    graph_ops = {op.op_id for op in graph.operations()}
    if scheduled != graph_ops:
        missing = graph_ops - scheduled
        extra = scheduled - graph_ops
        raise ValueError(f"schedule mismatch: missing {missing}, extra {extra}")
    by_id = {e.op_id: e for e in schedule.entries}
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
    events = {}
    for entry in schedule.entries:
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


# -- generated graphs and binders --------------------------------------------

# A coarse lattice makes equal bottom levels (ties broken by op id) and
# equal starts common; zero-duration operations occupy no time at all.
_LATTICE = [0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 5.0]


@st.composite
def binders(draw):
    """The default resource model, down to one slot per resource."""
    return Binder(default_chip_resources(
        zones=draw(st.integers(1, 3)),
        cages_per_zone=draw(st.integers(1, 3)),
        sense_channels=draw(st.integers(1, 2)),
        loaders=draw(st.integers(1, 2)),
    ))


def capable(binder, op_type):
    return [r.name for r in binder.resources if op_type in r.op_types]


@st.composite
def graphs(draw, binder):
    """A random assay whose operations may be retimed onto the lattice
    or pinned to a region that can run them."""
    graph = random_assay(
        n_chains=draw(st.integers(1, 6)),
        merge_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        incubate_fraction=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    for op in graph.operations():
        change = draw(st.sampled_from(["keep", "lattice", "lattice", "pin"]))
        if change == "lattice":
            op.duration = draw(st.sampled_from(_LATTICE))
        elif change == "pin":
            op.region = draw(st.sampled_from(capable(binder, op.op_type)))
    return graph


def entries_of(schedule):
    """Entries compared by ``repr``: values and their types, in order."""
    return repr(schedule.entries)


class _Counted(schedulers._ResourceState):
    """Counts every slot search and commit, so a test can tell whether
    anything was placed."""

    calls = 0

    def earliest_slot(self, ready_time, duration):
        _Counted.calls += 1
        return super().earliest_slot(ready_time, duration)

    def commit(self, start, end):
        _Counted.calls += 1
        return super().commit(start, end)


def outcome(scheduler, graph):
    """The schedule's entries, or the exception's type and message."""
    try:
        return entries_of(scheduler.schedule(graph))
    except Exception as exc:  # compared below
        return type(exc), str(exc)


class TestListScheduler:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_places_every_graph_as_the_parent_did(self, data):
        binder = data.draw(binders())
        graph = data.draw(graphs(binder))
        want = ParentListScheduler(binder).schedule(graph)
        got = ListScheduler(binder).schedule(graph)
        assert entries_of(got) == entries_of(want)
        assert got.validate(graph, binder)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_raises_what_the_parent_raised_before_placing(self, data):
        binder = data.draw(binders())
        graph = data.draw(graphs(binder))
        ops = graph.operations()
        problems = data.draw(st.sets(
            st.sampled_from(["cycle", "negative", "pin", "unknown"]),
            min_size=1))
        if "cycle" in problems:
            # a back edge from an operation to one of its dependencies
            chained = [op.op_id for op in ops if graph.dependencies(op.op_id)]
            if chained:
                op_id = data.draw(st.sampled_from(chained))
                dep = data.draw(st.sampled_from(
                    sorted(graph.dependencies(op_id))))
                graph._link(op_id, dep)
        if "negative" in problems:
            data.draw(st.sampled_from(ops)).duration = -data.draw(
                st.sampled_from([1e-9, 0.5, 3.0]))
        if "pin" in problems:
            op = data.draw(st.sampled_from(ops))
            others = [r.name for r in binder.resources
                      if op.op_type not in r.op_types]
            op.region = data.draw(st.sampled_from(others))
        if "unknown" in problems:
            data.draw(st.sampled_from(ops)).region = "mars"
        want = outcome(ParentListScheduler(binder), graph)
        _Counted.calls = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schedulers, "_ResourceState", _Counted)
            got = outcome(ListScheduler(binder), graph)
        assert got == want
        if isinstance(want, tuple):
            assert _Counted.calls == 0

    def test_a_binder_without_a_capable_resource_raises_the_parents_error(self):
        binder = Binder([Resource("loader", 1, frozenset({OpType.TRAP,
                                                          OpType.RELEASE}))])
        graph = random_assay(n_chains=2, seed=3)
        want = outcome(ParentListScheduler(binder), graph)
        assert want[0] is BindingError
        assert outcome(ListScheduler(binder), graph) == want


class TestScheduleCheck:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_parent_on_shifted_and_stretched_entries(self, data):
        binder = data.draw(binders())
        graph = data.draw(graphs(binder))
        scheduler = data.draw(st.sampled_from([ListScheduler, FcfsScheduler]))
        entries = list(scheduler(binder).schedule(graph).entries)
        index = data.draw(st.integers(0, len(entries) - 1))
        entry = entries[index]
        shift = data.draw(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 3.0]))
        stretch = data.draw(st.sampled_from([0.0, 0.0, 1e-12, 0.25]))
        resource = entry.resource
        if graph.operation(entry.op_id).region is None:
            resource = data.draw(st.sampled_from(
                capable(binder, graph.operation(entry.op_id).op_type)))
        entries[index] = ScheduledOp(
            entry.op_id, resource, entry.start + shift,
            entry.end + shift + stretch)
        if data.draw(st.booleans()):
            entries.reverse()
        schedule = Schedule(entries=entries)
        want = outcome_of_check(parent_validate, schedule, graph, binder)
        got = outcome_of_check(Schedule.validate, schedule, graph, binder)
        assert (got is True) == (want is True)

    def test_rejects_an_operation_scheduled_twice(self):
        # room for the copy, so only the duplicate can be wrong
        graph, binder, entries = self.two_traps(loaders=3)
        doubled = Schedule(entries=entries + [entries[0]])
        assert parent_validate(doubled, graph, binder)  # let through before
        with pytest.raises(ValueError, match="more than once"):
            doubled.validate(graph, binder)

    def test_rejects_a_resource_that_cannot_run_the_operation(self):
        graph = random_assay(n_chains=1, seed=0)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        entries = [
            ScheduledOp(e.op_id, "sense-bank", e.start, e.end)
            if graph.operation(e.op_id).op_type is OpType.MOVE else e
            for e in schedule.entries
        ]
        moved = Schedule(entries=entries)
        assert parent_validate(moved, graph, binder)  # let through before
        with pytest.raises(ValueError, match="cannot run"):
            moved.validate(graph, binder)

    def test_rejects_an_entry_off_its_pinned_region(self):
        graph = random_assay(n_chains=1, seed=0)
        moves = [op for op in graph.operations() if op.op_type is OpType.MOVE]
        moves[0].region = "zone1"
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        entries = [
            ScheduledOp(e.op_id, "zone2", e.start, e.end)
            if e.op_id == moves[0].op_id else e
            for e in schedule.entries
        ]
        off = Schedule(entries=entries)
        assert parent_validate(off, graph, binder)  # let through before
        with pytest.raises(ValueError, match="pinned to zone1"):
            off.validate(graph, binder)

    def test_an_operation_ending_frees_its_slot_at_once(self):
        graph, binder, entries = self.two_traps()
        back_to_back = Schedule(entries=[
            ScheduledOp("t0", "loader", 0.0, 5.0),
            ScheduledOp("t1", "loader", 5.0, 10.0),
        ])
        assert back_to_back.validate(graph, binder)
        overlapping = Schedule(entries=[
            ScheduledOp("t0", "loader", 0.0, 5.0),
            ScheduledOp("t1", "loader", 4.0, 9.0),
        ])
        with pytest.raises(ValueError, match="capacity"):
            overlapping.validate(graph, binder)

    def test_an_unknown_resource_is_a_binding_error(self):
        graph, binder, entries = self.two_traps()
        stray = Schedule(entries=[
            entries[0], ScheduledOp("t1", "mars", 0.0, 5.0)])
        with pytest.raises(BindingError):
            stray.validate(graph, binder)

    @staticmethod
    def two_traps(loaders=1):
        from repro.scheduling.taskgraph import AssayGraph, Operation

        graph = AssayGraph("traps")
        graph.add(Operation("t0", OpType.TRAP, 5.0))
        graph.add(Operation("t1", OpType.TRAP, 5.0))
        binder = Binder(default_chip_resources(loaders=loaders))
        entries = list(ListScheduler(binder).schedule(graph).entries)
        return graph, binder, entries


def outcome_of_check(check, schedule, graph, binder):
    try:
        return check(schedule, graph, binder)
    except (ValueError, BindingError) as exc:
        return type(exc)


# -- the run order ------------------------------------------------------------

GRID = ElectrodeGrid(32, 32, um(20))


def band(prefix, n=4, row=2, travel=9, samples=20):
    """trap x n, one move_many, a sense each, release x n."""
    protocol = Protocol(f"{prefix}-band")
    handles = [f"{prefix}{i}" for i in range(n)]
    for i, handle in enumerate(handles):
        protocol.trap(handle, (row + 2 * i, 2))
    protocol.move_many({h: (row + 2 * i, 2 + travel)
                        for i, h in enumerate(handles)})
    for handle in handles:
        protocol.sense(handle, samples=samples)
    for handle in handles:
        protocol.release(handle)
    return protocol


def parent_order(program):
    """The run order as ``ordered_commands`` sorted it on every call:
    by start, ties by topological position."""
    order = {op.op_id: i for i, op in enumerate(program.graph.operations())}
    entries = sorted(
        program.schedule.entries, key=lambda e: (e.start, order[e.op_id]))
    return [(e.start, e.op_id, program.op_commands[e.op_id]) for e in entries]


class TestRunOrder:
    @pytest.fixture
    def sorts(self, monkeypatch):
        """Every run-order computation, by the program's protocol name."""
        calls = []
        run_order = compiler._run_order

        def counted(graph, schedule):
            calls.append(graph.name)
            return run_order(graph, schedule)

        monkeypatch.setattr(compiler, "_run_order", counted)
        return calls

    def test_a_program_sorts_once_over_runs_and_a_rebound_hit(self, sorts):
        session = Session.dry_run(grid=GRID)
        cache = ProgramCache()
        program, hit = cache.get_or_compile(band("a"), session)
        assert not hit
        assert sorts == ["a-band"]
        for __ in range(3):
            session.run(program)
        twin = band("b")  # the same structure under other handles
        rebound, hit = cache.get_or_compile(twin, session)
        assert hit
        assert rebound.run_order is program.run_order
        session.run(rebound)
        assert sorts == ["a-band"]
        # the rebound order runs the submitted protocol's own commands
        commands = [cmd for __, __, cmd in rebound.ordered_commands()]
        assert sorted(map(id, commands)) == sorted(map(id, twin.commands))

    @given(
        n=st.integers(1, 6),
        travel=st.integers(0, 12),
        samples=st.integers(1, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_order_is_the_one_the_parent_sorted_each_run(
            self, n, travel, samples):
        compiler._SCHEDULE_MEMO.clear()
        program = compile_protocol(
            band("c", n=n, travel=travel, samples=samples), GRID)
        assert program.ordered_commands() == parent_order(program)
        hit = compile_protocol(
            band("d", n=n, travel=travel, samples=samples), GRID)
        assert hit.ordered_commands() == parent_order(hit)
