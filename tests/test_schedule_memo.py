"""A compile schedules each lowered graph once.

``compile_protocol`` memoises the validated list schedule by the lowered
graph: per operation its id, type, duration, region and dependencies,
plus the binder's resources.  A hit must be exactly the schedule a
compile with the memo cleared makes, a graph that differs in any of
those inputs must miss, a caller's edits must not reach the memo, and
a graph that fails to bind must never be stored.
"""

import contextlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Protocol
from repro.array import ElectrodeGrid
from repro.core import compiler
from repro.core.compiler import compile_protocol
from repro.physics.constants import um
from repro.scheduling.binder import (
    Binder,
    BindingError,
    Resource,
    default_chip_resources,
)
from repro.scheduling.schedulers import ListScheduler, Schedule
from repro.scheduling.taskgraph import AssayGraph, Operation, OpType

GRID = ElectrodeGrid(32, 32, um(20))
LATTICE = [(r, c) for r in range(2, 30, 4) for c in range(2, 30, 4)]


@pytest.fixture(autouse=True)
def cleared_memo():
    compiler._SCHEDULE_MEMO.clear()
    yield
    compiler._SCHEDULE_MEMO.clear()


@contextlib.contextmanager
def scheduler_calls():
    """Record every ``ListScheduler.schedule`` and ``Schedule.validate``
    call."""
    calls = []
    schedule, validate = ListScheduler.schedule, Schedule.validate

    def counted_schedule(self, graph):
        calls.append("schedule")
        return schedule(self, graph)

    def counted_validate(self, graph, binder):
        calls.append("validate")
        return validate(self, graph, binder)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ListScheduler, "schedule", counted_schedule)
        patch.setattr(Schedule, "validate", counted_validate)
        yield calls


def outcome(program):
    """What a compile's schedule decides: entries, makespan and the
    command order the executor runs."""
    return (
        list(program.schedule.entries),
        program.makespan,
        [(start, op_id) for start, op_id, __ in program.ordered_commands()],
    )


def fresh(protocol, **kwargs):
    """A compile that schedules afresh."""
    compiler._SCHEDULE_MEMO.clear()
    return compile_protocol(protocol, GRID, **kwargs)


def renamed(protocol, prefix):
    """The same protocol under other handle names: the same graph."""
    twin = Protocol(f"{prefix}-{protocol.name}")
    for cmd in protocol.commands:
        kind = type(cmd).__name__
        if kind == "TrapCmd":
            twin.trap(prefix + cmd.handle, cmd.site)
        elif kind == "MoveCmd":
            twin.move(prefix + cmd.handle, cmd.goal)
        elif kind == "MoveManyCmd":
            twin.move_many([(prefix + h, goal) for h, goal in cmd.moves])
        elif kind == "SenseCmd":
            twin.sense(prefix + cmd.handle, samples=cmd.samples)
        elif kind == "SenseAllCmd":
            twin.sense_all(samples=cmd.samples)
        else:
            twin.release(prefix + cmd.handle)
    return twin


@st.composite
def protocols(draw):
    """A valid protocol over trap, move, move_many, sense, sense_all and
    release, with varied travel and sample counts."""
    n_handles = draw(st.integers(1, 6))
    sites = draw(st.permutations(LATTICE))[:n_handles]
    protocol = Protocol("drawn")
    live = []
    for i, site in enumerate(sites):
        protocol.trap(f"h{i}", site)
        live.append(f"h{i}")
    for __ in range(draw(st.integers(0, 8))):
        if not live:
            break
        action = draw(st.sampled_from(
            ["move", "move_many", "sense", "sense_all", "release"]))
        if action == "move":
            protocol.move(draw(st.sampled_from(live)),
                          draw(st.sampled_from(LATTICE)))
        elif action == "move_many":
            movers = draw(st.lists(st.sampled_from(live), min_size=1,
                                   unique=True))
            goals = draw(st.permutations(LATTICE))
            protocol.move_many(list(zip(movers, goals)))
        elif action == "sense":
            protocol.sense(draw(st.sampled_from(live)),
                           samples=draw(st.integers(1, 500)))
        elif action == "sense_all":
            protocol.sense_all(samples=draw(st.integers(1, 50)))
        else:
            handle = draw(st.sampled_from(live))
            protocol.release(handle)
            live.remove(handle)
    for handle in live:
        protocol.release(handle)
    return protocol


def same_shape(n, prefix="c", row=2, travel=10, name="shape"):
    """trap x n, one move_many, one sense_all, release x n."""
    protocol = Protocol(name)
    handles = [f"{prefix}{i}" for i in range(n)]
    for i, handle in enumerate(handles):
        protocol.trap(handle, (row, 2 * i))
    protocol.move_many({h: (row + travel, 2 * i) for i, h in enumerate(handles)})
    protocol.sense_all(samples=10)
    for handle in handles:
        protocol.release(handle)
    return protocol


class TestHits:
    @given(protocol=protocols())
    @settings(max_examples=60, deadline=None)
    def test_a_hit_is_the_schedule_a_cleared_memo_makes(self, protocol):
        want = outcome(fresh(protocol))
        compiler._SCHEDULE_MEMO.clear()
        compile_protocol(renamed(protocol, "x"), GRID)  # warms the memo
        with scheduler_calls() as calls:
            got = outcome(compile_protocol(protocol, GRID))
        assert calls == []
        assert got == want

    def test_a_same_shaped_protocol_neither_schedules_nor_revalidates(self):
        with scheduler_calls() as calls:
            first = compile_protocol(same_shape(12), GRID)
        assert calls == ["schedule", "validate"]
        with scheduler_calls() as calls:
            # other handles, other trap rows, the same travel
            second = compile_protocol(
                same_shape(12, prefix="d", row=4, name="again"), GRID)
        assert calls == []
        assert outcome(second) == outcome(first)

    def test_an_edited_schedule_does_not_reach_the_memo(self):
        protocol = same_shape(6)
        want = outcome(fresh(protocol))
        compiler._SCHEDULE_MEMO.clear()
        miss = compile_protocol(protocol, GRID)
        miss.schedule.entries.reverse()
        miss.schedule.entries.pop()
        hit = compile_protocol(protocol, GRID)
        assert outcome(hit) == want
        hit.schedule.entries.clear()
        assert outcome(compile_protocol(protocol, GRID)) == want


def graph_and_binder(duration=1.0, region=None, extra_edge=False, loaders=2,
                     sink="s"):
    """Three traps, two moves and a sense; each argument changes one
    input the schedule depends on."""
    graph = AssayGraph("variant")
    for i in range(3):
        graph.add(Operation(f"t{i}", OpType.TRAP, 5.0))
    graph.add(Operation("m0", OpType.MOVE, duration, region=region),
              after=["t0"])
    graph.add(Operation("m1", OpType.MOVE, 2.0),
              after=["t1", "t2"] if extra_edge else ["t1"])
    graph.add(Operation(sink, OpType.SENSE, 0.5), after=["m0", "m1"])
    return graph, Binder(default_chip_resources(loaders=loaders))


class TestKeys:
    def test_an_identical_graph_hits(self):
        stored = compiler._schedule(*graph_and_binder())
        with scheduler_calls() as calls:
            again = compiler._schedule(*graph_and_binder())
        assert calls == []
        assert again.entries == stored.entries

    @pytest.mark.parametrize("change", [
        dict(duration=3.0),
        dict(duration=1),  # equal to 1.0, but not of its type
        dict(extra_edge=True),
        dict(region="zone2"),
        dict(loaders=3),
        dict(sink="sense"),  # no other operation names it
    ], ids=["duration", "duration-type", "edge", "region", "capacity",
            "op-id"])
    def test_a_graph_that_differs_in_one_input_misses(self, change):
        compiler._schedule(*graph_and_binder())
        graph, binder = graph_and_binder(**change)
        with scheduler_calls() as calls:
            got = compiler._schedule(graph, binder)
        assert calls == ["schedule", "validate"]
        want = ListScheduler(binder).schedule(graph).entries
        assert got.entries == want
        assert [type(e.end) for e in got.entries] == [
            type(e.end) for e in want]

    def test_a_binder_subclass_always_schedules(self):
        class Pinned(Binder):
            pass

        graph, binder = graph_and_binder()
        compiler._schedule(graph, Binder(binder.resources))
        with scheduler_calls() as calls:
            compiler._schedule(graph, Pinned(binder.resources))
        assert calls == ["schedule", "validate"]


class TestErrors:
    def test_a_graph_that_fails_to_bind_is_not_stored(self):
        # no resource senses
        binder = Binder([Resource(
            "loader", 2, frozenset({OpType.TRAP, OpType.RELEASE}))])
        protocol = Protocol("unbindable").trap("a", (2, 2)).sense("a")
        protocol.release("a")
        for __ in range(2):
            with scheduler_calls() as calls:
                with pytest.raises(BindingError):
                    compile_protocol(protocol, GRID, binder=binder)
            assert calls == ["schedule"]
            assert len(compiler._SCHEDULE_MEMO) == 0


class TestThreads:
    def test_threads_compile_what_a_serial_run_compiles(self, monkeypatch):
        shapes = [same_shape(n, travel=t) for n in (2, 5, 9)
                  for t in (3, 11)]
        jobs = [renamed(shape, f"r{k}") for k in range(4) for shape in shapes]
        want = [outcome(fresh(job)) for job in jobs]
        compiler._SCHEDULE_MEMO.clear()
        # fewer slots than shapes: the threads evict each other's entries
        monkeypatch.setattr(compiler._SCHEDULE_MEMO, "size", 3)
        n_threads = 4
        start = threading.Barrier(n_threads)
        got = [None] * len(jobs)
        errors = []

        def compile_every(indices):
            try:
                start.wait(timeout=30)
                for i in indices:
                    got[i] = outcome(compile_protocol(jobs[i], GRID))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        # each thread takes every n-th job, so the shapes interleave
        threads = [
            threading.Thread(
                target=compile_every,
                args=(range(k, len(jobs), n_threads),))
            for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == want
        assert len(compiler._SCHEDULE_MEMO) <= 3
