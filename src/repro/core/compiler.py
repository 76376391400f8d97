"""The protocol compiler: protocol -> bound, scheduled assay program.

Lowers a validated :class:`~repro.core.protocol.Protocol` to

1. an :class:`~repro.scheduling.taskgraph.AssayGraph` (one operation per
   command, dependency edges from handle data flow),
2. physical durations from the
   :class:`~repro.scheduling.taskgraph.DurationModel` (move durations
   from actual site-to-site distances),
3. a resource-bound :class:`~repro.scheduling.schedulers.Schedule` via
   the list scheduler.

The schedule is memoised by the lowered graph.  Protocols that differ
only in what the scheduler never reads -- handle names, particles,
sites beyond the travel distances they set -- lower to the same graph,
so a stream of new protocols (the program cache misses every one) often
schedules only a few distinct graphs.  The key holds, per operation in
insertion order, its id, type, duration (and the duration's type),
pinned region and dependency ids, plus the binder's resources: every
input :meth:`ListScheduler.schedule
<repro.scheduling.schedulers.ListScheduler.schedule>` (with the graph
and binding checks it runs) and :meth:`Schedule.validate
<repro.scheduling.schedulers.Schedule.validate>` read.  The schedule
and the verdict of both checks are therefore functions of the key, so a
hit returns a schedule already validated against an identical graph.  A
graph that raised is never stored, and each hit gets its own entries
list, so a caller that edits its schedule cannot reach the memo.  A
:class:`~repro.scheduling.binder.Binder` subclass, which may bind by
more than its resources, always schedules afresh.  Lowering and
``protocol.validate`` run on every compile.

A miss pays for one list schedule and one check of it.  The scheduler
finds the topological order once (the graph keeps it) and checks the
graph in the same reverse pass that finds each operation's bottom level
and candidate resources: no cycle, no negative duration, every
operation bindable.  Only when that pass meets a problem do the graph's
and the binder's own checks run, to raise the first problem in their
order before anything is placed.  :meth:`Schedule.validate
<repro.scheduling.schedulers.Schedule.validate>` then checks the
schedule in one pass over its entries.

Each :class:`CompiledProgram` fixes its run order once, when it is
built: the schedule's entries sorted by start, ties by topological
position.  :meth:`CompiledProgram.ordered_commands` reads it on every
run, and a cache hit rebound to another protocol
(:func:`~repro.service.cache.rebind_program`) shares it, so neither
sorts again.

Lowering is table-driven: each command's registered
:class:`~repro.core.registry.CommandSpec` emits its own operation
through a shared :class:`~repro.core.registry.LoweringContext`, so new
command types compile without changes here.

The result (:class:`CompiledProgram`) carries everything the executor
needs plus the predicted makespan the run can be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..scheduling.binder import Binder, default_chip_resources
from ..scheduling.schedulers import ListScheduler, Schedule
from ..scheduling.taskgraph import AssayGraph, DurationModel
from .memo import LruMemo
from .protocol import Protocol
from .registry import LoweringContext, default_registry

#: How many distinct lowered graphs the schedule memo remembers (least
#: recently used first out).
_SCHEDULE_MEMO_SIZE = 64

#: Hash of a lowered-graph key -> (the key, the tuple of its validated
#: schedule's entries); process-wide, so every session and serving tier
#: shares it.
_SCHEDULE_MEMO = LruMemo(_SCHEDULE_MEMO_SIZE)

#: The binder of every compile not given one: one per process, so its
#: per-operation-type candidate lists are found once (two threads that
#: find one at once store equal lists).  Its resources are a tuple, so
#: no caller can change the shared resource set.
_DEFAULT_BINDER = Binder(tuple(default_chip_resources()))


@dataclass
class CompiledProgram:
    """A protocol lowered to a scheduled operation graph.

    ``op_commands`` maps each op id to its command, in command order.
    ``run_order`` holds the schedule's entries in the order the
    executor runs them, found once when the program is built (a
    rebound copy shares it).
    """

    protocol: Protocol
    graph: AssayGraph
    schedule: Schedule
    binder: Binder
    op_commands: dict = field(default_factory=dict)  # op_id -> command
    registry: object = None  # the CommandRegistry it was compiled with
    run_order: tuple = None

    def __post_init__(self):
        if self.run_order is None:
            self.run_order = _run_order(self.graph, self.schedule)

    @property
    def makespan(self) -> float:
        """Predicted assay duration [s]."""
        return self.schedule.makespan

    def ordered_commands(self):
        """(start_time, op_id, command) sorted by scheduled start.

        Ties are broken by the operations' topological order, so handle
        data flow is preserved for equal starts.
        """
        op_commands = self.op_commands
        return [(e.start, e.op_id, op_commands[e.op_id]) for e in self.run_order]


def _run_order(graph, schedule):
    """The schedule's entries sorted by start, ties by topological
    position: one tuple of the entries themselves, so a cached program
    holds no copy of them."""
    position = {op_id: i for i, op_id in enumerate(graph._order())}
    return tuple(
        sorted(schedule.entries, key=lambda e: (e.start, position[e.op_id])))


def compile_protocol(
    protocol, grid, duration_model=None, binder=None, registry=None
) -> CompiledProgram:
    """Compile ``protocol`` for a chip with the given ``grid``.

    Raises :class:`~repro.core.errors.CompileError` for geometric
    problems (off-grid sites); protocol-level semantic errors surface
    from ``protocol.validate()`` as :class:`ProtocolError`.
    """
    registry = registry or default_registry
    protocol.validate(registry=registry)
    duration_model = duration_model or DurationModel(pitch=grid.pitch)
    binder = binder or _DEFAULT_BINDER
    graph = AssayGraph(name=protocol.name)
    ctx = LoweringContext(grid=grid, duration_model=duration_model, graph=graph)
    op_commands = {}

    for index, cmd in enumerate(protocol.commands):
        op_id = f"{index}:{type(cmd).__name__}"
        registry.spec_for(cmd).lower(cmd, ctx, op_id)
        op_commands[op_id] = cmd

    return CompiledProgram(
        protocol=protocol,
        graph=graph,
        schedule=_schedule(graph, binder),
        binder=binder,
        op_commands=op_commands,
        registry=registry,
    )


def _schedule(graph, binder):
    """The validated list schedule of ``graph`` on ``binder``, from the
    schedule memo when an identical graph was scheduled before."""
    if type(binder) is not Binder:
        # a subclass may bind by more than the resources in the key
        key = None
    else:
        preds = graph._preds
        # One flat tuple: two thirds of the memory of a tuple per
        # resource and per operation.  The resource count leads, so the
        # fixed-width field groups cannot shift.  A resource is keyed by
        # its fields (a dataclass hash and equality run in Python), a
        # duration with its type (5 == 5.0, but their schedules' starts
        # and ends would differ in type).
        key = [len(binder.resources)]
        for r in binder.resources:
            key += (type(r), r.name, r.capacity, r.op_types)
        for op_id, op in graph._ops.items():
            key += (op_id, op.op_type, op.duration, type(op.duration),
                    op.region, tuple(preds[op_id]))
        key = tuple(key)
        # stored under the key's hash, so the key is hashed once; a
        # hit compares the whole key
        digest = hash(key)
        slot = _SCHEDULE_MEMO.lookup(digest)
        if slot is not None and slot[0] == key:
            return Schedule(entries=list(slot[1]))
    schedule = ListScheduler(binder).schedule(graph)
    schedule.validate(graph, binder)
    if key is not None:
        _SCHEDULE_MEMO.store(digest, (key, tuple(schedule.entries)))
    return schedule
