"""Command registry: the single dispatch table of the execution API.

Every protocol command type is described by one :class:`CommandSpec`
with three hooks --

* ``validate(cmd, state, where)``: static semantic checks against the
  running handle-liveness :class:`ValidationState`;
* ``lower(cmd, ctx, op_id)``: compile the command to exactly one
  scheduled :class:`~repro.scheduling.taskgraph.Operation` through the
  :class:`LoweringContext`;
* ``execute(cmd, backend, ctx, op_id)``: run the command against a
  :class:`~repro.core.backend.Backend`, recording into the
  :class:`ExecutionContext`.

The protocol validator, the compiler and the session runner all dispatch
through the same :class:`CommandRegistry` table (the module-level
:data:`default_registry`), so adding a command -- including third-party
commands defined outside this package -- is one ``register()`` call
instead of editing three ``isinstance`` chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..scheduling.taskgraph import Operation, OpType
from .errors import CompileError, ExecutionError, ProtocolError
from .protocol import (
    IncubateCmd,
    MergeCmd,
    MoveCmd,
    MoveManyCmd,
    ReleaseCmd,
    SenseAllCmd,
    SenseCmd,
    TrapCmd,
)

# -- shared dispatch state ---------------------------------------------------


@dataclass
class ValidationState:
    """Handle liveness tracked across a protocol's commands."""

    live: set = field(default_factory=set)
    dead: set = field(default_factory=set)

    def define(self, handle, where):
        """Introduce a new handle; rejects redefinition."""
        if handle in self.live or handle in self.dead:
            raise ProtocolError(f"{where}: handle {handle!r} redefined")
        self.live.add(handle)

    def require_live(self, handle, where):
        """Assert a handle is defined and not released/merged away."""
        if handle in self.dead:
            raise ProtocolError(
                f"{where}: handle {handle!r} used after release/merge"
            )
        if handle not in self.live:
            raise ProtocolError(f"{where}: handle {handle!r} not defined")

    def kill(self, handle):
        """Retire a handle (release or merge absorption)."""
        self.live.discard(handle)
        self.dead.add(handle)


@dataclass
class LoweringContext:
    """Everything a spec needs to lower its command into the graph."""

    grid: object
    duration_model: object
    graph: object
    last_op: dict = field(default_factory=dict)  # handle -> op_id
    position: dict = field(default_factory=dict)  # handle -> (row, col)

    def check_site(self, site, op_id):
        """Reject off-array sites with a :class:`CompileError`."""
        if not self.grid.in_bounds(*site):
            raise CompileError(
                f"{op_id}: site {site} outside the "
                f"{self.grid.rows}x{self.grid.cols} array"
            )

    def add(self, op_id, op_type, duration, after=(), payload=None):
        """Add one operation to the graph; returns the operation."""
        operation = Operation(op_id, op_type, duration, None, payload or {})
        self.graph.add(operation, [dep for dep in after if dep is not None])
        return operation

    def distance(self, a, b) -> int:
        """Chebyshev distance between two sites, in electrodes."""
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass
class ExecutionContext:
    """Per-run handle bindings plus the result being assembled.

    A fresh context is created for every :meth:`Session.run`, which is
    what guarantees run-to-run handle isolation.
    """

    result: object
    handles: dict = field(default_factory=dict)  # handle -> cage id

    def bind(self, handle, cage_id):
        self.handles[handle] = cage_id

    def unbind(self, handle):
        self.handles.pop(handle, None)

    def cage_of(self, handle):
        try:
            return self.handles[handle]
        except KeyError:
            raise ExecutionError(f"handle {handle!r} has no live cage") from None


# -- the spec protocol and registry ------------------------------------------


class CommandSpec:
    """Behaviour of one command type, registered in a :class:`CommandRegistry`.

    Subclass and implement the three hooks to add a command; ``lower``
    must create exactly one operation under the given ``op_id`` so the
    scheduler's entries map back to commands.  Override
    ``defined_handles`` for commands that introduce handles, and list
    every dataclass field holding handle *references* in
    ``handle_fields`` so :meth:`Protocol.fingerprint` can canonicalise
    them (an undeclared field is hashed verbatim -- conservative: the
    program cache may miss, but never falsely hit).
    """

    #: Names of dataclass fields whose values are handle references
    #: (possibly nested in tuples/dicts, as in ``MoveManyCmd.moves``).
    handle_fields = ()

    def validate(self, cmd, state, where):
        raise NotImplementedError

    def lower(self, cmd, ctx, op_id):
        raise NotImplementedError

    def execute(self, cmd, backend, ctx, op_id):
        raise NotImplementedError

    def defined_handles(self, cmd):
        """Handles this command introduces (for :meth:`Protocol.handles`)."""
        return ()


class CommandRegistry:
    """Mapping of command type -> :class:`CommandSpec`."""

    def __init__(self):
        self._specs = {}

    def register(self, cmd_type, spec=None, *, replace=False):
        """Register ``spec`` for ``cmd_type``.

        ``spec`` may be a :class:`CommandSpec` instance or class (it is
        instantiated).  With ``spec`` omitted, returns a decorator for a
        spec class.  Re-registration requires ``replace=True``.
        """
        if spec is None:
            def decorator(spec_cls):
                self.register(cmd_type, spec_cls, replace=replace)
                return spec_cls
            return decorator
        if cmd_type in self._specs and not replace:
            raise ValueError(
                f"command type {cmd_type.__name__} already registered "
                f"(pass replace=True to override)"
            )
        if isinstance(spec, type):
            spec = spec()
        self._specs[cmd_type] = spec
        return spec

    def unregister(self, cmd_type):
        self._specs.pop(cmd_type, None)

    def get(self, cmd_type):
        """The spec for a command type, or None when unregistered."""
        return self._specs.get(cmd_type)

    def spec_for(self, cmd) -> CommandSpec:
        """The spec for a command instance; raises :class:`ProtocolError`."""
        spec = self._specs.get(type(cmd))
        if spec is None:
            raise ProtocolError(
                f"unknown command type {type(cmd).__name__!r}: not registered"
            )
        return spec

    def command_types(self):
        """Registered command types, in registration order."""
        return tuple(self._specs)


# -- built-in command specs --------------------------------------------------


class TrapSpec(CommandSpec):
    handle_fields = ("handle",)

    def validate(self, cmd, state, where):
        state.define(cmd.handle, where)

    def defined_handles(self, cmd):
        return (cmd.handle,)

    def lower(self, cmd, ctx, op_id):
        ctx.check_site(cmd.site, op_id)
        ctx.add(op_id, OpType.TRAP, ctx.duration_model.trap())
        ctx.position[cmd.handle] = cmd.site
        ctx.last_op[cmd.handle] = op_id

    def execute(self, cmd, backend, ctx, op_id):
        cage_id = backend.trap(cmd.site, cmd.particle)
        ctx.bind(cmd.handle, cage_id)
        ctx.result.record(
            op_id, "trap", handle=cmd.handle, site=cmd.site, cage=cage_id
        )


class MoveSpec(CommandSpec):
    handle_fields = ("handle",)

    def validate(self, cmd, state, where):
        state.require_live(cmd.handle, where)

    def lower(self, cmd, ctx, op_id):
        ctx.check_site(cmd.goal, op_id)
        distance = ctx.distance(ctx.position[cmd.handle], cmd.goal)
        ctx.add(
            op_id,
            OpType.MOVE,
            ctx.duration_model.move(distance),
            after=[ctx.last_op[cmd.handle]],
            payload={"distance": distance},
        )
        ctx.position[cmd.handle] = cmd.goal
        ctx.last_op[cmd.handle] = op_id

    def execute(self, cmd, backend, ctx, op_id):
        steps = backend.move(ctx.cage_of(cmd.handle), cmd.goal)
        ctx.result.record(
            op_id, "move", handle=cmd.handle, goal=cmd.goal, steps=steps
        )


class MergeSpec(CommandSpec):
    handle_fields = ("keep", "absorb")

    def validate(self, cmd, state, where):
        for handle in (cmd.keep, cmd.absorb):
            state.require_live(handle, where)
        if cmd.keep == cmd.absorb:
            raise ProtocolError(f"{where}: cannot merge a handle with itself")
        state.kill(cmd.absorb)

    def lower(self, cmd, ctx, op_id):
        approach = ctx.distance(ctx.position[cmd.keep], ctx.position[cmd.absorb])
        ctx.add(
            op_id,
            OpType.MERGE,
            ctx.duration_model.merge(approach),
            after=[ctx.last_op[cmd.keep], ctx.last_op[cmd.absorb]],
        )
        ctx.last_op[cmd.keep] = op_id
        ctx.last_op.pop(cmd.absorb)

    def execute(self, cmd, backend, ctx, op_id):
        backend.merge(ctx.cage_of(cmd.keep), ctx.cage_of(cmd.absorb))
        ctx.unbind(cmd.absorb)
        ctx.result.record(op_id, "merge", keep=cmd.keep, absorb=cmd.absorb)


class SenseSpec(CommandSpec):
    handle_fields = ("handle",)

    def validate(self, cmd, state, where):
        state.require_live(cmd.handle, where)
        if cmd.samples < 1:
            raise ProtocolError(f"{where}: samples must be >= 1")

    def lower(self, cmd, ctx, op_id):
        ctx.add(
            op_id,
            OpType.SENSE,
            ctx.duration_model.sense(cmd.samples),
            after=[ctx.last_op[cmd.handle]],
            payload={"samples": cmd.samples},
        )
        ctx.last_op[cmd.handle] = op_id

    def execute(self, cmd, backend, ctx, op_id):
        sense = backend.sense(ctx.cage_of(cmd.handle), n_samples=cmd.samples)
        ctx.result.add_measurement(cmd.store_as or cmd.handle, sense)
        ctx.result.record(
            op_id,
            "sense",
            handle=cmd.handle,
            reading=sense.reading,
            detected=sense.detected,
        )


class IncubateSpec(CommandSpec):
    handle_fields = ("handle",)

    def validate(self, cmd, state, where):
        state.require_live(cmd.handle, where)
        if cmd.seconds < 0.0:
            raise ProtocolError(f"{where}: negative incubation")

    def lower(self, cmd, ctx, op_id):
        ctx.add(
            op_id,
            OpType.INCUBATE,
            ctx.duration_model.incubate(cmd.seconds),
            after=[ctx.last_op[cmd.handle]],
        )
        ctx.last_op[cmd.handle] = op_id

    def execute(self, cmd, backend, ctx, op_id):
        backend.incubate(cmd.seconds)
        ctx.result.record(
            op_id, "incubate", handle=cmd.handle, seconds=cmd.seconds
        )


class ReleaseSpec(CommandSpec):
    handle_fields = ("handle",)

    def validate(self, cmd, state, where):
        state.require_live(cmd.handle, where)
        state.kill(cmd.handle)

    def lower(self, cmd, ctx, op_id):
        ctx.add(
            op_id,
            OpType.RELEASE,
            ctx.duration_model.release(),
            after=[ctx.last_op[cmd.handle]],
        )
        ctx.last_op.pop(cmd.handle)

    def execute(self, cmd, backend, ctx, op_id):
        backend.release(ctx.cage_of(cmd.handle))
        ctx.unbind(cmd.handle)
        ctx.result.record(op_id, "release", handle=cmd.handle)


class MoveManySpec(CommandSpec):
    """One frame-synchronous group move: K cages per array frame.

    This is the paper's massively parallel manipulation primitive: one
    frame reprogram advances every cage in the group by one electrode,
    instead of K independently routed single-cage moves.
    """

    handle_fields = ("moves",)

    def validate(self, cmd, state, where):
        if not cmd.moves:
            raise ProtocolError(f"{where}: move_many needs at least one handle")
        seen = set()
        for handle, __ in cmd.moves:
            if handle in seen:
                raise ProtocolError(
                    f"{where}: handle {handle!r} listed more than once"
                )
            seen.add(handle)
            state.require_live(handle, where)

    def lower(self, cmd, ctx, op_id):
        longest = 0
        for handle, goal in cmd.moves:
            ctx.check_site(goal, op_id)
            longest = max(longest, ctx.distance(ctx.position[handle], goal))
        after = []
        for handle, __ in cmd.moves:
            dep = ctx.last_op[handle]
            if dep not in after:
                after.append(dep)
        ctx.add(
            op_id,
            OpType.MOVE,
            ctx.duration_model.move(longest),
            after=after,
            payload={"cages": len(cmd.moves), "distance": longest},
        )
        for handle, goal in cmd.moves:
            ctx.position[handle] = goal
            ctx.last_op[handle] = op_id

    def execute(self, cmd, backend, ctx, op_id):
        goals = {ctx.cage_of(handle): goal for handle, goal in cmd.moves}
        report = backend.move_many(goals)
        ctx.result.record(
            op_id,
            "move_many",
            handles=[handle for handle, __ in cmd.moves],
            frames=report["frames"],
            moves=report["moves"],
        )


class SenseAllSpec(CommandSpec):
    """Array-wide sensor scan: every live cage read in one scan pass."""

    def validate(self, cmd, state, where):
        if cmd.samples < 1:
            raise ProtocolError(f"{where}: samples must be >= 1")

    def lower(self, cmd, ctx, op_id):
        after = []
        for dep in ctx.last_op.values():
            if dep not in after:
                after.append(dep)
        # An array-wide scan sweeps every row once per sample, so it
        # costs grid.rows single-sensor scans per sample -- the same
        # relative scaling the backends charge (frame scan vs row scan).
        ctx.add(
            op_id,
            OpType.SENSE,
            ctx.grid.rows * ctx.duration_model.sense(cmd.samples),
            after=after,
            payload={"samples": cmd.samples},
        )
        for handle in ctx.last_op:
            ctx.last_op[handle] = op_id

    def execute(self, cmd, backend, ctx, op_id):
        outcomes = backend.sense_all(n_samples=cmd.samples)
        by_cage = {cage_id: handle for handle, cage_id in ctx.handles.items()}
        detections = 0
        for cage_id, sense in outcomes:
            key = cmd.store_as or by_cage.get(cage_id) or f"cage{cage_id}"
            ctx.result.add_measurement(key, sense)
            detections += int(sense.detected)
        ctx.result.record(
            op_id, "sense_all", cages=len(outcomes), detections=detections
        )


#: The default registry every core entry point dispatches through.
default_registry = CommandRegistry()
default_registry.register(TrapCmd, TrapSpec)
default_registry.register(MoveCmd, MoveSpec)
default_registry.register(MergeCmd, MergeSpec)
default_registry.register(SenseCmd, SenseSpec)
default_registry.register(IncubateCmd, IncubateSpec)
default_registry.register(ReleaseCmd, ReleaseSpec)
default_registry.register(MoveManyCmd, MoveManySpec)
default_registry.register(SenseAllCmd, SenseAllSpec)
