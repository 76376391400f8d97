"""The session runner: the v2 entry point for executing protocols.

A :class:`Session` owns a :class:`~repro.core.backend.Backend` and a
command registry, compiles protocols against the backend's grid, and
executes them with a *fresh handle namespace per run* -- two runs on the
same session can reuse handle names without seeing each other's cages.

Example::

    from repro import Protocol, Session

    session = Session.simulator()
    result = session.run(
        Protocol("hello").trap("p", (10, 10)).move("p", (30, 30)).release("p")
    )
    print(result.summary())

    # a planning sweep on the time-only backend
    dry = Session.dry_run()
    runs = dry.run_many([variant_a, variant_b, variant_c])
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability import tracing
from .backend import Backend, DryRunBackend, SimulatorBackend
from .compiler import CompiledProgram, compile_protocol
from .registry import ExecutionContext, default_registry
from .results import RunResult


def sweep_handles(backend, handles):
    """Release every cage still bound in a dead run's ``handles``.

    When a run fails (or a serving job never releases), its handle
    namespace is gone and nothing else can ever free those cages; left
    behind, they poison the backend for every later run near their
    sites.  Used by ``run_many(on_error="collect")`` and the fleet
    execution service's per-job chip sweep.
    """
    from .errors import BiochipError

    for cage_id in set(handles.values()):
        try:
            backend.release(cage_id)
        except BiochipError:
            pass  # cage died with the failure; nothing to sweep


@dataclass
class RunSet:
    """Aggregated results of :meth:`Session.run_many`."""

    results: list = field(default_factory=list)

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def total_wall_time(self) -> float:
        """Sum of the runs' accounted chip times [s]."""
        return sum(r.wall_time for r in self.results)

    @property
    def total_events(self) -> int:
        return sum(r.count() for r in self.results)

    @property
    def success_count(self) -> int:
        """Number of runs that finished without an error."""
        return sum(1 for r in self.results if r.ok)

    @property
    def failures(self) -> list:
        """``(index, result)`` pairs for every failed run."""
        return [(i, r) for i, r in enumerate(self.results) if not r.ok]

    @property
    def mean_wall_time(self) -> float:
        """Average accounted chip time per run [s]; 0.0 for no runs."""
        if not self.results:
            return 0.0
        return self.total_wall_time / len(self.results)

    def summary(self) -> str:
        """One line per run plus a totals line; safe for zero runs."""
        if not self.results:
            return "total: 0 runs, 0 ops, 0.0 s"
        lines = [
            f"[{i}] {r.protocol_name!r}: {r.count()} ops, "
            f"{r.wall_time:.1f} s" + ("" if r.ok else f" FAILED ({r.error})")
            for i, r in enumerate(self.results)
        ]
        failed = len(self.results) - self.success_count
        failure_text = f", {failed} failed" if failed else ""
        lines.append(
            f"total: {len(self.results)} runs{failure_text}, "
            f"{self.total_events} ops, {self.total_wall_time:.1f} s "
            f"(mean {self.mean_wall_time:.1f} s/run)"
        )
        return "\n".join(lines)


class Session:
    """Compile-and-run front end over one execution backend.

    Parameters
    ----------
    backend:
        The :class:`~repro.core.backend.Backend` to execute on.
    registry:
        Command registry used for validation, lowering and execution
        (default: the shared :data:`~repro.core.registry.default_registry`).
    """

    def __init__(self, backend: Backend, registry=None):
        self.backend = backend
        self.registry = registry or default_registry

    # -- constructors -------------------------------------------------------

    @classmethod
    def simulator(cls, chip=None, registry=None) -> "Session":
        """A session on the full physical simulator (small chip default)."""
        return cls(SimulatorBackend(chip), registry=registry)

    @classmethod
    def dry_run(cls, grid=None, registry=None, **backend_kwargs) -> "Session":
        """A session on the fast time/geometry-only backend."""
        if grid is not None:
            backend_kwargs["grid"] = grid
        return cls(DryRunBackend(**backend_kwargs), registry=registry)

    # -- execution ----------------------------------------------------------

    def compile(self, protocol, **kwargs) -> CompiledProgram:
        """Compile ``protocol`` for this session's backend grid."""
        kwargs.setdefault("registry", self.registry)
        return compile_protocol(protocol, self.backend.grid, **kwargs)

    def run(self, protocol_or_program, handles=None) -> RunResult:
        """Compile (if needed) and execute; returns a :class:`RunResult`.

        Every call gets a fresh handle namespace: handle bindings never
        leak between runs.  ``handles`` optionally supplies the dict to
        hold this run's bindings, exposing them to the caller.
        """
        if isinstance(protocol_or_program, CompiledProgram):
            program = protocol_or_program
        else:
            program = self.compile(protocol_or_program)
        registry = program.registry or self.registry
        result = RunResult(
            protocol_name=program.protocol.name,
            predicted_makespan=program.makespan,
        )
        ctx = ExecutionContext(
            result=result, handles={} if handles is None else handles
        )
        start_elapsed = self.backend.elapsed
        # The span's domain clock is the backend's accounted chip time;
        # on-chip children (move_many, sense_all, fault events) nest
        # under it via the ambient context.
        with tracing.span(
            "session.run",
            attributes={
                "protocol": program.protocol.name,
                "ops": len(program.protocol.commands),
            },
            clock=lambda: self.backend.elapsed,
        ):
            for __, op_id, cmd in program.ordered_commands():
                registry.spec_for(cmd).execute(cmd, self.backend, ctx, op_id)
        result.wall_time = self.backend.elapsed - start_elapsed
        result.finalize()
        return result

    def run_many(self, protocols, isolated=True, on_error="raise") -> RunSet:
        """Run several protocols, aggregating their results.

        With ``isolated=True`` (default) each protocol runs on a fresh
        :meth:`~repro.core.backend.Backend.spawn` of this session's
        backend, so runs cannot interact through chip state and the
        session's own backend is left untouched.  With
        ``isolated=False`` all runs share this session's backend
        (handle namespaces are still per-run).

        ``on_error="raise"`` (default) propagates the first failure;
        ``on_error="collect"`` records each failed run as a
        :class:`~repro.core.results.RunResult` with ``error`` set and
        keeps going, so :attr:`RunSet.success_count` /
        :attr:`RunSet.failures` report the outcome of the whole sweep.
        A collected failure's leftover cages are released (their handle
        namespace is gone, so nothing could ever free them), keeping a
        shared backend usable for the remaining runs.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', "
                             f"got {on_error!r}")
        from .errors import BiochipError

        results = []
        for protocol in protocols:
            if isolated:
                runner = Session(self.backend.spawn(), registry=self.registry)
            else:
                runner = self
            handles = {}
            start_elapsed = runner.backend.elapsed
            try:
                results.append(runner.run(protocol, handles=handles))
            except BiochipError as exc:
                if on_error == "raise":
                    raise
                sweep_handles(runner.backend, handles)
                failed = RunResult(
                    protocol_name=getattr(protocol, "name",
                                          type(protocol).__name__),
                    error=exc,
                    # the partial run and its sweep consumed real chip
                    # time; losing it would skew RunSet totals
                    wall_time=runner.backend.elapsed - start_elapsed,
                )
                failed.finalize()
                results.append(failed)
        return RunSet(results)
