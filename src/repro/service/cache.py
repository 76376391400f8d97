"""Compiled-program cache: amortise the compiler across repeated jobs.

Production protocol traffic is heavily repetitive -- the same assay runs
thousands of times over different samples -- so the service caches
:class:`~repro.core.compiler.CompiledProgram` objects keyed by the
protocol's structural :meth:`~repro.core.protocol.Protocol.fingerprint`
plus the target grid shape.  Handle *names* don't matter (the
fingerprint canonicalises them) and neither does the protocol's name;
what matters is that the command structure, payloads and array geometry
match, which is exactly what compilation depends on.

Reusing a compiled program across runs is safe because the session
runner creates a fresh handle namespace per run (PR 1); the cage
bindings of one run never leak into the next.  A cache hit is *rebound*
before it is returned: the schedule, graph and durations are shared,
but the executed command objects are the submitted protocol's own, so
the run carries the submitter's protocol name, handle names,
measurement keys and particle payloads -- not those of whichever job
happened to be compiled first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..core.compiler import CompiledProgram


def rebind_program(program, protocol):
    """The cached ``program`` re-pointed at ``protocol``'s own commands.

    Two protocols with the same fingerprint have positionally identical
    command structure, so the cached schedule/graph/durations carry
    over verbatim while ``op_commands`` (in command order) is remapped
    position by position -- execution then uses the submitted job's
    handle names, measurement keys and particles, in the run order the
    cached program fixed.  Returns None when the structures don't line
    up (a fingerprint collision); the caller recompiles.
    """
    if program.protocol is protocol:
        return program
    commands = protocol.commands
    cached = program.op_commands
    if len(commands) != len(cached):
        return None
    for cmd, cached_cmd in zip(commands, cached.values()):
        if type(cmd) is not type(cached_cmd):
            return None
    return CompiledProgram(
        protocol=protocol, graph=program.graph, schedule=program.schedule,
        binder=program.binder, op_commands=dict(zip(cached, commands)),
        registry=program.registry, run_order=program.run_order,
    )


def program_key(protocol, grid, registry=None, fingerprint=None) -> tuple:
    """Cache key for compiling ``protocol`` onto ``grid``.

    ``(fingerprint, rows, cols)`` -- everything the compiler's output
    depends on, and nothing it doesn't.  Pass ``fingerprint`` when the
    caller already computed it (the scheduler stamps it on the job at
    submit) to keep the hot dispatch path from hashing twice.
    """
    if fingerprint is None:
        fingerprint = protocol.fingerprint(registry=registry)
    return (fingerprint, grid.rows, grid.cols)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ProgramCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all lookups; 0.0 before any lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Elementwise sum (for aggregating per-chip caches)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class ProgramCache:
    """LRU cache of compiled programs with hit/miss accounting.

    ``capacity=None`` means unbounded; otherwise the least recently
    used entry is evicted when a new program would exceed it.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        self._fingerprints: dict = {}  # fingerprint -> cached-entry count

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """The cached program under ``key`` or None; counts hit/miss."""
        try:
            program = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return program

    def put(self, key, program):
        """Store ``program``, evicting LRU entries past capacity."""
        if key not in self._entries:
            self._fingerprints[key[0]] = self._fingerprints.get(key[0], 0) + 1
        self._entries[key] = program
        self._entries.move_to_end(key)
        while self.capacity is not None and len(self._entries) > self.capacity:
            evicted_key, __ = self._entries.popitem(last=False)
            remaining = self._fingerprints[evicted_key[0]] - 1
            if remaining:
                self._fingerprints[evicted_key[0]] = remaining
            else:
                del self._fingerprints[evicted_key[0]]
            self.stats.evictions += 1

    def holds_fingerprint(self, fingerprint) -> bool:
        """True when any cached program was keyed by ``fingerprint``
        (whatever the grid shape); O(1), no hit/miss accounting --
        the affinity policy calls this on every dispatch."""
        return fingerprint in self._fingerprints

    def get_or_compile(self, protocol, session, registry=None,
                       fingerprint=None):
        """The cached program for ``protocol`` on ``session``'s grid,
        compiling and caching on miss.  Returns ``(program, hit)``;
        a hit comes back rebound to ``protocol``'s own commands.
        """
        key = program_key(
            protocol, session.backend.grid, registry=registry,
            fingerprint=fingerprint,
        )
        program = self.get(key)
        if program is not None:
            rebound = rebind_program(program, protocol)
            if rebound is not None:
                return rebound, True
        program = session.compile(protocol)
        self.put(key, program)
        return program, False

    def clear(self):
        """Drop all entries (stats are kept)."""
        self._entries.clear()
        self._fingerprints.clear()
