"""Assay task graphs: the programs a biochip runs.

A bioassay on the paper's platform decomposes into primitive operations
on caged particles -- trap, move, merge (bring two cages together, e.g.
cell + reagent bead pairing), sense, incubate, release -- with data
dependencies between them (you can only sense a pair after merging it).
That is a DAG, and scheduling it onto the chip's concurrent resources
is the classic CAD problem the DATE audience would recognise; the few
academic DMFB tools that exist (MFSim, the UCR framework) are built
around exactly this abstraction.

The graph is a pair of adjacency dicts with typed operations and
duration models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class OpType(Enum):
    """Primitive assay operation kinds."""

    TRAP = "trap"  # capture a particle from the bulk into a cage
    MOVE = "move"  # relocate a cage across the array
    MERGE = "merge"  # bring two cages together and fuse payloads
    SENSE = "sense"  # park over a sensing site and average samples
    INCUBATE = "incubate"  # hold in place for a reaction time
    RELEASE = "release"  # open the cage, give the particle back to the bulk

    # Members are singletons that compare by identity, so the identity
    # hash agrees with equality and runs in C; ``Enum.__hash__`` hashes
    # the member's name in Python, paid per operation in the schedule
    # memo's key and in every binder lookup.
    __hash__ = object.__hash__


@dataclass
class Operation:
    """One node of the assay graph.

    Parameters
    ----------
    op_id:
        Unique identifier within the graph.
    op_type:
        :class:`OpType`.
    duration:
        Execution time [s] once started (from :class:`DurationModel` or
        explicit).
    region:
        Optional named chip region the operation must run in (binding
        constraint); None lets the binder choose.
    payload:
        Free-form metadata (particle ids, distances, sample counts).
    """

    op_id: str
    op_type: OpType
    duration: float
    region: str | None = None
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError(f"operation {self.op_id}: negative duration")


@dataclass(frozen=True)
class DurationModel:
    """Physical duration estimates for each operation kind.

    Parameters
    ----------
    pitch:
        Electrode pitch [m].
    cage_speed:
        Manipulation speed [m/s] (paper: 10-100 um/s).
    trap_time:
        Time to capture a particle from the bulk (sedimentation +
        field settling) [s].
    sample_time:
        One sensor sample [s].
    merge_overhead:
        Extra settling time for a merge beyond the approach move [s].
    """

    pitch: float = 20e-6
    cage_speed: float = 50e-6
    trap_time: float = 5.0
    sample_time: float = 1e-4
    merge_overhead: float = 2.0

    def trap(self) -> float:
        return self.trap_time

    def move(self, distance_electrodes) -> float:
        """Duration of a move of the given Chebyshev length."""
        if distance_electrodes < 0:
            raise ValueError("distance must be non-negative")
        return distance_electrodes * self.pitch / self.cage_speed

    def merge(self, approach_electrodes=2) -> float:
        return self.move(approach_electrodes) + self.merge_overhead

    def sense(self, n_samples) -> float:
        if n_samples < 1:
            raise ValueError("need at least one sample")
        return n_samples * self.sample_time

    def incubate(self, seconds) -> float:
        if seconds < 0.0:
            raise ValueError("incubation time must be non-negative")
        return seconds

    def release(self) -> float:
        return 0.5


class AssayGraph:
    """A DAG of :class:`Operation` nodes with dependency edges.

    Stored as adjacency dicts: ``_ops`` maps each id to its operation
    in insertion order, ``_preds``/``_succs`` map it to its dependency
    and dependant ids, each in edge-insertion order.  The topological
    order is computed once and kept until the next mutation.
    """

    def __init__(self, name="assay"):
        self.name = name
        self._ops = {}
        self._preds = {}
        self._succs = {}
        self._topo = None  # memoised _order(); any mutation clears it

    # -- construction ------------------------------------------------------

    def add(self, operation, after=()):
        """Add an operation, depending on the ids in ``after``.

        Every edge runs from an existing node into the new one, so an
        insert can never close a cycle -- except a self-dependency,
        which is rejected up front.  Nothing is added on error.
        """
        op_id = operation.op_id
        ops, succs = self._ops, self._succs
        if op_id in ops:
            raise ValueError(f"duplicate operation id {op_id}")
        if op_id in after:
            raise ValueError(f"operation {op_id} cannot depend on itself")
        for dep in after:
            if dep not in ops:
                raise ValueError(f"dependency {dep} not in graph")
        ops[op_id] = operation
        self._preds[op_id] = dict.fromkeys(after)
        succs[op_id] = {}
        self._topo = None
        for dep in after:
            succs[dep][op_id] = None
        return operation

    def add_dependency(self, op_id, dep):
        """Make existing operation ``op_id`` also depend on ``dep``.

        Raises ValueError when either id is missing or the edge would
        close a cycle (``op_id`` already reaches ``dep``).
        """
        for node in (op_id, dep):
            if node not in self._ops:
                raise ValueError(f"operation {node} not in graph")
        reached = {op_id}
        frontier = [op_id]
        while frontier:
            for succ in self._succs[frontier.pop()]:
                if succ not in reached:
                    reached.add(succ)
                    frontier.append(succ)
        if dep in reached:
            raise ValueError(
                f"dependency {dep} -> {op_id} would close a cycle"
            )
        self._link(dep, op_id)

    def _link(self, dep, op_id):
        self._succs[dep][op_id] = None
        self._preds[op_id][dep] = None
        self._topo = None

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self._ops)

    def __contains__(self, op_id):
        return op_id in self._ops

    def operation(self, op_id) -> Operation:
        try:
            return self._ops[op_id]
        except KeyError:
            raise KeyError(f"no operation {op_id!r} in graph {self.name!r}") from None

    def _order(self):
        """Operation ids in topological order (see :meth:`_kahn`),
        memoised until the graph changes.  The list is shared: callers
        must not mutate it."""
        if self._topo is None:
            self._topo = self._kahn()
        return self._topo

    def _kahn(self):
        """Kahn's sort: generations, each listed in the order its
        members were discovered (the roots in insertion order)."""
        pending = {op_id: len(preds) for op_id, preds in self._preds.items()}
        generation = [op_id for op_id, count in pending.items() if not count]
        order = []
        while generation:
            order += generation
            following = []
            for op_id in generation:
                for succ in self._succs[op_id]:
                    pending[succ] -= 1
                    if not pending[succ]:
                        following.append(succ)
            generation = following
        return order

    def operations(self):
        """All operations in topological order (see :meth:`_order`)."""
        return [self._ops[op_id] for op_id in self._order()]

    def predecessors(self, op_id):
        return sorted(self._preds[op_id])

    def dependencies(self, op_id):
        """The ids ``op_id`` depends on, unsorted and uncopied: a
        read-only view in edge-insertion order, for callers that only
        count them or take a max over them (:meth:`predecessors` is the
        sorted list)."""
        return self._preds[op_id].keys()

    def successors(self, op_id):
        return sorted(self._succs[op_id])

    def roots(self):
        """Operations with no dependencies."""
        return sorted(op_id for op_id, preds in self._preds.items() if not preds)

    def edge_count(self) -> int:
        return sum(len(succs) for succs in self._succs.values())

    def total_work(self) -> float:
        """Sum of all operation durations [s]."""
        return sum(op.duration for op in self.operations())

    def critical_path_length(self) -> float:
        """Longest dependency chain duration [s] -- the makespan lower bound."""
        longest = {}
        for op_id in self._order():
            preds = self._preds[op_id]
            longest[op_id] = self._ops[op_id].duration + (
                max(longest[p] for p in preds) if preds else 0.0
            )
        return max(longest.values(), default=0.0)

    def bottom_levels(self):
        """Map op_id -> critical-path-to-exit length [s] (list-sched priority)."""
        levels = {}
        for op_id in reversed(self._order()):
            succs = self._succs[op_id]
            levels[op_id] = self._ops[op_id].duration + (
                max(levels[s] for s in succs) if succs else 0.0
            )
        return levels

    def validate(self):
        """Raise ValueError on structural problems (cycles are prevented at
        construction; this re-checks and verifies durations)."""
        if len(self._order()) != len(self._ops):
            raise ValueError("assay graph has a cycle")
        for op in self.operations():
            if op.duration < 0.0:
                raise ValueError(f"operation {op.op_id} has negative duration")
        return True
