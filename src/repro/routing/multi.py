"""Concurrent multi-cage routing: prioritised space-time planning.

Moving many cages at once is the platform's whole point ("tens of
thousands of DEP cages ... shifted, dragging along the trapped
particles"), and it is a multi-agent path-finding problem with a
domain-specific constraint: cage *centres* must stay ``min_separation``
electrodes apart at every intermediate frame, or the field minima merge
and particles are lost.

Two planners share the prioritised-planning scheme (each cage planned
in priority order against a space-time reservation table, waits
allowed, conflict-free synchronous plan guaranteed on success):

* :class:`BatchRouter` -- the reference: per-cage space-time A* with a
  per-node Python heap.  Exact, but at the paper's scale (>10^4 cages
  on a 320x320 array) the per-node expansions are the frame-rate
  ceiling.
* :class:`WavefrontRouter` -- the vectorized engine: grid moves are
  unit-cost, so Dijkstra collapses to a level-synchronous BFS whose
  frontiers are packed integer bit planes over the occupancy window
  (a dilation is shifts and ORs), masked each timestep by the
  reservation table's pre-inflated numpy planes, packed the same way.
  One cage's plan is a handful of masked dilations (or a site-by-site
  probe of the direct path, or a greedy walk, read through flat views
  of the same planes) instead of ~10^5 ``site_free`` calls.  Same
  priority order, same separation invariants, same per-cage
  earliest-arrival optimality.

The greedy baseline in :mod:`repro.routing.greedy` shows why planning
is needed at all.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from ..array.grid import ElectrodeGrid
from ..array.state import first_pairwise_violation
from ..observability import tracing
from .astar import (
    MOVES_8,
    WAIT,
    RoutingError,
    chebyshev_heuristic,
    distance_field,
    downhill_path,
)

#: Extra timesteps a batch plan may take beyond its lower-bound
#: makespan before a cage's search is declared failed.
HORIZON_SLACK = 40

#: Times a batch is replanned, trapped cages promoted to the front,
#: before a routing failure propagates.
REPLAN_ATTEMPTS = 2

#: Reservation planes packed into wavefront bit planes per numpy call.
_PLANE_CHUNK = 16

#: The greedy walk's candidate moves as ``(rank, drow, dcol)``: staying
#: put, then MOVES_8; the rank breaks ties between equally close sites.
_GREEDY_MOVES = tuple(
    (rank, dr, dc) for rank, (dr, dc) in enumerate((WAIT,) + MOVES_8)
)


def _greedy_key(a, b):
    """The class of goal offsets ``(a, b)`` that rank the greedy moves
    alike: the offsets' signs and ``|a| - |b|`` clipped to [-2, 2].

    A move changes ``|a|`` by ``sign(a) * drow`` (``|drow|`` when
    ``a == 0``), and likewise ``|b|``, so its change of Chebyshev
    distance depends on the signs and, while ``|a|`` and ``|b|`` are
    within 2 of each other, on their difference; past 2 only the larger
    counts.
    """
    skew = min(2, max(-2, abs(a) - abs(b)))
    return (a > 0) - (a < 0), (b > 0) - (b < 0), skew


def _greedy_ranking(a, b):
    """The greedy moves from goal offset ``(a, b)`` as ``(change of
    Chebyshev distance, rank, drow, dcol)``, closest first."""
    distance = max(abs(a), abs(b))
    return tuple(sorted(
        (max(abs(a + dr), abs(b + dc)) - distance, rank, dr, dc)
        for rank, dr, dc in _GREEDY_MOVES
    ))


#: Greedy move ranking per offset class (see :func:`_greedy_key`); every
#: class occurs within offsets of 4.
_GREEDY_RANKINGS = {
    _greedy_key(a, b): _greedy_ranking(a, b)
    for a in range(-4, 5) for b in range(-4, 5)
}


#: The wavefront backtrack's moves as ``(bit, drow, dcol)``, ``bit`` the
#: move's cell in a 3x3 neighbourhood read row by row.
_BACKTRACK_MOVES = {
    (dr, dc): (1 << (dr + 1) * 3 + dc + 1, dr, dc)
    for dr, dc in (WAIT,) + MOVES_8
}

#: The backtrack's predecessor order per class of offsets from the start
#: (see :func:`_greedy_key`): the greedy ranking's moves.  The reached
#: predecessor closest to the start, ties to WAIT and then MOVES_8, is
#: the first reached move in this order, since the greedy ranking sorts
#: the moves by the same distance with the same ties.
_BACKTRACK_RANKINGS = {
    key: tuple(_BACKTRACK_MOVES[dr, dc] for __, __, dr, dc in ranking)
    for key, ranking in _GREEDY_RANKINGS.items()
}


def _bits(mask):
    """A bool ``(rows, width)`` mask as one int, bit ``r * stride + c``
    for ``mask[r, c]`` (``stride`` = ``width`` rounded up to bytes)."""
    return int.from_bytes(
        np.packbits(mask, axis=-1, bitorder="little").tobytes(), "little"
    )


@dataclass
class RoutingRequest:
    """One cage's routing job: from ``start`` to ``goal``."""

    cage_id: int
    start: tuple
    goal: tuple

    def __post_init__(self):
        self.start = tuple(self.start)
        self.goal = tuple(self.goal)


class BatchPlan:
    """A synchronous conflict-free plan for a batch of cages.

    Paths are stored as one ``(cages, makespan + 1, 2)`` int array
    (cages that arrive early hold their goal), so executing a plan is
    a per-frame vectorized diff instead of re-walking a path dict per
    cage per frame.  ``paths`` materialises the legacy dict-of-site-
    lists view on demand.

    ``stats`` carries planner observability: planner name, cage count,
    makespan, per-node expansions (A*) or frontier dilations and
    direct-path hits (wavefront), and wall-clock planning seconds.
    """

    def __init__(self, paths=None, makespan=0, expansions=0, *,
                 cage_ids=None, sites=None, stats=None):
        if sites is None:
            paths = {} if paths is None else paths
            cage_ids = np.fromiter(
                paths.keys(), dtype=np.int64, count=len(paths)
            )
            sites = np.zeros((len(paths), makespan + 1, 2), dtype=np.int32)
            for i, path in enumerate(paths.values()):
                arr = np.asarray(path, dtype=np.int32).reshape(-1, 2)
                sites[i, : len(arr)] = arr
                sites[i, len(arr):] = arr[-1]
        self._cage_ids = np.asarray(cage_ids, dtype=np.int64)
        self._sites = sites
        # the steps and the moving mask are read off the sites on first
        # use: a memo hit's plan is replayed and reads neither
        self._deltas = None
        self._moving = None
        self._paths = None
        self.makespan = makespan
        self.expansions = expansions
        self.stats = stats if stats is not None else {}

    @property
    def cage_ids(self):
        """Planned cage ids, int64 (cages,), in planning order."""
        return self._cage_ids

    @property
    def sites(self):
        """Site array, int32 (cages, makespan + 1, 2)."""
        return self._sites

    @property
    def paths(self) -> dict:
        """cage_id -> list of (row, col) sites of uniform length
        ``makespan + 1`` (the legacy dict view, built on demand)."""
        if self._paths is None:
            self._paths = {
                int(cage_id): [tuple(site) for site in path.tolist()]
                for cage_id, path in zip(self.cage_ids, self.sites)
            }
        return self._paths

    @property
    def deltas(self):
        """Per-frame steps, int32 (cages, makespan, 2); a zero row is a
        wait.  :meth:`CageManager.run_plan
        <repro.array.cages.CageManager.run_plan>` executes the whole plan
        from this array and :attr:`cage_ids`."""
        if self._deltas is None:
            self._deltas = np.diff(self.sites, axis=1)
        return self._deltas

    def _moving_mask(self):
        """bool (cages, makespan): which cages step in which frame."""
        if self._moving is None:
            self._moving = (self.deltas != 0).any(axis=2)
        return self._moving

    def moves_at(self, step) -> dict:
        """Move dict {cage_id: (drow, dcol)} for frame ``step`` (0-based)."""
        ids, deltas = self.moves_arrays_at(step)
        return {
            int(cage_id): (int(dr), int(dc))
            for cage_id, (dr, dc) in zip(ids, deltas)
        }

    def moves_arrays_at(self, step):
        """Vectorized movers of frame ``step``: (ids, deltas) arrays.

        ``ids`` is int64 (movers,), ``deltas`` int32 (movers, 2); waits
        are already filtered out.  This is one frame in the shape
        :meth:`~repro.array.cages.CageManager.step_arrays` takes; the
        chip executes whole plans through
        :meth:`~repro.array.cages.CageManager.run_plan` on
        :attr:`deltas` instead.
        """
        if not 0 <= step < self.makespan:
            raise IndexError("step outside plan horizon")
        moving = self._moving_mask()[:, step]
        return self.cage_ids[moving], self.deltas[moving, step]

    def total_moves(self) -> int:
        """Total non-wait single-cage moves in the plan."""
        return int(np.count_nonzero(self._moving_mask()))


class _ReservationTable:
    """Space-time occupancy with separation semantics (reference).

    A candidate site conflicts when it comes within ``separation``
    (Chebyshev) of any reserved site at the same step, or crosses
    another cage's edge in the swap sense.  Reservations are kept
    *pre-inflated* -- a per-timestep set of blocked flat indices for
    transient path sites, plus one ``parked_from`` table holding the
    earliest time each site becomes permanently blocked by a parked
    cage -- so ``site_free`` is two O(1) lookups instead of a scan
    over every reserved and parked site (which is O(population) when a
    batch moves a few cages among a whole array of parked ones).
    Flat Python structures, not numpy: the space-time A* probes
    ``site_free`` millions of times and a list/set lookup is several
    times faster than a numpy scalar read, while the (2s-1)^2 window
    writes are too small for vectorization to pay.
    """

    _NEVER = 1 << 30

    def __init__(self, separation, shape):
        self.separation = separation
        self._rows, self._cols = shape
        self._blocked = {}  # t -> set[flat site index], inflated
        self._parked_from = [self._NEVER] * (self._rows * self._cols)
        self._edges = {}  # t -> set[(from, to)]
        self._latest_parked = 0

    def _window_indices(self, site):
        radius = self.separation - 1
        row0 = max(0, site[0] - radius)
        row1 = min(self._rows - 1, site[0] + radius)
        col0 = max(0, site[1] - radius)
        col1 = min(self._cols - 1, site[1] + radius)
        for row in range(row0, row1 + 1):
            base = row * self._cols
            for col in range(col0, col1 + 1):
                yield base + col

    def reserve_path(self, cage_id, path):
        path = [tuple(site) for site in np.asarray(path).reshape(-1, 2)]
        from_t = len(path) - 1
        # Transient sites: everything but the last.  (The last site's
        # window is covered for all t >= from_t by the parked table, so
        # a blocked entry there would be redundant.)
        for t in range(from_t):
            self._blocked.setdefault(t, set()).update(
                self._window_indices(path[t])
            )
        for t, (a, b) in enumerate(zip(path, path[1:])):
            self._edges.setdefault(t, set()).add((a, b))
        parked = self._parked_from
        for index in self._window_indices(path[-1]):
            if from_t < parked[index]:
                parked[index] = from_t
        self._latest_parked = max(self._latest_parked, from_t)

    def park(self, sites):
        """Block each site's window from t=0 on: cages that never move."""
        parked = self._parked_from
        for site in np.asarray(sites).reshape(-1, 2).tolist():
            for index in self._window_indices(site):
                parked[index] = 0

    def site_free(self, site, t) -> bool:
        index = site[0] * self._cols + site[1]
        if self._parked_from[index] <= t:
            return False
        blocked = self._blocked.get(t)
        return blocked is None or index not in blocked

    def edge_free(self, a, b, t) -> bool:
        """Reject swap/through conflicts: nobody may traverse b->a at t."""
        return (b, a) not in self._edges.get(t, set())

    def latest_parked_time(self) -> int:
        return self._latest_parked


class _VectorReservationTable:
    """The reservation table as numpy space-time planes.

    Same semantics as :class:`_ReservationTable` -- pre-inflated
    transient windows per timestep plus a parked-from table -- but the
    per-timestep blocked sets are bool planes of a single
    ``(horizon + 2, rows, cols)`` array and ``parked_from`` an int
    grid, both padded by the inflation radius so window scatters and
    frontier slices never need bounds clipping.  ``reserve_path``
    writes a whole path's windows as one scatter of flat indices, and
    the wavefront ANDs whole blocked planes (packed into ints) into
    each frontier instead of probing ``site_free`` per node.

    The per-cage tiers (direct probe, greedy walk) read single sites,
    and a numpy scalar read costs several times a list index.  So the
    table also exposes ``blocked_flat`` and ``parked_flat``: zero-copy
    flat ``memoryview`` objects over the same two buffers, indexed
    ``t * plane_size + row * row_width + col`` and ``row * row_width +
    col`` in padded coordinates.  They are views, not copies: every
    write through the arrays shows in them at once.  ``reserve_path``
    lowers a goal's parked window through ``parked_flat`` too, a
    handful of cells.

    The wavefront packs a window's planes into ints through one pad
    buffer per table (so one per plan attempt), allocated on the first
    :meth:`pad_view` call: a chunk of planes copied into it, each row
    padded to whole bytes, packs as one flat array.

    Edge (swap) conflicts are not tracked: with ``separation >= 2`` a
    swap is unreachable, because any site adjacent to a reserved
    cage's position is already inside its inflated window at that
    timestep.  (Separation 1 falls back to the A* reference, which
    tracks edges.)
    """

    _NEVER = 1 << 30

    def __init__(self, separation, shape, horizon):
        if separation < 2:
            raise ValueError("vector reservation table needs separation >= 2")
        self.separation = separation
        self.radius = separation - 1
        self.rows, self.cols = shape
        self.horizon = horizon
        pad = 2 * self.radius
        self.blocked = np.zeros(
            (horizon + 2, self.rows + pad, self.cols + pad), dtype=bool
        )
        self.parked_from = np.full(
            (self.rows + pad, self.cols + pad), self._NEVER, dtype=np.int64
        )
        self.row_width = self.cols + pad
        self.plane_size = (self.rows + pad) * self.row_width
        self.blocked_flat = memoryview(self.blocked.reshape(-1))
        self.parked_flat = memoryview(self.parked_from.reshape(-1))
        self._latest_parked = 0
        # A site's window as flat offsets from its padded-frame corner:
        # site (row, col) on plane t has its window's top-left cell at
        # t * plane_size + row * row_width + col.
        span = np.arange(2 * self.radius + 1)
        self._window = (span[:, None] * self.row_width + span).reshape(-1)
        self._window_offsets = self._window.tolist()
        self._plane_starts = np.arange(horizon + 2) * self.plane_size
        self._blocked_1d = self.blocked.reshape(-1)
        self._parked_1d = self.parked_from.reshape(-1)
        self._pad = None

    def pad_view(self, planes, height, stride):
        """A ``(planes, height, stride)`` bool view of the table's pad
        buffer, for at most :data:`_PLANE_CHUNK` planes of a window of
        the chip plus one guard column a side (``stride`` that width
        rounded up to bytes).  Its contents are left over from earlier
        calls."""
        if self._pad is None:
            widest = 8 * ((self.cols + 2 + 7) // 8)
            self._pad = np.empty(_PLANE_CHUNK * self.rows * widest, dtype=bool)
        return self._pad[: planes * height * stride].reshape(
            planes, height, stride
        )

    def reserve_path(self, cage_id, path):
        arr = np.asarray(path).reshape(-1, 2)
        from_t = len(arr) - 1
        if from_t > 0:
            # every transient window of the path in one flat scatter;
            # consecutive windows sit on different planes, so no cell
            # is written twice
            corners = (self._plane_starts[:from_t]
                       + arr[:from_t, 0] * self.row_width + arr[:from_t, 1])
            self._blocked_1d[corners[:, None] + self._window] = True
        # the goal's window parks from ``from_t``: a handful of cells,
        # lowered one by one through the flat view
        goal_r, goal_c = arr[-1].tolist()
        corner = goal_r * self.row_width + goal_c
        parked = self.parked_flat
        for offset in self._window_offsets:
            if from_t < parked[corner + offset]:
                parked[corner + offset] = from_t
        self._latest_parked = max(self._latest_parked, from_t)

    def park(self, sites):
        """Block each site's window from t=0 on, in one flat scatter."""
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, 2)
        corners = sites[:, 0] * self.row_width + sites[:, 1]
        self._parked_1d[corners[:, None] + self._window] = 0

    def site_free(self, site, t) -> bool:
        """Scalar probe (parity with the reference table, for tests)."""
        index = (site[0] + self.radius) * self.row_width + site[1] + self.radius
        if self.parked_flat[index] <= t:
            return False
        if t < self.blocked.shape[0]:
            return not self.blocked_flat[t * self.plane_size + index]
        return True

    def edge_free(self, a, b, t) -> bool:
        """Always free: swaps are unreachable at separation >= 2 (any
        site adjacent to a reserved position is inside its inflated
        window), so the table does not track edges.  Kept so the A*
        reference can probe a vector table for equivalence checks."""
        return True

    def latest_parked_time(self) -> int:
        return self._latest_parked


def _free_rectangle(blocked):
    """``(row0, row1, col0, col1)`` (half-open) when the free mask
    ``~blocked`` is exactly one non-empty rectangle, else None."""
    if blocked is None:
        return None
    free = ~blocked
    rows = np.flatnonzero(free.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(free.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    if np.count_nonzero(free) != (r1 - r0) * (c1 - c0):
        return None
    return (r0, r1, c0, c1)


@dataclass
class BatchRouter:
    """Prioritised space-time router for simultaneous cage motion.

    This is the per-node A* *reference* implementation; see
    :class:`WavefrontRouter` for the vectorized engine used at scale.

    Parameters
    ----------
    grid:
        Array geometry.
    min_separation:
        Cage-centre spacing rule (match the
        :class:`~repro.array.cages.CageManager`).
    max_expansions:
        Per-cage space-time A* expansion budget.
    blocked:
        Optional bool mask of statically forbidden cage-centre sites
        (dead electrodes).  Uninflated: only the centre is excluded.
        Starts on blocked sites are tolerated (a fault may flip under a
        live cage, which must still be able to escape); goals are not.

    A cage's search fails past :data:`HORIZON_SLACK` timesteps beyond
    the lower-bound makespan.  Prioritised planning is incomplete: a
    cage can be sealed in by cages planned before it that park across
    its only corridor (corner starts are the classic case).  On failure
    the whole batch is replanned with every trapped cage promoted to
    the front of the order -- it then routes before its jailers park --
    up to :data:`REPLAN_ATTEMPTS` times before the error propagates.
    """

    grid: ElectrodeGrid
    min_separation: int = 2
    max_expansions: int = 400000
    blocked: object = None

    planner_name = "astar"

    def __post_init__(self):
        self._blocked_flat = None  # built per plan() call
        self._blocked_arr = None
        self._counters = {}

    def plan(self, requests, priority=None, attributes=None, parked=()):
        """Plan all requests; returns a :class:`BatchPlan`.

        Parameters
        ----------
        requests:
            List of :class:`RoutingRequest`; starts must be mutually
            separation-legal, and legal against ``parked`` (they come
            from a live :class:`~repro.array.cages.CageManager` so they
            are), and goals must be pairwise separation-legal and clear
            of every parked cage's window.
        priority:
            Optional ordering key over requests; default plans longer
            jobs first (they are the hardest to fit).
        attributes:
            Optional extra attributes for the ``routing.plan`` span
            (the chip tags its plans with their memo outcome).
        parked:
            ``(row, col)`` sites of cages that stay where they are for
            the whole plan, as an (n, 2) array or a list of pairs.  They
            are obstacles, not requests: each site's separation window
            is blocked from t=0 in every planning attempt, so no
            priority order or replan can route them, and the plan has
            rows only for ``requests``.

        Raises
        ------
        RoutingError
            When any cage cannot reach its goal within the horizon.
        """
        # Planning is host work, not chip time: the span is wall-only
        # (no domain clock) and carries the plan's own stats --
        # makespan, expansions, and the tier-escalation counters.
        with tracing.span("routing.plan", attributes=attributes) as span:
            plan = self._plan(requests, priority=priority, parked=parked)
            if span.recording:
                span.set_attributes(dict(plan.stats))
            return plan

    def _plan(self, requests, priority=None, parked=()):
        """The untraced :meth:`plan` body."""
        requests = list(requests)
        parked = np.asarray(parked, dtype=np.int64).reshape(-1, 2)
        self._blocked_arr = (
            np.asarray(self.blocked, dtype=bool)
            if self.blocked is not None
            else None
        )
        # Flat-list probe table for the static blocked mask, matching
        # the reservation table's access idiom (see _ReservationTable).
        self._blocked_flat = (
            self._blocked_arr.ravel().tolist()
            if self._blocked_arr is not None
            else None
        )
        horizon = (
            max(
                (chebyshev_heuristic(r.start, r.goal) for r in requests),
                default=0,
            )
            + HORIZON_SLACK
        )
        started = time.perf_counter()
        table = self._parked_table(horizon, parked)
        self._validate(requests, parked, table)
        if priority is None:
            def priority(req):
                return -chebyshev_heuristic(req.start, req.goal)
        ordered = sorted(requests, key=priority)
        self._counters = {
            "fast_path_hits": 0,
            "greedy_walk_hits": 0,
            "frontier_steps": 0,
        }
        expansions_total = 0
        promoted = []  # trapped cage ids, planned first on the retry
        for attempt in range(REPLAN_ATTEMPTS + 1):
            if attempt:
                table = self._parked_table(horizon, parked)
            paths = {}
            failed = []
            rank = {cage_id: i for i, cage_id in enumerate(promoted)}
            batch = sorted(ordered, key=lambda r: rank.get(r.cage_id, len(rank)))
            for request in batch:
                try:
                    path, expansions = self._route_one(request, table, horizon)
                except RoutingError:
                    if attempt == REPLAN_ATTEMPTS:
                        raise
                    # keep going: one retry then discovers *every* cage
                    # trapped by this attempt's reservations at once
                    failed.append(request.cage_id)
                    continue
                expansions_total += expansions
                table.reserve_path(request.cage_id, path)
                paths[request.cage_id] = path
            if not failed:
                break
            promoted = failed + [c for c in promoted if c not in failed]
        plan_seconds = time.perf_counter() - started
        makespan = max((len(p) - 1 for p in paths.values()), default=0)
        stats = {
            "planner": self.planner_name,
            "cages": len(requests),
            "makespan": makespan,
            "expansions": expansions_total,
            "plan_seconds": plan_seconds,
            "replans": attempt,
            **self._counters,
        }
        return BatchPlan(
            paths=paths,
            makespan=makespan,
            expansions=expansions_total,
            stats=stats,
        )

    def _make_table(self, horizon):
        return _ReservationTable(
            self.min_separation, (self.grid.rows, self.grid.cols)
        )

    def _parked_table(self, horizon, parked):
        """A fresh reservation table with the ``parked`` sites parked."""
        table = self._make_table(horizon)
        if len(parked):
            table.park(parked)
        return table

    def _validate(self, requests, parked, table):
        seen = set()
        for request in requests:
            if request.cage_id in seen:
                raise RoutingError(f"duplicate cage id {request.cage_id}")
            seen.add(request.cage_id)
            for site, label in ((request.start, "start"), (request.goal, "goal")):
                if not self.grid.in_bounds(*site):
                    raise RoutingError(
                        f"cage {request.cage_id} {label} {site} out of bounds"
                    )
            if (self._blocked_flat is not None
                    and self._blocked_flat[
                        request.goal[0] * self.grid.cols + request.goal[1]
                    ]
                    and request.goal != request.start):
                raise RoutingError(
                    f"cage {request.cage_id} goal {request.goal} is a "
                    f"dead electrode"
                )
        for sites, label in (
            ([r.start for r in requests], "starts"),
            ([r.goal for r in requests], "goals"),
        ):
            # Vectorized all-pairs check (scatter + box-sum) instead of
            # the O(n^2) Python loop -- whole-array batches validate
            # tens of thousands of sites in milliseconds.
            violation = first_pairwise_violation(
                sites, self.min_separation, self.grid.rows, self.grid.cols
            )
            if violation is not None:
                a, b = violation
                raise RoutingError(f"{label} {a} and {b} violate separation")
        if not len(parked):
            return
        # a goal inside a parked window is the one separation clash with
        # the parked cages a live chip allows: one table read per goal
        for request in requests:
            if not table.site_free(request.goal, 0):
                near = np.abs(parked - request.goal).max(axis=1)
                b = tuple(parked[np.argmax(near < self.min_separation)].tolist())
                raise RoutingError(
                    f"goals {request.goal} and {b} violate separation"
                )

    def _route_one(self, request, table, horizon):
        """Space-time A* for one cage against the reservation table."""
        start, goal = request.start, request.goal
        # State: (site, t).  A cage may arrive and park only if the goal
        # stays conflict-free afterwards; we approximate by requiring the
        # goal to be free at arrival and at the table's latest parked
        # time (after which nothing reserved moves any more).
        settle_time = table.latest_parked_time()

        def arrival_ok(t):
            check = max(t, settle_time)
            return all(table.site_free(goal, tt) for tt in range(t, check + 1))

        open_heap = [(chebyshev_heuristic(start, goal), 0, start)]
        g_best = {(start, 0): 0}
        came_from = {}
        expansions = 0
        while open_heap:
            __, t, site = heapq.heappop(open_heap)
            if g_best.get((site, t), float("inf")) < t:
                continue
            if site == goal and arrival_ok(t):
                return self._reconstruct(came_from, (site, t)), expansions
            if t >= horizon:
                continue
            expansions += 1
            if expansions > self.max_expansions:
                raise RoutingError(
                    f"cage {request.cage_id}: space-time search budget exhausted"
                )
            blocked_flat = self._blocked_flat
            for dr, dc in MOVES_8 + (WAIT,):
                nxt = (site[0] + dr, site[1] + dc)
                if not self.grid.in_bounds(*nxt):
                    continue
                if (blocked_flat is not None
                        and blocked_flat[nxt[0] * self.grid.cols + nxt[1]]
                        and nxt != start):
                    # dead electrode: no cage centre may enter (waiting
                    # on a blocked *start* stays legal -- the cage must
                    # be able to leave a site that died under it)
                    continue
                nt = t + 1
                if not table.site_free(nxt, nt):
                    continue
                if not table.edge_free(site, nxt, t):
                    continue
                if nt < g_best.get((nxt, nt), float("inf")):
                    g_best[(nxt, nt)] = nt
                    came_from[(nxt, nt)] = (site, t)
                    priority = nt + chebyshev_heuristic(nxt, goal)
                    heapq.heappush(open_heap, (priority, nt, nxt))
        raise RoutingError(
            f"cage {request.cage_id}: no conflict-free route within horizon {horizon}"
        )

    @staticmethod
    def _reconstruct(came_from, state):
        path = [state[0]]
        while state in came_from:
            state = came_from[state]
            path.append(state[0])
        path.reverse()
        return path


@dataclass
class WavefrontRouter(BatchRouter):
    """Vectorized wavefront batch router.

    Plans in the same prioritised order as :class:`BatchRouter`, but
    each cage's space-time search is a level-synchronous BFS: the set
    of sites reachable at time ``t`` is one packed integer bit plane,
    and the step to ``t + 1`` is an 8-neighbour dilation (shifts and
    ORs) ANDed with the static free mask and the reservation table's
    time-``t+1`` blocked plane.  Grid moves are unit cost, so this
    finds the same earliest arrival the A* reference does, in
    O(frontier-levels) whole-window int ops instead of O(nodes) heap
    expansions.

    Three short-cuts keep typical batches far off the mask path:

    * direct-path probe -- the Chebyshev-optimal king path (detoured by
      a cached per-goal static distance field when dead electrodes or
      a lease block part of the chip) is validated against the
      reservation planes site by site, through their flat views;
      uncongested cages never build a frontier at all;
    * greedy walk -- a congested cage steps to the closest free
      neighbour that keeps its earliest arrival, and only falls
      through to the wavefront when it gets stuck;
    * windowing -- the wavefront runs on the start/goal bounding box
      plus ``window_margin``, growing (to the full grid if needed)
      only when congestion forces a wide detour.

    Separation below 2 falls back to the A* reference wholesale (edge
    conflicts become reachable there and the masks do not encode them).
    """

    window_margin: int = 8

    planner_name = "wavefront"

    def __post_init__(self):
        super().__post_init__()
        self._field_cache = {}
        self._free_box = None

    def _make_table(self, horizon):
        if self.min_separation < 2:
            return super()._make_table(horizon)
        self._field_cache = {}
        # static fields are closed-form in a clean lease
        self._free_box = _free_rectangle(self._blocked_arr)
        return _VectorReservationTable(
            self.min_separation,
            (self.grid.rows, self.grid.cols),
            horizon,
        )

    def _route_one(self, request, table, horizon):
        if isinstance(table, _ReservationTable):
            return super()._route_one(request, table, horizon)
        start, goal = request.start, request.goal
        radius = table.radius
        settle = table.latest_parked_time()
        goal_index = (goal[0] + radius) * table.row_width + goal[1] + radius
        if table.parked_flat[goal_index] <= settle:
            # a parked window covers the goal and never clears
            raise RoutingError(
                f"cage {request.cage_id}: no conflict-free route within "
                f"horizon {horizon}"
            )
        # Earliest legal arrival: the goal must stay free from arrival
        # through the settle time (the A* reference's arrival_ok),
        # which for transient blocks means "after the last one": the
        # last set byte of the goal's strided column through the planes.
        upto = min(settle, table.blocked.shape[0] - 1)
        plane = table.plane_size
        column = table.blocked_flat[
            goal_index : goal_index + (upto + 1) * plane : plane
        ]
        min_arrival = column.tobytes().rfind(1) + 1
        path = self._direct_path(start, goal, min_arrival, table, horizon)
        if path is not None:
            self._counters["fast_path_hits"] += 1
            return path, 0
        path = self._greedy_walk(start, goal, min_arrival, table, horizon)
        if path is not None:
            self._counters["greedy_walk_hits"] += 1
            return path, 0
        rows, cols = self.grid.rows, self.grid.cols
        margin = self.window_margin
        while True:
            row0 = max(0, min(start[0], goal[0]) - margin)
            row1 = min(rows - 1, max(start[0], goal[0]) + margin)
            col0 = max(0, min(start[1], goal[1]) - margin)
            col1 = min(cols - 1, max(start[1], goal[1]) + margin)
            status, path = self._wavefront(
                start, goal, min_arrival, table, horizon,
                (row0, row1, col0, col1),
            )
            if status == "found":
                return path, 0
            full = (row0, col0) == (0, 0) and (row1, col1) == (rows - 1, cols - 1)
            if status == "dead" or full:
                raise RoutingError(
                    f"cage {request.cage_id}: no conflict-free route within "
                    f"horizon {horizon}"
                )
            # congestion pushed the detour outside the window: widen it
            margin *= 4

    # -- fast path ---------------------------------------------------------

    def _static_distance(self, goal):
        """Static distance-to-goal field, shared across cages with the
        same goal (built only when a blocked mask is present).

        When the free mask is exactly one rectangle -- a leased window
        with no dead pixel inside it -- and the goal lies inside it,
        the king-move BFS field is the Chebyshev distance to the goal
        clipped to that rectangle (-1 outside), so it is written in
        closed form.  Any other mask falls back to :func:`distance_field`.
        """
        field = self._field_cache.get(goal)
        if field is None:
            box = self._free_box
            if (box is not None and box[0] <= goal[0] < box[1]
                    and box[2] <= goal[1] < box[3]):
                r0, r1, c0, c1 = box
                field = np.full(self._blocked_arr.shape, -1, dtype=np.int32)
                field[r0:r1, c0:c1] = np.maximum(
                    np.abs(np.arange(r0 - goal[0], r1 - goal[0]))[:, None],
                    np.abs(np.arange(c0 - goal[1], c1 - goal[1])),
                )
            else:
                field = distance_field(~self._blocked_arr, goal)
            self._field_cache[goal] = field
        return field

    def _direct_path(self, start, goal, min_arrival, table, horizon):
        """Probe the static-shortest path site by site.

        The path is the Chebyshev-optimal king path (diagonal, then
        straight), or the downhill walk of the shared per-goal distance
        field when dead electrodes or a lease block part of the chip,
        after start waits if the goal needs settling time.  Each
        (site, t) is checked against the reservation planes' flat
        views, stopping at the first conflict.  Returns the path, or
        None when the probe fails and the greedy walk must try.
        """
        distance = chebyshev_heuristic(start, goal)
        if distance == 0:
            return np.asarray([start], dtype=np.int32) if min_arrival == 0 else None
        walk = None
        if self._blocked_arr is not None:
            fld = self._static_distance(goal)
            if fld[start] != distance:
                # start unreachable statically, or a dead-pixel detour
                # is needed: the wavefront handles both
                return None
            walk = downhill_path(fld, start)
        arrival = max(distance, min_arrival)
        if arrival > horizon:
            return None
        waits = arrival - distance
        if walk is None:
            # diagonal first, then straight: each axis walks its span
            # and then holds the goal's coordinate
            span_r, span_c = abs(goal[0] - start[0]), abs(goal[1] - start[1])
            step_r = 1 if goal[0] > start[0] else -1
            step_c = 1 if goal[1] > start[1] else -1
            rows = (list(range(start[0], goal[0], step_r))
                    + [goal[0]] * (distance + 1 - span_r))
            cols = (list(range(start[1], goal[1], step_c))
                    + [goal[1]] * (distance + 1 - span_c))
        else:
            rows, cols = map(list, zip(*walk))
        if waits:
            rows = [start[0]] * waits + rows
            cols = [start[1]] * waits + cols
        width = table.row_width
        plane = table.plane_size
        parked = table.parked_flat
        blocked = table.blocked_flat
        offset = table.radius * (width + 1)
        for t in range(1, arrival + 1):
            index = rows[t] * width + cols[t] + offset
            if parked[index] <= t or blocked[t * plane + index]:
                return None
        return np.array((rows, cols), dtype=np.int32).T.copy()

    def _greedy_walk(self, start, goal, min_arrival, table, horizon):
        """Middle tier of the fast-path ladder: a scalar greedy walk.

        Steps one site at a time, always keeping the invariant
        ``t + static_distance(site) <= bound`` where ``bound`` is the
        cage's unconditional earliest arrival (static shortest distance
        vs goal settling time).  Because the invariant forbids losing
        ground, the walk either arrives exactly at ``bound`` -- which
        is provably the same earliest arrival A* finds, so accepting it
        preserves equivalence -- or gets stuck and returns None for the
        exact wavefront to take over.  It dodges the single crossing
        tube that defeats the straight-line probe.

        Each step takes the closest free neighbour that keeps the
        invariant, ties to the earliest of staying put, then
        :data:`MOVES_8`.  So it walks the moves in ``(remaining
        distance, move index)`` order -- a precomputed ranking of the
        goal offset's class on an open chip (:func:`_greedy_key`), the
        sorted static-field values of the nine neighbours on a masked
        one -- and probes the static mask and the reservation planes'
        flat views only until the first free move.  A step costs a few
        list-speed probes, against a whole-window bit-plane op per
        wavefront level.
        """
        field = None
        if self._blocked_arr is None:
            static_dist = chebyshev_heuristic(start, goal)
        else:
            fld = self._static_distance(goal)
            static_dist = int(fld[start])
            if static_dist < 0:
                return None
            field = memoryview(fld.reshape(-1))
        bound = max(static_dist, min_arrival)
        if bound > horizon:
            return None
        goal_r, goal_c = goal
        width = table.row_width
        plane = table.plane_size
        parked = table.parked_flat
        blocked = table.blocked_flat
        offset = table.radius * (width + 1)
        dead = self._blocked_flat
        rankings = _GREEDY_RANKINGS
        cols = self.grid.cols
        rows = self.grid.rows
        row, col = start
        path = [start]
        for t in range(1, bound + 1):
            # ``ranked`` holds (score, rank, drow, dcol), closest first;
            # a move keeps the bound while its score is within ``limit``
            if field is None:
                # the score is the change of distance; _greedy_key inline
                a, b = row - goal_r, col - goal_c
                abs_a, abs_b = abs(a), abs(b)
                skew = abs_a - abs_b
                ranked = rankings[
                    (a > 0) - (a < 0), (b > 0) - (b < 0),
                    -2 if skew < -2 else 2 if skew > 2 else skew,
                ]
                limit = bound - t - (abs_a if skew > 0 else abs_b)
            else:
                # the score is the remaining static distance
                ranked = []
                for rank, dr, dc in _GREEDY_MOVES:
                    nr, nc = row + dr, col + dc
                    if 0 <= nr < rows and 0 <= nc < cols:
                        remaining = field[nr * cols + nc]
                        if remaining >= 0:
                            ranked.append((remaining, rank, dr, dc))
                ranked.sort()
                limit = bound - t
            at = t * plane
            for score, __, dr, dc in ranked:
                if score > limit:
                    return None  # every later move loses the bound too
                nr, nc = row + dr, col + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                if (dead is not None and dead[nr * cols + nc]
                        and (nr, nc) != start):
                    continue
                index = nr * width + nc + offset
                if parked[index] <= t or blocked[at + index]:
                    continue
                break
            else:
                return None
            row, col = nr, nc
            path.append((nr, nc))
        return np.asarray(path, dtype=np.int32)

    # -- wavefront ---------------------------------------------------------

    def _wavefront(self, start, goal, min_arrival, table, horizon, bounds):
        """Level-synchronous masked BFS inside ``bounds``, on bit planes.

        Each BFS level is one Python int over the window's rows and
        columns plus one guard column a side: bit ``r * stride + c`` is
        chip site ``(row0 + r, col0 - 1 + c)``, with ``stride`` that
        width (``width + 2``) rounded up to whole bytes.  So a level
        costs in proportion to the window, not the chip, and the guard
        columns keep every window bit off both row ends: a one-bit
        column shift never wraps into the next row, and a level step is
        shifts, ORs and ANDs.

        The reservation planes are packed :data:`_PLANE_CHUNK` at a
        time: the chunk's window rows, over the window's columns plus
        the guard columns (which the padded table always has), are
        copied into the table's one pad buffer
        (:meth:`_VectorReservationTable.pad_view`), packed flat and
        inverted to free bits, and a plane becomes an int only when its
        level is reached.  Bits past the guard columns hold whatever the
        buffer held; the static mask, which covers only the window,
        clears them in every level.

        Returns ``(status, path)``: ``("found", path)`` on success, or
        ``(status, None)`` where ``"grow"`` means the reached set was
        clipped by the window (a wider one may route) and ``"dead"``
        means the cage is provably stuck -- the reached set hit a
        fixpoint, or died out, without ever touching the window border
        (the window cells next to a free pixel outside it), so no amount
        of widening changes the evolution.
        """
        row0, row1, col0, col1 = bounds
        height, width = row1 - row0 + 1, col1 - col0 + 1
        radius = table.radius
        stride = 8 * ((width + 2 + 7) // 8)
        # the window's rows and its columns plus the guard columns, in
        # padded-table coordinates
        rows = slice(row0 + radius, row1 + 1 + radius)
        cols = slice(col0 - 1 + radius, col1 + 2 + radius)
        one_row = ((1 << width) - 1) << 1
        column = ((1 << (height * stride)) - 1) // ((1 << stride) - 1)
        # The border is where a wider window could add a cell: the
        # window cells next to a free pixel outside the window.  A side
        # on the chip's edge, or against the blocked outside of a lease,
        # is none.
        window = one_row * column
        if self._blocked_arr is None:
            static = window
            border = 0
            if row0 > 0:
                border |= one_row
            if row1 < self.grid.rows - 1:
                border |= one_row << ((height - 1) * stride)
            if col0 > 0:
                border |= column << 1
            if col1 < self.grid.cols - 1:
                border |= column << width
        else:
            # the free pixels of the window and of the one-pixel ring
            # around it, row i being chip row row0 - 1 + i and column j
            # chip column col0 - 1 + j
            free = np.zeros((height + 2, stride), dtype=bool)
            r_lo, r_hi = max(row0 - 1, 0), min(row1 + 2, self.grid.rows)
            c_lo, c_hi = max(col0 - 1, 0), min(col1 + 2, self.grid.cols)
            np.logical_not(
                self._blocked_arr[r_lo:r_hi, c_lo:c_hi],
                out=free[r_lo - row0 + 1 : r_hi - row0 + 1,
                         c_lo - col0 + 1 : c_hi - col0 + 1],
            )
            static = _bits(free[1:-1]) & window
            free[1:-1, 1 : width + 1] = False
            near = _bits(free)
            near |= near << 1 | near >> 1
            near |= near << stride | near >> stride
            border = (near >> stride) & window
        start_r, start_c = start[0] - row0, start[1] - col0 + 1
        current = 1 << (start_r * stride + start_c)
        # a cage may keep sitting on (or leave) an electrode that died
        # under it; only *entering* dead sites is forbidden
        static |= current
        goal_bit = 1 << ((goal[0] - row0) * stride + goal[1] - col0 + 1)
        # parked windows join the static mask at their parked-from time;
        # horizon + 1 ends the list past the last level
        parked = table.parked_from[rows, cols]
        inside = parked[:, 1:-1]
        parked_times = sorted(set(inside[inside <= horizon].tolist()))
        parked_times.append(horizon + 1)
        next_parked = 0
        blocked_rows = table.blocked[:, rows, cols]
        plane_bytes = height * stride // 8
        packed = b""
        chunk0 = chunk1 = 1
        settle = table.latest_parked_time()
        counters = self._counters
        levels = [current]
        arrived = -1
        touched_border = False
        for t in range(1, horizon + 1):
            if t == chunk1:
                chunk0, chunk1 = t, min(t + _PLANE_CHUNK, horizon + 1)
                pad = table.pad_view(chunk1 - chunk0, height, stride)
                pad[:, :, : width + 2] = blocked_rows[chunk0:chunk1]
                packed = np.packbits(pad.reshape(-1), bitorder="little")
                packed = np.invert(packed, out=packed).tobytes()
            while parked_times[next_parked] <= t:
                static &= ~_bits(parked == parked_times[next_parked])
                next_parked += 1
            at = (t - chunk0) * plane_bytes
            frontier = current | current << 1 | current >> 1
            frontier = (
                (frontier | frontier << stride | frontier >> stride)
                & static
                & int.from_bytes(packed[at : at + plane_bytes], "little")
            )
            levels.append(frontier)
            counters["frontier_steps"] += 1
            if t >= min_arrival and frontier & goal_bit:
                arrived = t
                break
            touched_border = touched_border or bool(frontier & border)
            if not frontier:
                # the reached set died out entirely; unless it was ever
                # clipped by the window, widening cannot revive it
                return ("grow" if touched_border else "dead"), None
            if t > settle and frontier == current:
                # static world from here on and the reached set is a
                # fixpoint that excludes the goal: genuinely stuck --
                # and provably so in any window if it never touched
                # this window's border
                return ("grow" if touched_border else "dead"), None
            current = frontier
        if arrived < 0:
            return "grow", None
        # Backtrack through the stored levels: at each step take the
        # reached predecessor closest to the start (ties prefer waiting,
        # then MOVES_8 order), which yields a direct, low-move path with
        # the same arrival time the A* reference finds.  That order is
        # the greedy ranking of the site's offset from the start, so one
        # shift and mask bring the 3x3 neighbourhood down to nine bits
        # and the first reached move in ranked order is the step.
        rankings = _BACKTRACK_RANKINGS
        three_rows = 7 | 7 << stride | 7 << 2 * stride
        a, b = goal[0] - start[0], goal[1] - start[1]
        at = (goal[0] - row0) * stride + goal[1] - col0 + 1
        sites = [at]
        for t in range(arrived - 1, -1, -1):
            # the 3x3 neighbourhood of bit ``at``, its corner at bit 0
            shift = at - stride - 1
            near = (levels[t] >> shift if shift >= 0
                    else levels[t] << -shift) & three_rows
            nine = (near & 7 | (near >> (stride - 3)) & 0o70
                    | (near >> (2 * stride - 6)) & 0o700)
            skew = abs(a) - abs(b)
            for bit, dr, dc in rankings[
                (a > 0) - (a < 0), (b > 0) - (b < 0),
                -2 if skew < -2 else 2 if skew > 2 else skew,
            ]:
                if nine & bit:
                    break
            at += dr * stride + dc
            a += dr
            b += dc
            sites.append(at)
        path = np.empty((len(sites), 2), dtype=np.int32)
        path[:, 0], path[:, 1] = np.divmod(np.array(sites[::-1]), stride)
        path += (row0, col0 - 1)
        return "found", path
