"""Single-cage A* routing on the electrode grid.

A cage moves one electrode per actuation frame, in any of the eight
directions (or waits).  Static obstacles are other cages' exclusion
zones (their site inflated by the separation rule) plus any chip
regions reserved by the scheduler.  This module provides the spatial
A* used for isolated moves and as the cost-to-go heuristic of the
space-time batch router.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..array.grid import ElectrodeGrid
from ..array.state import dilate8_into, inflate_mask

#: The eight king-move directions plus wait, in deterministic order.
MOVES_8 = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)
WAIT = (0, 0)


class RoutingError(Exception):
    """No route satisfying the constraints exists (or search aborted)."""


@dataclass
class ObstacleMap:
    """Static blocked-site set with separation inflation.

    Parameters
    ----------
    grid:
        Array geometry.
    blocked:
        Iterable of (row, col) sites that are occupied.
    separation:
        Chebyshev radius around each blocked site that a routed cage
        centre must not enter (the cage spacing rule).
    hard:
        Optional bool mask of sites blocked *without* inflation -- dead
        electrodes exclude only the cage centre itself (a neighbouring
        live pixel still holds a cage at full separation from it).
    """

    grid: ElectrodeGrid
    blocked: set = field(default_factory=set)
    separation: int = 2
    hard: object = None

    def __post_init__(self):
        if isinstance(self.blocked, np.ndarray):
            mask = self.blocked.astype(bool)
            # the Python site set is derived on demand (blocked_sites);
            # eager conversion would cost O(population) per route call
            self.blocked = None
        else:
            mask = np.zeros((self.grid.rows, self.grid.cols), dtype=bool)
            self.blocked = set(map(tuple, self.blocked))
            for row, col in self.blocked:
                mask[row, col] = True
        self._mask = mask
        # Chebyshev dilation by (separation - 1) as shifted ORs -- a few
        # whole-array ops instead of a Python loop over every blocked
        # site times its (2s-1)^2 neighbourhood.
        self._inflated = inflate_mask(mask, self.separation - 1)
        if self.hard is not None:
            self._inflated = self._inflated | np.asarray(self.hard, dtype=bool)
        # A* probes is_free thousands of times per route; a flat Python
        # list answers each probe several times faster than a numpy
        # scalar read.
        self._inflated_flat = self._inflated.ravel().tolist()
        self._cols = self.grid.cols

    @classmethod
    def from_mask(cls, grid, mask, separation=2, hard_mask=None) -> "ObstacleMap":
        """Build directly from a boolean occupancy grid.

        This is the :class:`~repro.array.state.ArrayState` fast path:
        the platform hands over ``state.obstacle_mask(...)`` without
        materialising a per-call Python site set.  ``hard_mask`` adds
        uninflated blocked sites (dead electrodes).
        """
        return cls(grid, np.asarray(mask, dtype=bool), separation,
                   hard=hard_mask)

    def blocked_sites(self):
        """Set of blocked cage-centre sites (materialised on demand)."""
        if self.blocked is None:
            rows, cols = np.nonzero(self._mask)
            self.blocked = set(zip(rows.tolist(), cols.tolist()))
        return self.blocked

    def is_free(self, site) -> bool:
        """Whether a cage centre may occupy ``site``."""
        row, col = site
        return (
            self.grid.in_bounds(row, col)
            and not self._inflated_flat[row * self._cols + col]
        )

    def free_neighbors(self, site):
        """Free king-move successors of ``site`` (excludes waiting)."""
        row, col = site
        return [
            (row + dr, col + dc)
            for dr, dc in MOVES_8
            if self.is_free((row + dr, col + dc))
        ]


def chebyshev_heuristic(a, b) -> int:
    """Admissible cost-to-go for king moves: Chebyshev distance."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def distance_field(free, source, max_levels=None):
    """King-move BFS distance from ``source`` over a free-cell mask.

    Grid moves are unit cost, so Dijkstra collapses to a breadth-first
    wavefront: each level is one 8-neighbour dilation of the reached
    set masked by ``free`` -- whole-grid boolean ops instead of per-node
    heap expansions.  Returns an int32 grid of distances (-1 where
    unreachable).  ``source`` itself need not be free (a cage may start
    on an electrode that died under it).  With no obstacles the field
    equals the closed-form Chebyshev distance; its value is routing
    *around* dead pixels, where cages sharing a goal share one field.
    """
    free = np.asarray(free, dtype=bool)
    rows, cols = free.shape
    field = np.full((rows, cols), -1, dtype=np.int32)
    reached = np.zeros((rows, cols), dtype=bool)
    frontier = np.zeros((rows, cols), dtype=bool)
    tmp = np.zeros((rows, cols), dtype=bool)
    reached[source[0], source[1]] = True
    field[source[0], source[1]] = 0
    if max_levels is None:
        max_levels = rows * cols
    for level in range(1, max_levels + 1):
        dilate8_into(reached, frontier, tmp)
        frontier &= free
        new = frontier & ~reached
        if not new.any():
            break
        field[new] = level
        reached |= new
    return field


def downhill_path(field, start):
    """Walk ``start`` -> the field's source along strictly decreasing
    distances (one king move per step).

    ``field`` is a :func:`distance_field` grid; the walk greedily takes
    the neighbour with the smallest distance (ties in :data:`MOVES_8`
    order), which on a BFS field always makes progress.  Raises
    :class:`RoutingError` when ``start`` is unreachable from the
    source.  Returns the site list from ``start`` to the source.
    The field is read through a flat ``memoryview``: a list-speed
    scalar read, where a numpy one costs several times as much.
    """
    rows, cols = field.shape
    flat = memoryview(np.ascontiguousarray(field).reshape(-1))
    row, col = start
    if flat[row * cols + col] < 0:
        raise RoutingError(f"site {tuple(start)} unreachable in distance field")
    path = [(row, col)]
    remaining = int(flat[row * cols + col])
    while remaining > 0:
        best = None
        for dr, dc in MOVES_8:
            r, c = row + dr, col + dc
            if not (0 <= r < rows and 0 <= c < cols):
                continue
            d = flat[r * cols + c]
            if d >= 0 and d < remaining and (best is None or d < best[0]):
                best = (int(d), r, c)
        remaining, row, col = best
        path.append((row, col))
    return path


def astar_route(grid, start, goal, obstacles=None, max_expansions=200000):
    """Shortest king-move path from ``start`` to ``goal``.

    Parameters
    ----------
    grid:
        :class:`~repro.array.grid.ElectrodeGrid`.
    start, goal:
        (row, col) sites.
    obstacles:
        Optional :class:`ObstacleMap`; ``start``/``goal`` must be free.
    max_expansions:
        Search budget; exceeding it raises :class:`RoutingError`.

    Returns
    -------
    list of (row, col) sites from start to goal inclusive.  A trivial
    route ``[start]`` is returned when start == goal.
    """
    start, goal = tuple(start), tuple(goal)
    for site, label in ((start, "start"), (goal, "goal")):
        if not grid.in_bounds(*site):
            raise RoutingError(f"{label} {site} out of bounds")
        if obstacles is not None and not obstacles.is_free(site):
            raise RoutingError(f"{label} {site} blocked")
    if start == goal:
        return [start]

    open_heap = [(chebyshev_heuristic(start, goal), 0, start)]
    came_from = {}
    g_score = {start: 0}
    expansions = 0
    while open_heap:
        __, g, current = heapq.heappop(open_heap)
        if g > g_score.get(current, float("inf")):
            continue
        if current == goal:
            return _reconstruct(came_from, current)
        expansions += 1
        if expansions > max_expansions:
            raise RoutingError("A* expansion budget exhausted")
        if obstacles is not None:
            successors = obstacles.free_neighbors(current)
        else:
            successors = [
                (current[0] + dr, current[1] + dc)
                for dr, dc in MOVES_8
                if grid.in_bounds(current[0] + dr, current[1] + dc)
            ]
        for nxt in successors:
            tentative = g + 1
            if tentative < g_score.get(nxt, float("inf")):
                g_score[nxt] = tentative
                came_from[nxt] = current
                priority = tentative + chebyshev_heuristic(nxt, goal)
                heapq.heappush(open_heap, (priority, tentative, nxt))
    raise RoutingError(f"no route from {start} to {goal}")


def _reconstruct(came_from, end):
    path = [end]
    while end in came_from:
        end = came_from[end]
        path.append(end)
    path.reverse()
    return path


def path_moves(path):
    """Per-step (drow, dcol) deltas of a site path (length len(path)-1)."""
    moves = []
    for a, b in zip(path, path[1:]):
        delta = (b[0] - a[0], b[1] - a[1])
        if max(abs(delta[0]), abs(delta[1])) > 1:
            raise ValueError(f"non-adjacent step {a} -> {b} in path")
        moves.append(delta)
    return moves
