"""Single-cage routing primitives on the electrode grid.

A cage moves one electrode per actuation frame, in any of the eight
directions (or waits).  This module holds the move set, the Chebyshev
cost-to-go heuristic of the batch routers' searches, and the static
king-move distance field (with its downhill walk) that the wavefront
router uses to detour around dead electrodes and lease borders.  Every
cage motion, single moves included, is planned by
:mod:`repro.routing.multi`.
"""

from __future__ import annotations

import numpy as np

from ..array.state import dilate8_into

#: The eight king-move directions plus wait, in deterministic order.
MOVES_8 = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)
WAIT = (0, 0)


class RoutingError(Exception):
    """No route satisfying the constraints exists (or search aborted)."""


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
