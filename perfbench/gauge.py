"""A fixed piece of work that times the host's speed.

A host shared with other work runs in (at least) two speeds: while a
neighbour is busy the same code takes about 1.6 times as long, and such
a spell may last from a fraction of a second to minutes -- a whole run.
No choice of window within a run removes that, so the benchmark times
this gauge between batches and scales each job by it: every time it
reports is what the job would have taken on a host on which one gauge
call takes ``REFERENCE`` seconds.

The gauge is a small mix of what the program spends its time on --
interpreted Python over dicts, tuples and objects, and numpy on small
arrays -- and uses nothing from the program, so a change to the
program moves the scaled times and leaves the gauge alone.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one gauge call takes on this benchmark's reference host (a
#: 2-vCPU Xeon guest, while no neighbour slowed it).
REFERENCE = 4.2e-4

_GRID = np.zeros((32, 32))


class _Cell:
    __slots__ = ("row", "col", "cost")

    def __init__(self, row, col, cost):
        self.row, self.col, self.cost = row, col, cost


def gauge() -> float:
    """Run the gauge once; returns the seconds it took."""
    started = time.perf_counter()
    cells = {}
    for i in range(160):
        key = (i % 17, (i * 7) % 23)
        cell = cells.get(key)
        if cell is None:
            cells[key] = _Cell(key[0], key[1], i)
        else:
            cell.cost = min(cell.cost, i)
    order = sorted(cells.values(), key=lambda c: (c.cost, c.row, c.col))
    grid = _GRID.copy()
    for cell in order[:24]:
        grid[cell.row, cell.col] += cell.cost
        grid = np.maximum(grid, np.roll(grid, 1, axis=0) - 1.0)
    int(grid.argmax())
    return time.perf_counter() - started
