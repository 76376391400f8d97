"""Vectorized array state: the single source of truth for cage bookkeeping.

The paper's chip is a 320 x 320 array manipulating tens of thousands of
DEP cages per frame; per-site Python dictionaries cannot keep up with
that ("one frame" means re-validating the whole population).
:class:`ArrayState` holds the live array state as numpy grids:

* ``occupancy`` -- bool (rows, cols), True where a cage centre sits;
* ``cage_ids``  -- int32 (rows, cols), the occupying cage id (-1 empty);

plus the payload index kept by the owning manager.  Every layer that
used to rebuild per-site Python structures (cage stepping, the
routing planner's parked sites, frame emission, batched sensing) reads these grids
directly, so the per-frame cost is a handful of whole-array or
gather-indexed numpy ops instead of ``O(cages * neighbourhood)`` dict
probes.

Single cages take a second path.  A trap, a release, a cage's site and
a handful of movers touch a few cells, and a numpy scalar read or write
costs several times a list index.  So the state also keeps flat
``memoryview`` objects over the same buffers -- the occupancy and
cage-id grids, indexed ``row * cols + col``, the id-indexed site tables
and the dead mask -- and :meth:`ArrayState.add`, :meth:`~ArrayState.remove`,
:meth:`~ArrayState.site_of`, :meth:`~ArrayState.id_at`,
:meth:`~ArrayState.window_occupied`, :meth:`~ArrayState.ids_in_window`
and :meth:`~ArrayState.move_cages` of at most :data:`SCALAR_MOVES`
cages read and write through them.  They are views, not copies: a
write through either side shows in the other at once.  An array that
is replaced (the site tables when they grow, the dead mask when one is
installed or cleared) gets a new view at once, and a pickled or copied
state builds its own.  Whole-array and batch work stays in numpy.
Measured on a 2-vCPU x86-64 host against the numpy scalar indexing
these methods used before: a trap + release pair on a 48 x 48 chip
8.1 -> 4.3 us, ``window_occupied`` at radius 1 4.1 -> 1.4 us, ``add`` +
``remove`` 1.4 -> 0.55 us and ``Cage.site`` 0.49 -> 0.25 us.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

import numpy as np

from .grid import ElectrodeGrid

#: Sentinel for "no cage" in the id grid.
NO_CAGE = -1

#: :meth:`ArrayState.move_cages` commits at most this many cages through
#: the flat views, one cell at a time; larger batches run as six numpy
#: scatters, whose fixed cost the per-cage writes exceed from about here
#: on (per commit of array input: 2.6 against 5.5 us at 4 cages, 5.9
#: against 6.3 at 16, 7.4 against 6.4 at 20).
SCALAR_MOVES = 16


@lru_cache(maxsize=None)
def separation_offsets(separation):
    """The (drow, dcol) offsets of a Chebyshev-(separation-1) window,
    excluding (0, 0) -- the neighbourhood the spacing rule inspects."""
    radius = separation - 1
    return [
        (dr, dc)
        for dr in range(-radius, radius + 1)
        for dc in range(-radius, radius + 1)
        if not (dr == 0 and dc == 0)
    ]


def dilate8_into(src, out, tmp):
    """One-step 8-neighbour (king move) dilation of a 2-D bool grid.

    Writes ``src`` OR'd with its eight shifted copies into ``out`` and
    returns ``out``.  ``src``, ``out`` and ``tmp`` must be distinct
    same-shaped bool arrays: the 3x3 structuring element is separable,
    so the kernel is a horizontal pass (``src`` -> ``tmp``) followed by
    a vertical pass (``tmp`` -> ``out``) -- four shifted ORs total,
    each reading only the previous buffer (shifted ORs *in place* on
    overlapping views would smear values across the whole row).  This
    is the inner kernel of the routing BFS
    (:func:`~repro.routing.astar.distance_field`), called once per BFS
    level instead of once per expanded node.
    """
    np.copyto(tmp, src)
    tmp[:, :-1] |= src[:, 1:]
    tmp[:, 1:] |= src[:, :-1]
    np.copyto(out, tmp)
    out[:-1, :] |= tmp[1:, :]
    out[1:, :] |= tmp[:-1, :]
    return out


def _close_pair_by_rows(sites, separation):
    """Whether any two of ``sites`` are closer than ``separation``
    (Chebyshev): a sweep in row order that compares each site only
    with the later ones less than ``separation`` rows below it."""
    by_row = sorted(sites, key=itemgetter(0))
    count = len(by_row)
    for i in range(count - 1):
        row, col = by_row[i][0], by_row[i][1]
        below = row + separation
        for j in range(i + 1, count):
            other = by_row[j]
            if other[0] >= below:
                break
            if abs(other[1] - col) < separation:
                return True
    return False


def first_pairwise_violation(sites, separation, rows, cols):
    """First pair of sites closer than ``separation`` (Chebyshev), or None.

    The pair named is the first ``(i, j)``, ``i < j``, in input order.
    Large batches scatter counts onto the grid, box-sum them with an
    integral image, and only walk a neighbourhood in Python on the
    (rare) failure path to name the pair.  Small batches, where
    whole-grid arrays cost more than they save, run the row sweep of
    :func:`_close_pair_by_rows`; on a hit, the O(n^2) pair loop names
    the pair.
    """
    sites = list(sites)
    if len(sites) < 2:
        return None
    if len(sites) < 48:
        if not _close_pair_by_rows(sites, separation):
            return None
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                if max(abs(a[0] - b[0]), abs(a[1] - b[1])) < separation:
                    return tuple(a), tuple(b)
        return None
    r = np.fromiter((s[0] for s in sites), dtype=np.int64, count=len(sites))
    c = np.fromiter((s[1] for s in sites), dtype=np.int64, count=len(sites))
    counts = np.zeros((rows, cols), dtype=np.int32)
    np.add.at(counts, (r, c), 1)
    radius = separation - 1
    # integral image: window_sum[i, j] = sum of counts in the clipped
    # Chebyshev-radius window centred on (i, j)
    integral = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    np.cumsum(counts, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    r0 = np.clip(r - radius, 0, rows)
    r1 = np.clip(r + radius + 1, 0, rows)
    c0 = np.clip(c - radius, 0, cols)
    c1 = np.clip(c + radius + 1, 0, cols)
    window = (
        integral[r1, c1] - integral[r0, c1] - integral[r1, c0] + integral[r0, c0]
    )
    offending = np.nonzero(window > 1)[0]
    if offending.size == 0:
        return None
    i = int(offending[0])
    a = (int(r[i]), int(c[i]))
    for j, b in enumerate(sites):
        if j != i and max(abs(a[0] - b[0]), abs(a[1] - b[1])) < separation:
            return a, tuple(b)
    return a, a  # duplicate site: the window double-counts (i) itself


#: The flat views an :class:`ArrayState` keeps (see the module docstring).
_VIEWS = ("_occupancy_flat", "_cage_ids_flat", "_site_r_flat",
          "_site_c_flat", "_dead_flat")


def _ints(values):
    """``values`` as a sequence of Python ints (an array's ``tolist``)."""
    return values.tolist() if isinstance(values, np.ndarray) else values


class ArrayState:
    """Numpy-backed occupancy + cage-id grids for one electrode array.

    Mutations keep the two grids consistent; queries are O(1) array
    reads or vectorized gathers.  The payload/identity index (cage id ->
    object) lives with the owner (:class:`~repro.array.cages.CageManager`
    keeps :class:`~repro.array.cages.Cage` objects) -- this class is the
    *geometry* source of truth.
    """

    def __init__(self, grid: ElectrodeGrid):
        self.grid = grid
        self.occupancy = np.zeros((grid.rows, grid.cols), dtype=bool)
        self.cage_ids = np.full((grid.rows, grid.cols), NO_CAGE, dtype=np.int32)
        # id-indexed site table (the inverse of cage_ids): -1 == dead.
        # Grown geometrically as ids are allocated; lets the one
        # vectorised frame check (CageManager.run_plan's pass, which
        # also runs step's frames of more than 8 movers; errors still
        # come from the scalar step) gather every mover's site in one
        # indexing op, and lets Cage.site be a zero-maintenance view
        # instead of a per-step Python update.
        self._site_r = np.full(256, -1, dtype=np.int32)
        self._site_c = np.full(256, -1, dtype=np.int32)
        # dead-electrode mask (fault model): no cage centre may sit on
        # a dead pixel.  has_dead is the fast-path guard so fault-free
        # chips pay nothing per step.
        self.dead = np.zeros((grid.rows, grid.cols), dtype=bool)
        self.has_dead = False
        self._cols = grid.cols
        self._views()

    def _views(self):
        """(Re)build the flat views of every viewed array (see the
        module docstring)."""
        self._occupancy_flat = memoryview(self.occupancy.reshape(-1))
        self._cage_ids_flat = memoryview(self.cage_ids.reshape(-1))
        self._site_r_flat = memoryview(self._site_r)
        self._site_c_flat = memoryview(self._site_c)
        self._dead_flat = memoryview(self.dead.reshape(-1))

    def __getstate__(self):
        # a memoryview does not pickle: a copy builds views of its own
        state = self.__dict__.copy()
        for name in _VIEWS:
            del state[name]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._views()

    def set_dead_mask(self, mask):
        """Install a dead-electrode mask (bool, grid-shaped).

        Sites already occupied by cages are allowed to stay (a fault
        flipping under a live cage loses the particle physically, not
        logically); the mask only constrains *new* placements and move
        destinations.  The mask is copied, so no later change can
        bypass it.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.occupancy.shape:
            raise ValueError(
                f"dead mask shape {mask.shape} does not match grid "
                f"{self.occupancy.shape}"
            )
        self.dead = mask.copy()
        self.has_dead = bool(mask.any())
        self._dead_flat = memoryview(self.dead.reshape(-1))

    def clear(self):
        """Return to the just-built state, no cage and no dead pixel,
        filling the grids in place.  An installed dead mask is replaced,
        never written to, like in :meth:`set_dead_mask`."""
        self.occupancy.fill(False)
        self.cage_ids.fill(NO_CAGE)
        self._site_r.fill(-1)
        self._site_c.fill(-1)
        if self.has_dead:
            self.dead = np.zeros_like(self.dead)
            self.has_dead = False
            self._dead_flat = memoryview(self.dead.reshape(-1))

    def _ensure_capacity(self, cage_id):
        size = self._site_r.size
        if cage_id >= size:
            new_size = max(size * 2, cage_id + 1)
            for name in ("_site_r", "_site_c"):
                grown = np.full(new_size, -1, dtype=np.int32)
                grown[:size] = getattr(self, name)
                setattr(self, name, grown)
            self._site_r_flat = memoryview(self._site_r)
            self._site_c_flat = memoryview(self._site_c)

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return int(np.count_nonzero(self.occupancy))

    def id_at(self, site):
        """Cage id at ``site`` (an in-bounds site) or None."""
        cage_id = self._cage_ids_flat[site[0] * self._cols + site[1]]
        return None if cage_id == NO_CAGE else cage_id

    def site_of(self, cage_id):
        """Current (row, col) of a live cage id, or None."""
        site_r = self._site_r_flat
        if not 0 <= cage_id < len(site_r):
            return None
        row = site_r[cage_id]
        if row < 0:
            return None
        return (row, self._site_c_flat[cage_id])

    def sites_of(self, ids):
        """(rows, cols) int arrays for an array of live cage ids."""
        return self._site_r[ids], self._site_c[ids]

    def live_ids(self, exclude):
        """Every live cage id not in ``exclude``, sorted, as an int array."""
        keep = self._site_r >= 0
        keep[np.asarray(exclude, dtype=np.intp)] = False
        return np.flatnonzero(keep)

    def alive_mask(self, ids):
        """Boolean mask of which ids in an int array are live cages."""
        ids = np.asarray(ids)
        size = self._site_r.size
        if ids.size and ids.min() >= 0 and ids.max() < size:
            # every id indexes the table: one gather decides
            return self._site_r[ids] >= 0
        safe = np.clip(ids, 0, size - 1)
        return (ids >= 0) & (ids < size) & (self._site_r[safe] >= 0)

    def sites(self):
        """Occupied sites in row-major (sorted) order, as int tuples."""
        rows, cols = np.nonzero(self.occupancy)
        return list(zip(rows.tolist(), cols.tolist()))

    def _window(self, site, radius):
        """``(starts, c0, c1)``: the clipped Chebyshev-``radius`` window
        around ``site`` as the flat index of each of its rows at column
        0 and its column span ``[c0, c1)``."""
        row, col = site
        rows, cols = self.grid.rows, self._cols
        # ElectrodeGrid.window's clip, inline: its call and four
        # min/max cost more than reading a radius-1 window
        r0 = row - radius if row > radius else 0
        r1 = row + radius if row + radius < rows else rows - 1
        c0 = col - radius if col > radius else 0
        c1 = col + radius + 1 if col + radius < cols else cols
        return range(r0 * cols, r1 * cols + 1, cols), c0, c1

    def ids_in_window(self, site, radius, ignore_id=None):
        """Cage ids within Chebyshev ``radius`` of ``site`` (clipped),
        in row-major order, ``ignore_id`` left out.

        The counterpart of the legacy per-neighbour dict probes; used by
        approach-site search.
        """
        starts, c0, c1 = self._window(site, radius)
        ids = self._cage_ids_flat
        return [cage_id
                for start in starts
                for cage_id in ids[start + c0 : start + c1]
                if cage_id != NO_CAGE and cage_id != ignore_id]

    def window_occupied(self, site, radius, ignore_id=None) -> bool:
        """Whether any cage (other than ``ignore_id``) sits within
        Chebyshev ``radius`` of ``site``: the creation check."""
        starts, c0, c1 = self._window(site, radius)
        ids = self._cage_ids_flat
        for start in starts:
            for cage_id in ids[start + c0 : start + c1]:
                if cage_id != NO_CAGE and cage_id != ignore_id:
                    return True
        return False

    def frame_phases(self, background=1, counter=-1):
        """int8 phase grid realising the cage set (frame emission).

        Background electrodes in phase, each cage centre counter-phase:
        two whole-array ops instead of a per-cage Python loop.
        """
        phases = np.full((self.grid.rows, self.grid.cols), background, dtype=np.int8)
        phases[self.occupancy] = counter
        return phases

    # -- mutations -------------------------------------------------------

    def add(self, cage_id, site):
        """Place cage ``cage_id`` at the in-bounds ``site``."""
        if cage_id >= len(self._site_r_flat):
            self._ensure_capacity(cage_id)
        row, col = site
        index = row * self._cols + col
        self._occupancy_flat[index] = True
        self._cage_ids_flat[index] = cage_id
        self._site_r_flat[cage_id] = row
        self._site_c_flat[cage_id] = col

    def remove(self, site):
        """Clear the in-bounds ``site`` and the cage that sat there."""
        index = site[0] * self._cols + site[1]
        cage_id = self._cage_ids_flat[index]
        self._occupancy_flat[index] = False
        self._cage_ids_flat[index] = NO_CAGE
        if cage_id != NO_CAGE:
            self._site_r_flat[cage_id] = -1
            self._site_c_flat[cage_id] = -1

    def move_cages(self, origins_r, origins_c, dests_r, dests_c, ids):
        """Commit a batch of moves: sequences of equal length, numpy
        arrays or lists or tuples of ints.

        Origins are cleared before destinations are written so chains
        (a cage stepping into a site another cage vacates this frame)
        commit correctly.  Up to :data:`SCALAR_MOVES` cages are written
        through the flat views, a larger batch by numpy scatters.
        """
        if len(ids) > SCALAR_MOVES:
            self.occupancy[origins_r, origins_c] = False
            self.cage_ids[origins_r, origins_c] = NO_CAGE
            self.occupancy[dests_r, dests_c] = True
            self.cage_ids[dests_r, dests_c] = ids
            self._site_r[ids] = dests_r
            self._site_c[ids] = dests_c
            return
        cols = self._cols
        occupancy = self._occupancy_flat
        cage_ids = self._cage_ids_flat
        for row, col in zip(_ints(origins_r), _ints(origins_c)):
            index = row * cols + col
            occupancy[index] = False
            cage_ids[index] = NO_CAGE
        site_r, site_c = self._site_r_flat, self._site_c_flat
        for row, col, cage_id in zip(_ints(dests_r), _ints(dests_c), _ints(ids)):
            index = row * cols + col
            occupancy[index] = True
            cage_ids[index] = cage_id
            site_r[cage_id] = row
            site_c[cage_id] = col
