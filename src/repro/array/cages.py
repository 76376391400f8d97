"""DEP cage management on the electrode grid.

A *cage* is the field minimum above a counter-phase electrode; the chip
holds one particle per cage and moves particles by stepping the
counter-phase site to a neighbouring electrode ("changing the pattern of
voltages, the DEP cages can be shifted, thus dragging along the trapped
particles").

:class:`CageManager` owns the set of live cages, enforces the spacing
rule that keeps neighbouring cages from merging accidentally, performs
atomic parallel steps, and emits the corresponding
:class:`~repro.array.patterns.ArrayFrame` sequence for the addressing
and physics layers.

Since the vectorization refactor the geometry bookkeeping lives in a
:class:`~repro.array.state.ArrayState` (numpy occupancy + cage-id
grids): a frame step validates only the movers' dirty neighbourhoods
with gather-indexed array ops, so stepping K cages out of the paper's
tens of thousands costs O(K), not O(population).

A whole multi-frame plan executes through :meth:`CageManager.run_plan`:
one vectorised pass runs every frame's checks, commits the valid frames
in one update and reports each frame's dirty rows (the rows the
addressing layer rewrites) without building any
:class:`~repro.array.patterns.ArrayFrame`.  :meth:`CageManager.step`
and :meth:`CageManager.step_arrays` remain the one-frame entry points
and the reference the plan executor must match.

That pass is the one vectorised check: :meth:`CageManager.step` runs a
frame of more than 8 movers through it as a one-frame plan.  It only
decides whether a frame is legal.  A frame it rejects is re-run through
the scalar step, the one place that builds a step's :class:`CageError`,
so a failing frame reports the same error whatever its size and
whichever entry point ran it.

The original dict implementation survives as
:class:`~repro.array.legacy.LegacyCageManager` for the equivalence
suite and the before/after benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .grid import ElectrodeGrid
from .patterns import ArrayFrame
from .state import NO_CAGE, ArrayState, separation_offsets


#: Plans of at most this many single-cage moves run frame by frame
#: through :meth:`CageManager.step`: for a couple of cages over a few
#: frames the whole-plan pass's fixed numpy cost exceeds the per-frame
#: scalar steps it replaces.
SMALL_PLAN_MOVES = 24

#: Scratch bounds of one chunk of the whole-plan pass: the padded uint8
#: cage-count canvas (one plane per frame, at least two planes) and the
#: dense (cages, frames) site arrays.  Long plans on large arrays run
#: in several chunks.
CHUNK_CANVAS_BYTES = 1 << 20
CHUNK_CAGE_FRAMES = 1 << 15


def _either(flags):
    """``flags.any(axis=-1)`` for a contiguous bool (..., 2) array, read
    as one uint16 per pair: numpy reduces a length-2 axis slowly."""
    return flags.view(np.uint16)[..., 0] != 0


@lru_cache(maxsize=None)
def _window_offsets(radius, width):
    """Flat offsets of a Chebyshev-``radius`` window, centre included,
    on a canvas rows ``width`` wide."""
    return np.array(
        [dr * width + dc
         for dr in range(-radius, radius + 1)
         for dc in range(-radius, radius + 1)],
        dtype=np.int64,
    )


class PlanRun(list):
    """What :meth:`CageManager.run_plan` returns: each frame's dirty row
    count, as a list, with what the same pass read off the plan's steps
    -- ``moves``, the number of single-cage steps, and per frame
    ``active`` (whether any cage steps) and ``diagonal`` (whether any
    cage steps diagonally), lists of bools."""

    __slots__ = ("moves", "active", "diagonal")


class CageError(Exception):
    """Violation of cage placement or motion rules."""


class DeadElectrodeError(CageError):
    """A cage centre was requested on a dead (fault-model) electrode."""


class Cage:
    """One DEP cage: an identity plus a grid site and optional payload.

    When created by the vectorized :class:`CageManager`, ``site`` is a
    live view into the manager's :class:`~repro.array.state.ArrayState`
    id-indexed site table, so batch steps never need a per-cage Python
    update pass.  Standalone construction (and the legacy manager)
    stores the site on the instance and assignment works as before.
    """

    __slots__ = ("cage_id", "payload", "_site", "_state")

    def __init__(self, cage_id, site, payload=None, state=None):
        self.cage_id = cage_id
        self.payload = payload
        self._state = state
        self._site = tuple(site) if state is None else None

    @property
    def site(self) -> tuple:
        """(row, col) of the cage centre."""
        if self._state is not None:
            return self._state.site_of(self.cage_id)
        return self._site

    @site.setter
    def site(self, value):
        if self._state is not None:
            raise AttributeError(
                "cage sites are owned by the ArrayState; move cages "
                "through CageManager.step"
            )
        self._site = tuple(value)

    @property
    def occupied(self) -> bool:
        return self.payload is not None

    def __repr__(self):
        return f"Cage(cage_id={self.cage_id}, site={self.site}, payload={self.payload!r})"


@dataclass
class CageManager:
    """The live set of cages on one array.

    Parameters
    ----------
    grid:
        Array geometry.
    min_separation:
        Minimum Chebyshev distance between any two cage centres.  With
        the counter-phase encoding, separation 2 guarantees each cage
        keeps its own ring of in-phase electrodes, so cages never share
        a wall and payloads cannot hop cages.  Separation 2 on a 320x320
        array allows 160 x 160 = 25,600 simultaneous cages -- the
        paper's "tens of thousands of DEP cages".
    """

    grid: ElectrodeGrid
    min_separation: int = 2
    _cages: dict = field(default_factory=dict)
    _next_id: int = 0

    def __post_init__(self):
        if self.min_separation < 1:
            raise CageError("min_separation must be >= 1")
        self._state = ArrayState(self.grid)

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return len(self._cages)

    @property
    def state(self) -> ArrayState:
        """The numpy occupancy/cage-id grids (single source of truth)."""
        return self._state

    @property
    def cages(self):
        """List of live cages (stable id order)."""
        return [self._cages[cid] for cid in sorted(self._cages)]

    def cage(self, cage_id) -> Cage:
        """Look up a cage by id."""
        try:
            return self._cages[cage_id]
        except KeyError:
            raise CageError(f"no cage with id {cage_id}") from None

    def cage_at(self, site):
        """The cage occupying ``site``, or None."""
        site = tuple(site)
        if not self.grid.in_bounds(*site):
            return None
        cage_id = self._state.id_at(site)
        return self._cages[cage_id] if cage_id is not None else None

    def sites(self):
        """Sorted list of occupied sites (row-major grid order)."""
        return self._state.sites()

    def max_cage_count(self) -> int:
        """Capacity of the array under the separation rule."""
        step = self.min_separation
        return ((self.grid.rows + step - 1) // step) * (
            (self.grid.cols + step - 1) // step
        )

    def _conflicts(self, site, ignore_id=None):
        """Cage ids violating separation against a (proposed) site.

        Separation is a local property, so only the (2s-1)^2 site
        neighbourhood needs checking -- one clipped window gather on the
        cage-id grid, keeping creation O(1) per cage even with the
        paper's tens of thousands of cages live.
        """
        return self._state.ids_in_window(
            site, self.min_separation - 1, ignore_id=ignore_id
        )

    # -- mutations -------------------------------------------------------

    def set_dead_mask(self, mask):
        """Install the fault model's dead-electrode mask (see
        :meth:`~repro.array.state.ArrayState.set_dead_mask`)."""
        self._state.set_dead_mask(mask)

    def clear(self):
        """Drop every cage and the dead mask and restart cage ids at 0:
        the just-built manager, its grids cleared in place (see
        :meth:`ArrayState.clear <repro.array.state.ArrayState.clear>`).
        A cage still live keeps its last site, as if released."""
        for cage in self._cages.values():
            cage._site = cage.site
            cage._state = None
        self._cages = {}
        self._next_id = 0
        self._state.clear()

    def create(self, site, payload=None) -> Cage:
        """Create a cage at ``site``; raises on bounds/spacing violation."""
        site = tuple(site)
        if not self.grid.in_bounds(*site):
            raise CageError(f"cage site {site} out of bounds")
        state = self._state
        if state.has_dead and state._dead_flat[site[0] * self.grid.cols + site[1]]:
            raise DeadElectrodeError(
                f"cage site {site} is a dead electrode"
            )
        if state.window_occupied(site, self.min_separation - 1):
            raise CageError(f"cage at {site} violates min separation {self.min_separation}")
        cage = Cage(self._next_id, site, payload, state=state)
        state.add(cage.cage_id, site)
        self._cages[cage.cage_id] = cage
        self._next_id += 1
        return cage

    def release(self, cage_id):
        """Remove a cage (dropping its payload back to the chamber)."""
        cage = self.cage(cage_id)
        site = cage.site
        # Detach the cage from the state before the site entry dies, so
        # callers holding the returned object can still read its last
        # position.
        cage._state = None
        cage._site = site
        self._state.remove(site)
        del self._cages[cage_id]
        return cage

    def step(self, moves):
        """Atomically move several cages by one electrode each.

        Parameters
        ----------
        moves:
            Mapping of cage_id -> (drow, dcol) with each component in
            {-1, 0, +1}.  All moves are validated against the *post*
            state: the step is applied only if every destination is in
            bounds and the separation rule holds afterwards, otherwise
            ``CageError`` is raised and nothing changes.

        One call corresponds to one array-frame update: this is the
        granularity at which the addressing layer reprograms rows and
        the physics layer drags particles.  Up to 8 movers are checked
        and committed by the scalar step; larger frames run as a
        one-frame plan through :meth:`run_plan`'s vectorised pass, whose
        checks follow the movers only (only pairs involving a mover can
        newly collide, swap, or violate separation).  The pass only
        decides legality: a frame it rejects is re-run through the
        scalar step, which raises the error, so every frame size
        reports the same error.
        """
        k = len(moves)
        if k <= 8:
            # For a handful of movers (single-cage routing steps, small
            # protocols) the numpy conversion and gather setup costs
            # more than it saves.
            return self._step_scalar(moves)
        ids = np.fromiter(moves.keys(), dtype=np.int64, count=k)
        # Flattened scalar fromiter is ~3x faster than the (int64, 2)
        # record dtype for the dict -> array conversion, which dominates
        # whole-array steps.
        deltas = np.fromiter(
            chain.from_iterable(moves.values()), dtype=np.int64, count=2 * k
        ).reshape(k, 1, 2)
        # The pass checks movers only, but a wait still fails on an
        # unknown cage or on a cage sitting on a dead electrode; the
        # scalar step, given every entry, names the first offender.
        state = self._state
        if (state.alive_mask(ids).all()
                and not (state.has_dead and state.dead[state.sites_of(ids)].any())
                and self._run_frames(ids, deltas, _either(deltas != 0))):
            return
        self._step_scalar(moves)

    def step_arrays(self, ids, deltas):
        """Array-native :meth:`step`: movers as ``(ids, deltas)`` arrays.

        One frame of an array-backed routing plan
        (:meth:`BatchPlan.moves_arrays_at
        <repro.routing.multi.BatchPlan.moves_arrays_at>` emits exactly
        this shape): ``ids`` int (movers,), ``deltas`` int (movers, 2);
        whole plans execute through :meth:`run_plan`.
        ``ids`` must be unique -- plans guarantee it, and the dict form
        of :meth:`step` cannot even express a duplicate.  The frame runs
        through :meth:`step`: the same validation, errors and atomicity.
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1).tolist()
        deltas = np.asarray(deltas, dtype=np.int64).reshape(-1, 2).tolist()
        self.step({cage_id: tuple(delta) for cage_id, delta in zip(ids, deltas)})

    def run_plan(self, ids, deltas):
        """Execute a multi-frame plan; returns each frame's dirty rows.

        Parameters
        ----------
        ids:
            Unique cage ids, int (cages,).
        deltas:
            int (cages, frames, 2): frame ``t`` steps cage ``ids[i]`` by
            ``deltas[i, t]``, a zero delta being a wait -- the shape of
            :attr:`BatchPlan.deltas
            <repro.routing.multi.BatchPlan.deltas>`.

        Frame ``t`` is exactly :meth:`step_arrays` over that frame's
        non-waiting cages (frames without movers are skipped): the same
        checks, errors and atomicity.  When a frame fails, the frames
        before it stay committed and the failing frame's error
        propagates, so the state is the one a per-frame loop leaves.

        Returns a :class:`PlanRun`: one int per frame, how many array
        rows change phase, i.e. ``len(new_frame.dirty_rows(old_frame))``
        -- the rows an incremental reprogram rewrites -- without building
        any frame, plus the plan's move count and which frames move a
        cage (diagonally), read in the same pass over ``deltas``.

        One vectorised pass checks a chunk of frames at a time against
        every cage, plan and non-plan, and commits the valid frames in
        one update; a flagged frame is re-run through the scalar step
        (the one source of step errors, for every entry point), which
        raises its exact error.  Plans of at most
        :data:`SMALL_PLAN_MOVES` moves run frame by frame through
        :meth:`step` directly.

        Cost: the pass reads ``deltas`` a constant number of times and
        otherwise works per move -- the checks, the window gathers and
        the dirty rows all follow the movers' sites.  Once per call it
        builds two padded planes of the array (the sites no mover may
        take and, when some live cage is outside the plan, their
        occupancy), and once per chunk it zeroes a cage-count canvas of
        one plane per frame, into which only the plan's cages are
        written.
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if deltas.ndim != 3 or deltas.shape[0] != ids.size or deltas.shape[2] != 2:
            raise ValueError(
                f"deltas must be (cages, frames, 2) for {ids.size} cages, "
                f"got {deltas.shape}"
            )
        # One read of the steps: each (drow, dcol) pair as one uint16,
        # non-zero for a move and 0x0101 for a diagonal one.
        pairs = (deltas != 0).view(np.uint16)[..., 0]
        moving = pairs != 0
        run = PlanRun()
        run.moves = int(np.count_nonzero(moving))
        run.active = moving.any(axis=0).tolist()
        run.diagonal = (pairs == 0x0101).any(axis=0).tolist()
        frames = deltas.shape[1]
        if run.moves <= SMALL_PLAN_MOVES:
            by_frame = [{} for __ in range(frames)]
            frame, cage = np.nonzero(moving.T)
            for t, cage_id, step in zip(
                frame.tolist(), ids[cage].tolist(),
                deltas[cage, frame].tolist(),
            ):
                by_frame[t][cage_id] = step
            run.extend(self._step_dirty(moves, self.step) for moves in by_frame)
            return run
        start = 0
        while start < frames:
            counts = self._run_frames(
                ids, deltas[:, start:], moving[:, start:])
            run.extend(counts)
            start += len(counts)
            if start < frames:
                # The pass flagged this frame: the scalar step raises
                # its error, with every frame before it committed.
                mask = moving[:, start]
                run.append(self._step_dirty(dict(zip(
                    ids[mask].tolist(), deltas[mask, start].tolist()
                )), self._step_scalar))
                start += 1
        return run

    def _step_dirty(self, moves, step):
        """Commit one frame through ``step`` (:meth:`step`, or
        :meth:`_step_scalar` for a frame the pass flagged); returns its
        dirty row count."""
        if not moves:
            return 0
        step(moves)
        site_r, site_c = self._state._site_r_flat, self._state._site_c_flat
        dests = set()
        origins = set()
        for cage_id, (drow, dcol) in moves.items():
            row, col = site_r[cage_id], site_c[cage_id]
            dests.add((row, col))
            origins.add((row - drow, col - dcol))
        return len({row for row, __ in dests ^ origins})

    def _run_frames(self, ids, deltas, moving):
        """The vectorised pass: check a plan's frames and commit them up
        to the first one that fails.  Returns the dirty row counts of
        the frames committed.

        ``ids``, ``deltas`` and ``moving`` are :meth:`run_plan`'s cage
        ids, steps and non-wait mask.  Only movers are checked: a wait
        is neither looked up nor checked against the dead mask.
        """
        frames = deltas.shape[1]
        state = self._state
        rows, cols = self.grid.rows, self.grid.cols
        # Sites are flat indices on a canvas padded by the separation
        # window and by at least one ring: a one-electrode step off the
        # array lands on the ring instead of wrapping to the next row.
        pad = max(self.min_separation - 1, 1)
        width = cols + 2 * pad
        failing = np.zeros(frames, dtype=bool)
        # A frame that moves an unknown cage or steps further than one
        # electrode fails whatever the geometry; one reduction each
        # tells whether any frame does.
        if deltas.min() < -1 or deltas.max() > 1:
            failing |= _either(np.abs(deltas) > 1).any(axis=0)
        alive = state.alive_mask(ids)
        live, live_deltas, live_moving = ids, deltas, moving
        if not alive.all():
            failing |= (moving & ~alive[:, None]).any(axis=0)
            live = ids[alive]
            live_deltas, live_moving = deltas[alive], moving[alive]
        # No mover may end on the ring or on a dead electrode.
        forbidden = np.ones((rows + 2 * pad, width), dtype=bool)
        forbidden[pad : pad + rows, pad : pad + cols] = state.dead
        plane = forbidden.size
        # Cages outside the plan hold still: one padded occupancy plane,
        # with a window's reach of flat margin either side so a window
        # around any site of the plane stays on it.
        static = None
        if live.size < len(self._cages):
            reach = (self.min_separation - 1) * (width + 1)
            static = np.zeros(plane + 2 * reach, dtype=np.uint8)
            inner = static[reach : reach + plane].reshape(-1, width)
            inner[pad : pad + rows, pad : pad + cols] = state.occupancy
            live_r, live_c = state.sites_of(live)
            inner[live_r + pad, live_c + pad] = 0
        steps = live_deltas[..., 0] * width + live_deltas[..., 1]
        chunk = max(1, min(CHUNK_CANVAS_BYTES // plane - 1,
                           CHUNK_CAGE_FRAMES // max(1, live.size)))
        counts = []
        while len(counts) < frames:
            start = len(counts)
            stop = min(frames, start + chunk)
            counts += self._run_chunk(
                live, steps[:, start:stop], live_moving[:, start:stop],
                failing[start:stop], forbidden, static, pad,
            )
            if len(counts) < stop:
                break
        return counts

    def _run_chunk(self, ids, steps, moving, failing, forbidden, static, pad):
        """Check a chunk of plan frames against the current state and
        commit its valid prefix.

        ``ids`` are the plan's live cages, ``steps`` their flat
        per-frame steps and ``moving`` their non-wait mask, both
        (cages, frames); ``failing`` flags the frames already known to
        fail, ``forbidden`` the padded plane of sites no mover may take
        and ``static`` the padded occupancy of the cages outside the
        plan, flat, with a window's reach of margin either side (or
        None).  Returns the dirty row counts of the frames committed,
        which stop before the first frame that fails.

        Only the cage-count canvas is sized by the array: it is zeroed
        once per chunk, one plane per state, and written at the plan's
        cages.  Every check and the dirty rows read it (and ``static``)
        at the movers' sites, O(moves) gathers.
        """
        state = self._state
        plane_rows, width = forbidden.shape
        plane = forbidden.size
        frames = moving.shape[1]
        start_r, start_c = state.sites_of(ids)
        start = (start_r + pad) * width + (start_c + pad)
        # Sites after each frame.  Sites past a failing frame mean
        # nothing; clipping only keeps them on the plane.
        sites = np.cumsum(steps, axis=1)
        sites += start[:, None]
        np.maximum(sites, 0, out=sites)
        np.minimum(sites, plane - 1, out=sites)
        failing = failing | (forbidden.reshape(-1)[sites] & moving).any(axis=0)
        # The plan's cages per site, one plane per state: plane 0 before
        # the chunk (the cages' distinct current sites), plane t + 1
        # after frame t, and a tail so a window around any site of the
        # last plane stays on the canvas.
        radius = self.min_separation - 1
        reach = radius * (width + 1)
        canvas = np.zeros((frames + 1) * plane + reach, np.uint8)
        post = sites + np.arange(plane, (frames + 1) * plane, plane)
        canvas[start] = 1
        # (a numpy uint8 increment: add.at casts a Python int slowly)
        np.add.at(canvas, post, np.uint8(1))
        # The moves, cage-major (``flat % frames`` is a move's frame):
        # each one's flat step, its site on the plane and on the canvas.
        flat = np.flatnonzero(moving)
        step = steps.reshape(-1)[flat]
        to = sites.reshape(-1)[flat]
        dest = post.reshape(-1)[flat]
        # Every mover's window after its frame must hold exactly one
        # cage, itself: this catches two movers claiming one site, a
        # mover landing on a cage that stays, and any separation
        # violation against the post-frame state of every cage.  The
        # windows are gathered as (offsets, moves), so the sum runs
        # down whole rows.
        offsets = _window_offsets(radius, width)[:, None]
        window = canvas[dest + offsets]
        if static is not None:
            window += static[to + (offsets + reach)]
        failing[flat[window.sum(axis=0) != 1] % frames] = True
        if radius == 0:
            # At separation 1 a swap leaves a legal post-state, but the
            # two cages pass through each other mid-frame.  Two movers
            # sharing an unordered (origin, destination) pair in one
            # frame are exactly a swap.
            frame = flat % frames
            origin = to - step
            edges = np.sort(
                (frame * plane + np.minimum(origin, to)) * plane
                + np.maximum(origin, to)
            )
            failing[edges[1:][edges[1:] == edges[:-1]] // (plane * plane)] = True
        good = int(np.argmax(failing)) if failing.any() else frames
        if good == 0:
            return []
        # A frame's dirty rows are the rows whose occupancy it changes,
        # and only a mover's origin or destination can change: compare
        # both cells' counts before the frame (plane t, ``cells``) with
        # after it.  Cages outside the plan never change, so the canvas
        # alone decides.  ``cell // width`` is t * plane_rows + row.
        if good < frames:
            keep = flat % frames < good
            dest, step = dest[keep], step[keep]
        dest = dest - plane
        cells = np.concatenate((dest, dest - step))
        changed = cells[canvas[cells] != canvas[plane:][cells]]
        dirty_rows = np.zeros(good * plane_rows, dtype=bool)
        dirty_rows[changed // width] = True
        counts = dirty_rows.reshape(good, plane_rows).sum(axis=1)
        end = sites[:, good - 1]
        moved = end != start
        end_r, end_c = np.divmod(end[moved], width)
        state.move_cages(
            start_r[moved], start_c[moved], end_r - pad, end_c - pad, ids[moved]
        )
        return counts.tolist()

    def _step_scalar(self, moves):
        """Scalar step: the small-frame path and the one source of step
        errors (the vectorized check re-runs a frame it rejects here).

        Grid reads go through the state's flat views (see
        :mod:`repro.array.state`), since a one-mover step only touches a
        couple of dozen sites.
        """
        state = self._state
        rows, cols = self.grid.rows, self.grid.cols
        site_r = state._site_r_flat
        site_c = state._site_c_flat
        cage_grid = state._cage_ids_flat
        dead = state._dead_flat if state.has_dead else None
        capacity = len(site_r)
        origins = {}
        dests = {}
        for cage_id, (drow, dcol) in moves.items():
            if abs(drow) > 1 or abs(dcol) > 1:
                raise CageError(f"cage {cage_id}: step larger than one electrode")
            orig_row = site_r[cage_id] if 0 <= cage_id < capacity else -1
            if orig_row < 0:
                raise CageError(f"no cage with id {cage_id}")
            orig_col = site_c[cage_id]
            dest = (orig_row + drow, orig_col + dcol)
            if not (0 <= dest[0] < rows and 0 <= dest[1] < cols):
                raise CageError(f"cage {cage_id}: destination {dest} out of bounds")
            if dead is not None and dead[dest[0] * cols + dest[1]]:
                raise DeadElectrodeError(
                    f"cage {cage_id}: destination {dest} is a dead electrode"
                )
            origins[cage_id] = (orig_row, orig_col)
            dests[cage_id] = dest
        claimed = {}
        for cage_id, dest in dests.items():
            first = claimed.get(dest)
            if first is not None:
                raise CageError(
                    f"cages {first} and {cage_id} collide at {dest}"
                )
            claimed[dest] = cage_id
        for cage_id, dest in dests.items():
            occupant = cage_grid[dest[0] * cols + dest[1]]
            if occupant == NO_CAGE or occupant == cage_id:
                continue
            if occupant not in dests:
                raise CageError(
                    f"cages {occupant} and {cage_id} collide at {dest}"
                )
            if dests[occupant] == origins[cage_id]:
                raise CageError(
                    f"cages {cage_id} and {occupant} swap sites {dest}"
                )
        for cage_id, dest in dests.items():
            for drow, dcol in separation_offsets(self.min_separation):
                row, col = dest[0] + drow, dest[1] + dcol
                if not (0 <= row < rows and 0 <= col < cols):
                    continue
                other = claimed.get((row, col))
                if other is None:
                    occupant = cage_grid[row * cols + col]
                    if occupant != NO_CAGE and occupant not in dests:
                        other = occupant
                if other is not None and other != cage_id:
                    raise CageError(
                        f"separation violated between cages {cage_id} "
                        f"and {other} at {dest}"
                    )
        if dests:
            # move_cages clears every origin first, so chains move
            # correctly
            origin_r, origin_c = zip(*origins.values())
            dest_r, dest_c = zip(*dests.values())
            state.move_cages(origin_r, origin_c, dest_r, dest_c, list(dests))

    def merge(self, cage_id_a, cage_id_b):
        """Merge cage b into cage a (they must be adjacent within 2*sep).

        Models the droplet/cell-pairing operation: cage b is released
        and its payload is attached to cage a as a list payload.
        """
        cage_a = self.cage(cage_id_a)
        cage_b = self.cage(cage_id_b)
        distance = max(
            abs(cage_a.site[0] - cage_b.site[0]), abs(cage_a.site[1] - cage_b.site[1])
        )
        if distance > 2 * self.min_separation:
            raise CageError("cages too far apart to merge")
        payloads = []
        for payload in (cage_a.payload, cage_b.payload):
            if payload is None:
                continue
            if isinstance(payload, list):
                payloads.extend(payload)
            else:
                payloads.append(payload)
        self.release(cage_id_b)
        cage_a.payload = payloads if payloads else None
        return cage_a

    # -- frame generation --------------------------------------------------

    def frame(self) -> ArrayFrame:
        """The :class:`ArrayFrame` realising the current cage set.

        Emitted straight from the occupancy grid (two whole-array numpy
        ops) instead of looping over sorted cage sites.
        """
        return ArrayFrame(self.grid, self._state.frame_phases())


def tile_cages(manager, spacing=None, payloads=None):
    """Fill the array with a regular lattice of cages.

    Places cages every ``spacing`` electrodes (default: the manager's
    min separation) starting at (0, 0); optionally attaches payloads in
    order.  Returns the created cages.  This is how the platform loads
    "tens of thousands" of cages at startup.
    """
    spacing = spacing if spacing is not None else manager.min_separation
    if spacing < manager.min_separation:
        raise CageError("tile spacing below the separation rule")
    created = []
    payload_iter = iter(payloads) if payloads is not None else None
    for row in range(0, manager.grid.rows, spacing):
        for col in range(0, manager.grid.cols, spacing):
            payload = None
            if payload_iter is not None:
                try:
                    payload = next(payload_iter)
                except StopIteration:
                    payload_iter = None
            created.append(manager.create((row, col), payload))
    return created
