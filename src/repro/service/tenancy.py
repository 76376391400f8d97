"""Spatial multi-tenancy: leased chip windows and cross-job frame merging.

The paper's device is one active array where a single frame reprogram
actuates *every* cage simultaneously -- yet exclusive serving grants each
job the whole chip, idling ~99.9% of the pixels for a protocol that
touches 30 cages.  This module provides the primitives the
multi-tenant mode is built from:

* :class:`RegionLeaseAllocator` -- first-fit, guard-banded
  :class:`RegionLease` windows of one chip;
* :func:`protocol_footprint` -- the static bounding box of every site a
  protocol addresses, so the scheduler knows how small a window the job
  can live in.  Both are deterministic: the footprint is a function of
  the command types and site payloads the protocol's fingerprint
  hashes, and a lease group (an empty allocator that never releases)
  gives the next request a lease fixed by the sizes placed before it.
  So the serving tiers size groups through
  :class:`~repro.service.core.LeaseWindows`, which memoises the one by
  fingerprint and the other by that size sequence, and run these two
  only on a memo miss;
* :class:`LeasedBackend` -- a coordinate-translating tenant view of a
  chip: the job is compiled and executed in its own protocol
  coordinates, the view shifts every site into the leased window before
  it reaches the chip.  Because run events record *command* fields (the
  protocol's own coordinates), a leased run's event stream is
  bit-identical to the same job run exclusively on a pristine chip.
  Its chip time is identical only on a ``DryRunBackend``: on a
  ``SimulatorBackend`` the region-clipped planner takes diagonal hops,
  so a 3-cage straight band on a 48x48 chip takes 19.16 s leased
  against 18.50 s exclusive (``move_many`` 2.66 s against 2.00 s for
  the same 5 frames).  Every view starts in the state of a fresh
  spawn of the chip template: the service keeps one view per chip
  and resets it in place before each tenant (see
  :meth:`Biochip.reset <repro.core.platform.Biochip.reset>`).  A
  simulated view plans through the template's lease-relative plan
  memo (see :meth:`Biochip.move_many
  <repro.core.platform.Biochip.move_many>`), so co-tenants and later
  tenants with the same lease size, the same dead pixels inside it and
  the same batch reuse one plan wherever their windows lie.  The view
  is a :class:`~repro.core.backend.BackendWrapper` that overrides only
  the three site-addressing operations.

The frame-merge cost model lives here too.  Each tenant's accounted
time t_i splits into electronics time p_i (row/column reprogram work,
serialized on the one frame bus) and dwell time (cages physically in
flight, sedimentation, sensing integration -- all concurrent across
disjoint regions).  Co-resident tenants therefore cost the chip

    T_group = max_i(t_i - p_i) + sum_i p_i

charged once and split across tenants, and the frame-merge ratio
``sum_i f_i / max_i f_i`` reports how many per-tenant frames landed in
each merged frame (1.0 = no merging, k = perfect k-way merge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.backend import BackendWrapper
from ..core.protocol import (
    IncubateCmd,
    MergeCmd,
    MoveCmd,
    MoveManyCmd,
    ReleaseCmd,
    SenseAllCmd,
    SenseCmd,
    TrapCmd,
)

#: Command kinds that address no electrode site and never constrain the
#: footprint (sensing a held cage, merge of already-placed cages, etc.).
_SITELESS = (MergeCmd, SenseCmd, IncubateCmd, ReleaseCmd)


@dataclass(frozen=True)
class Footprint:
    """Bounding box of the sites a protocol addresses, in its own
    (protocol) coordinates."""

    row0: int
    col0: int
    rows: int
    cols: int


def protocol_footprint(protocol):
    """The static site bounding box of ``protocol``, or None.

    None means the protocol is not leaseable: it addresses the whole
    array (``SenseAllCmd``), contains a command kind this analysis does
    not know, or traps/moves nothing at all.  The scheduler falls back
    to exclusive dispatch for such jobs.
    """
    sites = []
    for cmd in protocol.commands:
        if isinstance(cmd, TrapCmd):
            sites.append(cmd.site)
        elif isinstance(cmd, MoveCmd):
            sites.append(cmd.goal)
        elif isinstance(cmd, MoveManyCmd):
            sites.extend(goal for __, goal in cmd.moves)
        elif isinstance(cmd, SenseAllCmd):
            return None  # reads the whole array: needs the whole chip
        elif not isinstance(cmd, _SITELESS):
            return None  # unknown command kind: assume whole-chip
    if not sites:
        return None
    rows = [site[0] for site in sites]
    cols = [site[1] for site in sites]
    return Footprint(
        row0=min(rows),
        col0=min(cols),
        rows=max(rows) - min(rows) + 1,
        cols=max(cols) - min(cols) + 1,
    )


def routing_separation(backend) -> int:
    """The routing separation a backend enforces (guard-band width)."""
    return int(backend.min_separation)


def merged_group_time(durations, program_times) -> float:
    """Chip seconds of one frame-merged tenant group.

    ``durations[i]`` is tenant i's full accounted time t_i on its leased
    view; ``program_times[i]`` its metered electronics time p_i.  Dwell
    (t_i - p_i) overlaps across disjoint regions, electronics serializes
    on the frame bus:  T = max_i(t_i - p_i) + sum_i p_i.
    """
    if not durations:
        return 0.0
    dwell = max(
        max(0.0, t - p) for t, p in zip(durations, program_times)
    )
    return dwell + sum(program_times)


def frame_merge_ratio(frames) -> float:
    """Per-tenant frames over merged frames: sum_i f_i / max_i f_i.

    1.0 when nothing merged (single tenant, or no movement at all);
    k for a perfect k-way merge of identical tenants.
    """
    peak = max(frames, default=0)
    return sum(frames) / peak if peak else 1.0


class LeasedBackend(BackendWrapper):
    """A tenant's coordinate-translating view of a leased chip window.

    Wraps an inner backend whose region mask is already clipped to the
    lease and shifts every addressed site by ``offset`` (lease interior
    origin minus the protocol footprint origin), so the tenant executes
    in its own coordinates and the events it records are identical to
    an exclusive-mode run.  Along the way it meters the two inputs of
    the frame-merge cost model: ``program_time`` (electronics seconds
    spent reprogramming frames) and ``frames`` (frame count of the
    tenant's movement steps).  Everything else -- state, merges,
    sensing, incubation, releases, the region itself -- is forwarded
    untranslated by :class:`~repro.core.backend.BackendWrapper`.

    The view holds only its own tenant's cages.  That, and the region
    mask confining every plan to the window, is what lets simulated
    views of one template share their batch plans keyed relative to
    the lease origin.
    """

    def __init__(self, inner, offset=(0, 0)):
        super().__init__(inner)
        self.offset = (int(offset[0]), int(offset[1]))
        # the inner chip's timing model, not one more built per view
        self._addresser = inner.addresser
        self.program_time = 0.0
        self.frames = 0

    def _translate(self, site):
        return (site[0] + self.offset[0], site[1] + self.offset[1])

    @property
    def inner(self):
        """The wrapped backend (``backend``)."""
        return self.backend

    # -- translated + metered operations ------------------------------------

    def trap(self, site, particle=None) -> int:
        return self.backend.trap(self._translate(site), particle)

    def move(self, cage_id, goal) -> int:
        steps = self.backend.move(cage_id, self._translate(goal))
        self.frames += steps
        self.program_time += steps * 2 * self._addresser.row_write_time()
        return steps

    def move_many(self, goals) -> dict:
        report = self.backend.move_many(
            {cage_id: self._translate(goal)
             for cage_id, goal in goals.items()}
        )
        self.frames += int(report.get("frames", 0))
        self.program_time += float(report.get("program_time", 0.0))
        return report


@dataclass(frozen=True)
class RegionLease:
    """A tenant's rectangular window of one chip.

    ``origin``/``rows``/``cols`` describe the *interior* the tenant may
    address; the allocator additionally reserved a ``guard``-wide band
    around it (clipped at the array border) so two tenants' cages can
    never violate the routing separation across a lease boundary.
    """

    chip_id: int
    origin: tuple
    rows: int
    cols: int
    guard: int

    @property
    def window(self) -> tuple:
        """Interior as ``(row0, col0, row1, col1)`` (half-open)."""
        r0, c0 = self.origin
        return (r0, c0, r0 + self.rows, c0 + self.cols)


class RegionLeaseAllocator:
    """First-fit rectangle allocator for disjoint chip windows.

    Tracks a boolean used-mask of one chip; :meth:`allocate` reserves
    the first (row-major) window whose guard-band inflation touches no
    reserved pixel and returns a :class:`RegionLease`, or None when
    nothing fits.  Deterministic by construction: no randomness, the
    same allocate/release sequence always yields the same leases.

    Each attempt builds one summed-area table (Crow, SIGGRAPH 1984) of
    the used-mask, zero-padded by the guard, and reads the
    reserved-pixel count of every candidate's guard-inflated window
    from it at once as four shifted slices; the padding makes a window
    that overhangs the array border count exactly its clipped part.
    The first zero count in row-major order is the window a raster
    scan over origins would stop at, so an attempt costs a fixed
    handful of numpy calls whatever the chip size (and one pass over
    the live leases for their extent).  The table covers
    only the origins that scan could reach: any origin right of or
    below every live window is free, so on a sparse chip (a lease
    group holds a few leases) it spans a strip of the first rows, and
    only a crowded chip reads the whole used-mask.
    """

    def __init__(self, rows, cols, guard=2, chip_id=0):
        if rows < 1 or cols < 1:
            raise ValueError(f"array must be >= 1x1, got {rows}x{cols}")
        if guard < 0:
            raise ValueError(f"guard must be >= 0, got {guard}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.guard = int(guard)
        self.chip_id = chip_id
        self._used = np.zeros((self.rows, self.cols), dtype=bool)
        self._live: dict = {}  # lease -> inflated (r0, c0, r1, c1)

    def _inflated(self, r0, c0, rows, cols) -> tuple:
        g = self.guard
        return (
            max(0, r0 - g),
            max(0, c0 - g),
            min(self.rows, r0 + rows + g),
            min(self.cols, c0 + cols + g),
        )

    def allocate(self, rows, cols) -> RegionLease | None:
        """The first free ``rows x cols`` window, guard-band inflated;
        None when no such window exists."""
        if rows < 1 or cols < 1:
            raise ValueError(f"window must be >= 1x1, got {rows}x{cols}")
        if rows > self.rows or cols > self.cols:
            return None
        # The live windows end by row ur and column uc, so any origin at
        # column >= uc + g or row >= ur + g is free: the scan stops by
        # origin (0, uc + g) when it fits, else by (ur + g, 0), and only
        # the origins up to there are read.
        g = self.guard
        ur = max((window[2] for window in self._live.values()), default=0)
        uc = max((window[3] for window in self._live.values()), default=0)
        c_hi = min(self.cols - cols, uc + g)
        r_hi = 0 if c_hi == uc + g else min(self.rows - rows, ur + g)
        # Zero-padding the used-mask by the guard makes every inflated
        # window full-size, and its sum equals the clipped window's.
        h, w = rows + 2 * g, cols + 2 * g
        nr = min(self.rows, r_hi + rows + g)
        nc = min(self.cols, c_hi + cols + g)
        table = np.zeros((r_hi + h + 1, c_hi + w + 1), dtype=np.int32)
        table[g + 1:g + 1 + nr, g + 1:g + 1 + nc] = self._used[:nr, :nc]
        table.cumsum(axis=0, out=table)
        table.cumsum(axis=1, out=table)
        sums = table[h:, w:] - table[:-h, w:] - table[h:, :-w] + table[:-h, :-w]
        free = sums == 0
        first = int(free.argmax())
        if not free.flat[first]:
            return None
        r0, c0 = divmod(first, free.shape[1])
        a, b, c, d = self._inflated(r0, c0, rows, cols)
        self._used[a:c, b:d] = True
        lease = RegionLease(
            chip_id=self.chip_id, origin=(r0, c0),
            rows=rows, cols=cols, guard=self.guard,
        )
        self._live[lease] = (a, b, c, d)
        return lease

    def release(self, lease: RegionLease):
        """Return ``lease``'s window (guard band included) to the pool."""
        try:
            a, b, c, d = self._live.pop(lease)
        except KeyError:
            raise ValueError(
                f"lease {lease} is not live on chip {self.chip_id}"
            ) from None
        self._used[a:c, b:d] = False

    @property
    def live_leases(self) -> list:
        return list(self._live)

    @property
    def free_cells(self) -> int:
        """Unreserved pixels (guard bands count as reserved)."""
        return int((~self._used).sum())
