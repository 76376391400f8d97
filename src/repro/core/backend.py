"""Execution backends: pluggable targets the session runner drives.

The command specs in :mod:`repro.core.registry` execute against the
small :class:`Backend` interface instead of a concrete chip, so the same
compiled protocol can run on different targets:

* :class:`SimulatorBackend` -- the full physical simulation, wrapping
  :class:`~repro.core.platform.Biochip` (routing, DEP physics, noisy
  readout chain);
* :class:`DryRunBackend` -- geometry and time accounting only, for
  planning-scale sweeps where thousands of protocol variants must be
  costed without paying for field solves or sensor noise.

Third-party backends (hardware drivers, distributed simulators)
implement the same interface.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from ..array.addressing import RowColumnAddresser
from ..array.grid import ElectrodeGrid, paper_grid
from ..scheduling.taskgraph import DurationModel
from .errors import ExecutionError
from .platform import Biochip, SenseResult


class Backend:
    """Execution target interface.

    Implementations expose ``grid`` (array geometry) and ``elapsed``
    (accounted chip time [s]) plus the operation methods below.  Cage
    identity is an opaque integer id returned by :meth:`trap`.
    """

    def trap(self, site, particle=None) -> int:
        """Create a cage at ``site``; returns its cage id."""
        raise NotImplementedError

    def move(self, cage_id, goal) -> int:
        """Route one cage to ``goal``; returns the number of steps."""
        raise NotImplementedError

    def move_many(self, goals) -> dict:
        """Route a group concurrently (cage_id -> goal); returns a
        report dict with at least ``frames`` and ``moves``."""
        raise NotImplementedError

    def merge(self, keep_id, absorb_id):
        """Fuse cage ``absorb_id`` into ``keep_id``."""
        raise NotImplementedError

    def sense(self, cage_id, n_samples=1000) -> SenseResult:
        """Read one cage's sensor with N-sample averaging."""
        raise NotImplementedError

    def sense_all(self, n_samples=1000):
        """Read every live cage; returns [(cage_id, SenseResult), ...]."""
        raise NotImplementedError

    def incubate(self, seconds):
        """Advance time with cages held static."""
        raise NotImplementedError

    def release(self, cage_id):
        """Open a cage, retiring its id."""
        raise NotImplementedError

    def spawn(self) -> "Backend":
        """A fresh backend with the same configuration and no state.

        Used by :meth:`Session.run_many` for per-run isolation.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support isolated spawning"
        )

    def set_region(self, origin=None, rows=None, cols=None):
        """Clip this backend to a rectangular lease window (spatial
        multi-tenancy); ``set_region(None)`` restores the whole array.

        Optional: backends that cannot enforce a region must leave this
        unimplemented, and the scheduler then falls back to exclusive
        dispatch.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support region leasing"
        )


@dataclass
class SimulatorBackend(Backend):
    """The full physical simulation, wrapping a :class:`Biochip`."""

    chip: Biochip = field(default_factory=Biochip.small_chip)

    @property
    def grid(self):
        return self.chip.grid

    @property
    def elapsed(self) -> float:
        return self.chip.elapsed

    @property
    def routing_totals(self) -> dict:
        """Cumulative batch-planner cost (see
        :attr:`Biochip.routing_totals`)."""
        return self.chip.routing_totals

    def trap(self, site, particle=None) -> int:
        return self.chip.trap(site, particle).cage_id

    def move(self, cage_id, goal) -> int:
        return len(self.chip.move(cage_id, goal)) - 1

    def move_many(self, goals) -> dict:
        return self.chip.move_many(goals)

    def merge(self, keep_id, absorb_id):
        return self.chip.merge(keep_id, absorb_id)

    def sense(self, cage_id, n_samples=1000) -> SenseResult:
        return self.chip.sense(cage_id, n_samples=n_samples)

    def sense_all(self, n_samples=1000):
        return self.chip.sense_all(n_samples=n_samples)

    def incubate(self, seconds):
        self.chip.incubate(seconds)

    def release(self, cage_id):
        self.chip.release(cage_id)

    def spawn(self) -> "SimulatorBackend":
        # dataclasses.replace re-runs Biochip.__post_init__, giving a
        # pristine chip (fresh cages, clock, RNG) with identical config;
        # identical config means identical cage physics, so the spawn
        # shares the template's levitation cache and solves nothing anew.
        chip = dataclasses.replace(self.chip)
        chip._levitation_cache = self.chip._levitation_cache
        return SimulatorBackend(chip)

    def set_region(self, origin=None, rows=None, cols=None):
        self.chip.set_region(origin, rows, cols)


@dataclass
class DryRunBackend(Backend):
    """Time/geometry accounting only -- no physics, no sensor noise.

    Tracks cage sites (with bounds and separation checks) and charges
    the same first-order time model as the simulator: settle times for
    trap/merge/release, octile travel time for moves, row-rewrite
    electronics per frame, and scan-rate sensing.  Readings are zeros
    and nothing is ever "detected"; what this backend is for is makespan
    and frame accounting at planning scale, where it is orders of
    magnitude faster than the simulator.
    """

    grid: ElectrodeGrid = field(default_factory=paper_grid)
    min_separation: int = 2
    cage_speed: float = 50e-6

    def __post_init__(self):
        self.addresser = RowColumnAddresser(self.grid)
        self.durations = DurationModel(
            pitch=self.grid.pitch, cage_speed=self.cage_speed
        )
        self.elapsed = 0.0
        self._history = []
        self._sites = {}  # (row, col) -> cage_id
        self._cages = {}  # cage_id -> [site, payload]
        self._next_id = 0
        self._region = None  # (r0, c0, r1, c1) lease window

    @property
    def history(self):
        """Chronological (time, kind, detail) event log."""
        return list(self._history)

    @property
    def cage_count(self) -> int:
        return len(self._cages)

    def _log(self, kind, detail, duration):
        self.elapsed += duration
        self._history.append((self.elapsed, kind, detail))

    def set_region(self, origin=None, rows=None, cols=None):
        """Clip the backend to a lease window (see
        :meth:`Biochip.set_region <repro.core.platform.Biochip.set_region>`);
        sites outside it are rejected like out-of-bounds ones."""
        if origin is None:
            self._region = None
            return
        r0, c0 = int(origin[0]), int(origin[1])
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"region must be >= 1x1, got {rows}x{cols}")
        if (r0 < 0 or c0 < 0 or r0 + rows > self.grid.rows
                or c0 + cols > self.grid.cols):
            raise ValueError(
                f"region {(r0, c0)}+{rows}x{cols} exceeds the "
                f"{self.grid.rows}x{self.grid.cols} array"
            )
        self._region = (r0, c0, r0 + rows, c0 + cols)

    def _check_region(self, site, what="cage site"):
        if self._region is None:
            return
        r0, c0, r1, c1 = self._region
        if not (r0 <= site[0] < r1 and c0 <= site[1] < c1):
            raise ExecutionError(
                f"{what} {tuple(site)} outside leased region "
                f"[{r0}:{r1}, {c0}:{c1}]"
            )

    def _check_site(self, site, ignore_id=None):
        if not self.grid.in_bounds(*site):
            raise ExecutionError(f"cage site {site} out of bounds")
        self._check_region(site)
        radius = self.min_separation - 1
        row, col = site
        for dr in range(-radius, radius + 1):
            for dc in range(-radius, radius + 1):
                other = self._sites.get((row + dr, col + dc))
                if other is not None and other != ignore_id:
                    raise ExecutionError(
                        f"site {site} violates min separation "
                        f"{self.min_separation} against cage {other}"
                    )

    def _cage(self, cage_id):
        try:
            return self._cages[cage_id]
        except KeyError:
            raise ExecutionError(f"no cage with id {cage_id}") from None

    @staticmethod
    def _octile_time(start, goal, pitch, speed):
        """Travel time of an octile (8-connected) shortest path [s]."""
        dr, dc = abs(start[0] - goal[0]), abs(start[1] - goal[1])
        diagonal = min(dr, dc)
        straight = max(dr, dc) - diagonal
        return (diagonal * math.sqrt(2.0) + straight) * pitch / speed

    # -- operations ---------------------------------------------------------

    def trap(self, site, particle=None) -> int:
        site = tuple(site)
        self._check_site(site)
        cage_id = self._next_id
        self._next_id += 1
        self._cages[cage_id] = [site, particle]
        self._sites[site] = cage_id
        self._log("trap", {"cage": cage_id, "site": site}, self.durations.trap())
        return cage_id

    def move(self, cage_id, goal) -> int:
        cage = self._cage(cage_id)
        goal = tuple(goal)
        self._check_site(goal, ignore_id=cage_id)
        steps = max(abs(cage[0][0] - goal[0]), abs(cage[0][1] - goal[1]))
        dwell = self._octile_time(cage[0], goal, self.grid.pitch, self.cage_speed)
        # Each frame update rewrites at most the two rows a cage leaves
        # and enters -- the same first-order cost the addresser charges.
        program = steps * 2 * self.addresser.row_write_time()
        del self._sites[cage[0]]
        cage[0] = goal
        self._sites[goal] = cage_id
        self._log(
            "move", {"cage": cage_id, "to": goal, "steps": steps}, program + dwell
        )
        return steps

    def move_many(self, goals) -> dict:
        resolved = {}
        for cage_id, goal in goals.items():
            goal = tuple(goal)
            self._cage(cage_id)
            if not self.grid.in_bounds(*goal):
                raise ExecutionError(f"cage {cage_id}: goal {goal} out of bounds")
            self._check_region(goal, f"cage {cage_id}: goal")
            resolved[cage_id] = goal
        # Validate the full post-move state (collisions and the
        # separation rule, against both movers and stationary cages)
        # BEFORE touching any bookkeeping, so a rejected batch leaves
        # the backend unchanged -- matching the simulator, which plans
        # the whole batch before stepping.
        post = {
            site: cage_id
            for site, cage_id in self._sites.items()
            if cage_id not in resolved
        }
        radius = self.min_separation - 1
        for cage_id, goal in resolved.items():
            row, col = goal
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    other = post.get((row + dr, col + dc))
                    if other is not None and other != cage_id:
                        raise ExecutionError(
                            f"cage {cage_id}: goal {goal} violates min "
                            f"separation {self.min_separation} against "
                            f"cage {other}"
                        )
            post[goal] = cage_id
        frames = 0
        total_moves = 0
        dwell_time = 0.0
        for cage_id, goal in resolved.items():
            site = self._cages[cage_id][0]
            distance = max(abs(site[0] - goal[0]), abs(site[1] - goal[1]))
            frames = max(frames, distance)
            total_moves += distance
            # the batch dwells as long as its slowest mover's octile
            # path -- the same travel model as single moves
            dwell_time = max(
                dwell_time,
                self._octile_time(site, goal, self.grid.pitch, self.cage_speed),
            )
        # Commit: clear every mover's origin first so movers may swap.
        for cage_id in resolved:
            del self._sites[self._cages[cage_id][0]]
        for cage_id, goal in resolved.items():
            self._cages[cage_id][0] = goal
            self._sites[goal] = cage_id
        rows_touched = min(2 * len(resolved), self.grid.rows)
        program_time = frames * rows_touched * self.addresser.row_write_time()
        report = {
            "cages": len(resolved),
            "frames": frames,
            "moves": total_moves,
            "program_time": program_time,
            "dwell_time": dwell_time,
        }
        self._log("move_many", dict(report), program_time + dwell_time)
        return report

    def merge(self, keep_id, absorb_id):
        keep = self._cage(keep_id)
        absorb = self._cage(absorb_id)
        approach = max(
            0,
            max(
                abs(keep[0][0] - absorb[0][0]), abs(keep[0][1] - absorb[0][1])
            )
            - self.min_separation,
        )
        duration = self.durations.merge(approach)
        payloads = [p for p in (keep[1], absorb[1]) if p is not None]
        keep[1] = payloads if payloads else None
        del self._sites[absorb[0]]
        del self._cages[absorb_id]
        self._log("merge", {"kept": keep_id, "absorbed": absorb_id}, duration)

    def sense(self, cage_id, n_samples=1000) -> SenseResult:
        cage = self._cage(cage_id)
        duration = n_samples * self.addresser.row_scan_time()
        self._log("sense", {"cage": cage_id}, duration)
        return SenseResult(
            cage_id=cage_id,
            reading=0.0,
            n_samples=n_samples,
            detected=False,
            expected=cage[1] is not None,
            duration=duration,
        )

    def sense_all(self, n_samples=1000):
        duration = n_samples * self.addresser.frame_scan_time()
        outcomes = [
            (
                cage_id,
                SenseResult(
                    cage_id=cage_id,
                    reading=0.0,
                    n_samples=n_samples,
                    detected=False,
                    expected=self._cages[cage_id][1] is not None,
                    duration=duration,
                ),
            )
            for cage_id in sorted(self._cages)
        ]
        self._log("sense_all", {"cages": len(outcomes)}, duration)
        return outcomes

    def incubate(self, seconds):
        if seconds < 0.0:
            raise ExecutionError("incubation time must be non-negative")
        self._log("incubate", {"seconds": seconds}, float(seconds))

    def release(self, cage_id):
        cage = self._cage(cage_id)
        del self._sites[cage[0]]
        del self._cages[cage_id]
        self._log("release", {"cage": cage_id}, self.durations.release())

    def spawn(self) -> "DryRunBackend":
        return DryRunBackend(
            grid=self.grid,
            min_separation=self.min_separation,
            cage_speed=self.cage_speed,
        )
