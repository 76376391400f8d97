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
implement the same interface; one that drives another backend
subclasses :class:`BackendWrapper`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from ..array.addressing import RowColumnAddresser
from ..array.grid import ElectrodeGrid, paper_grid
from ..scheduling.taskgraph import DurationModel
from .errors import ExecutionError
from .platform import Biochip, SenseResult, check_in_window, lease_window


class Backend:
    """Execution target interface.

    The contract is the state ``grid`` (array geometry), ``elapsed``
    (accounted chip time [s]), ``cage_count``, ``history`` (the
    (time, kind, detail) event log), ``routing_totals`` (batch-planner
    cost; a backend that plans no batches may leave it out),
    ``addresser`` (the row/column timing model) and
    ``min_separation`` (the cage spacing rule; 2 unless a backend says
    otherwise), plus the operation methods below.  Cage identity is an
    opaque integer id returned by :meth:`trap`.  A backend that drives
    another one subclasses :class:`BackendWrapper`, which forwards the
    whole contract but :meth:`spawn`.
    """

    min_separation = 2

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


class BackendWrapper(Backend):
    """A backend that drives another one, ``backend``.

    Forwards every contract member but :meth:`spawn` once, so the
    simulator's adapter, the fault injector, a tenant's leased view and
    the wall tier's sense tap override only what they change.  Plain
    properties and methods, no ``__getattr__``: tenant views sit on the
    serving hot path.  ``release``, ``incubate`` and ``set_region``
    return None.
    """

    def __init__(self, backend):
        self.backend = backend

    @property
    def grid(self):
        return self.backend.grid

    @property
    def elapsed(self) -> float:
        return self.backend.elapsed

    @property
    def cage_count(self) -> int:
        return self.backend.cage_count

    @property
    def history(self):
        return self.backend.history

    @property
    def routing_totals(self) -> dict:
        return self.backend.routing_totals

    @property
    def addresser(self):
        return self.backend.addresser

    @property
    def min_separation(self) -> int:
        return self.backend.min_separation

    def trap(self, site, particle=None) -> int:
        return self.backend.trap(site, particle)

    def move(self, cage_id, goal) -> int:
        return self.backend.move(cage_id, goal)

    def move_many(self, goals) -> dict:
        return self.backend.move_many(goals)

    def merge(self, keep_id, absorb_id):
        return self.backend.merge(keep_id, absorb_id)

    def sense(self, cage_id, n_samples=1000) -> SenseResult:
        return self.backend.sense(cage_id, n_samples)

    def sense_all(self, n_samples=1000):
        return self.backend.sense_all(n_samples)

    def incubate(self, seconds):
        self.backend.incubate(seconds)

    def release(self, cage_id):
        self.backend.release(cage_id)

    def set_region(self, origin=None, rows=None, cols=None):
        self.backend.set_region(origin, rows, cols)


class SimulatorBackend(BackendWrapper):
    """The full physical simulation, wrapping a :class:`Biochip`
    (``Biochip.small_chip()`` unless ``chip`` is given)."""

    def __init__(self, chip=None):
        super().__init__(Biochip.small_chip() if chip is None else chip)

    @property
    def chip(self) -> Biochip:
        return self.backend

    def trap(self, site, particle=None) -> int:
        return self.backend.trap(site, particle).cage_id

    def move(self, cage_id, goal) -> int:
        return len(self.backend.move(cage_id, goal)) - 1

    def reset(self):
        self.backend.reset()

    def spawn(self) -> "SimulatorBackend":
        # dataclasses.replace re-runs Biochip.__post_init__, giving a
        # pristine chip (fresh cages, clock, RNG) with identical config;
        # identical config means identical cage physics, so the spawn
        # shares the template's levitation cache and solves nothing anew.
        # It shares the plan memo for the same reason: a plan depends
        # only on the chip's window, the dead pixels inside it and the
        # batch relative to its origin (see Biochip.move_many).  Fleet
        # chips and restarts are spawns; a served chip's one tenant view
        # is spawned once and then reset in place (Biochip.reset).
        chip = dataclasses.replace(self.backend)
        chip._levitation_cache = self.backend._levitation_cache
        chip._plan_memo = self.backend._plan_memo
        return SimulatorBackend(chip)


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
        self.reset()

    def reset(self):
        """Return to the just-built state: no cage, clock at zero, the
        whole array addressable."""
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
        self._region = (None if origin is None
                        else lease_window(self.grid, origin, rows, cols))

    def _check_site(self, site, ignore_id=None):
        if not self.grid.in_bounds(*site):
            raise ExecutionError(f"cage site {site} out of bounds")
        check_in_window(self._region, site, "cage site")
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
            check_in_window(self._region, goal, f"cage {cage_id}: goal")
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
