"""The :class:`Biochip` façade: one object that is the whole instrument.

Wires together the electrode array, the physics engine, the sensing
chain, the packaging stack and the technology choice into the
paper's platform: a CMOS chip that traps >10^4 particles in DEP cages,
moves them at 10-100 um/s, and senses each one electronically.
Downstream users mostly interact with this class plus the protocol
layer (:mod:`repro.core.protocol`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..array.addressing import RowColumnAddresser
from ..observability import tracing
from ..array.cages import CageError, CageManager, DeadElectrodeError
from ..array.grid import ElectrodeGrid, paper_grid
from ..bio.populations import DrawnParticle
from ..fluidics.chamber import Microchamber, chamber_for_grid
from ..physics.constants import um
from ..physics.dep import DepCage
from ..physics.dielectrics import water_medium
from ..routing.astar import ObstacleMap, RoutingError, astar_route, path_moves
from ..routing.multi import RoutingRequest, WavefrontRouter
from ..sensing.capacitive import CapacitiveSensor
from ..sensing.quarantine import ReadingBounds, SensorQuarantine
from ..sensing.readout import CapacitiveReadoutChain
from ..technology.nodes import PAPER_NODE, TechnologyNode
from .errors import ChipFault, ExecutionError


@dataclass
class SenseResult:
    """Outcome of sensing one cage."""

    cage_id: int
    reading: float  # averaged signal [V], pedestal removed
    n_samples: int
    detected: bool
    expected: bool  # ground truth: was a particle actually caged?
    duration: float  # sensing time spent [s]
    rescanned: bool = False  # read from a neighbour pixel (quarantined sensor)


@dataclass
class Biochip:
    """A simulated CMOS DEP-array lab-on-a-chip.

    Parameters
    ----------
    grid:
        Electrode array geometry.
    node:
        CMOS technology node (sets the available drive voltage).
    drive_voltage:
        Actuation amplitude [V] (<= node.max_drive_voltage).
    drive_frequency:
        Actuation frequency [Hz].
    medium:
        Suspension buffer dielectric.
    chamber:
        Microchamber above the array (sets lid height).
    min_separation:
        Cage spacing rule in electrodes.
    cage_speed:
        Achieved manipulation speed [m/s]; the physics layer can verify
        it against the cage's max drag speed (:meth:`verify_speed`).
    seed:
        RNG seed for the sensing noise.
    """

    grid: ElectrodeGrid = field(default_factory=paper_grid)
    node: TechnologyNode = PAPER_NODE
    drive_voltage: float = 3.3
    drive_frequency: float = 1e6
    medium: object = field(default_factory=water_medium)
    chamber: Microchamber = None
    min_separation: int = 2
    cage_speed: float = 50e-6
    seed: int = 0

    def __post_init__(self):
        if self.drive_voltage <= 0.0:
            raise ValueError("drive voltage must be positive")
        if self.drive_voltage > self.node.max_drive_voltage + 1e-9:
            raise ValueError(
                f"drive voltage {self.drive_voltage} V exceeds node "
                f"{self.node.name} capability {self.node.max_drive_voltage} V"
            )
        if self.chamber is None:
            self.chamber = chamber_for_grid(self.grid, height=um(100.0))
        self.cages = CageManager(self.grid, self.min_separation)
        self.addresser = RowColumnAddresser(self.grid)
        self.rng = np.random.default_rng(self.seed)
        sensor = CapacitiveSensor(
            pixel_pitch=self.grid.pitch,
            chamber_height=self.chamber.height,
            medium=self.medium,
        )
        self.readout = CapacitiveReadoutChain(sensor=sensor, rng=self.rng)
        self.elapsed = 0.0
        self._history = []
        self.faults = None  # FaultModel installed by apply_faults
        self._sensor_quarantine = None
        self._region = None         # (r0, c0, r1, c1) lease window
        self._region_block = None   # bool mask, True outside the lease
        # particle key -> levitation height [m]; shared with every chip
        # spawned from this one (see _levitation_height)
        self._levitation_cache = {}
        self._signal_cache = {}          # particle key -> signal [V]
        self._payload_signal_cache = {}  # payload id -> (payload, signal)
        self._routing_totals = {
            "plans": 0,
            "cages_planned": 0,
            "plan_seconds": 0.0,
            "fast_path_hits": 0,
            "greedy_walk_hits": 0,
            "frontier_steps": 0,
            "expansions": 0,
            "replans": 0,
        }

    @property
    def routing_totals(self) -> dict:
        """Cumulative batch-planner cost on this chip (see
        :attr:`BatchPlan.stats <repro.routing.multi.BatchPlan.stats>`):
        plans run, cages planned, planner wall-clock, and the fast-path
        / frontier / replan counters.  Service telemetry snapshots the
        per-job deltas of this dict."""
        return dict(self._routing_totals)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def paper_chip(cls, seed=0) -> "Biochip":
        """The published device: 320x320 @ 20 um, 0.35 um CMOS, 3.3 V."""
        return cls(seed=seed)

    @classmethod
    def small_chip(cls, rows=48, cols=48, seed=0) -> "Biochip":
        """A scaled-down chip for fast tests and examples."""
        grid = ElectrodeGrid(rows=rows, cols=cols, pitch=um(20.0))
        return cls(grid=grid, seed=seed)

    # -- bookkeeping -------------------------------------------------------

    def _log(self, kind, detail, duration):
        self.elapsed += duration
        self._history.append((self.elapsed, kind, detail))

    @property
    def history(self):
        """Chronological (time, kind, detail) event log."""
        return list(self._history)

    @property
    def cage_count(self) -> int:
        return len(self.cages)

    # -- fault model -------------------------------------------------------

    def apply_faults(self, model):
        """Install a :class:`~repro.faults.model.FaultModel` on this chip.

        Dead electrodes propagate to the cage manager (placements and
        steps onto them are rejected) and to both routers (paths go
        around them); sensor faults corrupt readings at the flagged
        pixels, which the calibration-bounds quarantine then catches
        (:meth:`sense` re-scans from a healthy neighbour).  Passing
        None clears the model.
        """
        if model is None:
            self.faults = None
            self._sensor_quarantine = None
            self.cages.set_dead_mask(
                np.zeros((self.grid.rows, self.grid.cols), dtype=bool)
            )
            return
        if tuple(model.shape) != (self.grid.rows, self.grid.cols):
            raise ValueError(
                f"fault model shape {model.shape} does not match grid "
                f"({self.grid.rows}, {self.grid.cols})"
            )
        self.faults = model
        self.cages.set_dead_mask(model.dead_electrodes)
        self._sensor_quarantine = SensorQuarantine(
            ReadingBounds.for_readout(self.readout)
        )

    @property
    def sensor_quarantine(self):
        """The sensor blacklist, or None when no fault model is active."""
        return self._sensor_quarantine

    def _dead_mask(self):
        """The dead-electrode mask for routing, or None when clean."""
        state = self.cages.state
        return state.dead if state.has_dead else None

    # -- spatial tenancy ---------------------------------------------------

    def set_region(self, origin=None, rows=None, cols=None):
        """Clip this chip to a rectangular lease window.

        Every trap/move goal and every routed path must stay inside the
        window; electrodes outside it are hard-blocked for routing, as
        if they belonged to another chip.  ``set_region(None)`` (or a
        fresh :meth:`spawn <repro.core.backend.Backend.spawn>`) restores
        whole-array access.  Addressing a site outside the lease is the
        *job's* bug (a placement/footprint error), so it raises
        :class:`~repro.core.errors.ExecutionError`, not a retryable
        :class:`~repro.core.errors.ChipFault`.
        """
        if origin is None:
            self._region = None
            self._region_block = None
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
        block = np.ones((self.grid.rows, self.grid.cols), dtype=bool)
        block[r0:r0 + rows, c0:c0 + cols] = False
        self._region_block = block

    def _in_region(self, site) -> bool:
        if self._region is None:
            return True
        r0, c0, r1, c1 = self._region
        return r0 <= site[0] < r1 and c0 <= site[1] < c1

    def _check_region(self, site, what):
        if not self._in_region(site):
            r0, c0, r1, c1 = self._region
            raise ExecutionError(
                f"{what} {tuple(site)} outside leased region "
                f"[{r0}:{r1}, {c0}:{c1}]"
            )

    def _blocked_mask(self):
        """Hard-blocked electrodes for routing: dead pixels plus
        everything outside the leased region (when one is set)."""
        dead = self._dead_mask()
        if self._region_block is None:
            return dead
        if dead is None:
            return self._region_block
        return dead | self._region_block

    # -- physics views -----------------------------------------------------

    def dep_cage(self, particle) -> DepCage:
        """The physics model of one cage holding ``particle``."""
        return DepCage(
            pitch=self.grid.pitch,
            voltage=self.drive_voltage,
            lid_height=self.chamber.height,
            particle=particle,
            medium=self.medium,
            frequency=self.drive_frequency,
            particle_density=getattr(particle, "density", 1070.0),
        )

    def verify_speed(self, particle) -> bool:
        """Whether the configured cage speed is physically holdable.

        False when the cage cannot levitate ``particle`` at all.
        """
        height = self._levitation_height(particle)
        if height is None:
            return False
        return self.dep_cage(particle).max_drag_speed(z=height) >= self.cage_speed

    def _particle_key(self, particle):
        """Cache key for per-particle-type quantities (see below)."""
        return (
            particle.name,
            round(particle.radius, 9),
            getattr(particle, "density", 1070.0),
            self.drive_voltage,
            self.drive_frequency,
        )

    def _levitation_height(self, particle):
        """Levitation height with a per-particle-type cache.

        The cage field solve is the expensive part of sensing; particles
        of the same type/size levitate at the same height, so cache on
        (name, radius, density) -- invalidated implicitly by keying on
        the drive settings too.

        There is one cache per chip template: :meth:`SimulatorBackend.spawn
        <repro.core.backend.SimulatorBackend.spawn>` hands every chip it
        spawns (fleet chips, restarts, tenant views) the template's dict,
        and a spawned chip copies the template's pitch, chamber, medium
        and drive, so the key still names one solve.  The cache is not
        process-wide: the key leaves out the geometry and the medium,
        which differ between templates, and a chip set up in a process
        that had built others before would time a warm cache instead of
        the solve (the repository benchmark builds several set-ups in
        one process).
        """
        key = self._particle_key(particle)
        cache = self._levitation_cache
        if key not in cache:
            cache[key] = self.dep_cage(particle).levitation_height()
        return cache[key]

    def _particle_signal(self, particle):
        """Noise-free signal voltage of one caged particle [V], cached.

        The transducer contrast at the particle's levitation height is a
        pure function of the particle type and the drive settings, so it
        shares the levitation cache's key -- array-wide scans over tens
        of thousands of cages then cost one dict hit per cage instead of
        one Clausius-Mossotti evaluation each.
        """
        key = self._particle_key(particle)
        cache = self._signal_cache
        if key not in cache:
            height = self._levitation_height(particle)
            cache[key] = self.readout.signal_voltage(particle, height)
        return cache[key]

    def _cage_signal(self, cage):
        """(combined signal voltage [V], ground-truth occupancy) of a cage.

        A merged cage carries a *list* payload; every particle in the
        cage sits over the same pixel, so the sensed contrast is the sum
        of the individual contrasts (dilute mixing is additive in volume
        fraction).  Empty cages (or empty lists) contribute zero signal.
        """
        payload = cage.payload
        if payload is None:
            return 0.0, False
        if not isinstance(payload, list):
            # Fast path for the common single-particle cage: memoize by
            # payload identity (payload objects are replaced, not
            # mutated, and the entry pins the object so its id cannot be
            # recycled).  Keyed on the drive settings too, like the
            # per-type signal cache it sits in front of.  Bounded: on
            # overflow the whole cache is dropped (entries are cheap to
            # recompute through the per-type cache), so long-lived
            # service chips cannot accumulate pinned payloads forever.
            key = (id(payload), self.drive_voltage, self.drive_frequency)
            cache = self._payload_signal_cache
            if len(cache) > 65536:
                cache.clear()
            hit = cache.get(key)
            if hit is None:
                particle = (
                    payload.particle if hasattr(payload, "particle") else payload
                )
                hit = cache[key] = (payload, self._particle_signal(particle))
            return hit[1], True
        signal = 0.0
        expected = False
        for entry in payload:
            if entry is None:
                continue
            particle = entry.particle if hasattr(entry, "particle") else entry
            signal += self._particle_signal(particle)
            expected = True
        return signal, expected

    def _detection_threshold(self, n_samples) -> float:
        """Detection threshold: 5x the post-averaging noise floor [V]."""
        return 5.0 * max(
            self.readout.noise_after_averaging(n_samples),
            self.readout.adc.quantisation_noise_rms() / math.sqrt(n_samples),
        )

    # -- operations ---------------------------------------------------------

    def trap(self, site, particle=None):
        """Create a cage at ``site`` (optionally pre-loaded); returns cage.

        Physical trapping time: the particle must sediment/drift into
        the cage, modelled as a fixed settle time.
        """
        self._check_region(site, "trap site")
        try:
            cage = self.cages.create(site, payload=particle)
        except DeadElectrodeError as exc:
            # A chip-local defect, not a protocol bug: the same trap may
            # succeed on another die, so surface it as a retryable fault.
            raise ChipFault(str(exc)) from exc
        except CageError as exc:
            raise ExecutionError(str(exc)) from exc
        self._log("trap", {"cage": cage.cage_id, "site": tuple(site)}, 5.0)
        return cage

    def load_sample(self, sample, spacing=None, max_particles=None):
        """Scatter a sample's particles into cages on a lattice.

        Draws the particles, assigns each to the nearest free lattice
        site (order: draw order), and creates the cages.  Returns the
        list of created cages.  Raises ExecutionError when the sample
        overfills the array capacity.
        """
        spacing = spacing if spacing is not None else self.min_separation
        drawn = sample.draw(
            extent=(self.grid.width, self.grid.height),
            height=self.chamber.height,
            rng=self.rng,
        )
        if max_particles is not None:
            drawn = drawn[:max_particles]
        lattice = [
            (r, c)
            for r in range(0, self.grid.rows, spacing)
            for c in range(0, self.grid.cols, spacing)
        ]
        free = [site for site in lattice if self.cages.cage_at(site) is None]
        if len(drawn) > len(free):
            # Checking against the full lattice alone would silently drop
            # the particles beyond the *free* sites in the zip below.
            raise ExecutionError(
                f"sample has {len(drawn)} particles, array capacity is "
                f"{len(lattice)} sites with {len(free)} free"
            )
        created = []
        for drawn_particle, site in zip(drawn, free):
            created.append(self.trap(site, drawn_particle.particle))
        return created

    def move(self, cage_id, goal):
        """Route one cage to ``goal`` around all other cages.

        Uses A* with the other cages (inflated by the separation rule)
        as obstacles, then executes the path step by step, accounting
        electronics (incremental reprogramming) and physical drag time.
        Returns the path.  Raises ExecutionError when no route exists.
        """
        cage = self.cages.cage(cage_id)
        goal = tuple(goal)
        self._check_region(goal, f"cage {cage_id}: goal")
        dead = self._dead_mask()
        if dead is not None and self.grid.in_bounds(*goal) and dead[goal]:
            raise ChipFault(
                f"cage {cage_id}: goal {goal} is a dead electrode"
            )
        obstacles = ObstacleMap.from_mask(
            self.grid,
            self.cages.state.obstacle_mask(exclude_site=cage.site),
            separation=self.min_separation,
            hard_mask=self._blocked_mask(),
        )
        try:
            path = astar_route(self.grid, cage.site, goal, obstacles)
        except RoutingError as exc:
            raise ExecutionError(str(exc)) from exc
        moves = path_moves(path)
        dirty = self.cages.run_plan(
            [cage_id], np.array(moves, dtype=np.int64).reshape(1, -1, 2)
        )
        row_time = self.addresser.row_write_time()
        total_time = 0.0
        for delta, rows in zip(moves, dirty):
            program = rows * row_time
            dwell = math.hypot(*delta) * self.grid.pitch / self.cage_speed
            total_time += program + dwell
        self._log(
            "move",
            {"cage": cage_id, "from": path[0], "to": path[-1], "steps": len(path) - 1},
            total_time,
        )
        return path

    def move_many(self, goals):
        """Route a group of cages concurrently, one frame update per step.

        This is the paper's massively parallel manipulation primitive:
        a conflict-free synchronous plan is computed for the whole group
        (:class:`~repro.routing.multi.WavefrontRouter`, with every
        stationary cage held as an obstacle), then each plan step is one
        frame update -- K cages advance per reprogram instead of K
        independently routed moves.  The whole plan executes in one
        validated pass (:meth:`CageManager.run_plan`), which returns
        each frame's dirty rows; every frame is then charged its row
        rewrites and its dwell in frame order.

        Parameters
        ----------
        goals:
            Mapping of cage_id -> goal (row, col).

        Returns a report dict with ``frames`` (frame reprograms issued),
        ``moves`` (total single-cage steps), ``program_time`` and
        ``dwell_time`` [s].  Raises ExecutionError when no conflict-free
        plan exists.
        """
        with tracing.span(
            "chip.move_many",
            attributes={"cages": len(goals)},
            clock=lambda: self.elapsed,
        ) as span:
            report = self._move_many(goals)
            if span.recording:
                span.set_attributes({
                    "frames": report["frames"],
                    "moves": report["moves"],
                })
            return report

    def _move_many(self, goals):
        """The untraced :meth:`move_many` body."""
        dead = self._dead_mask()
        requests = []
        for cage_id, goal in goals.items():
            cage = self.cages.cage(cage_id)
            goal = tuple(goal)
            if not self.grid.in_bounds(*goal):
                raise ExecutionError(f"cage {cage_id}: goal {goal} out of bounds")
            self._check_region(goal, f"cage {cage_id}: goal")
            if dead is not None and dead[goal]:
                raise ChipFault(
                    f"cage {cage_id}: goal {goal} is a dead electrode"
                )
            requests.append(RoutingRequest(cage_id, cage.site, goal))
        # Stationary cages participate as zero-length requests so the
        # router treats them as parked obstacles for the whole horizon.
        # They must be planned FIRST: planned-last they would be routed
        # around the movers' reservations -- physically dragging cages
        # the caller asked to keep in place.
        moving = set(goals)
        for cage in self.cages.cages:
            if cage.cage_id not in moving:
                requests.append(RoutingRequest(cage.cage_id, cage.site, cage.site))

        def priority(request):
            distance = max(
                abs(request.start[0] - request.goal[0]),
                abs(request.start[1] - request.goal[1]),
            )
            return (request.cage_id in moving, -distance)

        router = WavefrontRouter(
            self.grid, min_separation=self.min_separation,
            blocked=self._blocked_mask(),
        )
        try:
            plan = router.plan(requests, priority=priority)
        except RoutingError as exc:
            raise ExecutionError(str(exc)) from exc
        totals = self._routing_totals
        totals["plans"] += 1
        totals["cages_planned"] += plan.stats.get("cages", 0)
        totals["plan_seconds"] += plan.stats.get("plan_seconds", 0.0)
        for key in ("fast_path_hits", "greedy_walk_hits", "frontier_steps",
                    "expansions", "replans"):
            totals[key] += plan.stats.get(key, 0)
        dirty = self.cages.run_plan(plan.cage_ids, plan.deltas)
        row_time = self.addresser.row_write_time()
        drow, dcol = plan.deltas[..., 0], plan.deltas[..., 1]
        active = (drow | dcol).any(axis=0).tolist()
        # frame dwell is set by the longest single-cage hop: pitch, or
        # pitch*sqrt(2) if any mover goes diagonally
        diagonal = (drow * dcol).any(axis=0).tolist()
        diagonal_dwell = math.sqrt(2.0) * self.grid.pitch / self.cage_speed
        straight_dwell = self.grid.pitch / self.cage_speed
        program_time = 0.0
        dwell_time = 0.0
        for step in range(plan.makespan):
            if not active[step]:
                continue
            program_time += dirty[step] * row_time
            dwell_time += diagonal_dwell if diagonal[step] else straight_dwell
        report = {
            "cages": len(goals),
            "frames": plan.makespan,
            "moves": plan.total_moves(),
            "program_time": program_time,
            "dwell_time": dwell_time,
            "plan_seconds": plan.stats.get("plan_seconds", 0.0),
        }
        self._log("move_many", dict(report), program_time + dwell_time)
        return report

    def merge(self, cage_id_a, cage_id_b):
        """Bring cage b next to cage a and fuse them.

        Routes b to a separation-adjacent site next to a, then merges.
        Returns the surviving cage (a).
        """
        cage_a = self.cages.cage(cage_id_a)
        target = self._adjacent_free_site(cage_a.site, exclude=cage_id_b)
        self.move(cage_id_b, target)
        try:
            merged = self.cages.merge(cage_id_a, cage_id_b)
        except CageError as exc:
            raise ExecutionError(str(exc)) from exc
        self._log("merge", {"kept": cage_id_a, "absorbed": cage_id_b}, 2.0)
        return merged

    def _adjacent_free_site(self, site, exclude=None):
        """A separation-legal site next to ``site`` for an approach."""
        row, col = site
        step = self.min_separation
        for dr, dc in ((0, step), (0, -step), (step, 0), (-step, 0),
                       (step, step), (step, -step), (-step, step), (-step, -step)):
            candidate = (row + dr, col + dc)
            if not self.grid.in_bounds(*candidate):
                continue
            if not self._in_region(candidate):
                continue
            state = self.cages.state
            if state.has_dead and state.dead[candidate]:
                continue
            conflicts = self.cages._conflicts(candidate, ignore_id=exclude)
            occupied_by = self.cages.cage_at(site)
            conflicts = [
                c for c in conflicts
                if occupied_by is None or c != occupied_by.cage_id
            ]
            if not conflicts:
                return candidate
        raise ExecutionError(f"no free approach site next to {site}")

    def _sense_reading(self, cage, n_samples, duration):
        """One cage's reading through the full physical chain.

        The reading uses the combined transducer contrast of *all*
        particles in the cage (a merged cage holds several over one
        pixel), each at its levitation height, through amplifier noise
        and ADC quantisation; detection thresholds at 5x the
        post-averaging noise.  Time accounting is the caller's job
        (per-cage reads and array-wide scans amortise it differently).
        """
        signal, expected = self._cage_signal(cage)
        reading = self.readout.averaged_reading_from_signal(signal, n_samples)
        if self.faults is not None:
            reading = self._corrupt_reading(cage.site, reading)
        threshold = self._detection_threshold(n_samples)
        return SenseResult(
            cage_id=cage.cage_id,
            reading=reading,
            n_samples=n_samples,
            detected=abs(reading) > threshold,
            expected=expected,
            duration=duration,
        )

    def _corrupt_reading(self, site, reading):
        """The reading as the faulty pixel at ``site`` reports it.

        A dead front-end sticks at the positive rail (full scale, which
        the pedestal subtraction cannot hide); a drifted one adds the
        model's gross offset.  Healthy pixels pass through.
        """
        fault = self.faults.sensor_fault(site)
        if fault == "dead":
            return self.readout.adc.full_scale - self.readout.pedestal
        if fault == "noisy":
            return reading + self.faults.noisy_offset
        return reading

    def _rescan_delta(self, cage):
        """A one-step move to a pixel fit for re-reading ``cage``:
        in bounds, electrode alive, sensor unflagged and fault-free,
        separation-legal.  None when no such neighbour exists."""
        row, col = cage.site
        state = self.cages.state
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            cand = (row + dr, col + dc)
            if not self.grid.in_bounds(*cand):
                continue
            if not self._in_region(cand):
                continue
            if state.has_dead and state.dead[cand]:
                continue
            if self.faults is not None and self.faults.sensor_fault(cand):
                continue
            if self._sensor_quarantine.is_flagged(cand):
                continue
            if state.window_occupied(cand, self.min_separation - 1,
                                     ignore_id=cage.cage_id):
                continue
            return (dr, dc)
        return None

    def _rescan(self, cage, n_samples):
        """Re-read a cage from a healthy neighbouring pixel.

        Steps the cage one electrode over, reads there, and steps it
        back -- the flagged site's sensor never touches the result.
        Returns ``(SenseResult, extra_time)`` where ``extra_time`` is
        the full additional chip time (two one-step frame updates plus
        the re-read).  Raises :class:`ChipFault` when the cage is boxed
        in by dead/flagged pixels: with no trustworthy way to read it,
        failing loudly beats returning garbage.
        """
        quarantine = self._sensor_quarantine
        delta = self._rescan_delta(cage)
        if delta is None:
            quarantine.rescan_failures += 1
            raise ChipFault(
                f"sensor at {cage.site} out of calibration bounds and no "
                f"healthy neighbour pixel to re-scan from"
            )
        quarantine.rescans += 1
        cage_id = cage.cage_id
        row_time = self.addresser.row_write_time()
        step_dwell = math.hypot(*delta) * self.grid.pitch / self.cage_speed
        # step over, read there, step back: two one-frame plans
        (rows,) = self.cages.run_plan([cage_id], [[delta]])
        extra = rows * row_time + step_dwell
        result = self._sense_reading(
            cage, n_samples,
            n_samples * self.readout.time_per_sample(self.addresser),
        )
        extra += result.duration
        (rows,) = self.cages.run_plan([cage_id], [[(-delta[0], -delta[1])]])
        extra += rows * row_time + step_dwell
        result.rescanned = True
        return result, extra

    def sense(self, cage_id, n_samples=1000) -> SenseResult:
        """Read the sensor under one cage with N-sample averaging.

        When a fault model is active, a reading outside the calibration
        bounds quarantines the site and the cage is re-read from a
        healthy neighbouring pixel (the extra motion and read time are
        charged to this operation).
        """
        cage = self.cages.cage(cage_id)
        duration = n_samples * self.readout.time_per_sample(self.addresser)
        result = self._sense_reading(cage, n_samples, duration)
        quarantine = self._sensor_quarantine
        if (quarantine is not None
                and not quarantine.admit(cage.site, result.reading)):
            result, extra = self._rescan(cage, n_samples)
            duration += extra
            result.duration = duration
        self._log(
            "sense",
            {"cage": cage_id, "reading": result.reading, "detected": result.detected},
            duration,
        )
        return result

    def sense_all(self, n_samples=1000):
        """Read every live cage in N full-array scan passes.

        The column-parallel readout digitises the whole array per scan,
        so the time cost is ``n_samples`` frame scans regardless of how
        many cages are live -- the array-wide counterpart of
        :meth:`sense`.  Returns a list of (cage_id, SenseResult) in cage
        id order.
        """
        with tracing.span(
            "chip.sense_all",
            attributes={"n_samples": n_samples},
            clock=lambda: self.elapsed,
        ) as span:
            outcomes = self._sense_all(n_samples)
            if span.recording:
                span.set_attributes({
                    "cages": len(outcomes),
                    "detections": sum(
                        1 for __, r in outcomes if r.detected
                    ),
                    "rescans": sum(
                        1 for __, r in outcomes if r.rescanned
                    ),
                })
            return outcomes

    def _sense_all(self, n_samples):
        """The untraced :meth:`sense_all` body."""
        duration = n_samples * self.addresser.frame_scan_time()
        cages = self.cages.cages
        signals = []
        expected = []
        for cage in cages:
            signal, present = self._cage_signal(cage)
            signals.append(signal)
            expected.append(present)
        # One vectorized pass through the readout chain for the whole
        # population: noise drawn per cage block, quantised and averaged
        # as matrices (RNG stream documented on batch_readings; per-cage
        # results are identical in distribution to per-cage senses).
        readings = self.readout.batch_readings(np.asarray(signals), n_samples)
        faults = self.faults
        if faults is not None and faults.has_sensor_faults and cages:
            # Vectorized corruption to match _corrupt_reading: gather
            # each cage's pixel, overwrite stuck rails, add drift.
            rows = np.fromiter(
                (c.site[0] for c in cages), dtype=np.intp, count=len(cages)
            )
            cols = np.fromiter(
                (c.site[1] for c in cages), dtype=np.intp, count=len(cages)
            )
            stuck = faults.dead_sensors[rows, cols]
            drifted = faults.noisy_sensors[rows, cols]
            if drifted.any():
                readings = readings + np.where(drifted, faults.noisy_offset, 0.0)
            if stuck.any():
                readings = np.where(
                    stuck,
                    self.readout.adc.full_scale - self.readout.pedestal,
                    readings,
                )
        readings = readings.tolist()
        durations = [duration] * len(cages)
        rescanned = [False] * len(cages)
        rescan_time = 0.0
        quarantine = self._sensor_quarantine
        if quarantine is not None:
            for i, cage in enumerate(cages):
                if quarantine.admit(cage.site, readings[i]):
                    continue
                rescan_result, extra = self._rescan(cage, n_samples)
                readings[i] = rescan_result.reading
                rescanned[i] = True
                durations[i] += extra
                rescan_time += extra
        threshold = self._detection_threshold(n_samples)
        n_detected = 0
        outcomes = []
        for i, (cage, reading, present) in enumerate(
            zip(cages, readings, expected)
        ):
            hit = abs(reading) > threshold
            n_detected += hit
            outcomes.append(
                (
                    cage.cage_id,
                    SenseResult(
                        cage_id=cage.cage_id,
                        reading=reading,
                        n_samples=n_samples,
                        detected=hit,
                        expected=present,
                        duration=durations[i],
                        rescanned=rescanned[i],
                    ),
                )
            )
        self._log(
            "sense_all",
            {"cages": len(outcomes), "detections": int(n_detected)},
            duration + rescan_time,
        )
        return outcomes

    def incubate(self, seconds):
        """Advance time with cages held static (reaction/settling)."""
        if seconds < 0.0:
            raise ValueError("incubation time must be non-negative")
        self._log("incubate", {"seconds": seconds}, seconds)

    def release(self, cage_id):
        """Open a cage, returning its payload to the bulk."""
        try:
            cage = self.cages.release(cage_id)
        except CageError as exc:
            raise ExecutionError(str(exc)) from exc
        self._log("release", {"cage": cage_id}, 0.5)
        return cage
