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
import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

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
from ..routing.astar import RoutingError
from ..routing.multi import BatchPlan, RoutingRequest, WavefrontRouter
from ..sensing.capacitive import CapacitiveSensor
from ..sensing.quarantine import ReadingBounds, SensorQuarantine
from ..sensing.readout import CapacitiveReadoutChain
from ..technology.nodes import PAPER_NODE, TechnologyNode
from .errors import ChipFault, ExecutionError
from .memo import LruMemo

#: The counters of :attr:`Biochip.routing_totals`, in report order.  The
#: chip's totals, its per-plan fold and the service's routing meters are
#: all built from this one list, so a new counter reaches every snapshot.
ROUTING_COUNTERS = (
    "plans",
    "cages_planned",
    "plan_seconds",
    "fast_path_hits",
    "greedy_walk_hits",
    "frontier_steps",
    "expansions",
    "replans",
    "memo_hits",
    "memo_misses",
)

#: How many distinct batch plans the plan memo remembers (least
#: recently used first out; see :meth:`Biochip.move_many`).
_PLAN_MEMO_SIZE = 64

#: The parked sites of a batch that moves every live cage.
_NO_SITES = np.zeros((0, 2), dtype=np.int32)


def lease_window(grid, origin, rows, cols) -> tuple:
    """The half-open window ``(r0, c0, r1, c1)`` of a ``rows x cols``
    lease at ``origin`` on ``grid``; ValueError when it is empty or
    leaves the array.  Every backend's ``set_region`` validates here."""
    r0, c0 = int(origin[0]), int(origin[1])
    rows = int(rows)
    cols = int(cols)
    if rows < 1 or cols < 1:
        raise ValueError(f"region must be >= 1x1, got {rows}x{cols}")
    if (r0 < 0 or c0 < 0 or r0 + rows > grid.rows
            or c0 + cols > grid.cols):
        raise ValueError(
            f"region {(r0, c0)}+{rows}x{cols} exceeds the "
            f"{grid.rows}x{grid.cols} array"
        )
    return (r0, c0, r0 + rows, c0 + cols)


def check_in_window(window, site, what):
    """Raise :class:`ExecutionError` naming ``what`` when ``site`` lies
    outside ``window`` (a :func:`lease_window`; None = no lease)."""
    if window is None:
        return
    r0, c0, r1, c1 = window
    if not (r0 <= site[0] < r1 and c0 <= site[1] < c1):
        raise ExecutionError(
            f"{what} {tuple(site)} outside leased region "
            f"[{r0}:{r1}, {c0}:{c1}]"
        )


class _Replay(NamedTuple):
    """What running a memoised plan whole charged: the report's move
    count and times (see :meth:`Biochip.move_many`)."""

    moves: int
    program_time: float
    dwell_time: float


class _MemoEntry:
    """One batch of the plan memo: the plan (its sites relative to the
    window origin), the request ids it was planned under, and -- once a
    run of it committed every frame -- its :class:`_Replay`."""

    __slots__ = ("ids", "order", "sites", "makespan", "stats", "replay",
                 "_moved")

    def __init__(self, ids, order, sites, makespan, stats):
        self.ids = ids          # cage id per request position
        self.order = order      # the plan's row ids, in planning order
        self.sites = sites
        self.makespan = makespan
        # the plan's stats as a hit reports them: it does none of the
        # planner's counted work
        self.stats = {name: 0 if name in ROUTING_COUNTERS else value
                      for name, value in stats.items()}
        self.replay = None
        self._moved = None

    def moved(self):
        """``(positions, start rows, start cols, end rows, end cols)``,
        lists of ints: the plan rows whose final site differs from their
        start, each as its request position, and those two sites.  Read
        off the sites on first use, so a batch that never repeats pays
        nothing for it."""
        if self._moved is None:
            starts, ends = self.sites[:, 0], self.sites[:, -1]
            rows = np.flatnonzero((starts != ends).any(axis=1))
            position = {cage_id: i for i, cage_id in enumerate(self.ids)}
            self._moved = (
                [position[cage_id] for cage_id in self.order[rows].tolist()],
                *starts[rows].T.tolist(), *ends[rows].T.tolist(),
            )
        return self._moved


class _HitPlan(BatchPlan):
    """A memo hit's plan: the entry's plan, its rows renamed to the
    cages now at their request positions (``ids``) and its sites moved
    to the chip's window (``origin``, None at (0, 0)).  A replay reads
    neither, so both are built when first read."""

    def __init__(self, entry, ids, origin, stats):
        super().__init__(cage_ids=entry.order, sites=entry.sites,
                         makespan=entry.makespan, stats=stats)
        self._cage_ids = self._sites = None
        self._replayed = (entry, ids, origin)

    @property
    def cage_ids(self):
        if self._cage_ids is None:
            entry, ids, __ = self._replayed
            rename = dict(zip(entry.ids, ids))
            self._cage_ids = np.array(
                [rename[cage_id] for cage_id in entry.order.tolist()],
                dtype=np.int64)
        return self._cage_ids

    @property
    def sites(self):
        if self._sites is None:
            entry, __, origin = self._replayed
            self._sites = (entry.sites if origin is None
                           else entry.sites + origin)
        return self._sites


@dataclass(slots=True)
class SenseResult:
    """Outcome of sensing one cage (slotted: an array scan makes one per
    live cage)."""

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
        # the noise state reset() returns to: the RNG after the readout
        # chain drew its initial flicker offset from it, and that offset
        self._pristine_rng = self.rng.bit_generator.state
        self._pristine_flicker = self.readout._noise._flicker_state
        # particle key -> levitation height [m]; shared with every chip
        # spawned from this one (see _levitation_height)
        self._levitation_cache = {}
        # window-relative batch key -> _MemoEntry of the plan that
        # filled it (and of the execution it committed); shared with
        # every chip spawned from this one (see move_many)
        self._plan_memo = LruMemo(_PLAN_MEMO_SIZE)
        self.reset()

    def reset(self):
        """Return the chip to its just-built state, in place.

        The RNG and the readout's flicker offset go back to where
        construction left them, and every cage and the dead mask are
        cleared; the clock, the event log, the fault model and sensor
        quarantine, the lease window, the signal caches and the routing
        totals are rebound to new empty ones, never mutated, so an
        object a finished run still holds is left as it was.  The
        template-shared levitation cache and plan memo are kept.  A
        reset chip runs every operation bit for bit like a fresh
        :meth:`spawn <repro.core.backend.SimulatorBackend.spawn>` of
        its template; the service resets its one tenant view this way
        before every tenant instead of spawning one per tenant.
        """
        self.rng.bit_generator.state = self._pristine_rng
        self.readout._noise._flicker_state = self._pristine_flicker
        self.cages.clear()
        self.elapsed = 0.0
        self._history = []
        self.faults = None  # FaultModel installed by apply_faults
        self._sensor_quarantine = None
        self._region = None         # (r0, c0, r1, c1) lease window
        self._origin = None         # int32 lease origin, None at (0, 0)
        self._signal_cache = {}          # particle key -> signal [V]
        self._payload_signal_cache = {}  # payload id -> (payload, signal)
        self._routing_totals = {
            **dict.fromkeys(ROUTING_COUNTERS, 0), "plan_seconds": 0.0,
        }

    @property
    def routing_totals(self) -> dict:
        """Cumulative batch-planner cost on this chip (see
        :attr:`BatchPlan.stats <repro.routing.multi.BatchPlan.stats>`):
        plans run, cages planned, planner wall-clock, the fast-path
        / frontier / replan counters, and the batch-plan memo's hits and
        misses (every key of :data:`ROUTING_COUNTERS`).  Service
        telemetry snapshots the per-job deltas of this dict."""
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
        steps onto them are rejected) and to the routing planner (paths
        go around them); sensor faults corrupt readings at the flagged
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

        The batch-plan memo needs no invalidation here: it keys every
        batch relative to the chip's window (this lease, else the whole
        array), with the window's size and the dead pixels inside it in
        the key, and a plan never leaves its window (see
        :meth:`move_many`).  Only the window's bounds are kept (see
        :meth:`_blocked_mask`).
        """
        if origin is None:
            self._region = None
            self._origin = None
            return
        self._region = r0, c0, r1, c1 = lease_window(
            self.grid, origin, rows, cols
        )
        self._origin = (np.array((r0, c0), dtype=np.int32)
                        if r0 or c0 else None)

    def _in_region(self, site) -> bool:
        if self._region is None:
            return True
        r0, c0, r1, c1 = self._region
        return r0 <= site[0] < r1 and c0 <= site[1] < c1

    def _blocked_mask(self):
        """Hard-blocked electrodes for routing: dead pixels plus
        everything outside the leased region (when one is set), built
        from the window when a plan misses the memo."""
        dead = self._dead_mask()
        if self._region is None:
            return dead
        r0, c0, r1, c1 = self._region
        block = np.ones((self.grid.rows, self.grid.cols), dtype=bool)
        block[r0:r1, c0:c1] = False
        return block if dead is None else block | dead

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

        The cage field solve is the expensive part of sensing: the
        bead's on :meth:`small_chip` takes 4-6 ms of host time on a
        2-vCPU x86-64 host, about ten times a whole served job's.
        Particles of the same type/size levitate at the same height, so
        cache on (name, radius, density) -- invalidated implicitly by
        keying on the drive settings too.

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
        check_in_window(self._region, site, "trap site")
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

        A batch of one: the same planner, memo and executor as
        :meth:`move_many`, with every other cage parked as an obstacle.
        Logs one ``move`` event, charges its row rewrites and drag time,
        and returns the path as a list of sites.  Raises ExecutionError
        when no route exists.
        """
        plan, replay = self._run_goals({cage_id: goal})
        path = [tuple(site) for site in plan.sites[0].tolist()]
        self._log(
            "move",
            {"cage": cage_id, "from": path[0], "to": path[-1], "steps": len(path) - 1},
            replay.program_time + replay.dwell_time,
        )
        return path

    def move_many(self, goals):
        """Route a group of cages concurrently, one frame update per step.

        This is the paper's massively parallel manipulation primitive:
        a conflict-free synchronous plan is computed for the whole group
        (:class:`~repro.routing.multi.WavefrontRouter`), then each plan
        step is one frame update -- K cages advance per reprogram
        instead of K independently routed moves.  Only the cages in
        ``goals`` are requests; every other cage is passed to the
        planner as ``parked``, an obstacle that never moves, so a cage
        the caller left out is never routed, and the planner's work
        follows the movers, not the population.  The whole plan executes
        in one validated pass (:meth:`CageManager.run_plan`), which
        returns each frame's dirty rows; every frame is then charged its
        row rewrites and its dwell in frame order.

        Repeated batches reuse their plan, on this chip and on every
        chip spawned from its template.  A plan is a function of the
        grid, ``min_separation``, the blocked mask, the *ordered*
        (start, goal) requests and the parked sites alone; cage ids
        reach the router only as labels, through the promotion order of
        a replan, which follows request positions.  The blocked mask is
        the dead pixels ORed with everything outside the chip's window
        -- its lease (:meth:`set_region`), else the whole array at
        origin (0, 0) -- so a plan never leaves its window.  One LRU
        memo of the last 64 batches, which :meth:`SimulatorBackend.spawn
        <repro.core.backend.SimulatorBackend.spawn>` hands every chip it
        spawns (fleet chips, restarts, tenant views), keys each batch
        relative to its window: ``(min_separation, window rows, window
        cols, dead bits, requests - origin, parked sites - origin)``,
        the dead bits packing the window's dead mask (empty when it has
        no dead pixel) and the parked sites one bytes blob in cage-id
        order.  This is sound because the spawns of one template share
        the grid, pitch, row timing and cage speed, and a plan, its
        dirty rows and its clock charge are the same wherever its
        window lies.  The entry stores the plan's sites relative to the
        origin with the cage ids it was planned under; a hit adds the
        origin back and renames each row to the cage now at that row's
        request position, so its frames, report and clock charge are
        bit-identical to a fresh plan's.  A hit skips the router's
        validation, a function of the key too; a batch the router
        rejects is never stored, and the bounds, region and dead-goal
        checks here run on every call.  Lookups and stores are locked,
        since the chips sharing the memo may run on different threads.
        Hits and misses are counted in :attr:`routing_totals`, a hit as
        a plan whose ``plan_seconds`` is the lookup time and whose
        planner counters are zero.

        A hit also skips executing the plan frame by frame.  Once
        :meth:`CageManager.run_plan` has committed a stored plan whole,
        the entry keeps the report's move count, ``program_time`` and
        ``dwell_time``.  A hit commits the final sites of the rows that
        end away from their start (read off the stored sites on the
        first hit, translated by the window origin), renamed to today's
        cages, in one
        :meth:`~repro.array.state.ArrayState.move_cages` call (origins
        are cleared before destinations are written, so a cage moving
        into a site another one vacates lands correctly) and charges the
        stored times.  ``run_plan``'s verdict, its dirty rows and the
        state it leaves are functions of the key as well: every cage on
        the chip is either a request or parked at a site in the key, and
        ``min_separation`` and the dead pixels inside the window are in
        the key.  When ``run_plan`` raised, the entry keeps no record
        and the next hit runs it again.

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
        plan, replay = self._run_goals(goals)
        report = {
            "cages": len(goals),
            "frames": plan.makespan,
            "moves": replay.moves,
            "program_time": replay.program_time,
            "dwell_time": replay.dwell_time,
            "plan_seconds": plan.stats["plan_seconds"],
        }
        self._log("move_many", dict(report),
                  replay.program_time + replay.dwell_time)
        return report

    def _run_goals(self, goals):
        """Plan ``goals`` with every other cage parked, and commit the
        plan (replayed on a memo hit); returns ``(plan, replay)``."""
        dead = self._dead_mask()
        region = self._region
        ids = []
        requests = []  # (start, goal) per cage of ``ids``
        for cage_id, goal in goals.items():
            cage = self.cages.cage(cage_id)
            goal = tuple(goal)
            if not self.grid.in_bounds(*goal):
                raise ExecutionError(f"cage {cage_id}: goal {goal} out of bounds")
            if region is not None:
                check_in_window(region, goal, f"cage {cage_id}: goal")
            if dead is not None and dead[goal]:
                raise ChipFault(
                    f"cage {cage_id}: goal {goal} is a dead electrode"
                )
            ids.append(cage_id)
            requests.append((cage.site, goal))
        # every cage not in ``goals`` is parked where it stands
        parked = _NO_SITES
        if len(ids) < len(self.cages):
            state = self.cages.state
            parked = np.column_stack(state.sites_of(state.live_ids(ids)))
        plan, entry = self._plan_batch(ids, requests, parked)
        replay = entry.replay
        if replay is None:
            replay = entry.replay = self._run_batch(plan)
        else:
            # this batch ran before from this very state: commit where
            # its movers ended (origins are cleared first, so a cage
            # taking a site another one vacated lands correctly)
            positions, start_r, start_c, end_r, end_c = entry.moved()
            if self._origin is not None:
                r0, c0 = self._region[:2]
                start_r = [row + r0 for row in start_r]
                start_c = [col + c0 for col in start_c]
                end_r = [row + r0 for row in end_r]
                end_c = [col + c0 for col in end_c]
            self.cages.state.move_cages(
                start_r, start_c, end_r, end_c,
                np.array([ids[i] for i in positions], dtype=np.int64),
            )
        return plan, replay

    def _run_batch(self, plan):
        """Execute ``plan`` through :meth:`CageManager.run_plan`, charging
        each frame its row rewrites and dwell; returns the
        :class:`_Replay` of what it committed.  The move count and which
        frames move (diagonally) come with the dirty rows, read in the
        plan executor's one pass over the steps."""
        run = self.cages.run_plan(plan.cage_ids, plan.deltas)
        row_time = self.addresser.row_write_time()
        # frame dwell is set by the longest single-cage hop: pitch, or
        # pitch*sqrt(2) if any mover goes diagonally
        diagonal_dwell = math.sqrt(2.0) * self.grid.pitch / self.cage_speed
        straight_dwell = self.grid.pitch / self.cage_speed
        program_time = 0.0
        dwell_time = 0.0
        for rows, active, diagonal in zip(run, run.active, run.diagonal):
            if not active:
                continue
            program_time += rows * row_time
            dwell_time += diagonal_dwell if diagonal else straight_dwell
        return _Replay(run.moves, program_time, dwell_time)

    def _memo_key(self, requests, parked):
        """The plan-memo key of a batch: its requests and ``parked``
        sites relative to the chip's window, with the window's size and
        the dead pixels inside it (see :meth:`move_many`)."""
        r0, c0, r1, c1 = self._region or (0, 0, self.grid.rows,
                                          self.grid.cols)
        state = self.cages.state
        dead = b""
        if state.has_dead:
            inside = state.dead[r0:r1, c0:c1]
            if inside.any():
                dead = np.packbits(inside).tobytes()
        if self._origin is not None:
            requests = [((start[0] - r0, start[1] - c0),
                         (goal[0] - r0, goal[1] - c0))
                        for start, goal in requests]
            if parked.size:
                parked = parked - self._origin
        return (self.min_separation, r1 - r0, c1 - c0, dead,
                tuple(requests), parked.tobytes())

    def _plan_batch(self, ids, requests, parked):
        """The batch plan for ``requests`` (one ``(start, goal)`` per
        cage of ``ids``) among the ``parked`` (n, 2) sites, from the
        memo when the same batch was planned before (see
        :meth:`move_many`), counted in :attr:`routing_totals`.  Returns
        ``(plan, entry)``, the entry the memo served or stored."""
        started = time.perf_counter()
        key = self._memo_key(requests, parked)
        entry = self._plan_memo.lookup(key)
        totals = self._routing_totals
        if entry is not None:
            with tracing.span("routing.plan",
                              attributes={"memo": "hit"}) as span:
                stats = entry.stats.copy()
                stats["plan_seconds"] = time.perf_counter() - started
                plan = _HitPlan(entry, ids, self._origin, stats)
                if span.recording:
                    span.set_attributes(dict(stats))
            # every planner counter of a hit is zero
            totals["plans"] += 1
            totals["cages_planned"] += stats["cages"]
            totals["plan_seconds"] += stats["plan_seconds"]
            totals["memo_hits"] += 1
            return plan, entry
        router = WavefrontRouter(
            self.grid, min_separation=self.min_separation,
            blocked=self._blocked_mask(),
        )
        try:
            plan = router.plan(
                [RoutingRequest(cage_id, start, goal)
                 for cage_id, (start, goal) in zip(ids, requests)],
                attributes={"memo": "miss"},
                parked=parked,
            )
        except RoutingError as exc:
            raise ExecutionError(str(exc)) from exc
        sites = plan.sites
        if self._origin is not None:
            sites = sites - self._origin
        sites.flags.writeable = False  # shared with every hit
        entry = _MemoEntry(
            ids, plan.cage_ids, sites, plan.makespan, plan.stats)
        self._plan_memo.store(key, entry)
        counts = {
            **plan.stats,
            "plans": 1,
            "cages_planned": plan.stats["cages"],
            "memo_hits": 0,
            "memo_misses": 1,
        }
        for name in ROUTING_COUNTERS:
            totals[name] += counts[name]
        return plan, entry

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
        # (signal, present) per cage, worked out once per payload object
        # (the drive settings are fixed for the scan, and every payload
        # stays alive in its cage, so its id is not recycled); merged
        # cages' list payloads are summed per cage.
        cage_signal = self._cage_signal
        by_payload = {}
        pairs = []
        for cage in cages:
            payload = cage.payload
            pair = by_payload.get(id(payload))
            if pair is None:
                pair = cage_signal(cage)
                if not isinstance(payload, list):
                    by_payload[id(payload)] = pair
            pairs.append(pair)
        # One vectorized pass through the readout chain for the whole
        # population: noise drawn per cage block, quantised and averaged
        # as matrices (RNG stream documented on batch_readings; per-cage
        # results are identical in distribution to per-cage senses).
        readings = self.readout.batch_readings(
            np.fromiter(map(itemgetter(0), pairs), dtype=float, count=len(pairs)),
            n_samples,
        )
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
        threshold = self._detection_threshold(n_samples)
        ids = [cage.cage_id for cage in cages]
        results = list(map(
            SenseResult, ids, readings.tolist(), repeat(n_samples),
            (np.abs(readings) > threshold).tolist(),
            map(itemgetter(1), pairs), repeat(duration),
        ))
        rescan_time = 0.0
        quarantine = self._sensor_quarantine
        if quarantine is not None:
            for cage, result in zip(cages, results):
                if quarantine.admit(cage.site, result.reading):
                    continue
                rescan_result, extra = self._rescan(cage, n_samples)
                result.reading = rescan_result.reading
                result.detected = abs(result.reading) > threshold
                result.rescanned = True
                result.duration += extra
                rescan_time += extra
        self._log(
            "sense_all",
            {"cages": len(results),
             "detections": sum(map(attrgetter("detected"), results))},
            duration + rescan_time,
        )
        return list(zip(ids, results))

    def incubate(self, seconds):
        """Advance time with cages held static (reaction/settling)."""
        if seconds < 0.0:
            raise ExecutionError("incubation time must be non-negative")
        self._log("incubate", {"seconds": seconds}, seconds)

    def release(self, cage_id):
        """Open a cage, returning its payload to the bulk."""
        try:
            cage = self.cages.release(cage_id)
        except CageError as exc:
            raise ExecutionError(str(exc)) from exc
        self._log("release", {"cage": cage_id}, 0.5)
        return cage
