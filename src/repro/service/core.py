"""The serving core both execution tiers share.

The virtual-clock :class:`~repro.service.scheduler.ExecutionService`
and the wall-clock
:class:`~repro.service.concurrent.workers.ConcurrentExecutionService`
serve jobs with one set of semantics, and every piece of it that the
two tiers compute the same way lives here, once:

* :class:`CoreConfig` -- the shared knobs and their validation;
* :func:`run_attempt` -- one guarded attempt: compile or cache hit,
  run, error classification, the cage sweep, the timeout check, the
  routing-planner delta and the attempt span;
* :func:`chip_backend` -- a spawned chip wrapped for serving: clipped
  to a tenant's leased window, behind its fault injector;
* :class:`ChipHealth` and :class:`ChipRecord` -- one chip's serving
  state: health, load, restarts, fault counters and cache stats;
* :class:`ServedChip` -- one chip's lifecycle, itself a record: its
  session, program cache and fault injector, restarts, the quarantine
  streak, banked fault counters, and the lease-group runner that runs
  co-tenants in turn on the chip's one leased tenant view;
* :class:`LeaseWindows` and :func:`group_cost` -- lease-window sizing
  (memoised by fingerprint and by the group's size sequence) and the
  merged chip time of a tenant group;
* :func:`steer` -- the one retry steering rule: the chips a retry may
  run on;
* :class:`ServingCore` -- admission, the job root span, retry
  bookkeeping and readiness (one delay heap holds every retry through
  its backoff), settlement and terminal :class:`JobResult`\\ s, the
  meters every attempt settles (routing, migrations, lease-group
  telemetry and the ``lease``/``frame_merge``/``evict`` span events),
  the health loop (a chip's failure streak benches it; the core alone
  decides every restart), and the one observation surface rendered
  from the records: ``fault_counters()``, ``snapshot()``, ``report()``
  and ``to_prometheus()``.

A tier keeps only what really differs: which of the steered chips
(among :meth:`ServingCore._accepting`) a job is placed on, when it
releases due retries and runs the health loop, how a chip is
power-cycled, how jobs, outcomes and each chip's counters travel
between the service and the chips, and the wall tier's pool gauges.
Each tier drives the core in one pass per event: the virtual tier's
``step`` per dispatch on the fleet clock, the wall tier's
``_pump_pass(now, messages)`` per batch of worker messages on the wall
clock (its pump thread only collects the messages and reads the
clock).  Time is whatever the tier's clock reads -- fleet virtual
seconds or wall seconds.
"""

from __future__ import annotations

import enum
import heapq
import logging
from dataclasses import asdict, dataclass, field

from ..analysis import ascii_table, format_seconds
from ..core.backend import (
    Backend,
    BackendWrapper,
    DryRunBackend,
    SimulatorBackend,
)
from ..core.errors import BiochipError
from ..core.memo import LruMemo
from ..core.session import Session, sweep_handles
from ..faults import FaultInjector, FaultModel, FleetFaultPlan
from ..observability import tracing
from .cache import CacheStats, ProgramCache
from .jobs import ErrorKind, Job, JobError, JobResult, JobState, classify_error
from .telemetry import (
    Telemetry,
    metric_family,
    prometheus_lines,
    report_tables,
)
from .tenancy import (
    LeasedBackend,
    RegionLeaseAllocator,
    frame_merge_ratio,
    merged_group_time,
    protocol_footprint,
    routing_separation,
)

log = logging.getLogger("repro.service")

#: Admission behaviours when the queue is at ``max_queue_depth``.
ADMISSION_POLICIES = ("reject", "shed-lowest")

#: Free electrodes added on every side of a tenant's protocol footprint
#: inside its lease -- routing slack for merge approaches and detours.
#: The allocator additionally inflates each window by the
#: routing-separation guard band, so adjacent tenants can never violate
#: separation across a boundary.
LEASE_MARGIN = 3


@dataclass
class CoreConfig:
    """Serving knobs both tiers share.

    Durations are seconds on the tier's clock: fleet virtual seconds
    for :class:`~repro.service.scheduler.ServiceConfig`, wall seconds
    for :class:`~repro.service.concurrent.workers.ConcurrentConfig`.

    Attributes
    ----------
    max_queue_depth:
        Admission bound on admitted jobs still waiting for a chip,
        retries sitting out their backoff included; None means
        unbounded.
    admission:
        What to do with a submit that finds the queue full:
        ``"reject"`` refuses the new job; ``"shed-lowest"`` drops the
        lowest-priority waiting job instead, when the new job outranks
        it.
    cache_capacity:
        Per-chip compiled-program cache capacity (None = unbounded).
    max_retries:
        How many times a job failing with a *retryable* error
        (transient chip fault, timeout) is re-queued before it goes
        terminal FAILED.  0 disables retries.
    retry_backoff:
        Base backoff before a retry may run; exponential (doubles per
        attempt).
    job_timeout:
        Per-attempt time budget; an attempt exceeding it fails with a
        TIMEOUT error (retryable) and its run is discarded.  None
        disables the budget.
    quarantine_after:
        Consecutive chip-attributable failures (transient/timeout) that
        bench a chip.  None disables quarantine.
    restart_cooldown:
        How long a quarantined chip sits out before it is restarted
        (fresh spawn, same defect map).  None means manual restarts
        only -- except that when no chip is healthy while a job waits,
        the longest-benched chip restarts at once, so the queue is
        never stranded.
    max_tenants:
        Spatial multi-tenancy: how many jobs may co-reside on one chip
        in disjoint leased windows, their concurrent moves merged into
        shared frames.  1 (the default) is exclusive occupancy; > 1
        enables region-leased co-scheduling for jobs with a static
        footprint (whole-array protocols still run exclusively); each
        lease pads the footprint by :data:`LEASE_MARGIN`.
    """

    max_queue_depth: int | None = None
    admission: str = "reject"
    cache_capacity: int | None = None
    max_retries: int = 2
    retry_backoff: float = 0.5
    job_timeout: float | None = None
    quarantine_after: int | None = 3
    restart_cooldown: float | None = 30.0
    max_tenants: int = 1

    def __post_init__(self):
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0.0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0.0:
            raise ValueError(
                f"job_timeout must be positive, got {self.job_timeout}"
            )
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if self.restart_cooldown is not None and self.restart_cooldown < 0.0:
            raise ValueError(
                f"restart_cooldown must be >= 0, got {self.restart_cooldown}"
            )
        if self.max_tenants < 1:
            raise ValueError(
                f"max_tenants must be >= 1, got {self.max_tenants}"
            )


# -- one attempt ------------------------------------------------------------


@dataclass
class Attempt:
    """What one attempt of a job produced, as both tiers settle it.

    ``started_at``/``finished_at`` are on the clock the attempt ran on;
    ``chip_seconds`` is the chip time it accounted and ``routing`` the
    batch planner's cost across it (None on chips without a planner).
    A leased attempt also carries its ``lease``, its frame-merge inputs
    (``program_time``, ``frames``) and its lease group: the group's
    size (``tenants``; 1 = exclusive), its merged chip time
    (``group_time``) and frame-merge ratio (``merge_ratio``), and the
    attempt's place in it (``tenant``; the group is metered with its
    first tenant).
    """

    run: object = None
    error: JobError | None = None
    cache_hit: bool = False
    started_at: float = 0.0
    finished_at: float = 0.0
    chip_seconds: float = 0.0
    routing: dict | None = None
    lease: object = None
    program_time: float = 0.0
    frames: int = 0
    tenants: int = 1
    tenant: int = 0
    group_time: float = 0.0
    merge_ratio: float = 1.0


def enforce_timeout(attempt, job, chip_id, budget):
    """Fail a successful ``attempt`` that took longer than ``budget``:
    TIMEOUT (retryable), its run discarded, not trusted."""
    spent = attempt.finished_at - attempt.started_at
    if attempt.error is None and budget is not None and spent > budget:
        attempt.error = JobError(
            kind=ErrorKind.TIMEOUT,
            message=(
                f"attempt took {spent:.3f}s, over the {budget:.3f}s "
                f"job timeout"
            ),
            chip_id=chip_id,
            attempts=job.attempts + 1,
        )
        attempt.run = None


def run_attempt(job, chip_id, session, cache, clock, *, registry=None,
                lease=None, budget=None, pace=None) -> Attempt:
    """One guarded execution of ``job`` on ``session``'s chip.

    Compiles the protocol or reuses ``cache``'s program, runs it, and
    folds every failure into a structured :class:`JobError` -- an
    unexpected (non-:class:`BiochipError`) exception included, as
    PERMANENT, so a software bug terminalises the job instead of
    escaping with it stuck RUNNING.  Cages the job left on the chip are
    swept whatever happened.  ``pace(started_at, chip_seconds)``, when
    given, runs before the finish is stamped; ``budget`` is the timeout
    check.  The ``attempt`` span runs on ``clock`` under the job's root
    span, named by the ids the job carries.  Never raises.
    """
    backend = session.backend
    chip_before = backend.elapsed
    routing_before = getattr(backend, "routing_totals", None)
    attempt = Attempt(started_at=clock(), lease=lease)
    attributes = {"attempt": job.attempts + 1, "chip": chip_id}
    if lease is not None:
        attributes["leased"] = True
    handles = {}
    with tracing.span(
        "attempt", parent=(job.trace_id, job.root_span_id),
        attributes=attributes, clock=clock,
    ) as span:
        if lease is not None and span.recording:
            span.set_attribute(
                "lease", f"{lease.origin}+{lease.rows}x{lease.cols}"
            )
        try:
            program, attempt.cache_hit = cache.get_or_compile(
                job.protocol, session, registry=registry,
                fingerprint=job.fingerprint,
            )
            attempt.run = session.run(program, handles=handles)
        except BiochipError as exc:
            attempt.error = classify_error(
                exc, chip_id=chip_id, attempts=job.attempts + 1
            )
        except Exception as exc:  # noqa: BLE001 -- see the docstring
            attempt.error = JobError(
                kind=ErrorKind.PERMANENT,
                message=f"unexpected {type(exc).__name__}: {exc}",
                cause=exc,
                chip_id=chip_id,
                attempts=job.attempts + 1,
            )
        finally:
            # leftover cages would poison the chip for every later job
            sweep_handles(backend, handles)
        attempt.chip_seconds = backend.elapsed - chip_before
        if routing_before is not None:
            routing_after = backend.routing_totals
            attempt.routing = {
                key: routing_after[key] - routing_before[key]
                for key in routing_after
            }
        if pace is not None:
            pace(attempt.started_at, attempt.chip_seconds)
        attempt.finished_at = clock()
        enforce_timeout(attempt, job, chip_id, budget)
        if span.recording:
            span.set_attributes({
                "cache_hit": attempt.cache_hit,
                "chip_seconds": attempt.chip_seconds,
            })
            error = attempt.error
            if error is not None:
                error.trace_id = span.trace_id
                error.span_id = span.span_id
                span.set_attribute("error.kind", error.kind.value)
                span.set_error(error.message)
    return attempt


def add_counts(totals, counters) -> dict:
    """Add the ``counters`` mapping into ``totals``; returns ``totals``."""
    for name, value in counters.items():
        totals[name] = totals.get(name, 0) + value
    return totals


def chip_backend(backend, plan, chip_id, seed, lease=None, offset=(0, 0)):
    """Wrap a pristine ``backend`` (a fresh spawn, or a tenant view
    reset in place) for serving on chip ``chip_id``.

    With a fault ``plan`` the chip sits behind a :class:`FaultInjector`
    carrying the chip's defect map, its transient stream seeded by
    ``(plan.seed, chip_id, *seed)``: defects are physical and survive
    restarts, glitches re-seed per power-up (and per tenant).  With a
    ``lease`` the chip is clipped to that window and wrapped in a
    coordinate-translating :class:`LeasedBackend` at ``offset`` -- a
    tenant view.  Returns ``(backend, injector)``; the injector is None
    without a plan.
    """
    if lease is not None:
        backend.set_region(lease.origin, lease.rows, lease.cols)
    injector = None
    if plan is not None:
        grid = backend.grid
        injector = backend = FaultInjector(
            backend, plan.model_for(chip_id, (grid.rows, grid.cols)),
            seed=(plan.seed, chip_id, *seed),
        )
    if lease is not None:
        backend = LeasedBackend(backend, offset=offset)
    return backend, injector


def steer(job, records) -> list:
    """The chip records among ``records`` a retry of ``job`` should run
    on: those it has never failed on, else all but the chip that failed
    it last, else all of them (a first attempt may run on any).

    A "transient" that is really a chip-local defect (a dead electrode
    under the protocol's path) is only escaped by genuinely different
    hardware, not by ping-ponging between the same two faulty chips.
    """
    if job.tried_chips:
        fresh = [r for r in records if r.chip_id not in job.tried_chips]
        if fresh:
            return fresh
        away = [r for r in records if r.chip_id != job.last_chip]
        if away:
            return away
    return records


# -- lease groups -----------------------------------------------------------


def can_lease(template, config) -> bool:
    """Whether ``config`` co-schedules tenants and chips spawned from
    ``template`` can be clipped to a leased window; other backends are
    served exclusively.  A wrapper that only forwards ``set_region``
    leases when the backend it wraps does."""
    while type(template).set_region is BackendWrapper.set_region:
        template = template.backend
    return (config.max_tenants > 1
            and type(template).set_region is not Backend.set_region)


#: How many fingerprints' window requests, and how many lease layouts,
#: the lease-group memos remember (least recently used first out).
_FOOTPRINT_MEMO_SIZE = 64
_LAYOUT_MEMO_SIZE = 128

#: Fingerprint -> ``((rows, cols), (row shift, col shift))`` of the
#: window its protocol needs, or False when it has no static footprint.
_FOOTPRINT_MEMO = LruMemo(_FOOTPRINT_MEMO_SIZE)

#: ``(rows, cols, guard, chip_id, placed sizes, size)`` -> the lease the
#: next request of ``size`` gets, or False when it does not fit.
_LAYOUT_MEMO = LruMemo(_LAYOUT_MEMO_SIZE)


def _window_request(protocol):
    """``((rows, cols), (row shift, col shift))`` of the lease window
    ``protocol`` needs -- its footprint padded by :data:`LEASE_MARGIN`
    a side, and what maps its own coordinates into the lease interior
    from the lease origin -- or False when it has no static footprint."""
    footprint = protocol_footprint(protocol)
    if footprint is None:
        return False
    return (
        (footprint.rows + 2 * LEASE_MARGIN, footprint.cols + 2 * LEASE_MARGIN),
        (LEASE_MARGIN - footprint.row0, LEASE_MARGIN - footprint.col0),
    )


class LeaseWindows:
    """Sizes tenants' leased windows on one chip for one lease group.

    Both tiers size every lease group through here, and two
    process-wide memos make a repeated group a pair of table lookups
    per tenant.  Both rest on determinism:

    * A protocol's footprint is a function of its command types and
      site payloads, which its fingerprint hashes, so the window a job
      needs is looked up by ``job.fingerprint``.  An empty fingerprint
      (a :class:`Job` built without one) is never a key: its footprint
      is read off the protocol every time.
    * A group starts on an empty chip and never releases a lease, and
      a request that does not fit changes nothing, so the lease the
      next request gets is a function of the chip shape, the guard,
      the chip id, the sizes already placed and the size asked for.
      Layouts are memoised on exactly that, "does not fit" included
      (stored as False; a miss reads None).

    On a layout miss the first-fit :class:`RegionLeaseAllocator` is
    built (or caught up) by replaying the sizes placed so far, and
    answers.  Both memos are bounded :class:`LruMemo`\\ s, locked for
    the wall tier's worker threads.
    """

    def __init__(self, template, chip_id):
        grid = template.grid
        guard = routing_separation(template)
        self._shape = (grid.rows, grid.cols, guard, chip_id)
        self._placed = ()  # sizes of the leases given out, in order
        self._allocator = None
        self._replayed = 0  # how many of them the allocator holds

    @property
    def allocator(self) -> RegionLeaseAllocator:
        """The first-fit allocator holding every lease given out so
        far, built or caught up by replaying their sizes."""
        if self._allocator is None:
            rows, cols, guard, chip_id = self._shape
            self._allocator = RegionLeaseAllocator(
                rows, cols, guard=guard, chip_id=chip_id
            )
        for rows, cols in self._placed[self._replayed:]:
            self._allocator.allocate(rows, cols)
        self._replayed = len(self._placed)
        return self._allocator

    def fit(self, protocol, fingerprint):
        """``(lease, offset)`` for ``protocol`` (whose fingerprint is
        ``fingerprint``, "" when unknown), or None when it has no
        static footprint or no window is left for it.

        ``offset`` maps the job's own (protocol) coordinates into its
        lease interior: lease origin plus :data:`LEASE_MARGIN`, minus
        the footprint origin.
        """
        request = _FOOTPRINT_MEMO.lookup(fingerprint) if fingerprint else None
        if request is None:
            request = _window_request(protocol)
            if fingerprint:
                _FOOTPRINT_MEMO.store(fingerprint, request)
        if not request:
            return None
        size, (row_shift, col_shift) = request
        key = self._shape + (self._placed, size)
        lease = _LAYOUT_MEMO.lookup(key)
        if lease is None:
            lease = self.allocator.allocate(*size) or False
            _LAYOUT_MEMO.store(key, lease)
            if lease:
                self._replayed += 1
        if not lease:
            return None
        self._placed += (size,)
        return lease, (lease.origin[0] + row_shift, lease.origin[1] + col_shift)


def group_cost(attempts):
    """``(chip seconds, frame-merge ratio)`` of one tenant group.

    Concurrent dwell overlaps across the disjoint windows while the
    electronics serialize, so the group occupies the chip once for
    :func:`~repro.service.tenancy.merged_group_time`.
    """
    return (
        merged_group_time(
            [a.chip_seconds for a in attempts],
            [a.program_time for a in attempts],
        ),
        frame_merge_ratio([a.frames for a in attempts]),
    )


# -- one chip's record and lifecycle ----------------------------------------


class ChipHealth(enum.Enum):
    """Dispatchability of one chip.

    * HEALTHY -- accepts new jobs.
    * DRAINING -- takes nothing new: the operator took it out of
      rotation (graceful maintenance) with its state intact; only an
      explicit restart brings it back.
    * QUARANTINED -- the self-healing loop benched it after K
      consecutive chip-attributable failures; new jobs go to the other
      chips until it is restarted.
    * STOPPED -- the wall tier's worker exited at shutdown.
    * DEAD -- the wall tier's worker died (crashed, or could not spawn
      its chip) and never serves again.
    """

    HEALTHY = "healthy"
    DRAINING = "draining"
    QUARANTINED = "quarantined"
    STOPPED = "stopped"
    DEAD = "dead"


@dataclass(eq=False)
class ChipRecord:
    """One chip's serving state as the service sees it.

    ``jobs_done`` counts the attempts closed on the chip and
    ``busy_time`` the time they occupied it, on the tier's clock;
    ``quarantined_at`` is the service clock's stamp of the current
    quarantine (None when not benched).  ``faults`` and
    ``cache_stats`` are the chip's cumulative fault counters and
    program-cache stats.  On the virtual tier each chip is its own
    record (:class:`ServedChip` is one); the wall tier's coordinator
    keeps one per worker, with its transport, and copies in the
    counters every worker message carries.
    """

    chip_id: int
    health: ChipHealth = ChipHealth.HEALTHY
    jobs_done: int = 0
    busy_time: float = 0.0
    restarts: int = 0
    quarantined_at: float | None = None
    faults: dict = field(default_factory=dict)
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def fault_counters(self) -> dict:
        """The chip's cumulative fault counters (a copy)."""
        return dict(self.faults)


class ServedChip(ChipRecord):
    """One chip's serving lifecycle, the same on both tiers.

    Holds the :class:`~repro.core.session.Session` over the chip
    :func:`chip_backend` built (``session``), its program ``cache``
    (whose stats are the record's ``cache_stats``), the live fault
    ``injector`` (None without a fault plan) and the chip-attributable
    failure streak (``consecutive_failures``).  The record's
    ``faults`` bank the counters of retired incarnations and of each
    tenant's fault injector, so :meth:`fault_counters` is cumulative
    across restarts.  ``tap``, when given, wraps every backend a
    session is opened on (the wall tier's sense stream); ``job_id``
    names the job whose attempt is running.  ``_tenant_view`` is the
    one view every tenant runs on, spawned from the template on first
    use and reset in place before each later tenant.
    """

    def __init__(self, chip_id, template, *, registry=None, plan=None,
                 cache_capacity=None, quarantine_after=None, tap=None):
        self.cache = ProgramCache(capacity=cache_capacity)
        super().__init__(chip_id, cache_stats=self.cache.stats)
        self.template = template
        self.registry = registry
        self.plan = plan
        self.quarantine_after = quarantine_after
        self.tap = tap
        self.consecutive_failures = 0
        self.job_id = None
        self._tenant_view = None
        self._power_up()

    def _power_up(self):
        backend, self.injector = chip_backend(
            self.template.spawn(), self.plan, self.chip_id, (self.restarts,)
        )
        self.session = self._open(backend)

    def _open(self, backend) -> Session:
        if self.tap is not None:
            backend = self.tap(backend)
        return Session(backend, registry=self.registry)

    def _bank(self, injector):
        if injector is not None:
            add_counts(self.faults, injector.counters)

    @property
    def elapsed(self) -> float:
        """This chip's accounted clock [s]."""
        return self.session.backend.elapsed

    def restart(self):
        """Power-cycle the chip: a fresh spawn with the same defect map
        and a re-seeded transient stream, the program cache wiped with
        the chip's memory, the failure streak cleared."""
        self._bank(self.injector)
        self.restarts += 1
        self.consecutive_failures = 0
        self.cache.clear()
        self._power_up()

    def record(self, error) -> bool:
        """Fold one attempt's ``error`` (None = success) into the
        failure streak; True when the streak has reached
        ``quarantine_after``.

        Only chip-attributable (retryable) errors extend the streak: a
        PERMANENT error is the job's own fault and says nothing about
        the chip.
        """
        if error is None:
            self.consecutive_failures = 0
        elif error.retryable:
            self.consecutive_failures += 1
        threshold = self.quarantine_after
        return threshold is not None and self.consecutive_failures >= threshold

    def fault_counters(self) -> dict:
        """Faults injected into this chip, every incarnation and tenant
        view included."""
        totals = dict(self.faults)
        if self.injector is not None:
            add_counts(totals, self.injector.counters)
        return totals

    def attempt(self, job, clock, session=None, **options) -> Attempt:
        """:func:`run_attempt` of ``job`` on this chip, or on
        ``session`` (a tenant view of it)."""
        self.job_id = job.job_id
        try:
            return run_attempt(
                job, self.chip_id,
                self.session if session is None else session,
                self.cache, clock, registry=self.registry, **options,
            )
        finally:
            self.job_id = None

    def _view(self):
        """The tenant view in the state of a fresh spawn of the
        template: spawned on first use, reset in place after that
        (spawned again when the backend has no ``reset``, which is no
        part of the backend contract)."""
        view = self._tenant_view
        if view is not None and hasattr(view, "reset"):
            view.reset()
        else:
            view = self._tenant_view = self.template.spawn()
        return view

    def lease_group(self, tenants, clock, **options) -> list:
        """Run a lease group: one attempt per ``(job, lease, offset)``
        tenant, in turn, each on the chip's tenant view reset to a
        fresh spawn's state and clipped to its lease (the chip's faults
        re-attached, seeded per tenant), so co-tenants stay isolated
        while the group is charged its merged chip time once.
        ``clock(view)`` is a tenant's attempt clock; ``options`` go to
        :func:`run_attempt`.  Returns the attempts in tenant order, each
        carrying the group's cost (see :func:`group_cost`)."""
        attempts = []
        for job, lease, offset in tenants:
            view, injector = chip_backend(
                self._view(), self.plan, self.chip_id,
                (self.restarts, job.job_id), lease, offset,
            )
            attempt = self.attempt(
                job, clock(view), self._open(view), lease=lease, **options
            )
            attempt.program_time, attempt.frames = (
                view.program_time, view.frames
            )
            # the tenant's injector is dropped with the group
            self._bank(injector)
            attempts.append(attempt)
        group_time, ratio = group_cost(attempts)
        for tenant, attempt in enumerate(attempts):
            attempt.tenant, attempt.tenants = tenant, len(attempts)
            attempt.group_time, attempt.merge_ratio = group_time, ratio
        return attempts


# -- admission and settlement -----------------------------------------------


class ServingCore:
    """Admission, settlement and observation for one serving tier.

    Owns the chip template and fault plan, the priority queue
    (``_queue``, a heap of ``(sort_key, Job)`` that may still hold shed
    entries, with ``_queued_count`` counting its QUEUED ones), the
    delay heap of retries sitting out their backoff (``_delayed``, a
    heap of ``(not_before, job_id, Job)`` that :meth:`_release_due`
    moves to the queue), the live handles and root spans, the path
    every attempt ends on, and the health loop (:meth:`_restore_chips`).
    A tier sets ``clock``, ``_tier`` (the root span's tier attribute)
    and ``_records`` (one :class:`ChipRecord` per chip, in chip-id
    order) and implements ``_make_handle(job)`` and
    ``_power_cycle(record)``, which restarts the record's chip.
    """

    #: Messages for terminal states the service imposed (no chip ran).
    _UNSERVED_MESSAGES = {
        JobState.REJECTED: "rejected at admission: queue full",
        JobState.SHED: "shed from the queue for a higher-priority job",
        JobState.EXPIRED: "deadline expired before a chip was free",
    }

    def __init__(self, template, config, registry, faults, n_chips):
        self._template = template
        self.config = config
        self.registry = registry
        if isinstance(faults, FaultModel):  # one model for every chip
            faults = FleetFaultPlan(
                models=dict.fromkeys(range(n_chips), faults)
            )
        self._fault_plan = faults
        self.telemetry = Telemetry()
        self._queue = []
        self._queued_count = 0
        self._delayed = []
        self._handles = {}    # job_id -> handle, dropped on resolve
        self._job_spans = {}  # job_id -> live root Span (tracing on)
        self._next_id = 0

    @classmethod
    def simulator(cls, config=None, chip=None, registry=None, faults=None,
                  **options):
        """A service whose chips are full physical simulators
        (``Biochip.small_chip()`` unless ``chip`` is given)."""
        return cls(SimulatorBackend(chip), config=config, registry=registry,
                   faults=faults, **options)

    @classmethod
    def dry_run(cls, config=None, registry=None, faults=None,
                **backend_kwargs):
        """A service on time/geometry-only chips, for planning scale."""
        return cls(DryRunBackend(**backend_kwargs), config=config,
                   registry=registry, faults=faults)

    @property
    def queue_depth(self) -> int:
        """Jobs admitted and still waiting for a chip, retries sitting
        out their backoff included."""
        return self._queued_count + len(self._delayed)

    # -- admission ----------------------------------------------------------

    def _open_job(self, protocol, priority, deadline, fingerprint):
        """Stamp a new job, register its handle and open its root
        span; returns ``(job, handle)``."""
        job = Job(
            protocol=protocol,
            job_id=self._next_id,
            priority=priority,
            deadline=deadline,
            submitted_at=self.clock.now(),
            fingerprint=fingerprint,
        )
        self._next_id += 1
        handle = self._make_handle(job)
        self._handles[job.job_id] = handle
        tracer = tracing.get_tracer()
        if tracer is not None:
            root = tracer.start_span(
                "job",
                parent=None,
                attributes={
                    "job_id": job.job_id,
                    "protocol": getattr(protocol, "name", ""),
                    "tier": self._tier,
                    "priority": priority,
                },
                clock=self.clock.now,
            )
            job.trace_id, job.root_span_id = root.trace_id, root.span_id
            self._job_spans[job.job_id] = root
        self.telemetry.count("submitted")
        return job, handle

    def _enqueue(self, job) -> bool:
        """Queue an admitted ``job``, or resolve it REJECTED when the
        admission bound refuses it."""
        if not self._admit(job):
            self._finish_unserved(job, JobState.REJECTED, "rejected")
            return False
        span = self._job_spans.get(job.job_id)
        if span is not None:
            span.add_event("admit", queue_depth=self.queue_depth + 1)
        self._push(job)
        return True

    def _push(self, job):
        """Queue a QUEUED ``job`` in priority order."""
        heapq.heappush(self._queue, (job.sort_key(), job))
        self._queued_count += 1

    def _admit(self, job) -> bool:
        """Apply the queue bound; True when ``job`` may be enqueued."""
        limit = self.config.max_queue_depth
        if limit is None or self.queue_depth < limit:
            return True
        if self.config.admission == "reject":
            return False
        # shed-lowest: drop the weakest waiting job iff the newcomer
        # outranks it; ties keep the incumbent (FIFO fairness).
        waiting = self._waiting()
        if not waiting:  # max_queue_depth=0: nothing to shed, refuse
            return False
        weakest = min(waiting, key=lambda j: (j.priority, -j.job_id))
        if job.priority <= weakest.priority:
            return False
        self._finish_unserved(weakest, JobState.SHED, "shed")
        self._unqueue(weakest)
        return True

    def _waiting(self) -> list:
        """The jobs shedding may pick from: queued or in backoff."""
        return (
            [j for __, j in self._queue if j.state is JobState.QUEUED]
            + [j for __, __, j in self._delayed]
        )

    def _unqueue(self, job):
        """Forget a shed waiting ``job``."""
        delayed = [entry for entry in self._delayed if entry[2] is not job]
        if len(delayed) == len(self._delayed):
            self._queued_count -= 1  # lazily removed from the heap later
        else:  # a retry shed while it sat out its backoff
            heapq.heapify(delayed)
            self._delayed = delayed

    def _release_due(self, now):
        """Queue every retry whose backoff has ended by ``now``."""
        delayed = self._delayed
        while delayed and delayed[0][0] <= now:
            self._push(heapq.heappop(delayed)[2])

    def submit_many(self, jobs, **options) -> list:
        """Submit a batch; each item is a protocol or a
        ``(protocol, priority)`` / ``(protocol, priority, deadline)``
        tuple, and ``options`` go to every :meth:`submit`.  Returns the
        handles in submission order."""
        return [
            self.submit(*item, **options) if isinstance(item, tuple)
            else self.submit(item, **options)
            for item in jobs
        ]

    # -- settlement ---------------------------------------------------------

    def _note_start(self, job, chip_id):
        """Mark ``job`` RUNNING on chip ``chip_id``; count and trace a
        retry that moved to other hardware, and trace the dispatch."""
        job.state = JobState.RUNNING
        migrated = job.attempts > 0 and chip_id != job.last_chip
        if migrated:
            self.telemetry.count("migrated")
        span = self._job_spans.get(job.job_id)
        if span is not None:
            if migrated:
                span.add_event(
                    "migrate", from_chip=job.last_chip, to_chip=chip_id
                )
            span.add_event("dispatch", chip=chip_id, attempt=job.attempts + 1)

    # -- chip health transitions --------------------------------------------

    def _mark_quarantined(self, record, at, streak=0, error=None):
        """Bench ``record``'s chip at time ``at``: stamp, count, log and
        flight-dump the quarantine.  Only a HEALTHY chip is benched --
        an operator's drain wins over the self-healing loop.

        ``streak`` is the failure streak that tripped it (0 for an
        operator's request); ``error`` is the :class:`JobError` that
        did, if known -- its span ids make the log line greppable back
        to the span tree in the trace.
        """
        if record.health is not ChipHealth.HEALTHY:
            return
        record.health = ChipHealth.QUARANTINED
        record.quarantined_at = at
        self.telemetry.count("quarantined")
        log.warning(
            "chip %d quarantined at t=%.3f %s (trace_id=%s span_id=%s)",
            record.chip_id, at,
            "after %d consecutive retryable failures" % streak
            if streak else "on request",
            error.trace_id if error is not None else "",
            error.span_id if error is not None else "",
        )
        tracing.dump_flight("chip %d quarantined" % record.chip_id)

    def _accepting(self) -> list:
        """The records of the chips taking new jobs (HEALTHY), in
        chip-id order."""
        return [r for r in self._records if r.health is ChipHealth.HEALTHY]

    def _restore_chips(self, now):
        """The health loop: power-cycle every benched chip whose
        ``restart_cooldown`` has run out by ``now`` (None judges no
        cooldown), and, when no chip is healthy while a job waits, the
        longest-benched one, so a benched fleet never strands its
        queue.  A chip an operator drained stays out."""
        benched = [
            r for r in self._records if r.health is ChipHealth.QUARANTINED
        ]
        if not benched:
            return
        cooldown = self.config.restart_cooldown
        if now is not None and cooldown is not None:
            for record in benched:
                if now - record.quarantined_at >= cooldown:
                    self._power_cycle(record)
        if self.queue_depth and not self._accepting():
            self._power_cycle(
                min(benched, key=lambda r: (r.quarantined_at, r.chip_id))
            )

    def _mark_restarted(self, record, at):
        """Put ``record``'s freshly power-cycled chip back in rotation
        at time ``at``: health, stamp, count and log.  The tier has
        already bumped ``record.restarts``."""
        record.health = ChipHealth.HEALTHY
        record.quarantined_at = None
        self.telemetry.count("restarted")
        log.info(
            "chip %d restarted at t=%.3f (restart #%d)",
            record.chip_id, at, record.restarts,
        )

    def _settle(self, job, chip_id, attempt, now) -> JobResult | None:
        """End one attempt of ``job`` on chip ``chip_id``.

        A retryable error with retry budget left holds the job in the
        delay heap for an exponential backoff counted from ``now`` and
        returns None;
        anything else resolves it DONE or FAILED and returns its
        :class:`JobResult`.
        """
        self.telemetry.observe_routing(attempt.routing)
        if attempt.lease is not None:
            self._settle_tenant(job, chip_id, attempt)
        error = attempt.error
        if error is not None and error.kind is ErrorKind.TIMEOUT:
            self.telemetry.count("timeout")
        if (error is not None and error.retryable
                and job.attempts < self.config.max_retries):
            job.attempts += 1
            job.last_chip = chip_id
            job.tried_chips.add(chip_id)
            backoff = self.config.retry_backoff * (2 ** (job.attempts - 1))
            job.not_before = now + backoff
            job.state = JobState.QUEUED
            span = self._job_spans.get(job.job_id)
            if span is not None:
                span.add_event(
                    "backoff",
                    attempt=job.attempts,
                    chip=chip_id,
                    error=error.kind.value,
                    backoff=backoff,
                    not_before=job.not_before,
                )
            self.telemetry.count("retried")
            self._requeue(job, error)
            return None
        state = JobState.DONE if error is None else JobState.FAILED
        job.state = state
        self.telemetry.count("completed" if error is None else "failed")
        result = JobResult(
            job_id=job.job_id,
            state=state,
            protocol_name=getattr(job.protocol, "name", ""),
            run=attempt.run,
            error=error,
            chip_id=chip_id,
            cache_hit=attempt.cache_hit,
            submitted_at=job.submitted_at,
            started_at=attempt.started_at,
            finished_at=attempt.finished_at,
            attempts=job.attempts + 1,
        )
        self.telemetry.observe_served(result)
        return self._resolve(job, result)

    def _settle_tenant(self, job, chip_id, attempt):
        """Meter one leased attempt; its lease group's own meters are
        taken once, with the group's first tenant."""
        telemetry = self.telemetry
        if attempt.tenant == 0:
            telemetry.observe_tenancy(attempt.tenants, attempt.merge_ratio)
        telemetry.count("leased")
        if attempt.tenants > 1:
            telemetry.count("merged")
        error = attempt.error
        # A fault (or timeout) inside one lease evicts only that tenant
        # -- the rest of the group keeps its results.
        evicted = error is not None and error.retryable
        if evicted:
            telemetry.count("evicted")
        span = self._job_spans.get(job.job_id)
        if span is not None:
            lease = attempt.lease
            span.add_event(
                "lease", chip=chip_id, origin=lease.origin,
                rows=lease.rows, cols=lease.cols, guard=lease.guard,
            )
            span.add_event(
                "frame_merge", chip=chip_id, tenants=attempt.tenants,
                ratio=attempt.merge_ratio, group_time=attempt.group_time,
            )
            if evicted:
                span.add_event(
                    "evict", chip=chip_id, error=error.kind.value
                )

    def _requeue(self, job, error):
        """Hold a job whose attempt failed retryably with ``error`` in
        the delay heap until its backoff ends."""
        heapq.heappush(self._delayed, (job.not_before, job.job_id, job))

    def _finish_unserved(self, job, state, counter, message=None) -> JobResult:
        """Terminalise a job that never reached a chip."""
        job.state = state
        self.telemetry.count(counter)
        return self._resolve(
            job,
            JobResult(
                job_id=job.job_id,
                state=state,
                protocol_name=getattr(job.protocol, "name", ""),
                error=JobError(
                    kind=ErrorKind.REJECTED,
                    message=message or self._UNSERVED_MESSAGES[state],
                    chip_id=job.last_chip,
                    attempts=job.attempts,
                ),
                submitted_at=job.submitted_at,
                started_at=job.submitted_at,
                finished_at=job.submitted_at,
                attempts=job.attempts,
            ),
        )

    def _resolve(self, job, result) -> JobResult:
        """Close the job's root span, hand ``result`` to its handle and
        forget the job.

        Dropping the ``_handles`` entry on resolution is what keeps a
        long-running service's memory flat: the caller's own handle is
        the only thing pinning a terminal job's result.
        """
        handle = self._handles.pop(job.job_id)
        span = self._job_spans.pop(job.job_id, None)
        if span is not None:
            span.set_attributes({
                "state": result.state.value,
                "attempts": result.attempts,
                "chip": result.chip_id,
            })
            if result.error is not None:
                span.set_attribute("error.kind", result.error.kind.value)
            if result.state is JobState.FAILED:
                span.set_error(result.error.message)
            span.end()
            if result.state is JobState.FAILED:
                tracing.dump_flight(
                    "job %d failed: %s"
                    % (job.job_id, result.error.kind.value)
                )
        handle._resolve(result)
        return result

    # -- observation --------------------------------------------------------

    def fault_counters(self) -> dict:
        """Faults injected into every chip, restarts and tenant views
        included."""
        totals = {}
        for record in self._records:
            add_counts(totals, record.fault_counters())
        return totals

    def snapshot(self) -> dict:
        """One JSON-ready dict: the telemetry meters, the pooled
        ``cache`` stats, the per-chip ``fleet`` gauges over the
        service clock's makespan, and ``faults`` under a fault plan."""
        snap = self.telemetry.snapshot()
        now = self.clock.now()
        records = self._records
        stats = CacheStats()
        for record in records:
            stats = stats.merge(record.cache_stats)
        snap["cache"] = {**asdict(stats), "hit_rate": stats.hit_rate}
        snap["fleet"] = {
            "n_chips": len(records),
            "makespan": now,
            "throughput": self.telemetry.throughput(now),
            "utilization": {
                r.chip_id: (r.busy_time / now if now > 0.0 else 0.0)
                for r in records
            },
            "jobs_per_chip": {r.chip_id: r.jobs_done for r in records},
            "health": {r.chip_id: r.health.value for r in records},
            "restarts": {r.chip_id: r.restarts for r in records},
        }
        if self._fault_plan is not None:
            snap["faults"] = self.fault_counters()
        return snap

    def report(self) -> str:
        """Human-readable tables of one :meth:`snapshot`."""
        return "\n\n".join(self._report_tables(self.snapshot()))

    def _report_tables(self, snap) -> list:
        cache, fleet = snap["cache"], snap["fleet"]
        return report_tables(snap) + [
            ascii_table(
                ["chip", "jobs", "utilization", "health"],
                [
                    [str(chip_id), str(fleet["jobs_per_chip"][chip_id]),
                     f"{fraction:.0%}", fleet["health"][chip_id]]
                    for chip_id, fraction in fleet["utilization"].items()
                ],
                title=(
                    f"fleet: {fleet['n_chips']} chips, "
                    f"{fleet['throughput']:.2f} jobs/s over "
                    f"{format_seconds(fleet['makespan'])}; "
                    f"cache hit rate {cache['hit_rate']:.0%} "
                    f"({cache['hits']}/{cache['hits'] + cache['misses']})"
                ),
            )
        ]

    def to_prometheus(self, namespace="repro") -> str:
        """One :meth:`snapshot` in the Prometheus text exposition
        format: the telemetry families (see
        :func:`~repro.service.telemetry.prometheus_lines`), then the
        cache events, the fleet throughput and the per-chip
        utilization, health and restart gauges."""
        snap = self.snapshot()
        cache, fleet = snap["cache"], snap["fleet"]
        ns = namespace
        lines = prometheus_lines(snap, ns)
        lines += metric_family(
            f"{ns}_cache_events_total", "counter", "Program cache.",
            [(f'{{event="{event}"}}', cache[event])
             for event in ("hits", "misses", "evictions")],
        )
        lines += metric_family(
            f"{ns}_fleet_throughput_jobs_per_second", "gauge",
            "Served jobs per fleet second.",
            [("", f"{fleet['throughput']:.9g}")],
        )
        lines += metric_family(
            f"{ns}_chip_utilization", "gauge", "Busy fraction per chip.",
            [(f'{{chip="{chip_id}"}}', f"{fraction:.9g}")
             for chip_id, fraction in fleet["utilization"].items()],
        )
        lines += metric_family(
            f"{ns}_chip_health", "gauge",
            "Chip health (1 = in the labelled state).",
            [(f'{{chip="{chip_id}",state="{health}"}}', 1)
             for chip_id, health in fleet["health"].items()],
        )
        lines += metric_family(
            f"{ns}_chip_restarts_total", "counter", "Power cycles per chip.",
            [(f'{{chip="{chip_id}"}}', restarts)
             for chip_id, restarts in fleet["restarts"].items()],
        )
        return "\n".join(lines) + "\n"
