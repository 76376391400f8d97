"""The virtual-clock execution service: placement plus the drain loop.

:class:`ExecutionService` is the serving front end over a chip
:class:`~repro.service.fleet.Fleet`: callers :meth:`submit` protocol
jobs and get future-style handles back; the service admits or refuses
them (bounded queue, reject or shed-lowest-priority policies), orders
the queue by priority, dispatches each job to a chip through the
configured policy, reuses cached compiled programs, and meters
everything through :class:`~repro.service.telemetry.Telemetry`.
Admission, the attempt body, each chip's lifecycle and record, the
lease-group runner, retry readiness (the delay heap) and steering,
settlement, the health loop that decides every restart and the
observation surface (``snapshot``/``report``/``to_prometheus``) are the
serving core's (:mod:`repro.service.core`); this module owns placement
among the steered chips, the drain loop that releases due retries and
runs the health loop, the power cycle itself and the operator's
quarantine, drain and restart calls.

The service is synchronous: chips are simulated, so "waiting" on a
handle drives the drain loop instead of blocking a thread.  Time is
fleet virtual time (accounted chip seconds), making every latency and
throughput figure deterministic for a given workload.

The service is also the *self-healing* tier of the fault-tolerance
stack (see :mod:`repro.faults`): jobs that fail with a retryable error
(:class:`~repro.core.errors.ChipFault`, or a per-job timeout) are
re-queued with exponential backoff and steered away from the chip that
failed them; a chip that fails K jobs in a row is quarantined -- taken
out of rotation with its queued work migrating to the rest of the
fleet -- and restarted (fresh spawn, same physical defect map) after a
cooldown.  Every job admitted therefore reaches a well-defined terminal
state: DONE with a correct result, or FAILED with a structured
:class:`~repro.service.jobs.JobError` -- never a hang, never silent
corruption.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from ..core.backend import DryRunBackend
from ..core.errors import ServiceError
from .concurrent.syncbridge import FleetClock
from .core import (
    ChipHealth,
    CoreConfig,
    LeaseWindows,
    ServingCore,
    can_lease,
    steer,
)
from .fleet import Fleet, make_policy
from .jobs import JobHandle, JobResult, JobState


@dataclass
class ServiceConfig(CoreConfig):
    """Tuning knobs of one :class:`ExecutionService`.

    The serving knobs both tiers share are documented on
    :class:`~repro.service.core.CoreConfig`; here their durations are
    fleet virtual seconds.

    Attributes
    ----------
    n_chips:
        Fleet size; each chip is an isolated spawn of the template
        backend.
    policy:
        Dispatch policy name (``"round-robin"``, ``"least-loaded"``,
        ``"affinity"``) or a
        :class:`~repro.service.fleet.DispatchPolicy` instance.
    """

    n_chips: int = 4
    policy: object = "least-loaded"


class ExecutionService(ServingCore):
    """Serve a stream of protocol jobs across a fleet of chips."""

    _tier = "virtual"

    def __init__(self, template_backend, config: ServiceConfig | None = None,
                 registry=None, faults=None, clock=None):
        config = config or ServiceConfig()
        super().__init__(
            template_backend, config, registry, faults, config.n_chips
        )
        self.fleet = Fleet.spawn(
            template_backend,
            self.config.n_chips,
            registry=registry,
            cache_capacity=self.config.cache_capacity,
            plan=self._fault_plan,
            quarantine_after=self.config.quarantine_after,
        )
        # Every *fleet-global* time read goes through this clock (see
        # the audit note on `now`); defaults to fleet virtual time.
        self.clock = clock if clock is not None else FleetClock(self.fleet)
        self._records = self.fleet.workers
        self.policy = make_policy(self.config.policy)
        self._can_lease = can_lease(template_backend, config)
        # Terminal results of co-tenants that finished alongside another
        # job's dispatch; later step() calls return them one at a time.
        self._extra_results = deque()

    def _make_handle(self, job):
        return JobHandle(job=job, _service=self)

    @classmethod
    def dry_run(cls, config=None, registry=None, faults=None, clock=None,
                **backend_kwargs):
        """A service on time/geometry-only chips, for planning scale
        (the serving core's constructor, plus the injectable clock)."""
        return cls(
            DryRunBackend(**backend_kwargs), config=config, registry=registry,
            faults=faults, clock=clock,
        )

    # -- submission ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Service time [s] from the injected clock (fleet virtual
        time by default).

        Time-source audit (what reads which clock, and why):

        * ``self.clock.now()`` -- every *fleet-global* stamp: job
          ``submitted_at``, the release of due retries from the delay
          heap in :meth:`step` (read only while a retry is waiting),
          quarantine stamps and cooldown expiry (judged once per
          step).  These are service policy, so they follow whatever
          clock the service runs on.
        * ``worker.elapsed`` -- deliberately NOT the service clock:
          deadline expiry (a queue-wait budget on the chip the job
          would run on -- ``fleet.now`` would punish the job for other
          chips' progress), retry ``not_before`` stamps (backoff is
          served by the failing chip's timeline; the dispatch path then
          incubates *that* chip up to the window exactly once, so
          backoff cannot be double-charged), and per-attempt
          started/finished stamps.
        """
        return self.clock.now()

    def submit(self, protocol, priority=0, deadline=None) -> JobHandle:
        """Admit one job; returns its handle immediately.

        A refused job (queue full under ``"reject"``, or outranked
        under ``"shed-lowest"``) comes back with a terminal handle in
        state ``REJECTED`` -- submission never raises for admission
        decisions, so bursty callers can check ``handle.state`` instead
        of catching.
        """
        job, handle = self._open_job(
            protocol, priority, deadline,
            protocol.fingerprint(registry=self.registry),
        )
        self._enqueue(job)
        return handle

    # -- the drain loop -----------------------------------------------------

    def step(self) -> JobResult | None:
        """Advance the service until one job reaches a terminal state.

        Pops the highest-priority queued job and either expires it
        (deadline passed before its chip was free) or dispatches it to
        a chip, compiles or reuses its program, runs it, and meters the
        outcome.  An attempt that fails with a *retryable* error and
        has retry budget left waits out its backoff in the delay heap
        instead of going terminal; the loop then keeps dispatching
        until some job does terminalise.  Retries whose backoff has
        ended by the fleet clock rejoin the queue; when only retries in
        backoff are left, the earliest is queued anyway and its chip
        idles up to the end of its window, so nothing starves.  Returns
        the terminal job's :class:`JobResult`, or None when nothing is
        waiting.  Termination is guaranteed: every retry burns one of
        a job's bounded retry budget.

        Under multi-tenancy one dispatch may terminalise several
        co-resident jobs at once; the extras are buffered and returned
        by subsequent calls before any new dispatch happens.

        Raises :class:`~repro.core.errors.ServiceError` when a job waits
        and every chip is draining; the job stays queued.
        """
        if self._extra_results:
            return self._extra_results.popleft()
        expiry = self.clock.now()
        while True:
            if self._delayed:
                self._release_due(self.clock.now())
                if not self._queued_count:
                    # only retries in backoff are left: queue the
                    # earliest; its chip idles up to the window's end
                    self._push(heapq.heappop(self._delayed)[2])
            # cooldowns are judged once, at the step's start
            self._restore_chips(expiry)
            expiry = None
            if not self._queue:
                return None
            __, job = heapq.heappop(self._queue)
            if job.state is not JobState.QUEUED:
                continue  # shed after enqueue; already terminal
            if not self._accepting():
                # the health loop restarts a benched chip when none is
                # healthy, so the whole fleet is draining: an operator
                # decision.  The job goes back first, so a restart_chip
                # serves it later.
                heapq.heappush(self._queue, (job.sort_key(), job))
                raise ServiceError(
                    "no dispatchable chips: the whole fleet is draining"
                )
            self._queued_count -= 1
            outcome = self._dispatch(job)
            if outcome is None and self._extra_results:
                # the lead went into backoff but a co-tenant of its
                # lease group went terminal: return that instead
                outcome = self._extra_results.popleft()
            if outcome is not None:
                return outcome  # terminal; None means a retry in backoff

    def drain(self) -> list:
        """Run every queued job to a terminal state, priority order."""
        results = []
        while True:
            result = self.step()
            if result is None:
                return results
            results.append(result)

    # -- self-healing -------------------------------------------------------

    def _power_cycle(self, worker):
        """The health loop's restart: :meth:`restart_chip`."""
        self.restart_chip(worker.chip_id)

    def quarantine_chip(self, chip_id, error=None):
        """Bench a chip: no new dispatches until it is restarted.

        Only a healthy chip is benched: a draining or already
        quarantined one is left as it is.  ``error`` is a
        :class:`JobError` to name in the log line; its span ids make it
        greppable back to the span tree in the trace.
        """
        self._mark_quarantined(
            self.fleet.worker(chip_id), self.clock.now(), error=error
        )

    def drain_chip(self, chip_id):
        """Gracefully take a chip out of rotation (state intact).

        Drain wins: a quarantined chip drained is no longer restarted
        at the end of its cooldown; only :meth:`restart_chip` brings it
        back.
        """
        self.fleet.worker(chip_id).health = ChipHealth.DRAINING

    def restart_chip(self, chip_id):
        """Power-cycle a chip: fresh backend spawn, cleared program
        cache (chip memory is wiped), health reset.

        The replacement inherits the SLOT's clock (a restart does not
        travel back in time) and -- when a fault plan is active -- the
        same physical defect map with a re-seeded transient stream.

        The slot clock resumes at the old chip's local time, pushed
        forward to the end of the cooldown window when the chip was
        quarantined.  It does NOT jump to ``fleet.now``: yanking a
        benched slot to the global max clock would make every later
        failure on it stamp retries with a fleet-wide ``not_before``,
        forcing other chips to idle up to it.
        """
        worker = self.fleet.worker(chip_id)
        # Capture the slot clock BEFORE the worker's session is
        # replaced (a fresh backend reads 0.0).
        online_at = worker.elapsed
        cooldown = self.config.restart_cooldown
        if worker.quarantined_at is not None and cooldown is not None:
            online_at = max(online_at, worker.quarantined_at + cooldown)
        worker.restart()
        if online_at > 0.0:
            worker.session.backend.incubate(online_at)
        self._mark_restarted(worker, online_at)

    def _close_attempt(self, job, worker, attempt) -> JobResult | None:
        """Account ``attempt`` of ``job`` to ``worker`` -- its failure
        streak may bench the chip -- then settle it."""
        worker.jobs_done += 1
        if worker.record(attempt.error):
            self._mark_quarantined(
                worker, self.clock.now(), worker.consecutive_failures,
                attempt.error,
            )
        return self._settle(job, worker.chip_id, attempt, worker.elapsed)

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, job) -> JobResult | None:
        """Run one attempt of ``job`` on a healthy chip (:meth:`step`
        has checked that one exists); returns its terminal
        :class:`JobResult`, or None when the attempt went into backoff
        for a retry."""
        eligible = steer(job, self._accepting())
        if job.not_before > 0.0 and len(eligible) > 1:
            # Clock-aware retry placement: the backoff window ends at a
            # point in FLEET time, so a chip whose local clock already
            # passed it takes the retry with zero idle, while a lagging
            # chip would incubate all the way up to the window before
            # doing any work.  Prefer caught-up chips (the policy picks
            # among them as usual); failing that, the least-lagging one.
            caught_up = [w for w in eligible if w.elapsed >= job.not_before]
            eligible = caught_up or [max(eligible, key=lambda w: w.elapsed)]
        worker = self.policy.select(eligible, job.fingerprint)
        # Deadline is a queue-wait budget on the chip the job would
        # actually run on: expiry must not punish a job for OTHER
        # chips' progress (fleet.now) when its own chip is free.
        if job.expired(worker.elapsed):
            return self._finish_unserved(job, JobState.EXPIRED, "expired")
        # Chips run in parallel: a chip whose local clock lags the job's
        # submission time was simply idle in fleet wall time, so it sits
        # (cages static) until the job could physically have arrived.
        # This keeps every JobResult on ONE clock -- started_at is never
        # before submitted_at, and queue waits are genuine, not clamped.
        # Retries additionally honour their backoff window (not_before).
        resume_at = max(job.submitted_at, job.not_before)
        if worker.elapsed < resume_at:
            worker.session.backend.incubate(resume_at - worker.elapsed)
        started_at = worker.elapsed
        self._note_start(job, worker.chip_id)
        if self._can_lease:
            windows = LeaseWindows(self._template, worker.chip_id)
            fit = windows.fit(job.protocol, job.fingerprint)
            if fit is not None:
                return self._dispatch_leased(
                    job, worker, windows, *fit, started_at
                )
        # The attempt span runs on the WORKER's chip clock (per-attempt
        # chip seconds), while the job root span runs on the fleet clock.
        attempt = worker.attempt(
            job, lambda: worker.elapsed, budget=self.config.job_timeout
        )
        worker.busy_time += attempt.finished_at - attempt.started_at
        return self._close_attempt(job, worker, attempt)

    # -- multi-tenant dispatch ----------------------------------------------

    def _collect_tenants(self, worker, started_at, windows):
        """Ready co-tenants for a lease group on ``worker``, in
        priority order.

        A queued job joins when it is ready at the group's start
        (submitted, outside any backoff window), has never failed on
        this chip, and a window for its footprint can still be leased;
        everything else stays queued.  Deadline-expired jobs found on
        the way terminalise exactly as :meth:`step` would, their
        results buffered for later steps.
        """
        picked = []
        passed = []
        while self._queue and len(picked) < self.config.max_tenants - 1:
            __, job = heapq.heappop(self._queue)
            if job.state is not JobState.QUEUED:
                continue
            if (max(job.submitted_at, job.not_before) > started_at
                    or worker.chip_id in job.tried_chips):
                passed.append(job)
                continue
            if job.expired(worker.elapsed):
                self._queued_count -= 1
                self._extra_results.append(
                    self._finish_unserved(job, JobState.EXPIRED, "expired")
                )
                continue
            fit = windows.fit(job.protocol, job.fingerprint)
            if fit is None:
                passed.append(job)
                continue
            self._queued_count -= 1
            picked.append((job, *fit))
        for job in passed:
            heapq.heappush(self._queue, (job.sort_key(), job))
        return picked

    def _dispatch_leased(self, lead, worker, windows, lease, offset,
                         started_at) -> JobResult | None:
        """Run ``lead`` plus any ready co-tenants in disjoint leased
        windows of ``worker``'s chip, frames merged.

        Every tenant executes on its own region-clipped view, on a
        clock that starts with the group; the group's chip time is then
        charged ONCE (see :meth:`~repro.service.core.ServedChip.lease_group`).
        Returns the lead's terminal result (None when it went into
        backoff for a retry); co-tenant results land in the
        extra-results buffer.
        """
        tenants = [(lead, lease, offset)]
        tenants += self._collect_tenants(worker, started_at, windows)
        for job, __, __ in tenants[1:]:
            self._note_start(job, worker.chip_id)
        attempts = worker.lease_group(
            tenants, lambda view: lambda: started_at + view.elapsed,
            budget=self.config.job_timeout,
        )
        group_time = attempts[0].group_time
        if group_time > 0.0:
            worker.session.backend.incubate(group_time)
        worker.busy_time += group_time
        lead_outcome = None
        for (job, __, __), attempt in zip(tenants, attempts):
            resolved = self._close_attempt(job, worker, attempt)
            if resolved is None:
                continue
            if job is lead:
                lead_outcome = resolved
            else:
                self._extra_results.append(resolved)
        return lead_outcome
