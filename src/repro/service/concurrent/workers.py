"""Chip workers and the wall-clock concurrent execution service.

The virtual-clock :class:`~repro.service.scheduler.ExecutionService`
drains jobs on one thread over simulated time -- the deterministic
behavioural reference.  This module is the tier that serves jobs for
real: N chip workers, each owning one spawned backend (fault-injected
when a plan is active) plus its compiled-program cache, pull jobs from
their own ready lane and push attempt outcomes to a completion queue.
The coordinator applies the serving core's semantics (see
:mod:`repro.service.core`: admission bounds, retry backoff,
settlement, chip health transitions, telemetry and the observation
surface) on a monotonic wall clock, keeping one
:class:`~repro.service.core.ChipRecord` per worker that also holds the
worker's lane, warm fingerprints, runner, restart event and the jobs
handed to it and not yet resolved.

The coordinator is one pass,
:meth:`ConcurrentExecutionService._pump_pass`: given the time and a
batch of worker messages it handles the messages in order, then
releases due retries, checks worker liveness, runs the core's health
loop and refills the lanes.  Its effects leave only through the lanes
and the restart events, and what it knows of a lane is its own count
of the jobs handed to that worker and not yet reported started.  The
pump thread is a thin loop around it: wait on the completion queue
until a message arrives or the pass next has timed work (a retry's
backoff or a benched worker's cooldown ends, or the liveness check is
due), collect what has arrived, make one pass at the clock's ``now``.
Nothing polls: an idle worker blocks on its lane and a benched one on
its restart event.  The pool's start is one method, so a test can
build the records over in-memory lanes with stub runners, set a manual
clock and feed the pass scripted messages.  The ``pool`` gauges are derived from that
state: ``inflight`` from the records' job dicts, ``outstanding`` from
the live handles.

Workers come in two flavours:

* ``mode="thread"`` (default) -- workers are threads.  The numpy
  ``ArrayState`` core releases the GIL in its hot ops, and on real
  hardware the chip itself is a device the worker *waits on* (cages
  move at ~50 um/s), so threads are the natural fit; ``time_scale``
  emulates that device latency by pacing each attempt to its accounted
  chip seconds.
* ``mode="process"`` -- workers are ``multiprocessing`` (spawn)
  processes; the template chip is pickled once per worker at startup
  and jobs/results cross the queues pickled.  True host parallelism
  for CPU-bound simulation at the cost of per-dispatch serialisation.

Fault tolerance runs in wall time: a retryable attempt waits out an
exponential backoff in the serving core's delay heap (the window is
charged exactly once, never re-slept at dispatch), and the coordinator
places the retry only on a chip the core's steering rule allows --
one that has not already failed the job, when there is one; a retry
whose steered chips' lanes are full waits in the queue.  A worker that
fails K consecutive retryable attempts benches *itself* -- it stops
pulling at once, so its queued work drains to the rest of the pool --
and parks until the coordinator's pass of the core's health loop asks
for the restart: a fresh backend spawn that preserves the physical
defect map and re-seeds the transient stream.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from dataclasses import dataclass, field, replace

from ...analysis import ascii_table
from ...core.errors import ServiceError
from ...observability import tracing
from ..cache import CacheStats
from ..core import (
    Attempt,
    ChipHealth,
    ChipRecord,
    CoreConfig,
    LeaseWindows,
    ServedChip,
    ServingCore,
    can_lease,
    enforce_timeout,
    steer,
)
from ..jobs import ErrorKind, JobError, JobResult, JobState, JobView
from .syncbridge import SenseTap, WallClock

#: Worker execution modes.
WORKER_MODES = ("thread", "process")

#: ``multiprocessing`` start method of ``mode="process"``: the only one
#: that is safe while the coordinator's threads run (a fork would copy
#: their locks in whatever state they held).
MP_CONTEXT = "spawn"

#: Seconds between the coordinator's checks for workers that died
#: without a parting message.
LIVENESS_PERIOD = 1.0


@dataclass
class ConcurrentConfig(CoreConfig):
    """Tuning knobs of one :class:`ConcurrentExecutionService`.

    The serving knobs both tiers share are documented on
    :class:`~repro.service.core.CoreConfig`; here every duration is
    *wall seconds* on the service's monotonic clock -- backoff,
    timeouts, deadlines and cooldowns are real time.  A full queue
    suspends ``submit(block=True)`` instead of rejecting -- the
    backpressure path.  A benched worker parks until the core's health
    loop restarts it: after ``restart_cooldown``, or at once when no
    worker is healthy while work waits (with None it otherwise waits
    for :meth:`ConcurrentExecutionService.restart_worker`).  With
    ``max_tenants`` > 1 a worker pulls up to that many jobs at once and
    paces the group to the *merged* frame time.

    Attributes
    ----------
    n_workers:
        Pool size; each worker owns one isolated spawn of the template
        backend plus its own compiled-program cache.
    mode:
        ``"thread"`` (default) or ``"process"`` (multiprocessing
        :data:`MP_CONTEXT` start; the chip template is pickled once per
        worker).
    time_scale:
        Device-latency emulation: each attempt is paced to
        ``accounted chip seconds * time_scale`` of real time (the
        worker sleeps the remainder, as it would wait on hardware).
        None/0 disables pacing -- attempts run as fast as the host
        simulates.

    No wait in the pool polls: an idle worker blocks on its lane, a
    benched one on its restart event, and the coordinator until a
    worker message arrives or its next timed work is due, so there is
    no poll period to tune.
    """

    n_workers: int = 4
    mode: str = "thread"
    retry_backoff: float = 0.05
    restart_cooldown: float | None = 1.0
    time_scale: float | None = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.mode not in WORKER_MODES:
            raise ValueError(
                f"mode must be one of {WORKER_MODES}, got {self.mode!r}"
            )
        super().__post_init__()


class _WorkerRuntime:
    """One chip worker's execution loop -- shared by both modes.

    Owns the worker's :class:`~repro.service.core.ServedChip` (built
    inside :meth:`run`, every backend behind a :class:`SenseTap` so
    sense outcomes stream to the coordinator).  The worker trips its
    own failure streak, so it stops pulling at once, but the restart
    is the coordinator's call, sent through the per-worker restart
    event -- the only control channel, the same for threads and
    processes.  Every message home carries the chip's cumulative fault
    counters and program-cache stats.
    """

    def __init__(self, worker_id, template, registry, plan, config,
                 clock, ready_q, done_q, stop_event, restart_event,
                 strip_cause=False):
        self.worker_id = worker_id
        self.template = template
        self.registry = registry
        self.plan = plan
        self.config = config
        self.clock = clock
        self.ready_q = ready_q
        self.done_q = done_q
        self.stop_event = stop_event
        self.restart_event = restart_event
        self.strip_cause = strip_cause
        self.chip = None
        self._can_lease = can_lease(template, config)
        # Process mode only: the local tracer's in-memory exporter;
        # finished span dicts are drained into each outcome message so
        # the coordinator can ingest them into the parent trace.
        self.span_buffer = None

    def _on_sense(self, sense_result):
        if self.chip.job_id is not None:
            self._send("sense", self.chip.job_id, sense_result)

    def _send(self, kind, *payload):
        chip = self.chip
        if chip is None:
            faults, stats = {}, CacheStats()
        else:
            faults = chip.fault_counters()
            stats = replace(chip.cache_stats)
        self.done_q.put((kind, self.worker_id, faults, stats, *payload))

    # -- the worker loop ----------------------------------------------------

    def run(self):
        try:
            self.chip = ServedChip(
                self.worker_id, self.template, registry=self.registry,
                plan=self.plan, cache_capacity=self.config.cache_capacity,
                quarantine_after=self.config.quarantine_after,
                tap=lambda backend: SenseTap(backend, self._on_sense),
            )
        except Exception as exc:  # noqa: BLE001 -- a worker that cannot
            # even spawn must report and die, not hang the pool
            self._send("worker_error", repr(exc))
            return
        while True:
            item = self.ready_q.get()
            if item is None:  # graceful-shutdown sentinel
                break
            # a restart asked while this worker idled runs before the
            # job that woke it
            self._restart_if_asked()
            items = [item]
            stop_after = False
            # Tenancy lanes: opportunistically pull more ready work and
            # co-schedule it in disjoint leased regions of this chip.
            while self._can_lease and len(items) < self.config.max_tenants:
                try:
                    extra = self.ready_q.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    stop_after = True
                    break
                items.append(extra)
            runnable = []
            for job in items:
                if job.expired(self.clock.now()):
                    self._send("expired", job.job_id)
                    continue
                runnable.append(job)
            # Like the virtual tier, every job with a window is leased,
            # alone or not, so its result does not hang on what else
            # this pull held.
            leased, solo = [], runnable
            if self._can_lease:
                windows = LeaseWindows(self.template, self.worker_id)
                leased, solo = [], []
                for job in runnable:
                    fit = windows.fit(job.protocol, job.fingerprint)
                    if fit is None:
                        solo.append(job)
                    else:
                        leased.append((job, *fit))
            if leased:
                self._run_group(leased)
            for job in solo:
                self._send("started", job.job_id, self.clock.now())
                # The attempt span's domain clock is the SHARED wall
                # clock (chip clocks reset per worker spawn); its
                # chip-local seconds ride along as an attribute.
                attempt = self.chip.attempt(
                    job, self.clock.now, budget=self.config.job_timeout,
                    pace=self._pace,
                )
                self._report([(job, attempt)])
            if stop_after:
                break
        self._send("stopped")

    def _pace(self, started, chip_seconds):
        """Device pacing: on real hardware the attempt *takes* its chip
        time; sleep out what simulation didn't spend."""
        if self.config.time_scale:
            remaining = (chip_seconds * self.config.time_scale
                         - (self.clock.now() - started))
            if remaining > 0.0:
                time.sleep(remaining)

    def _report(self, outcomes):
        """Ship ``(job, attempt)`` outcomes home and bench the chip
        when its failure streak reaches the threshold: on the first
        attempt that trips it, with that attempt's error and streak,
        even if a later tenant's success resets the streak.  A benched
        worker reports ``quarantined`` and parks until the coordinator
        asks for the restart (or the pool stops)."""
        tripped = None
        for job, attempt in outcomes:
            if self.chip.record(attempt.error) and tripped is None:
                tripped = (self.chip.consecutive_failures, attempt.error)
            if attempt.error is not None and self.strip_cause:
                # exception objects are not reliably picklable across
                # the process boundary; the structured JobError is
                attempt.error.cause = None
            spans = (
                self.span_buffer.drain()
                if self.span_buffer is not None else None
            )
            self._send("outcome", job.job_id, attempt, spans)
        if tripped is not None:
            self._send("quarantined", self.clock.now(), *tripped)
            self.restart_event.wait()
            if not self.stop_event.is_set():  # else close() woke it
                self._restart_if_asked()

    # -- multi-tenant lanes --------------------------------------------------

    def _run_group(self, leased):
        """Run a lease group: each tenant on its own leased view of
        this chip, the whole group paced once to the merged frame
        time -- concurrent tenants share the chip's wall time, which
        is what multi-tenancy buys."""
        group_started = self.clock.now()
        for job, __, __ in leased:
            self._send("started", job.job_id, group_started)
        attempts = self.chip.lease_group(leased, lambda view: self.clock.now)
        self._pace(group_started, attempts[0].group_time)
        finished = self.clock.now()
        outcomes = []
        for (job, __, __), attempt in zip(leased, attempts):
            attempt.started_at, attempt.finished_at = group_started, finished
            enforce_timeout(
                attempt, job, self.worker_id, self.config.job_timeout
            )
            outcomes.append((job, attempt))
        self._report(outcomes)

    def _restart_if_asked(self):
        """Power-cycle the chip if the coordinator has asked for it."""
        if self.restart_event.is_set():
            self.restart_event.clear()
            self.chip.restart()
            self._send("restarted", self.clock.now(), self.chip.restarts)


def _process_worker_main(worker_id, template, registry, plan, config,
                         epoch, ready_q, done_q, stop_event, restart_event,
                         trace=False):
    """Entry point of one spawned worker process.

    The template backend arrives pickled exactly once (as this
    function's argument); the worker spawns its chip from it locally.
    The wall-clock epoch is shared so deadlines and timestamps line up
    with the parent's timeline.

    ``trace`` says whether a tracer was installed in the parent when
    the pool spawned: tracers do not pickle, so the child installs its own
    buffering tracer and ships finished span dicts back inside each
    outcome message for the coordinator to ingest.
    """
    runtime = _WorkerRuntime(
        worker_id, template, registry, plan, config,
        WallClock(epoch=epoch), ready_q, done_q, stop_event, restart_event,
        strip_cause=True,
    )
    if trace:
        from ...observability.exporters import InMemorySpanExporter

        runtime.span_buffer = InMemorySpanExporter()
        tracing.install(tracing.Tracer(exporters=[runtime.span_buffer]))
    runtime.run()


class ConcurrentJobHandle(JobView):
    """Future-style view of a job submitted to the concurrent tier.

    Unlike the virtual tier's handle, waiting never drives a scheduler
    -- the worker pool runs the job regardless; :meth:`wait` just
    blocks the calling thread on the terminal event.  Progress events
    (queued / started / sense / retrying / terminal) can be observed
    via :meth:`subscribe`; late subscribers get the full event history
    replayed first, so no event is ever lost to a race.
    """

    #: Event kinds that end a job's stream.
    TERMINAL_KINDS = ("done", "failed", "rejected", "shed", "expired")

    def __init__(self, job):
        self.job = job
        self._result = None
        self._done_event = threading.Event()
        self._lock = threading.Lock()
        self._events = []
        self._subscribers = []

    def done(self) -> bool:
        return self._done_event.is_set()

    def wait(self, timeout=None) -> JobResult:
        """Block until the job is terminal; raises
        :class:`~repro.core.errors.ServiceError` on timeout."""
        if not self._done_event.wait(timeout):
            raise ServiceError(
                f"job {self.job_id} not terminal within {timeout}s "
                f"(state {self.job.state.value})"
            )
        return self._result

    def result(self, wait=True, timeout=None) -> JobResult:
        if not self.done():
            if not wait:
                raise ServiceError(
                    f"job {self.job_id} is still {self.job.state.value}"
                )
            return self.wait(timeout)
        return self._result

    def events(self) -> list:
        """The event history so far (a copy)."""
        with self._lock:
            return list(self._events)

    def subscribe(self, callback):
        """Register ``callback(event_dict)``; the history is replayed
        to it first (under the lock, so no event is missed/reordered).
        Callbacks run on coordinator/worker threads -- they must be
        quick and thread-safe."""
        with self._lock:
            history = list(self._events)
            self._subscribers.append(callback)
        for event in history:
            callback(event)

    def _emit(self, event):
        with self._lock:
            self._events.append(event)
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)

    def _resolve(self, result: JobResult):
        self._result = result
        kind = (
            result.state.value
            if result.state.value in self.TERMINAL_KINDS else "done"
        )
        self._emit({"kind": kind, "result": result})
        self._done_event.set()


@dataclass(eq=False)
class _Worker(ChipRecord):
    """The coordinator's record of one worker: its chip's serving state
    (``busy_time`` in wall seconds, counters copied from its messages),
    its ready ``lane``, ``warm`` fingerprints, ``runner`` and
    ``restart_event``, the ``jobs`` handed to it and not yet resolved
    (by id; those still QUEUED are in its lane or pulled and not yet
    reported started), its liveness-check misses (``strikes``) and
    whether a requested restart is still unreported (``cycling``)."""

    lane: object = None
    restart_event: object = None
    runner: object = None
    warm: set = field(default_factory=set)
    jobs: dict = field(default_factory=dict)
    strikes: int = 0
    cycling: bool = False


class ConcurrentExecutionService(ServingCore):
    """Serve protocol jobs across a pool of wall-clock chip workers.

    Admission, retries and settlement are the serving core's (see
    :class:`~repro.service.core.ServingCore`); what this tier adds is
    real execution: submissions are thread-safe, jobs execute on worker
    threads or processes as they are submitted, and all durations are
    wall seconds on one monotonic clock.  ``submit(block=True)`` suspends
    the caller while the admission queue is full -- the backpressure
    path the asyncio front end builds on.

    Use as a context manager (or call :meth:`close`) so workers are
    joined deterministically::

        with ConcurrentExecutionService.dry_run(
                ConcurrentConfig(n_workers=8)) as service:
            handles = service.submit_many(protocols)
            results = service.drain()
    """

    def __init__(self, template_backend, config: ConcurrentConfig | None = None,
                 registry=None, faults=None):
        config = config or ConcurrentConfig()
        super().__init__(
            template_backend, config, registry, faults, config.n_workers
        )
        self.clock = WallClock()
        # -- coordination state (all under _lock) --
        self._lock = threading.RLock()
        self._capacity = threading.Condition(self._lock)
        self._terminal = threading.Condition(self._lock)
        self._results = []       # terminal results pending drain()
        self._closed = False
        self._pump_stop = False
        self._liveness_at = 0.0  # when the last liveness check ran
        # One ready lane PER worker: the coordinator steers each job to
        # a chosen chip (fresh hardware for retries, warm program cache
        # for repeats) instead of letting an arbitrary idle worker grab
        # it.  Lane depth above 1 lets a worker pull a whole
        # co-residency group at once.
        self._lane_depth = max(1, self.config.max_tenants)
        self._start_pool()

    def _start_pool(self):
        """Build and start the pool: one record per worker with its
        ready lane, restart event and runner, the stop event and done
        queue they share, and the coordinator's pump thread.  Nothing
        else in the service knows how the workers run, so a subclass
        can override this to script the workers by hand."""
        process = self.config.mode == "process"
        if process:
            import multiprocessing

            ctx = multiprocessing.get_context(MP_CONTEXT)
            make_queue, make_event = ctx.Queue, ctx.Event
        else:
            make_queue, make_event = queue.Queue, threading.Event
        self._done_q = make_queue()
        self._stop_event = make_event()
        self._records = [
            _Worker(i, lane=make_queue(maxsize=self._lane_depth),
                    restart_event=make_event())
            for i in range(self.config.n_workers)
        ]
        trace = tracing.get_tracer() is not None
        for worker in self._records:
            args = (worker.chip_id, self._template, self.registry,
                    self._fault_plan, self.config)
            channels = (worker.lane, self._done_q, self._stop_event,
                        worker.restart_event)
            name = f"chip-worker-{worker.chip_id}"
            if process:
                worker.runner = ctx.Process(
                    target=_process_worker_main,
                    args=(*args, self.clock.epoch, *channels, trace),
                    daemon=True, name=name,
                )
            else:
                runtime = _WorkerRuntime(*args, self.clock, *channels)
                worker.runner = threading.Thread(
                    target=runtime.run, daemon=True, name=name
                )
            worker.runner.start()
        self._pump = threading.Thread(
            target=self._pump_loop, daemon=True, name="service-pump"
        )
        self._pump.start()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(drain=exc_type is None)

    def close(self, drain=True, timeout=60.0):
        """Stop the pool.  With ``drain=True`` every submitted job
        finishes first; otherwise still-queued jobs resolve REJECTED
        (in-flight attempts are always allowed to finish -- a chip is
        never yanked mid-protocol).

        Re-entrant: the first call refuses new submits at once, and a
        call whose wait timed out (ServiceError) leaves the pool
        serving, so a later call finishes the shutdown."""
        with self._lock:
            if self._stop_event.is_set():
                return  # another call has shut the pool down
            self._closed = True
            self._capacity.notify_all()
            if not drain:
                for job in self._drop_queued_jobs():
                    self._finish_unserved(job, JobState.REJECTED, "rejected",
                                          "service shut down")
        self._await_terminal(timeout)
        with self._lock:
            if self._stop_event.is_set():
                return
            # Every job is terminal, so nothing runs any more.  The pump
            # stops at the next message (the workers' parting
            # ``stopped``), and a benched worker parked on its restart
            # event wakes, sees the stop event and reads its sentinel.
            self._stop_event.set()
            self._pump_stop = True
        for worker in self._records:
            worker.restart_event.set()
            # no job is left in a lane, so each has room for its sentinel
            worker.lane.put_nowait(None)
        deadline = time.monotonic() + timeout
        for worker in self._records:
            worker.runner.join(max(0.1, deadline - time.monotonic()))
        for worker in self._records:
            runner = worker.runner
            if runner.is_alive():
                runner.join(1.0)
                if hasattr(runner, "terminate") and runner.is_alive():
                    runner.terminate()
        self._pump.join(timeout=5.0)
        with self._lock:
            # the workers' parting messages (``stopped``) the pump may
            # have stopped short of
            for message in self._collect():
                self._handle_message(message)

    def _drop_queued_jobs(self):
        """Pull every coordinator-held QUEUED job (queue + delay heap)."""
        dropped = self._waiting()
        self._queue.clear()
        self._delayed.clear()
        self._queued_count = 0
        return dropped

    def _await_terminal(self, timeout):
        with self._lock:
            deadline = time.monotonic() + timeout
            while self._handles:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise ServiceError(
                        f"{len(self._handles)} jobs still not terminal "
                        f"after {timeout}s"
                    )
                self._terminal.wait(remaining)

    # -- submission / admission ---------------------------------------------

    @property
    def _tier(self) -> str:
        return self.config.mode

    def _make_handle(self, job):
        return ConcurrentJobHandle(job)

    @property
    def now(self) -> float:
        """Wall seconds since the service started."""
        return self.clock.now()

    def submit(self, protocol, priority=0, deadline=None, block=False,
               timeout=None) -> ConcurrentJobHandle:
        """Admit one job; returns its handle immediately.

        With ``block=True`` a full admission queue *suspends* the
        caller (backpressure) until capacity frees or ``timeout`` wall
        seconds pass, instead of rejecting; otherwise admission
        follows the configured policy (a refused job comes back with a
        terminal REJECTED handle -- submission never raises for
        admission decisions).
        """
        fingerprint = protocol.fingerprint(registry=self.registry)
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if block:
                limit = self.config.max_queue_depth
                end = None if timeout is None else time.monotonic() + timeout
                while (limit is not None and self.queue_depth >= limit
                        and not self._closed):
                    remaining = (
                        None if end is None else end - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0.0:
                        break  # fall through to normal admission (rejects)
                    self._capacity.wait(remaining)
                if self._closed:
                    raise ServiceError("service closed while waiting to submit")
            job, handle = self._open_job(
                protocol, priority, deadline, fingerprint
            )
            if self._enqueue(job):
                handle._emit({"kind": "queued", "t": job.submitted_at})
                # a pool whose every worker is benched restarts one now
                self._restore_chips(self.clock.now())
                self._refill()
        return handle

    def _requeue(self, job, error):
        super()._requeue(job, error)
        handle = self._handles.get(job.job_id)
        if handle is not None:
            handle._emit({
                "kind": "retrying", "worker": job.last_chip,
                "attempts": job.attempts, "not_before": job.not_before,
                "error": str(error), "t": self.clock.now(),
            })

    def _resolve(self, job, result):
        """Terminalise ``job`` (caller holds the lock)."""
        self._results.append(result)
        super()._resolve(job, result)
        self._terminal.notify_all()
        self._capacity.notify_all()
        return result

    # -- the coordinator ----------------------------------------------------

    def _pump_loop(self):
        """The coordinator thread: wait for a worker message, no longer
        than until the pass's next timed work (:meth:`_pump_deadline`),
        then make one :meth:`_pump_pass` over whatever has arrived."""
        while True:
            with self._lock:
                if self._pump_stop:
                    return
                timeout = max(0.001, self._pump_deadline() - self.clock.now())
            messages = self._collect(timeout)
            with self._lock:
                self._pump_pass(self.clock.now(), messages)

    def _pump_deadline(self) -> float:
        """When the pass next has timed work (caller holds the lock):
        the first retry whose backoff ends, the first benched worker
        whose cooldown ends (one already asked to restart has none)
        or the next liveness check, whichever is first."""
        deadlines = [self._liveness_at + LIVENESS_PERIOD]
        if self._delayed:
            deadlines.append(self._delayed[0][0])
        cooldown = self.config.restart_cooldown
        if cooldown is not None:
            deadlines += [
                w.quarantined_at + cooldown for w in self._records
                if w.health is ChipHealth.QUARANTINED and not w.cycling
            ]
        return min(deadlines)

    def _collect(self, timeout=None) -> list:
        """The worker messages waiting on the done queue, after waiting
        up to ``timeout`` seconds for the first (None: no wait)."""
        messages = []
        try:
            if timeout is not None:
                messages.append(self._done_q.get(timeout=timeout))
            while True:
                messages.append(self._done_q.get_nowait())
        except queue.Empty:
            return messages

    def _pump_pass(self, now, messages):
        """One coordinator decision step at time ``now`` (caller holds
        the lock): handle ``messages`` in order, release the retries
        due, check worker liveness once a second, run the core's health
        loop and refill the lanes.  Its effects leave only through the
        records' lanes (filled, or emptied of a benched or dead
        worker's unpulled jobs) and restart events; of the workers it
        reads only ``messages`` and, for the liveness check, the
        runners."""
        for message in messages:
            self._handle_message(message)
        self._release_due(now)
        if now - self._liveness_at >= LIVENESS_PERIOD:
            self._liveness_at = now
            self._check_worker_liveness()
        self._restore_chips(now)
        self._refill()

    def _check_worker_liveness(self):
        """Detect workers that died without a parting message (a
        killed process, a spawn that crashed at import) so their jobs
        and the drain() waiters don't hang.  Two consecutive misses
        with no message in between are required -- a worker's final
        messages can still be in flight when it exits."""
        for worker in self._records:
            if worker.health in (ChipHealth.STOPPED, ChipHealth.DEAD):
                continue
            if worker.runner.is_alive():
                worker.strikes = 0
                continue
            worker.strikes += 1
            if worker.strikes >= 2:
                self._mark_worker_dead(
                    worker.chip_id, "worker exited unexpectedly"
                )

    def _mark_worker_dead(self, worker_id, detail):
        """Terminal bookkeeping for a worker that will never serve
        again (caller holds the lock)."""
        worker = self._records[worker_id]
        worker.health = ChipHealth.DEAD
        worker.warm.clear()
        self._reclaim_lane(worker)
        # What is left the worker pulled, and can never report: treat
        # the death as a retryable chip failure of each attempt.
        for job_id in sorted(worker.jobs):
            now = self.clock.now()
            self._handle_outcome(worker_id, job_id, Attempt(
                error=JobError(
                    kind=ErrorKind.TRANSIENT,
                    message=f"worker {worker_id} died mid-attempt: {detail}",
                    chip_id=worker_id,
                    attempts=worker.jobs[job_id].attempts + 1,
                ),
                started_at=now,
                finished_at=now,
            ))

    def _reclaim_lane(self, worker):
        """Send the never-attempted jobs in a worker's lane back to the
        heap once the worker stops pulling -- dead, or parked in
        quarantine; a shutdown sentinel stays (caller holds the lock)."""
        lane = worker.lane
        items = []
        while True:
            try:
                items.append(lane.get_nowait())
            except queue.Empty:
                break
        for item in items:
            if item is None:
                lane.put_nowait(None)
            else:  # a process lane hands back a copy: queue the job
                self._push(worker.jobs.pop(item.job_id))

    def _lane_load(self, worker) -> int:
        """The jobs handed to ``worker`` it has not reported started:
        never fewer than its lane holds."""
        return sum(job.state is JobState.QUEUED for job in worker.jobs.values())

    def _select_worker(self, job, require_warm):
        """The record of the best chip with lane capacity for ``job`` among
        the accepting chips :func:`~repro.service.core.steer` allows:
        a warm program cache for its fingerprint first, then the
        shortest backlog and the least-busy chip.  None when no lane
        qualifies; the job then waits in the queue.

        With ``require_warm``, a job whose fingerprint is warm on some
        accepting chip is only placed on a warm one -- if all its warm
        chips' lanes are full, None (the caller holds the job briefly
        instead of re-compiling it cold elsewhere).  Fingerprints warm
        nowhere are exempt (someone has to compile them first), and so
        are retries: a job that already failed on a chip goes to fresh
        hardware even when its only warm cache is the chip that just
        burned it -- fault isolation beats locality.
        """
        accepting = self._accepting()
        warm_anywhere = any(job.fingerprint in w.warm for w in accepting)
        hold_for_warm = require_warm and warm_anywhere and not job.tried_chips
        best = None
        best_key = None
        for worker in steer(job, accepting):
            load = self._lane_load(worker)
            if load >= self._lane_depth:
                continue
            warm = job.fingerprint in worker.warm
            if hold_for_warm and not warm:
                continue
            key = (not warm, load, worker.busy_time, worker.chip_id)
            if best_key is None or key < best_key:
                best, best_key = worker, key
        return best

    def _refill(self):
        """Feed the per-worker ready queues from the priority heap.

        Two passes: the first places jobs only on chips warm for their
        fingerprint (a job whose warm chip is momentarily full waits
        for that lane rather than re-compiling cold elsewhere); the
        second fills whatever lanes remain so no chip idles while work
        is queued -- cache locality never costs utilization.

        When no worker will ever serve again (a benched one still
        will, once the health loop restarts it), every waiting job is
        rejected instead, so its waiters never hang.
        """
        if not any(w.health in (ChipHealth.HEALTHY, ChipHealth.QUARANTINED)
                   for w in self._records):
            for job in self._drop_queued_jobs():
                self._finish_unserved(job, JobState.REJECTED, "rejected",
                                      "no live workers")
            return
        self._refill_pass(require_warm=True)
        self._refill_pass(require_warm=False)

    def _refill_pass(self, require_warm):
        depth = self._lane_depth
        if all(self._lane_load(w) >= depth for w in self._accepting()):
            return
        skipped = []
        while self._queue:
            __, job = heapq.heappop(self._queue)
            if job.state is not JobState.QUEUED:
                continue  # shed after enqueue
            worker = self._select_worker(job, require_warm)
            if worker is None:
                skipped.append(job)
                if require_warm or job.tried_chips:
                    continue  # held for its warm or its steered chips
                break  # no free lane at all
            worker.lane.put_nowait(job)
            self._queued_count -= 1
            worker.jobs[job.job_id] = job
            # Optimistic: the worker will compile (or already holds)
            # this fingerprint; cleared if the chip restarts or dies.
            worker.warm.add(job.fingerprint)
            self._capacity.notify_all()
        for job in skipped:
            heapq.heappush(self._queue, (job.sort_key(), job))

    def _handle_message(self, message):
        kind, worker_id, faults, cache_stats = message[:4]
        payload = message[4:]
        worker = self._records[worker_id]
        worker.strikes = 0  # it just spoke
        worker.faults, worker.cache_stats = faults, cache_stats
        if kind == "started":
            job_id, t = payload
            job = worker.jobs.get(job_id)
            if job is not None:
                self._note_start(job, worker_id)
                self._handles[job_id]._emit(
                    {"kind": "started", "worker": worker_id, "t": t}
                )
        elif kind == "sense":
            job_id, sense_result = payload
            handle = self._handles.get(job_id)
            if handle is not None:
                handle._emit({
                    "kind": "sense", "worker": worker_id,
                    "sense": sense_result, "t": self.clock.now(),
                })
        elif kind == "outcome":
            job_id, attempt, spans = payload
            self._handle_outcome(worker_id, job_id, attempt, spans)
        elif kind == "expired":
            job_id, = payload
            job = worker.jobs.pop(job_id, None)
            if job is not None:
                self._finish_unserved(job, JobState.EXPIRED, "expired")
        elif kind == "quarantined":
            t, streak, error = payload
            self._reclaim_lane(worker)
            self._mark_quarantined(worker, t, streak, error)
        elif kind == "restarted":
            t, worker.restarts = payload
            worker.cycling = False
            worker.warm.clear()  # the restart wiped its cache
            self._mark_restarted(worker, t)
        elif kind == "stopped":
            worker.health = ChipHealth.STOPPED
            worker.warm.clear()
        elif kind == "worker_error":
            detail, = payload
            self._mark_worker_dead(worker_id, detail)

    def _handle_outcome(self, worker_id, job_id, attempt, spans=None):
        tracer = tracing.get_tracer()
        if tracer is not None:
            # Process workers ship their finished span dicts (attempt +
            # on-chip children) inside the outcome; adopt them here so
            # the parent trace file holds the whole tree.
            for span_dict in spans or ():
                tracer.ingest(span_dict)
        worker = self._records[worker_id]
        job = worker.jobs.pop(job_id, None)
        if job is None:
            return  # a dead worker's attempt, already failed
        worker.jobs_done += 1
        # A merged group occupied the chip once; split the wall time
        # across its tenants so utilization reflects chip occupancy.
        worker.busy_time += (
            (attempt.finished_at - attempt.started_at) / attempt.tenants
        )
        self._settle(job, worker_id, attempt, self.clock.now())

    # -- draining / worker control ------------------------------------------

    def drain(self, timeout=300.0) -> list:
        """Block until every submitted job is terminal; returns the
        results that went terminal since the last drain (completion
        order)."""
        self._await_terminal(timeout)
        with self._lock:
            results, self._results = self._results, []
        return results

    def restart_worker(self, worker_id):
        """Request a manual power-cycle of one worker (it restarts
        between jobs, or immediately if parked in quarantine).  Raises
        ValueError for an id outside the pool."""
        if not 0 <= worker_id < len(self._records):
            raise ValueError(f"no worker {worker_id} in pool")
        with self._lock:
            self._power_cycle(self._records[worker_id])

    def _power_cycle(self, worker):
        """Ask ``worker`` to restart: its restart event is set once per
        request, which its ``restarted`` message closes."""
        if not worker.cycling:
            worker.cycling = True
            worker.restart_event.set()

    # -- observability ------------------------------------------------------

    def fault_counters(self) -> dict:
        with self._lock:
            return super().fault_counters()

    def snapshot(self) -> dict:
        """The serving core's snapshot plus ``pool``: the coordinator's
        own gauges (worker mode, lanes' warm fingerprints, the queue
        and backoff heap, the jobs handed to workers and the jobs not
        yet terminal)."""
        with self._lock:
            snap = super().snapshot()
            snap["pool"] = {
                "mode": self.config.mode,
                "max_tenants": self.config.max_tenants,
                "warm_fingerprints": {
                    w.chip_id: len(w.warm) for w in self._records
                },
                "queue_depth": self._queued_count,
                "delayed": len(self._delayed),
                "inflight": sum(len(w.jobs) for w in self._records),
                "outstanding": len(self._handles),
            }
        return snap

    def _report_tables(self, snap) -> list:
        pool = snap["pool"]
        return super()._report_tables(snap) + [
            ascii_table(
                ["worker", "warm fingerprints"],
                [[str(worker_id), str(warm)] for worker_id, warm in
                 pool["warm_fingerprints"].items()],
                title=(
                    f"pool: {pool['mode']} workers, up to "
                    f"{pool['max_tenants']} tenants each; "
                    f"{pool['queue_depth']} queued, {pool['delayed']} "
                    f"in backoff, {pool['inflight']} in flight, "
                    f"{pool['outstanding']} outstanding"
                ),
            )
        ]
