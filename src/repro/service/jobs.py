"""Jobs: the unit of work the fleet execution service schedules.

A :class:`Job` wraps one protocol with serving metadata (priority,
deadline, submission time); :meth:`ExecutionService.submit` returns a
:class:`JobHandle`, a future-style view the caller polls or waits on;
and a :class:`JobResult` records everything the service knows about the
job once it reaches a terminal state -- which chip ran it, whether the
compiled program came from cache, and the queue-wait / service-time
split of its latency.

All timestamps are in *fleet virtual seconds*: the accounted chip time
of the simulated fleet, not host CPU time.  That keeps latency metrics
deterministic and hardware-meaningful (a chip-second is a chip-second
regardless of how fast the host simulates it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.errors import ServiceError


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"          # admitted, waiting for a chip
    RUNNING = "running"        # dispatched to a chip
    DONE = "done"              # ran to completion
    FAILED = "failed"          # ran, but the chip raised
    REJECTED = "rejected"      # refused at admission (queue full)
    SHED = "shed"              # admitted, then dropped for a hotter job
    EXPIRED = "expired"        # deadline passed before a chip was free

    @property
    def terminal(self) -> bool:
        return self is not JobState.QUEUED and self is not JobState.RUNNING


#: Terminal states that never produced a run.
UNSERVED_STATES = (JobState.REJECTED, JobState.SHED, JobState.EXPIRED)


class ErrorKind(enum.Enum):
    """Taxonomy of job failures -- what went wrong, and whether a retry
    could have helped.

    * TRANSIENT -- a chip-attributable fault (:class:`ChipFault`): the
      same job may well succeed on a retry or on another chip.
    * TIMEOUT -- the attempt exceeded the per-job service-time budget;
      retryable (another chip, or a cache hit, may be faster).
    * PERMANENT -- the job itself is bad (protocol bug, separation
      violation, compile error); retrying anywhere is pointless.
    * REJECTED -- the service refused or dropped the job before any
      chip ran it (admission, shed, deadline expiry).
    """

    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    PERMANENT = "permanent"
    REJECTED = "rejected"

    @property
    def retryable(self) -> bool:
        return self in (ErrorKind.TRANSIENT, ErrorKind.TIMEOUT)


@dataclass
class JobError:
    """Structured error record on a terminal :class:`JobResult`.

    ``__str__`` returns the bare message so existing callers that do
    substring checks on ``str(result.error)`` keep working.
    """

    kind: ErrorKind
    message: str
    cause: object = None          # the original exception, when any
    chip_id: int | None = None    # chip of the *final* failed attempt
    attempts: int = 0             # attempts consumed when it went terminal
    # Trace correlation: the ids of the attempt span that produced this
    # error (empty when tracing was off).  Quarantine/restart log lines
    # carry them, so an incident in the logs resolves to its span tree
    # in the JSONL trace file.
    trace_id: str = ""
    span_id: str = ""

    def __str__(self) -> str:
        return self.message

    @property
    def retryable(self) -> bool:
        return self.kind.retryable


def classify_error(exc, chip_id=None, attempts=0) -> JobError:
    """Map a raised exception to a :class:`JobError`.

    Anything carrying a truthy ``transient`` attribute (the
    :class:`~repro.core.errors.ChipFault` marker) is TRANSIENT; every
    other execution error is the job's own fault and PERMANENT.
    """
    kind = (
        ErrorKind.TRANSIENT
        if getattr(exc, "transient", False)
        else ErrorKind.PERMANENT
    )
    return JobError(
        kind=kind,
        message=str(exc),
        cause=exc,
        chip_id=chip_id,
        attempts=attempts,
    )


@dataclass
class Job:
    """One protocol plus its serving metadata.

    Higher ``priority`` runs first; ``deadline`` (fleet virtual seconds
    of allowed queue wait) expires the job if no chip picks it up in
    time.  ``submitted_at`` is stamped by the service at admission.

    ``attempts``/``not_before``/``last_chip``/``tried_chips`` are the
    retry bookkeeping: a job re-queued after a transient fault carries
    how many attempts it has burned, the virtual time before which it
    must not be re-run (backoff), the chip that last failed it, and
    every chip that has failed it so far (retries prefer chips the job
    has never failed on -- a "transient" that is really a defect local
    to one chip, like a dead electrode under the protocol's path, is
    escaped by trying genuinely different hardware).
    """

    protocol: object
    job_id: int = 0
    priority: int = 0
    deadline: float | None = None
    submitted_at: float = 0.0
    state: JobState = JobState.QUEUED
    fingerprint: str = ""
    attempts: int = 0
    not_before: float = 0.0
    last_chip: int | None = None
    tried_chips: set = field(default_factory=set)
    # Trace correlation: the job's root span ids, stamped at submit
    # when tracing is on.  Plain strings so the job pickles cleanly to
    # process workers, which parent their attempt spans on these ids.
    trace_id: str = ""
    root_span_id: str = ""

    def sort_key(self):
        """Heap key: highest priority first, FIFO within a priority."""
        return (-self.priority, self.job_id)

    def expired(self, now) -> bool:
        """Whether the job's queue-wait ``deadline`` has passed at
        ``now`` (on the clock ``submitted_at`` was stamped on)."""
        return (self.deadline is not None
                and now - self.submitted_at > self.deadline)


@dataclass
class JobResult:
    """Terminal record of one job.

    ``run`` is the underlying :class:`~repro.core.results.RunResult`
    when the job executed (DONE or FAILED), else None.  ``error`` is a
    :class:`JobError` on any non-DONE terminal state.  Latencies are
    fleet virtual seconds (see module docstring); for retried jobs they
    describe the final attempt, with ``attempts`` recording how many
    were consumed in total.
    """

    job_id: int
    state: JobState
    protocol_name: str = ""
    run: object = None
    error: JobError | None = None
    chip_id: int | None = None
    cache_hit: bool = False
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.state is JobState.DONE

    @property
    def queue_wait(self) -> float:
        """Submit -> start latency [virtual s] (0 for unserved jobs)."""
        if self.state in UNSERVED_STATES:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def service_time(self) -> float:
        """Start -> done chip time [virtual s]."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def turnaround(self) -> float:
        """Submit -> done latency [virtual s]."""
        return self.queue_wait + self.service_time


class JobView:
    """What every job handle reads straight off its job."""

    @property
    def job_id(self) -> int:
        return self.job.job_id

    @property
    def state(self) -> JobState:
        return self.job.state

    def poll(self) -> JobState:
        """Current state, without waiting."""
        return self.job.state


@dataclass
class JobHandle(JobView):
    """Future-style view of a submitted job.

    The service is synchronous (chips are simulated), so :meth:`wait`
    *drives* the scheduler -- it keeps executing queued jobs, highest
    priority first, until this job reaches a terminal state.
    """

    job: Job
    _service: object
    _result: JobResult | None = field(default=None, repr=False)

    def done(self) -> bool:
        """True once the job is terminal (including rejected/shed)."""
        return self.job.state.terminal

    def wait(self) -> JobResult:
        """Drive the scheduler until this job is terminal."""
        while not self.done():
            if self._service.step() is None and not self.done():
                raise ServiceError(
                    f"job {self.job_id} cannot complete: queue drained "
                    f"while it was still {self.job.state.value}"
                )
        return self.result()

    def result(self, wait=True) -> JobResult:
        """The job's :class:`JobResult`; waits by default.

        Raises :class:`~repro.core.errors.ServiceError` when called
        with ``wait=False`` before the job is terminal.
        """
        if not self.done():
            if not wait:
                raise ServiceError(
                    f"job {self.job_id} is still {self.job.state.value}"
                )
            return self.wait()
        if self._result is None:
            raise ServiceError(f"job {self.job_id} has no recorded result")
        return self._result

    def _resolve(self, result: JobResult):
        self._result = result
