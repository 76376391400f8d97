"""Clock sources and thread-safety bridges for the execution tiers.

The virtual-clock :class:`~repro.service.scheduler.ExecutionService`
and the wall-clock
:class:`~repro.service.concurrent.workers.ConcurrentExecutionService`
share one clock *interface* -- a monotonic ``now()`` in seconds -- so
the serving semantics built on time (deadline expiry, retry backoff
windows, quarantine cooldowns) are written once against :class:`Clock`
and work unchanged on either tier:

* :class:`FleetClock` reads fleet virtual time (the furthest-along
  chip's accounted clock) -- deterministic, advanced by simulation;
* :class:`WallClock` reads ``time.monotonic()`` against a fixed epoch
  -- real serving time, advanced by the host.

A :class:`WallClock` epoch is an absolute ``time.monotonic()`` value,
so the clock can be *shared across processes*: the parent passes its
epoch to spawned chip workers and every tier participant (deadline
checks in workers, backoff stamps in the coordinator) reads the same
timeline.  On the platforms the tier supports, ``time.monotonic()`` is
a system-wide clock, not a per-process one.

:class:`SenseTap` is the streaming bridge: a
:class:`~repro.core.backend.BackendWrapper` that hands every sense
outcome to a callback as it happens, which is how the asyncio front end
streams per-cage sense events out of a worker thread mid-protocol.
"""

from __future__ import annotations

import time

from ...core.backend import BackendWrapper


class Clock:
    """Monotonic time source interface: seconds from the tier's epoch."""

    def now(self) -> float:
        raise NotImplementedError


class FleetClock(Clock):
    """Fleet virtual time: the max of the chips' accounted clocks.

    The deterministic reference tier's clock -- it only advances when a
    chip executes (or incubates through) work, so every read is
    reproducible for a given workload.
    """

    def __init__(self, fleet):
        self.fleet = fleet

    def now(self) -> float:
        return self.fleet.now


class WallClock(Clock):
    """Real time from ``time.monotonic()``, zeroed at ``epoch``.

    ``epoch`` defaults to construction time; pass an existing clock's
    :attr:`epoch` to share one timeline across threads and spawned
    worker processes.
    """

    def __init__(self, epoch: float | None = None):
        self.epoch = time.monotonic() if epoch is None else float(epoch)

    def now(self) -> float:
        return time.monotonic() - self.epoch


class SenseTap(BackendWrapper):
    """Backend wrapper that streams sense outcomes to a callback.

    Wraps any :class:`~repro.core.backend.Backend` (including a
    :class:`~repro.faults.FaultInjector`) and forwards every
    :class:`~repro.core.platform.SenseResult` the protocol produces to
    ``on_sense(sense_result)`` *as it is read* -- the hook the
    concurrent tier uses to push live sense events into a job handle
    while the protocol is still running.  The rest of the contract is
    forwarded untouched, so the tap is behaviourally invisible.
    """

    def __init__(self, backend, on_sense):
        super().__init__(backend)
        self.on_sense = on_sense

    def sense(self, cage_id, n_samples=1000):
        outcome = self.backend.sense(cage_id, n_samples=n_samples)
        self.on_sense(outcome)
        return outcome

    def sense_all(self, n_samples=1000):
        outcomes = self.backend.sense_all(n_samples=n_samples)
        for __, sense_result in outcomes:
            self.on_sense(sense_result)
        return outcomes
