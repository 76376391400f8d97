"""When the wall tier's coordinator wakes with no worker message.

The pump thread sleeps until a worker message arrives or the pass next
has timed work: a retry's backoff ends, a benched worker's cooldown
ends, or the once-a-second liveness check is due.
:meth:`ConcurrentExecutionService._pump_deadline` names that time.
These tests drive the pass through the scripted harness of
``test_wall_coordinator`` (a manual clock, no thread) and read the
deadline after each step.  A submit that finds every worker benched
restarts one inside the call, since no poll would come to do it.
"""

from repro.service.concurrent.workers import LIVENESS_PERIOD
from repro.service.core import Attempt

from test_wall_coordinator import (
    feed,
    protocol,
    pump,
    scripted_service,
    transient,
)


def bench(service, worker_id, now):
    """Worker ``worker_id`` benches itself at ``now``."""
    feed(service, now, [("quarantined", worker_id, now, 1,
                         transient(worker_id, 1))])


def test_an_idle_pool_wakes_for_the_next_liveness_check():
    service = scripted_service(n_workers=2)
    assert service._pump_deadline() == LIVENESS_PERIOD
    pump(service, 0.5)  # too early for a liveness check
    assert service._pump_deadline() == LIVENESS_PERIOD
    pump(service, 1.5)
    assert service._pump_deadline() == 1.5 + LIVENESS_PERIOD


def test_a_retry_in_backoff_wakes_the_pump_when_its_backoff_ends():
    service = scripted_service(n_workers=2, retry_backoff=0.25,
                               quarantine_after=None)
    handle = service.submit(protocol())
    feed(service, 1.2, [("started", 0, handle.job_id, 1.2)])
    failed = Attempt(error=transient(0, 1), started_at=1.2, finished_at=1.3)
    feed(service, 1.3, [("outcome", 0, handle.job_id, failed, None)])
    assert handle.job.not_before == 1.55
    assert service._pump_deadline() == 1.55
    pump(service, 1.55)  # the retry is queued again
    assert service.snapshot()["pool"]["delayed"] == 0
    assert service._pump_deadline() == 1.2 + LIVENESS_PERIOD


def test_a_benched_worker_wakes_the_pump_when_its_cooldown_ends():
    service = scripted_service(n_workers=2, restart_cooldown=0.5)
    pump(service, 1.5)  # liveness checked: next due at 2.5
    bench(service, 0, 2.0)
    assert service._pump_deadline() == 2.5
    pump(service, 2.5)  # the cooldown is over: the restart is asked
    record = service._records[0]
    assert record.restart_event.is_set() and record.cycling
    assert service._pump_deadline() == 2.5 + LIVENESS_PERIOD


def test_a_restart_already_asked_sets_no_deadline():
    """A benched worker whose restart is pending adds no wake-up: with
    no cooldown the pass that benches it also asks its restart, and
    the pump then sleeps to the liveness check, not in a busy loop."""
    service = scripted_service(n_workers=2, restart_cooldown=0.0)
    pump(service, 1.5)
    bench(service, 0, 2.0)
    assert service._records[0].cycling
    assert service._pump_deadline() == 1.5 + LIVENESS_PERIOD
    slow = scripted_service(n_workers=2, restart_cooldown=30.0)
    pump(slow, 1.5)
    bench(slow, 1, 2.0)
    assert slow._pump_deadline() == 1.5 + LIVENESS_PERIOD
    slow.restart_worker(1)
    assert slow._pump_deadline() == 1.5 + LIVENESS_PERIOD


def test_a_submit_to_a_benched_pool_restarts_a_worker_at_once():
    """With no cooldown to wait out, the submit itself asks the
    longest-benched worker to restart: no pass runs in between."""
    service = scripted_service(n_workers=2, restart_cooldown=None)
    bench(service, 1, 1.0)
    bench(service, 0, 2.0)
    events = [r.restart_event for r in service._records]
    assert not any(event.is_set() for event in events)
    service.clock.t = 3.0
    handle = service.submit(protocol())
    assert events[1].is_set() and not events[0].is_set()
    assert service.queue_depth == 1
    feed(service, 3.5, [("restarted", 1, 3.5, 1)])
    assert service._records[1].lane.get_nowait().job_id == handle.job_id
