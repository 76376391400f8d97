"""Service-tier fault tolerance: retry-with-backoff, chip quarantine
and migration, per-job timeouts, the structured error taxonomy, and the
admission edge cases under faults (satellites of the robustness PR)."""

import heapq

import numpy as np
import pytest

from repro import Biochip, ExecutionService, Protocol, ServiceConfig
from repro.core.errors import ServiceError
from repro.faults import FaultModel, FleetFaultPlan
from repro.service import ChipHealth, ErrorKind, JobError, JobState

SHAPE = (48, 48)  # Biochip.small_chip() grid


def tiny_protocol(name="tiny", column=10):
    return (
        Protocol(name)
        .trap("p", (2, 2))
        .move("p", (2, column))
        .release("p")
    )


def faulted_service(models, **config_kwargs):
    """Dry-run service with explicit per-chip fault models."""
    config_kwargs.setdefault("n_chips", len(models))
    return ExecutionService.dry_run(
        ServiceConfig(**config_kwargs),
        faults=FleetFaultPlan(models=models),
        grid=Biochip.small_chip().grid,
    )


def always_faulting():
    return FaultModel(shape=SHAPE, transient_rate=1.0)


def faults_first_op():
    return FaultModel(shape=SHAPE, transient_ops={0})


def clean():
    return FaultModel.none(SHAPE)


class TestErrorTaxonomy:
    def test_kinds_and_retryability(self):
        assert ErrorKind.TRANSIENT.retryable
        assert ErrorKind.TIMEOUT.retryable
        assert not ErrorKind.PERMANENT.retryable
        assert not ErrorKind.REJECTED.retryable

    def test_str_returns_bare_message(self):
        error = JobError(kind=ErrorKind.PERMANENT, message="separation rule")
        assert str(error) == "separation rule"
        assert "separation" in str(error)

    def test_permanent_error_not_retried(self):
        # A protocol that violates separation fails identically anywhere:
        # the service must not burn retries on it.
        service = faulted_service({0: clean(), 1: clean()}, max_retries=3)
        bad = (
            Protocol("bad")
            .trap("a", (5, 5))
            .trap("b", (5, 6))  # separation violation
        )
        result = service.submit(bad).wait()
        assert result.state is JobState.FAILED
        assert result.error.kind is ErrorKind.PERMANENT
        assert result.attempts == 1
        assert service.snapshot()["counters"]["retried"] == 0


class TestRetryAndMigration:
    def test_transient_failure_retries_on_another_chip(self):
        service = faulted_service(
            {0: faults_first_op(), 1: clean()},
            policy="least-loaded", max_retries=2,
        )
        result = service.submit(tiny_protocol()).wait()
        assert result.ok
        assert result.attempts == 2
        assert result.chip_id == 1  # steered away from the chip that failed
        counters = service.snapshot()["counters"]
        assert counters["retried"] == 1
        assert counters["migrated"] == 1
        assert service.snapshot()["faults"]["transient"] == 1

    def test_retry_budget_exhausts_to_failed(self):
        service = faulted_service(
            {0: always_faulting(), 1: always_faulting()},
            max_retries=2, quarantine_after=None,
        )
        result = service.submit(tiny_protocol()).wait()
        assert result.state is JobState.FAILED
        assert result.error.kind is ErrorKind.TRANSIENT
        assert result.attempts == 3  # 1 initial + 2 retries
        assert result.error.retryable  # was retryable; budget ran out

    def test_backoff_delays_retry_in_virtual_time(self):
        service = faulted_service(
            {0: faults_first_op()}, n_chips=1,
            max_retries=1, retry_backoff=7.0, quarantine_after=None,
        )
        result = service.submit(tiny_protocol()).wait()
        assert result.ok
        assert result.started_at >= 7.0  # waited out the backoff window

    def test_zero_retries_fails_immediately(self):
        service = faulted_service(
            {0: always_faulting()}, n_chips=1,
            max_retries=0, quarantine_after=None,
        )
        result = service.submit(tiny_protocol()).wait()
        assert result.state is JobState.FAILED
        assert result.attempts == 1


class TestQuarantine:
    def test_chip_quarantined_after_consecutive_failures(self):
        service = faulted_service(
            {0: always_faulting(), 1: clean()},
            policy="least-loaded", max_retries=2, quarantine_after=2,
            restart_cooldown=None,
        )
        # Failed attempts cost ~no chip time, so least-loaded keeps
        # offering chip 0 until the streak benches it.
        results = [service.submit(tiny_protocol(f"p{i}")).wait()
                   for i in range(4)]
        assert all(r.ok for r in results)
        assert service.fleet.worker(0).health is ChipHealth.QUARANTINED
        counters = service.snapshot()["counters"]
        assert counters["quarantined"] == 1
        assert counters["migrated"] >= 2
        # after quarantine, jobs go straight to the healthy chip
        late = service.submit(tiny_protocol("late")).wait()
        assert late.ok and late.chip_id == 1 and late.attempts == 1

    def test_cooldown_restart_restores_chip(self):
        service = faulted_service(
            {0: always_faulting(), 1: clean()},
            max_retries=1, quarantine_after=1, restart_cooldown=0.0,
        )
        service.submit(tiny_protocol()).wait()
        # quarantine happened mid-drain; the next step() restores it
        # (cooldown 0 has always elapsed)
        service.submit(tiny_protocol("again")).wait()
        worker = service.fleet.worker(0)
        assert worker.restarts >= 1
        assert service.snapshot()["counters"]["restarted"] >= 1

    def test_restart_preserves_defect_map_and_clock(self):
        dead = np.zeros(SHAPE, dtype=bool)
        dead[3, 3] = True
        model = FaultModel(shape=SHAPE, dead_electrodes=dead)
        service = faulted_service({0: model}, n_chips=1)
        service.submit(tiny_protocol()).wait()
        before = service.fleet.worker(0).elapsed
        service.restart_chip(0)
        worker = service.fleet.worker(0)
        assert worker.elapsed == pytest.approx(before)  # no time travel
        assert worker.session.backend.model.dead_electrodes[3, 3]
        assert worker.health is ChipHealth.HEALTHY

    def test_fully_quarantined_fleet_restarts_rather_than_hangs(self):
        # quarantine_after=1 benches the only chip on its first fault;
        # every retry needs the backstop restart to find a chip at all.
        # The chip faults op 0 after every restart too, so the job ends
        # FAILED -- the point is it *terminates*, with the restarts
        # actually attempted, instead of stranding the queue.
        service = faulted_service(
            {0: faults_first_op()}, n_chips=1,
            max_retries=3, quarantine_after=1, restart_cooldown=None,
        )
        result = service.submit(tiny_protocol()).wait()
        assert result.state is JobState.FAILED
        assert result.attempts == 4
        assert service.fleet.worker(0).restarts >= 3

    def test_drain_chip_takes_it_out_of_rotation(self):
        service = faulted_service({0: clean(), 1: clean()})
        service.drain_chip(0)
        results = [service.submit(tiny_protocol(f"p{i}")).wait()
                   for i in range(3)]
        assert all(r.chip_id == 1 for r in results)

    def test_drain_wins_over_quarantine(self, caplog):
        """Regression: draining a quarantined chip used to be a no-op,
        so the cooldown restart put it back in rotation.  The drain
        holds until an explicit restart, and the operator's quarantine
        logs no failure streak."""
        service = faulted_service(
            {0: clean(), 1: clean()}, restart_cooldown=0.0
        )
        with caplog.at_level("WARNING", logger="repro.service"):
            service.quarantine_chip(0)
        service.drain_chip(0)
        results = [service.submit(tiny_protocol(f"p{i}")).wait()
                   for i in range(4)]
        assert [r.chip_id for r in results] == [1, 1, 1, 1]
        assert service.fleet.worker(0).health is ChipHealth.DRAINING
        message, = (r.getMessage() for r in caplog.records)
        assert "chip 0" in message and "consecutive" not in message
        service.restart_chip(0)
        assert service.fleet.worker(0).health is ChipHealth.HEALTHY

    def test_fully_draining_fleet_keeps_the_job_queued(self):
        """Regression: a step with every chip draining popped the job
        before it raised, so the queue read empty, the handle stayed
        QUEUED for ever and a restart had nothing to serve."""
        service = faulted_service({0: clean()}, n_chips=1)
        service.drain_chip(0)
        handle = service.submit(tiny_protocol())
        with pytest.raises(ServiceError, match="draining"):
            service.step()
        assert service.queue_depth == 1
        assert handle.state is JobState.QUEUED
        service.restart_chip(0)
        result, = service.drain()
        assert result.job_id == handle.job_id
        assert result.state is JobState.DONE
        assert service.queue_depth == 0


class TestTimeout:
    def test_slow_attempt_times_out_and_is_discarded(self):
        service = faulted_service(
            {0: clean()}, n_chips=1,
            job_timeout=1e-9, max_retries=0, quarantine_after=None,
        )
        result = service.submit(tiny_protocol()).wait()
        assert result.state is JobState.FAILED
        assert result.error.kind is ErrorKind.TIMEOUT
        assert result.run is None  # past-budget result is not trusted
        assert service.snapshot()["counters"]["timeout"] == 1

    def test_timeout_counts_toward_quarantine(self):
        service = faulted_service(
            {0: clean()}, n_chips=1,
            job_timeout=1e-9, max_retries=0, quarantine_after=2,
            restart_cooldown=None,
        )
        service.submit(tiny_protocol("a")).wait()
        service.submit(tiny_protocol("b")).wait()
        assert service.snapshot()["counters"]["quarantined"] == 1


class TestUnexpectedExceptionSweep:
    """Satellite 2: a non-BiochipError escaping dispatch must still
    sweep the chip and terminalise the job."""

    def test_unexpected_exception_fails_job_and_sweeps_chip(self):
        service = faulted_service({0: clean()}, n_chips=1)
        worker = service.fleet.workers[0]
        original_run = worker.session.run

        def bad_run(program, handles=None):
            handles["p"] = worker.session.backend.trap((2, 2))
            raise ValueError("boom")

        worker.session.run = bad_run
        result = service.submit(tiny_protocol()).wait()
        assert result.state is JobState.FAILED
        assert result.error.kind is ErrorKind.PERMANENT
        assert "unexpected ValueError: boom" in str(result.error)
        # the trapped cage was swept despite the unexpected exception
        assert worker.session.backend.cage_count == 0
        # the chip is not poisoned: a normal job runs clean afterwards
        worker.session.run = original_run
        assert service.submit(tiny_protocol("after")).wait().ok

    def test_unexpected_exception_is_not_retried(self):
        service = faulted_service({0: clean(), 1: clean()}, max_retries=3)
        for worker in service.fleet.workers:
            def bad_run(program, handles=None, _w=worker):
                raise RuntimeError("software bug")
            worker.session.run = bad_run
        result = service.submit(tiny_protocol()).wait()
        assert result.state is JobState.FAILED
        assert result.attempts == 1
        assert service.snapshot()["counters"]["retried"] == 0


class TestAdmissionUnderFaults:
    """Satellite 3: admission edge cases when the queue holds retries
    and chips are faulting."""

    def test_shed_lowest_sheds_a_queued_retry(self):
        service = faulted_service(
            {0: faults_first_op()}, n_chips=1,
            max_queue_depth=1, admission="shed-lowest",
            max_retries=2, quarantine_after=None,
        )
        handle = service.submit(tiny_protocol("victim"), priority=0)
        # Run exactly one attempt: it faults (op 0) and is re-queued as
        # a retry -- the queue's only entry is now a retried job.
        __, job = heapq.heappop(service._queue)
        service._queued_count -= 1
        assert service._dispatch(job) is None
        assert job.attempts == 1 and job.state is JobState.QUEUED
        assert service.queue_depth == 1
        # A hotter submission must be able to shed that retry.
        hot = service.submit(tiny_protocol("hot"), priority=9)
        assert handle.poll() is JobState.SHED
        victim = handle.result()
        assert victim.error.kind is ErrorKind.REJECTED
        assert "shed" in str(victim.error)
        assert victim.attempts == 1  # the burned attempt is recorded
        assert hot.wait().ok

    def test_deadline_expires_while_chip_quarantined(self):
        service = faulted_service(
            {0: always_faulting()}, n_chips=1,
            max_retries=3, retry_backoff=50.0,
            quarantine_after=1, restart_cooldown=None,
        )
        doomed = service.submit(tiny_protocol("doomed"))
        waiting = service.submit(tiny_protocol("waiting"), deadline=10.0)
        results = service.drain()
        assert len(results) == 2
        assert doomed.result().state is JobState.FAILED
        # by the time the faulting chip burned the first job's retries
        # (big backoffs advance the virtual clock), the second job's
        # queue-wait deadline had long expired
        expired = waiting.result()
        assert expired.state is JobState.EXPIRED
        assert expired.error.kind is ErrorKind.REJECTED
        assert "deadline" in str(expired.error)
        assert service.snapshot()["counters"]["quarantined"] >= 1

    def test_submit_many_partial_rejection(self):
        service = faulted_service(
            {0: clean()}, n_chips=1,
            max_queue_depth=2, admission="reject",
        )
        handles = service.submit_many(
            tiny_protocol(f"p{i}") for i in range(4)
        )
        states = [h.poll() for h in handles]
        assert states[:2] == [JobState.QUEUED, JobState.QUEUED]
        assert states[2:] == [JobState.REJECTED, JobState.REJECTED]
        for handle in handles[2:]:
            error = handle.result().error
            assert error.kind is ErrorKind.REJECTED
            assert "queue full" in str(error)
        results = service.drain()
        assert len(results) == 2 and all(r.ok for r in results)


class TestTelemetryInvariants:
    def test_every_submitted_job_is_accounted_once(self):
        service = faulted_service(
            {0: always_faulting(), 1: clean()},
            max_retries=1, max_queue_depth=3, admission="reject",
            quarantine_after=2, restart_cooldown=None,
        )
        handles = service.submit_many(
            tiny_protocol(f"p{i}") for i in range(8)
        )
        service.drain()
        counters = service.snapshot()["counters"]
        terminal = (
            counters["completed"] + counters["failed"]
            + counters["rejected"] + counters["shed"] + counters["expired"]
        )
        assert counters["submitted"] == len(handles) == terminal
        assert all(h.done() for h in handles)
