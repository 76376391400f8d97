"""Chaos test for the wall-clock concurrent tier: a randomized seeded
fault schedule against a threaded 8-worker pool.

The contract mirrors the virtual tier's chaos suite, but now with real
threads racing over shared queues:

* every admitted job reaches a terminal state, DONE or FAILED --
  ``drain()`` returns (never hangs; CI adds a faulthandler timeout so
  a deadlock dumps stacks instead of stalling the runner);
* every COMPLETED job's result is bit-identical to a fault-free
  single-threaded reference run of the same protocol -- concurrency
  plus faults cause retries or failures, never silent corruption;
* the accounting balances: each submitted job counted terminal exactly
  once, retries and timeouts metered.
"""

import pytest

from repro import (
    Biochip,
    ConcurrentConfig,
    ConcurrentExecutionService,
    JobState,
    Session,
)
from repro.faults import FleetFaultPlan

from test_chaos import assert_bit_identical, reference_run

N_WORKERS = 8
N_JOBS = 16


@pytest.fixture(autouse=True)
def trace_integrity():
    """Run every chaos test under a capturing tracer and assert the
    trace closed clean: every started span ended exactly once, no
    orphans (all parent ids resolve within the trace).  Fixtures do not
    travel with the ``from test_chaos import ...`` above, so this is
    re-declared here for the concurrent suite."""
    from repro.observability import tracing

    with tracing.capture() as tracer:
        yield tracer
    assert tracer.open_count() == 0, tracer.open_spans()
    assert tracer.started == tracer.ended
    span_ids = {s["span_id"] for s in tracer.finished_spans}
    for span in tracer.finished_spans:
        assert span["parent_id"] is None or span["parent_id"] in span_ids


@pytest.mark.parametrize("seed", range(3))
def test_chaos_concurrent_pool_under_seeded_faults(seed):
    from repro.workloads import hot_protocol_traffic

    grid = Biochip.small_chip().grid
    plan = FleetFaultPlan(
        dead_pixel_fraction=0.03,
        dead_sensor_fraction=0.02,
        transient_rate=0.12,
        seed=seed,
    )
    protocols = hot_protocol_traffic(grid, n_jobs=N_JOBS, seed=seed)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(
                n_workers=N_WORKERS,
                max_retries=3,
                retry_backoff=0.01,
                quarantine_after=3,
                restart_cooldown=0.1,
            ),
            faults=plan, grid=grid) as service:
        handles = service.submit_many(protocols)
        results = service.drain(timeout=120.0)
        counters = {
            name: c.value for name, c in service.telemetry.counters.items()
        }
        faults_seen = service.fault_counters()

    # 1. termination: one terminal result per admitted job, every
    # handle resolved, and only DONE/FAILED (nothing shed or stranded).
    assert len(results) == N_JOBS
    assert sorted(r.job_id for r in results) == [h.job_id for h in handles]
    assert all(h.done() for h in handles)
    for result in results:
        assert result.state in (JobState.DONE, JobState.FAILED)

    # 2. integrity: completed results are bit-identical to a fault-free
    # single-threaded reference, whatever worker (or retry) served them.
    by_id = {h.job_id: p for h, p in zip(handles, protocols)}
    completed = [r for r in results if r.state is JobState.DONE]
    assert completed, "chaos run produced no completed jobs to verify"
    for result in completed:
        assert result.run is not None
        assert_bit_identical(
            result.run, reference_run(by_id[result.job_id], grid)
        )

    # 3. accounting balance: terminal exactly once, and the fault
    # tolerance meters line up with what the injectors actually did.
    assert counters["submitted"] == N_JOBS
    assert counters["completed"] + counters["failed"] == N_JOBS
    assert counters["completed"] == len(completed)
    assert counters["rejected"] == counters["shed"] == counters["expired"] == 0
    failed = [r for r in results if r.state is JobState.FAILED]
    for result in failed:
        assert result.error is not None
        assert result.attempts == 4  # max_retries exhausted
    if counters["retried"] or counters["failed"]:
        assert sum(faults_seen.values()) >= 1


def test_chaos_concurrent_quarantine_recovers():
    """A pool where every chip glitches often enough to get benched
    still drains the queue: quarantined workers restart after their
    wall-clock cooldown and rejoin."""
    from repro.workloads import hot_protocol_traffic

    grid = Biochip.small_chip().grid
    plan = FleetFaultPlan(transient_rate=0.35, seed=9)
    protocols = hot_protocol_traffic(grid, n_jobs=12, seed=9)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(
                n_workers=4,
                max_retries=5,
                retry_backoff=0.01,
                quarantine_after=2,
                restart_cooldown=0.05,
            ),
            faults=plan, grid=grid) as service:
        service.submit_many(protocols)
        results = service.drain(timeout=120.0)
        counters = {
            name: c.value for name, c in service.telemetry.counters.items()
        }
    assert len(results) == 12
    assert all(r.state in (JobState.DONE, JobState.FAILED) for r in results)
    assert counters["retried"] >= 1
    if counters["quarantined"]:
        # every quarantine either restarted (cooldown is tiny) or was
        # still parked at shutdown; none may strand work
        assert counters["completed"] + counters["failed"] == 12
