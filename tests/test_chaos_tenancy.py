"""Chaos under multi-tenancy: seeded fault schedules against a fleet
serving co-scheduled region-leased jobs.  The contract is the exclusive
chaos contract plus the tenancy guarantees:

* every admitted job reaches a terminal state (DONE or FAILED);
* every COMPLETED job's result is bit-identical to a fault-free
  exclusive reference run -- co-residency never corrupts a neighbour;
* a fault evicts only the tenants it hits: evicted jobs retry/migrate
  via the existing taxonomy and the eviction/retry counters balance;
* the whole schedule replays exactly under a fixed seed.

The wall-clock tier runs the same scenario through worker lanes.
"""

import pytest

from repro import Biochip, ExecutionService, ServiceConfig, Session
from repro.faults import FleetFaultPlan
from repro.service import (
    ConcurrentConfig,
    ConcurrentExecutionService,
    ErrorKind,
    JobState,
)
from repro.workloads import small_footprint_traffic

N_CHIPS = 4
N_JOBS = 24
GRID = Biochip.small_chip().grid


@pytest.fixture(autouse=True)
def trace_integrity():
    """Every chaos test runs under a capturing tracer and the trace
    must close clean: all spans ended, all parents resolve."""
    from repro.observability import tracing

    with tracing.capture() as tracer:
        yield tracer
    assert tracer.open_count() == 0, tracer.open_spans()
    assert tracer.started == tracer.ended
    span_ids = {s["span_id"] for s in tracer.finished_spans}
    for span in tracer.finished_spans:
        assert span["parent_id"] is None or span["parent_id"] in span_ids


def assert_bit_identical(run, reference):
    got = [
        (e.kind, {k: v for k, v in e.detail.items() if k != "cage"})
        for e in run.events
    ]
    want = [
        (e.kind, {k: v for k, v in e.detail.items() if k != "cage"})
        for e in reference.events
    ]
    assert got == want
    assert run.wall_time == pytest.approx(reference.wall_time)
    assert set(run.measurements) == set(reference.measurements)
    for key, expected in reference.measurements.items():
        readings = run.measurements[key]
        assert [m.reading for m in readings] == [m.reading for m in expected]
        assert [m.detected for m in readings] == [
            m.detected for m in expected
        ]


@pytest.mark.parametrize("seed", range(6))
def test_tenant_chaos_fleet_under_seeded_faults(seed):
    plan = FleetFaultPlan(
        dead_pixel_fraction=0.03,
        dead_sensor_fraction=0.02,
        transient_rate=0.08,
        seed=seed,
    )
    service = ExecutionService.dry_run(
        ServiceConfig(
            n_chips=N_CHIPS,
            max_tenants=4,
            max_retries=3,
            retry_backoff=0.25,
            quarantine_after=3,
            restart_cooldown=20.0,
            max_queue_depth=None,
        ),
        faults=plan,
        grid=GRID,
    )
    protocols = small_footprint_traffic(GRID, N_JOBS, seed=seed)
    handles = service.submit_many(protocols)
    results = service.drain()

    # 1. termination: one terminal result per admitted job.
    assert len(results) == N_JOBS
    for handle in handles:
        state = handle.poll()
        assert state.terminal
        assert state in (JobState.DONE, JobState.FAILED)
        if state is JobState.FAILED:
            error = handle.result().error
            assert error is not None
            assert error.kind in (ErrorKind.TRANSIENT, ErrorKind.PERMANENT)

    # 2. correctness: a co-scheduled completion equals its exclusive
    # fault-free reference bit for bit.
    completed = 0
    for protocol, handle in zip(protocols, handles):
        if handle.poll() is JobState.DONE:
            assert_bit_identical(
                handle.result().run, Session.dry_run(grid=GRID).run(protocol)
            )
            completed += 1
    assert completed >= N_JOBS // 2

    # 3. accounting: terminal counters balance; an eviction is a
    # retryable attempt failure under tenancy, so every eviction is
    # either retried or ends a job FAILED -- the counters must cover
    # each other.
    counters = service.snapshot()["counters"]
    assert counters["submitted"] == N_JOBS
    assert counters["completed"] + counters["failed"] == N_JOBS
    assert counters["completed"] == completed
    assert counters["leased"] >= N_JOBS  # every attempt held a lease
    assert counters["evicted"] <= counters["retried"] + counters["failed"]
    assert counters["retried"] <= counters["evicted"] + counters["timeout"]
    assert service.snapshot()["faults"]["transient"] > 0


def test_fault_evicts_only_the_tenants_it_hits():
    """A chip that faults every operation evicts its tenants; they
    migrate to the healthy chip and complete there, co-scheduled."""
    from repro.faults import FaultModel

    shape = (GRID.rows, GRID.cols)
    service = ExecutionService.dry_run(
        ServiceConfig(
            n_chips=2,
            policy="least-loaded",
            max_tenants=4,
            max_retries=2,
            quarantine_after=2,
            restart_cooldown=None,
        ),
        faults=FleetFaultPlan(models={
            0: FaultModel(shape=shape, transient_rate=1.0),
            1: FaultModel.none(shape),
        }),
        grid=GRID,
    )
    protocols = small_footprint_traffic(GRID, 8, seed=3)
    handles = service.submit_many(protocols)
    service.drain()
    results = [h.result() for h in handles]
    assert all(r.ok for r in results)
    assert all(r.chip_id == 1 for r in results)
    counters = service.snapshot()["counters"]
    assert counters["evicted"] >= 1
    assert counters["retried"] >= counters["evicted"] > 0
    assert counters["quarantined"] == 1


def test_tenant_chaos_replays_exactly():
    def run_once():
        service = ExecutionService.dry_run(
            ServiceConfig(
                n_chips=2, max_tenants=4, max_retries=2, quarantine_after=3
            ),
            faults=FleetFaultPlan(
                dead_pixel_fraction=0.05, transient_rate=0.1, seed=21
            ),
            grid=GRID,
        )
        handles = service.submit_many(
            small_footprint_traffic(GRID, 12, seed=2)
        )
        service.drain()
        return [
            (h.poll().value, h.result().chip_id, h.result().attempts)
            for h in handles
        ]

    assert run_once() == run_once()


@pytest.mark.parametrize("seed", range(3))
def test_wall_clock_tenant_chaos(seed):
    """The concurrent tier under the same contract: seeded faults, co-
    residency lanes, every job terminal, completions bit-identical."""
    plan = FleetFaultPlan(
        dead_pixel_fraction=0.03,
        transient_rate=0.08,
        seed=seed,
    )
    protocols = small_footprint_traffic(GRID, N_JOBS, seed=seed)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(
                n_workers=2, max_tenants=4, max_retries=3,
                retry_backoff=0.01, quarantine_after=None,
            ),
            faults=plan, grid=GRID) as service:
        handles = service.submit_many(protocols)
        results = service.drain(timeout=120.0)
        snap = service.snapshot()

    assert len(results) == N_JOBS
    completed = 0
    for protocol, handle in zip(protocols, handles):
        result = handle.result()
        assert result.state in (JobState.DONE, JobState.FAILED)
        if result.state is JobState.DONE:
            assert_bit_identical(
                result.run, Session.dry_run(grid=GRID).run(protocol)
            )
            completed += 1
    assert completed >= N_JOBS // 2
    counters = snap["counters"]
    assert counters["submitted"] == N_JOBS
    assert counters["completed"] + counters["failed"] == N_JOBS
    assert counters["completed"] == completed
    # lanes actually co-scheduled work and merged frames
    assert snap["tenancy"]["groups"] >= 1
    assert snap["tenancy"]["co_residency"]["max"] >= 2
