"""Serving semantics both tiers share through ``repro.service.core``.

The attempt body, admission bound and settlement path exist once; these
tests pin their contract on every tier and occupancy mode that runs
them: the virtual-clock and the thread tier, exclusive and leased
attempts.
"""

import time

import pytest

from repro import (
    Biochip,
    ConcurrentConfig,
    ConcurrentExecutionService,
    ErrorKind,
    ExecutionService,
    JobState,
    Protocol,
    ServiceConfig,
)
from repro.core.backend import DryRunBackend
from repro.faults import FaultModel, FleetFaultPlan
from repro.observability import tracing

GRID = Biochip.small_chip().grid
SHAPE = (GRID.rows, GRID.cols)


def tiny_protocol(name, row=2, sense=False):
    protocol = Protocol(name).trap("p", (row, 2)).move("p", (row, 10))
    if sense:
        protocol = protocol.sense("p", samples=10)
    return protocol.release("p")


def blocker_protocol():
    return Protocol("blocker").trap("b", (40, 40)).incubate("b", 30.0) \
        .release("b")


def wait_for(predicate, timeout=30.0):
    end = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > end:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


@pytest.fixture
def broken_sense(monkeypatch):
    """Make every dry-run chip's ``sense`` raise a non-BiochipError
    after the job's traps ran; returns the backends it was called on."""
    sensed = []

    def bad_sense(self, cage_id, n_samples=1000):
        sensed.append(self)
        raise RuntimeError("sense amplifier bug")

    monkeypatch.setattr(DryRunBackend, "sense", bad_sense)
    return sensed


def serve(tier, leased, protocols, faults=None):
    """Serve ``protocols`` on one chip, under the fault plan ``faults``
    if given; returns (results, counters)."""
    tenants = 4 if leased else 1
    if tier == "virtual":
        service = ExecutionService.dry_run(
            ServiceConfig(n_chips=1, max_tenants=tenants, max_retries=3),
            faults=faults, grid=GRID,
        )
        handles = service.submit_many(protocols)
        service.drain()
        return [h.result() for h in handles], service.snapshot()["counters"]
    config = ConcurrentConfig(
        n_workers=1, max_tenants=tenants, max_retries=3,
        time_scale=0.01 if leased else None,
    )
    with ConcurrentExecutionService.dry_run(
            config, faults=faults, grid=GRID) as service:
        if leased:
            # Hold the worker on a paced job until the whole group sits
            # in its lane, so the group is pulled (and leased) at once.
            blocker = service.submit(blocker_protocol())
            wait_for(lambda: blocker.state is not JobState.QUEUED)
        handles = service.submit_many(protocols)
        service.drain(timeout=60.0)
        counters = service.snapshot()["counters"]
    return [h.result() for h in handles], counters


@pytest.mark.parametrize("leased", [False, True], ids=["exclusive", "leased"])
@pytest.mark.parametrize("tier", ["virtual", "thread"])
def test_unexpected_exception_fails_once_and_sweeps(tier, leased,
                                                    broken_sense):
    protocols = [tiny_protocol("bad", sense=True)]
    if leased:
        protocols += [tiny_protocol(f"co{i}", row=2) for i in range(3)]
    results, counters = serve(tier, leased, protocols)

    bad = results[0]
    assert bad.state is JobState.FAILED
    assert bad.error.kind is ErrorKind.PERMANENT
    assert "unexpected RuntimeError: sense amplifier bug" in str(bad.error)
    assert bad.attempts == 1
    assert counters["retried"] == 0
    # the trapped cage was swept off whatever chip or view ran the job
    assert broken_sense
    assert all(backend.cage_count == 0 for backend in broken_sense)
    if leased:
        assert counters["leased"] >= len(protocols)
        assert [r.state for r in results[1:]] == [JobState.DONE] * 3


@pytest.mark.parametrize("tier", ["virtual", "thread"])
def test_faulted_tenant_is_evicted_and_traced(tier):
    """Lease-group meters and span events settle in the core, so both
    tiers count the eviction and put lease, frame merge and evict on
    the job spans."""
    faulty = (Protocol("faulty").trap("p", (2, 2)).move("p", (2, 10))
              .move("p", (2, 6)).release("p"))
    protocols = [faulty] + [tiny_protocol(f"co{i}") for i in range(3)]
    # Each tenant view rolls its own fault stream from op 0: only the
    # faulty tenant runs a third rolling operation (its second move).
    faults = FleetFaultPlan(
        models={0: FaultModel(shape=SHAPE, transient_ops={2})}
    )
    with tracing.capture() as tracer:
        results, counters = serve(tier, True, protocols, faults=faults)
    assert counters["evicted"] >= 1
    assert [r.state for r in results[1:]] == [JobState.DONE] * 3
    events = {
        span["attributes"]["protocol"]: {e["name"] for e in span["events"]}
        for span in tracer.finished_spans if span["name"] == "job"
    }
    assert {"lease", "frame_merge", "evict"} <= events["faulty"]
    for i in range(3):
        assert {"lease", "frame_merge"} <= events[f"co{i}"]
        assert "evict" not in events[f"co{i}"]


def test_thread_tier_meters_batch_routing():
    routed = (
        Protocol("routed")
        .trap("a", (2, 2))
        .trap("b", (2, 8))
        .move_many({"a": (8, 2), "b": (8, 8)})
        .release("a")
        .release("b")
    )
    with ConcurrentExecutionService.simulator(
            ConcurrentConfig(n_workers=1)) as service:
        assert service.submit(routed).result(timeout=60.0).ok
        assert service.snapshot()["routing"]["plans"] >= 1
        assert "batch routing" in service.report()


@pytest.mark.parametrize("leased", [False, True], ids=["exclusive", "leased"])
@pytest.mark.parametrize("tier", ["virtual", "thread"])
def test_fault_totals_survive_a_chip_restart(tier, leased):
    """Chip 0 faults every operation but its first (on the thread tier
    that one trap lets a blocker hold the worker while the lease group
    gathers).  Counters of a retired chip incarnation and of its
    discarded tenant views are banked, so a restart keeps the total."""
    faults = FleetFaultPlan(
        models={0: FaultModel(shape=SHAPE, transient_ops=range(1, 64))}
    )
    tenants = 4 if leased else 1
    protocols = [tiny_protocol(f"j{i}") for i in range(tenants)]
    if tier == "virtual":
        service = ExecutionService.dry_run(
            ServiceConfig(
                n_chips=1, max_tenants=tenants, max_retries=0,
                quarantine_after=1, restart_cooldown=None,
            ),
            faults=faults, grid=GRID,
        )
        service.submit_many(protocols)
        service.drain()
        before = service.fault_counters()["transient"]
        service.restart_chip(0)
        after = service.fault_counters()["transient"]
    else:
        config = ConcurrentConfig(
            n_workers=1, max_tenants=tenants, max_retries=0,
            quarantine_after=1, restart_cooldown=None,
            time_scale=0.01 if leased else None,
        )
        with ConcurrentExecutionService.dry_run(
                config, faults=faults, grid=GRID) as service:
            if leased:
                blocker = service.submit(blocker_protocol())
                wait_for(lambda: blocker.state is not JobState.QUEUED)
            service.submit_many(protocols)
            service.drain(timeout=60.0)
            def counted(name):
                return service.snapshot()["counters"][name] == 1

            wait_for(lambda: counted("quarantined"))
            before = service.fault_counters()["transient"]
            service.restart_worker(0)
            wait_for(lambda: counted("restarted"))
            after = service.fault_counters()["transient"]
    assert before >= len(protocols)
    assert after == before


def test_close_wakes_a_benched_worker():
    """Regression: with ``restart_cooldown=None`` a benched worker parks
    on its restart event and never reads its shutdown sentinel, and
    ``close`` used to join it for its whole timeout."""
    faults = FleetFaultPlan(
        models={0: FaultModel(shape=SHAPE, transient_ops={0})}
    )
    service = ConcurrentExecutionService.dry_run(
        ConcurrentConfig(
            n_workers=1, max_retries=0, quarantine_after=1,
            restart_cooldown=None,
        ),
        faults=faults, grid=GRID,
    )
    result = service.submit(tiny_protocol("faults")).wait(timeout=30.0)
    assert result.state is JobState.FAILED
    wait_for(lambda: service.snapshot()["counters"]["quarantined"] == 1)
    started = time.monotonic()
    service.close(timeout=30.0)
    assert time.monotonic() - started < 5.0
    assert service.snapshot()["fleet"]["health"][0] == "stopped"


def retrying_thread_service(admission):
    """One worker whose first op faults, a long backoff, and room for
    one queued job."""
    return ConcurrentExecutionService.dry_run(
        ConcurrentConfig(
            n_workers=1, max_queue_depth=1, admission=admission,
            retry_backoff=2.0, quarantine_after=None,
        ),
        faults=FleetFaultPlan(
            models={0: FaultModel(shape=SHAPE, transient_ops={0})}
        ),
        grid=GRID,
    )


def backing_off(handle):
    return any(e["kind"] == "retrying" for e in handle.events())


def test_thread_admission_bound_counts_retries_in_backoff():
    service = retrying_thread_service("reject")
    try:
        first = service.submit(tiny_protocol("a"))
        wait_for(lambda: backing_off(first))
        assert service.queue_depth == 1
        second = service.submit(tiny_protocol("b"))
        third = service.submit(tiny_protocol("c"))
        assert second.state is JobState.REJECTED
        assert third.state is JobState.REJECTED
        assert service.queue_depth == 1
    finally:
        service.close(drain=False)


def test_thread_shed_lowest_sheds_a_retry_in_backoff():
    service = retrying_thread_service("shed-lowest")
    try:
        victim = service.submit(tiny_protocol("victim"), priority=0)
        wait_for(lambda: backing_off(victim))
        hot = service.submit(tiny_protocol("hot"), priority=9)
        assert victim.state is JobState.SHED
        shed = victim.result(timeout=5.0)
        assert shed.error.kind is ErrorKind.REJECTED
        assert shed.attempts == 1  # the burned attempt is recorded
        assert hot.result(timeout=30.0).ok
        service.drain(timeout=30.0)
        pool = service.snapshot()["pool"]
        assert pool["queue_depth"] == 0 and pool["delayed"] == 0
        assert pool["outstanding"] == 0 and service.queue_depth == 0
    finally:
        service.close(drain=False)


def test_thread_quarantine_hands_queued_lane_work_to_other_workers():
    """A worker that benches itself stops pulling: jobs already waiting
    in its lane move to the healthy worker instead of sitting out the
    cooldown."""
    config = ConcurrentConfig(
        n_workers=2, max_retries=3, retry_backoff=0.01,
        quarantine_after=1, restart_cooldown=60.0,
        time_scale=0.02,
    )
    faults = FleetFaultPlan(models={
        0: FaultModel(shape=SHAPE, transient_ops={1}),
        1: FaultModel.none(SHAPE),
    })
    with ConcurrentExecutionService.dry_run(
            config, faults=faults, grid=GRID) as service:
        handles = service.submit_many(
            tiny_protocol(f"j{i}") for i in range(6)
        )
        service.drain(timeout=20.0)
        assert all(h.result().ok for h in handles)
        counters = service.snapshot()["counters"]
        assert counters["quarantined"] == 1
        assert counters["restarted"] == 0
        service.restart_worker(0)  # so close() need not wait it out


# -- one observation surface --------------------------------------------------


def observe(tier, protocols):
    """Serve ``protocols`` in FIFO order on one chip with a two-program
    cache, under a clean fault plan; returns ``(snapshot, Prometheus
    text)`` taken while the chip still serves."""
    faults = FleetFaultPlan(models={0: FaultModel.none(SHAPE)})
    if tier == "virtual":
        service = ExecutionService.dry_run(
            ServiceConfig(n_chips=1, cache_capacity=2),
            faults=faults, grid=GRID,
        )
        service.submit_many(protocols)
        service.drain()
        return service.snapshot(), service.to_prometheus()
    config = ConcurrentConfig(
        n_workers=1, cache_capacity=2
    )
    with ConcurrentExecutionService.dry_run(
            config, faults=faults, grid=GRID) as service:
        service.submit_many(protocols)
        service.drain(timeout=60.0)
        return service.snapshot(), service.to_prometheus()


def test_both_tiers_render_one_observation_surface():
    """Both tiers render the same snapshot schema and Prometheus chip
    gauges from their chip records, and count cache hits, misses and
    evictions alike on the same FIFO traffic."""
    protocols = [
        tiny_protocol(f"j{i}", row=row)
        for i, row in enumerate([2, 2, 3, 4, 2, 3, 3, 4, 2])
    ]
    (virtual, virtual_text), (thread, thread_text) = (
        observe("virtual", protocols), observe("thread", protocols)
    )
    for key in ("cache", "fleet", "faults"):
        assert set(virtual[key]) == set(thread[key])
    for text in (virtual_text, thread_text):
        assert 'repro_chip_health{chip="0",state="healthy"} 1' in text
        assert 'repro_chip_utilization{chip="0"}' in text
        assert 'repro_chip_restarts_total{chip="0"} 0' in text
        assert 'repro_cache_events_total{event="evictions"}' in text

    def cache_events(snap):
        return [snap["cache"][k] for k in ("hits", "misses", "evictions")]

    assert cache_events(virtual) == cache_events(thread)
    hits, misses, evictions = cache_events(virtual)
    assert hits > 0 and evictions > 0 and hits + misses == len(protocols)


# -- one retry path -----------------------------------------------------------


def mover(name, moves):
    """A one-cage protocol of a trap plus ``moves`` moves: 1 + ``moves``
    operations that roll the transient-fault process."""
    protocol = Protocol(name).trap("p", (2, 2))
    for i in range(moves):
        protocol = protocol.move("p", (2, 10 if i % 2 == 0 else 6))
    return protocol.release("p")


@pytest.mark.parametrize("tier", ["virtual", "thread"])
def test_lease_group_streak_trips_quarantine_mid_group(tier, caplog):
    """The group's first two tenants fault (their third op) and trip a
    streak of two; the last tenant succeeds and resets it.  Both tiers
    bench the chip on the tenant that tripped it and log that streak."""
    faults = FleetFaultPlan(
        models={0: FaultModel(shape=SHAPE, transient_ops={2})}
    )
    protocols = [mover("a", 2), mover("b", 2), mover("c", 1)]
    caplog.set_level("WARNING", logger="repro.service")
    if tier == "virtual":
        service = ExecutionService.dry_run(
            ServiceConfig(n_chips=1, max_tenants=4, quarantine_after=2,
                          max_retries=0, restart_cooldown=None),
            faults=faults, grid=GRID,
        )
        handles = service.submit_many(protocols)
        service.drain()
        counters = service.snapshot()["counters"]
    else:
        config = ConcurrentConfig(
            n_workers=1, max_tenants=4, quarantine_after=2, max_retries=0,
            restart_cooldown=None, time_scale=0.01,
        )
        with ConcurrentExecutionService.dry_run(
                config, faults=faults, grid=GRID) as service:
            blocker = service.submit(blocker_protocol())
            wait_for(lambda: blocker.state is not JobState.QUEUED)
            handles = service.submit_many(protocols)
            service.drain(timeout=60.0)
            wait_for(
                lambda: service.snapshot()["counters"]["quarantined"] >= 1
            )
            counters = service.snapshot()["counters"]
            service.restart_worker(0)  # so close() need not wait
    assert [h.result().state for h in handles] == [
        JobState.FAILED, JobState.FAILED, JobState.DONE
    ]
    assert counters["merged"] == 3
    assert counters["quarantined"] == 1
    benched = [r.getMessage() for r in caplog.records
               if "quarantined" in r.getMessage()]
    assert len(benched) == 1
    assert "after 2 consecutive retryable failures" in benched[0]


def test_co_tenant_migrations_are_counted():
    """Chip 0 faults every operation: the whole first lease group fails
    there, and all four retries run on chip 1.  Each is a migration,
    co-tenants included."""
    faults = FleetFaultPlan(models={
        0: FaultModel(shape=SHAPE, transient_rate=1.0),
        1: FaultModel.none(SHAPE),
    })
    service = ExecutionService.dry_run(
        ServiceConfig(n_chips=2, max_tenants=4), faults=faults, grid=GRID,
    )
    with tracing.capture() as tracer:
        handles = service.submit_many(
            tiny_protocol(f"j{i}", row=2 + 6 * i) for i in range(4)
        )
        service.drain()
    results = [h.result() for h in handles]
    assert all(r.ok and r.chip_id == 1 for r in results)
    counters = service.snapshot()["counters"]
    assert counters["retried"] == 4
    assert counters["migrated"] == 4
    migrations = [
        event for span in tracer.finished_spans if span["name"] == "job"
        for event in span["events"] if event["name"] == "migrate"
    ]
    assert len(migrations) == 4
    assert all(e["attributes"]["to_chip"] == 1 for e in migrations)


@pytest.mark.parametrize("tier", ["virtual", "thread"])
def test_retry_is_steered_to_a_chip_it_never_failed_on(tier):
    """Chip 0 faults its first operation; the retry of the job it
    failed runs on chip 1, on both tiers."""
    faults = FleetFaultPlan(models={
        0: FaultModel(shape=SHAPE, transient_ops={0}),
        1: FaultModel.none(SHAPE),
    })
    with tracing.capture() as tracer:
        if tier == "virtual":
            service = ExecutionService.dry_run(
                ServiceConfig(n_chips=2, quarantine_after=None),
                faults=faults, grid=GRID,
            )
            result = service.submit(tiny_protocol("j")).wait()
            counters = service.snapshot()["counters"]
        else:
            config = ConcurrentConfig(
                n_workers=2, retry_backoff=0.01, quarantine_after=None,
            )
            with ConcurrentExecutionService.dry_run(
                    config, faults=faults, grid=GRID) as service:
                result = service.submit(tiny_protocol("j")).wait(timeout=60.0)
                counters = service.snapshot()["counters"]
    assert result.ok
    assert result.chip_id == 1
    assert result.attempts == 2
    assert counters["migrated"] == 1
    attempts = sorted(
        (s for s in tracer.finished_spans if s["name"] == "attempt"),
        key=lambda s: s["attributes"]["attempt"],
    )
    assert [a["attributes"]["chip"] for a in attempts] == [0, 1]


# -- one health loop ----------------------------------------------------------


@pytest.mark.parametrize("cooldown", [None, 0.0], ids=["manual", "zero"])
@pytest.mark.parametrize("tier", ["virtual", "thread"])
def test_a_benched_fleet_never_strands_its_queue(tier, cooldown):
    """One chip that faults the first operation of every incarnation
    benches itself on each attempt.  The health loop restarts it while
    the retry waits, even when no cooldown would, so both tiers fail
    the job after all three attempts with the same restarts: one per
    retry, plus one after the job when a zero cooldown has run out.  A
    restart request that races the worker's ``restarted`` message must
    not power-cycle the chip twice."""
    faults = FleetFaultPlan(
        models={0: FaultModel(shape=SHAPE, transient_ops={0})}
    )
    options = dict(max_retries=2, quarantine_after=1,
                   restart_cooldown=cooldown)
    restarts = 2 if cooldown is None else 3
    if tier == "virtual":
        service = ExecutionService.dry_run(
            ServiceConfig(n_chips=1, **options), faults=faults, grid=GRID,
        )
        handle = service.submit(tiny_protocol("j"))
        service.drain()
        counters = service.snapshot()["counters"]
    else:
        config = ConcurrentConfig(
            n_workers=1, retry_backoff=0.01, **options
        )
        with ConcurrentExecutionService.dry_run(
                config, faults=faults, grid=GRID) as service:
            handle = service.submit(tiny_protocol("j"))
            service.drain(timeout=10.0)

            def benched_and_restarted():
                counters = service.snapshot()["counters"]
                return (counters["quarantined"], counters["restarted"]) == (
                    3, restarts)

            wait_for(benched_and_restarted, timeout=10.0)
            time.sleep(0.1)  # a tenth of a second on: no more restarts
            counters = service.snapshot()["counters"]
            if cooldown is None:
                service.restart_worker(0)  # so close() need not wait
    result = handle.result()
    assert result.state is JobState.FAILED
    assert result.error.kind is ErrorKind.TRANSIENT
    assert result.attempts == 3
    assert counters["quarantined"] == 3
    assert counters["restarted"] == restarts


def test_thread_tier_keeps_work_a_benched_worker_will_serve():
    """Worker 0 is benched with a long cooldown and a retry waits when
    worker 1 dies: the job is not rejected for want of live workers,
    because the health loop restarts the benched worker to serve it."""
    config = ConcurrentConfig(
        n_workers=2, max_retries=1, retry_backoff=1.0, quarantine_after=1,
        restart_cooldown=30.0,
    )
    faults = FleetFaultPlan(models={
        0: FaultModel(shape=SHAPE, transient_ops={0}),
        1: FaultModel.none(SHAPE),
    })
    with ConcurrentExecutionService.dry_run(
            config, faults=faults, grid=GRID) as service:
        handle = service.submit(tiny_protocol("j"))
        wait_for(lambda: backing_off(handle)
                 and service.snapshot()["counters"]["quarantined"] == 1)
        with service._lock:
            assert service.snapshot()["pool"]["delayed"] == 1
            service._mark_worker_dead(1, "killed by the test")
        try:
            result = handle.result(timeout=10.0)
        finally:
            service.restart_worker(0)  # so close() need not wait
    # the retry ran on worker 0's next incarnation, whose first
    # operation faults again
    assert result.state is JobState.FAILED
    assert result.error.kind is ErrorKind.TRANSIENT
    assert result.chip_id == 0
    assert result.attempts == 2
    assert service.snapshot()["counters"]["rejected"] == 0
