"""The wall-clock concurrent execution tier, against the virtual-clock
reference.

The deterministic single-threaded :class:`ExecutionService` defines the
behaviour; these tests assert the concurrent tier reproduces it
per-job (identical results modulo completion order) across seeds,
worker counts (``REPRO_CONC_WORKERS``, default 4), thread and process
modes, and a deterministically faulted fleet -- plus the wall-clock
serving semantics the virtual tier cannot express: submit-side
backpressure, the asyncio front end's streaming handles, self-
quarantine with cooldown restarts in real time, and thread-safe
telemetry under hammer.
"""

import asyncio
import os
import re
import threading
import time

import numpy as np
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
from repro.core.errors import ServiceError
from repro.faults import FaultModel, FleetFaultPlan
from repro.service import AsyncExecutionService, Telemetry
from repro.service.concurrent import FleetClock, WallClock
from repro.workloads import hot_protocol_traffic
from repro.workloads.protocols import service_protocol_variant

#: Pool size under test; the CI concurrency job sweeps {1, 4, 8}.
N_WORKERS = int(os.environ.get("REPRO_CONC_WORKERS", "4"))

GRID = Biochip.small_chip().grid


def job_signature(result):
    """Everything a job's outcome is, minus what legitimately varies
    across tiers: which chip ran it, when, and chip-local cage ids
    (a chip's cage counter keeps counting across the jobs it served).
    """
    if result.run is None:
        run_sig = None
    else:
        events = [
            (
                event.kind,
                event.op_id,
                tuple(sorted(
                    (k, v) for k, v in event.detail.items() if k != "cage"
                )),
            )
            for event in result.run.events
        ]
        measurements = tuple(
            (key, tuple(
                (m.reading, m.detected, m.n_samples, round(m.duration, 12))
                for m in result.run.measurements[key]
            ))
            for key in sorted(result.run.measurements)
        )
        run_sig = (tuple(events), round(result.run.wall_time, 9),
                   measurements)
    error_sig = (
        None if result.error is None
        # backend cage ids in messages are chip-allocation-order, like
        # the "cage" event detail -- normalise them away
        else (result.error.kind, re.sub(r"cage \d+", "cage *",
                                        str(result.error)))
    )
    return (result.state, result.attempts, run_sig, error_sig)


def reference_signatures(protocols, faults=None, **config_kwargs):
    """Per-job signatures from the virtual-clock reference tier."""
    service = ExecutionService.dry_run(
        ServiceConfig(n_chips=4, **config_kwargs), faults=faults, grid=GRID
    )
    service.submit_many(protocols)
    return {r.job_id: job_signature(r) for r in service.drain()}


# -- satellite: thread-safe telemetry ---------------------------------------


def test_telemetry_hammer():
    """Concurrent counter/histogram/routing mutation loses nothing."""
    telemetry = Telemetry()
    n_threads, n_each = 8, 2000

    def hammer():
        for i in range(n_each):
            telemetry.count("submitted")
            telemetry.counters["completed"].inc(2)
            telemetry.queue_wait.observe(i)
            telemetry.observe_routing(
                {"plans": 1, "cages_planned": 3, "plan_seconds": 0.001}
            )

    threads = [threading.Thread(target=hammer) for __ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = n_threads * n_each
    assert telemetry.counters["submitted"].value == total
    assert telemetry.counters["completed"].value == 2 * total
    assert telemetry.queue_wait.count == total
    assert telemetry.routing_totals["plans"] == total
    assert telemetry.routing_totals["cages_planned"] == 3 * total
    assert telemetry.routing_totals["plan_seconds"] == pytest.approx(
        0.001 * total
    )
    # summary() must also be safe against a concurrent writer
    writer = threading.Thread(
        target=lambda: [telemetry.service_time.observe(i) for i in range(5000)]
    )
    writer.start()
    while writer.is_alive():
        summary = telemetry.service_time.summary()
        assert summary["count"] >= 0
    writer.join()
    assert telemetry.service_time.count == 5000


# -- satellite: scheduler clock injection -----------------------------------


class _StubClock:
    def __init__(self, value=0.0):
        self.value = value

    def now(self):
        return self.value


def test_scheduler_default_clock_is_fleet_time():
    service = ExecutionService.dry_run(ServiceConfig(n_chips=2), grid=GRID)
    assert isinstance(service.clock, FleetClock)
    assert service.now == service.fleet.now


def test_scheduler_reads_injected_clock():
    clock = _StubClock(value=123.0)
    service = ExecutionService.dry_run(
        ServiceConfig(n_chips=2), grid=GRID, clock=clock
    )
    assert service.now == 123.0
    handle = service.submit(hot_protocol_traffic(GRID, n_jobs=1, seed=0)[0])
    assert handle.job.submitted_at == 123.0


# -- cross-tier equivalence --------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_thread_tier_matches_reference(seed):
    protocols = hot_protocol_traffic(GRID, n_jobs=8, seed=seed)
    reference = reference_signatures(protocols)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=N_WORKERS),
            grid=GRID) as service:
        handles = service.submit_many(protocols)
        results = service.drain(timeout=60.0)
    assert {r.job_id: job_signature(r) for r in results} == reference
    assert all(h.done() for h in handles)


def test_faulted_fleet_matches_reference():
    """Deterministic faults (dead electrodes only, same die on every
    chip) produce identical per-job outcomes -- including identical
    failures and retry counts -- on both tiers."""
    dead = np.zeros((GRID.rows, GRID.cols), dtype=bool)
    dead[:, 21] = True  # the long-travel variant's destination column
    model = FaultModel(shape=(GRID.rows, GRID.cols), dead_electrodes=dead)
    protocols = [
        service_protocol_variant(GRID, variant=v, handle_prefix=f"j{i}h",
                                 name=f"job{i}")
        for i, v in enumerate([0, 3, 1, 0, 3, 2, 0, 3, 1, 0])
    ]
    reference = reference_signatures(
        protocols, faults=model, max_retries=2, quarantine_after=None
    )
    assert any(sig[0] is JobState.FAILED for sig in reference.values()), (
        "fault model too mild: the equivalence run needs failures"
    )
    assert any(sig[0] is JobState.DONE for sig in reference.values())
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(
                n_workers=N_WORKERS, max_retries=2, retry_backoff=0.01,
                quarantine_after=None,
            ),
            faults=model, grid=GRID) as service:
        service.submit_many(protocols)
        results = service.drain(timeout=60.0)
    assert {r.job_id: job_signature(r) for r in results} == reference


def test_process_tier_matches_reference():
    """Spawned process workers (chip pickled once each) reproduce the
    reference too; one pool is reused across seeds to amortise spawn."""
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=2, mode="process"),
            grid=GRID) as service:
        for seed in (5, 6):
            protocols = hot_protocol_traffic(GRID, n_jobs=6, seed=seed)
            reference = reference_signatures(protocols)
            handles = service.submit_many(protocols)
            results = service.drain(timeout=90.0)
            # the reused pool numbers jobs across batches; re-key by
            # submission position to line up with the fresh reference
            position = {h.job_id: i for i, h in enumerate(handles)}
            got = {position[r.job_id]: job_signature(r) for r in results}
            assert got == reference


# -- wall-clock serving semantics --------------------------------------------


def slow_config(**kwargs):
    """One worker, paced so each job takes ~0.1 wall seconds."""
    defaults = dict(
        n_workers=1, time_scale=0.005,
        retry_backoff=0.01,
    )
    defaults.update(kwargs)
    return ConcurrentConfig(**defaults)


def test_backpressure_blocks_instead_of_rejecting():
    protocols = hot_protocol_traffic(GRID, n_jobs=8, seed=1)
    with ConcurrentExecutionService.dry_run(
            slow_config(max_queue_depth=1), grid=GRID) as service:
        handles = service.submit_many(protocols, block=True)
        assert all(h.state is not JobState.REJECTED for h in handles)
        results = service.drain(timeout=60.0)
    assert all(r.ok for r in results)
    assert service.telemetry.counters["rejected"].value == 0


def test_bounded_admission_rejects_without_block():
    protocols = hot_protocol_traffic(GRID, n_jobs=8, seed=1)
    with ConcurrentExecutionService.dry_run(
            slow_config(max_queue_depth=1), grid=GRID) as service:
        handles = service.submit_many(protocols)  # block=False
        rejected = [h for h in handles if h.state is JobState.REJECTED]
        assert rejected, "8 instant submits into depth-1 queue must reject"
        service.drain(timeout=60.0)
        counters = {
            name: c.value for name, c in service.telemetry.counters.items()
        }
    assert counters["submitted"] == len(protocols)
    assert (
        counters["completed"] + counters["failed"] + counters["rejected"]
        + counters["shed"] + counters["expired"]
    ) == counters["submitted"]


def test_deadline_expires_in_wall_time():
    protocols = hot_protocol_traffic(GRID, n_jobs=3, seed=4)
    with ConcurrentExecutionService.dry_run(
            slow_config(), grid=GRID) as service:
        first = service.submit(protocols[0])
        starving = service.submit(protocols[1], deadline=0.02)
        results = service.drain(timeout=60.0)
    assert first.result().ok
    assert starving.result().state is JobState.EXPIRED
    assert {r.job_id for r in results} == {first.job_id, starving.job_id}


def test_job_timeout_is_wall_time():
    protocols = hot_protocol_traffic(GRID, n_jobs=1, seed=4)
    with ConcurrentExecutionService.dry_run(
            slow_config(job_timeout=0.02, max_retries=0),
            grid=GRID) as service:
        handle = service.submit(protocols[0])
        result = handle.wait(timeout=60.0)
    assert result.state is JobState.FAILED
    assert result.error.kind is ErrorKind.TIMEOUT
    assert result.run is None
    assert service.telemetry.counters["timeout"].value == 1


def test_quarantine_cooldown_and_manual_restart_in_wall_time():
    """A worker whose chip faults every operation benches itself after
    its first failure; traffic drains to the healthy worker, and a
    manual restart_worker() brings it back (fresh spawn) while parked.
    """
    shape = (GRID.rows, GRID.cols)
    faults = FleetFaultPlan(models={
        0: FaultModel(shape=shape, transient_rate=1.0),
        1: FaultModel.none(shape),
    })
    protocols = hot_protocol_traffic(GRID, n_jobs=6, seed=3)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(
                n_workers=2, max_retries=3, retry_backoff=0.01,
                quarantine_after=1, restart_cooldown=30.0,
            ),
            faults=faults, grid=GRID) as service:
        service.submit_many(protocols)
        results = service.drain(timeout=60.0)
        assert all(r.ok for r in results)
        counters = service.telemetry.counters
        assert counters["retried"].value >= 1
        assert counters["quarantined"].value == 1
        assert counters["restarted"].value == 0  # cooldown far away
        snap = service.snapshot()
        assert snap["fleet"]["health"][0] == "quarantined"
        assert snap["faults"]["transient"] >= 1
        service.restart_worker(0)
        deadline = time.monotonic() + 10.0
        while (service.telemetry.counters["restarted"].value == 0
                and time.monotonic() < deadline):
            time.sleep(0.01)
        assert service.telemetry.counters["restarted"].value == 1
        assert service.snapshot()["fleet"]["health"][0] == "healthy"


def test_snapshot_exposes_pool_gauges():
    protocols = hot_protocol_traffic(GRID, n_jobs=4, seed=0)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=2),
            grid=GRID) as service:
        service.submit_many(protocols)
        service.drain(timeout=60.0)
        snap = service.snapshot()
        report = service.report()
    pool, fleet = snap["pool"], snap["fleet"]
    assert fleet["n_chips"] == 2
    assert set(fleet["utilization"]) == {0, 1}
    assert all(0.0 <= u <= 1.0 for u in fleet["utilization"].values())
    assert sum(fleet["jobs_per_chip"].values()) >= 4
    assert pool["queue_depth"] == 0 and pool["outstanding"] == 0
    assert snap["cache"]["hits"] + snap["cache"]["misses"] >= 4
    assert "pool:" in report and "worker" in report


def test_a_close_that_times_out_can_be_finished():
    """close() is re-entrant: a call whose wait times out refuses new
    work but leaves the pool serving, and a later call waits for the
    job and stops the worker and the coordinator."""
    slow = Protocol("slow").trap("b", (4, 4)).incubate("b", 30.0) \
        .release("b")
    service = ConcurrentExecutionService.dry_run(
        slow_config(time_scale=0.05), grid=GRID
    )
    handle = service.submit(slow)
    with pytest.raises(ServiceError):
        service.close(timeout=0.2)
    with pytest.raises(ServiceError):
        service.submit(slow)
    service.close(timeout=30.0)
    assert handle.state is JobState.DONE
    threads = [worker.runner for worker in service._records] + [service._pump]
    assert not any(thread.is_alive() for thread in threads)
    service.close()  # a closed service closes again at once


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_close_wakes_a_worker_parked_in_quarantine(mode):
    """A worker benched with ``restart_cooldown=None`` and never asked
    to restart parks on its restart event: close() wakes it, and the
    worker and the coordinator stop within a bound."""
    faults = FleetFaultPlan(models={
        0: FaultModel(shape=(GRID.rows, GRID.cols), transient_ops={0}),
    })
    service = ConcurrentExecutionService.dry_run(
        ConcurrentConfig(n_workers=1, mode=mode, max_retries=0,
                         quarantine_after=1, restart_cooldown=None),
        faults=faults, grid=GRID,
    )
    handle = service.submit(hot_protocol_traffic(GRID, n_jobs=1, seed=0)[0])
    assert handle.result(timeout=90.0).state is JobState.FAILED
    deadline = time.monotonic() + 30.0
    while service.snapshot()["fleet"]["health"][0] != "quarantined":
        assert time.monotonic() < deadline, "the worker never benched"
        time.sleep(0.01)
    start = time.monotonic()
    service.close(timeout=30.0)
    assert time.monotonic() - start < 5.0
    names = {thread.name for thread in threading.enumerate()}
    assert not {n for n in names
                if n.startswith("chip-worker-") or n == "service-pump"}
    assert not service._records[0].runner.is_alive()
    assert service.snapshot()["counters"]["restarted"] == 0


@pytest.mark.parametrize("worker_id", [-1, 2])
def test_restart_worker_rejects_an_id_outside_the_pool(worker_id):
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=2), grid=GRID) as service:
        with pytest.raises(ValueError, match=f"no worker {worker_id} "):
            service.restart_worker(worker_id)
        assert not any(w.restart_event.is_set() or w.cycling
                       for w in service._records)


def solo_protocol():
    return (Protocol("solo").trap("a", (4, 0)).trap("b", (6, 0))
            .move_many({"a": (4, 4), "b": (6, 4)})
            .sense("a", 173).sense("b", 168)
            .release("a").release("b"))


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("max_tenants", [1, 4])
def test_a_lone_job_leases_as_on_the_virtual_tier(mode, max_tenants):
    """A job served alone is leased on every tier when it has a window,
    so its result does not depend on what else a worker's pull held."""
    virtual = ExecutionService.simulator(
        ServiceConfig(n_chips=1, max_tenants=max_tenants),
        chip=Biochip.small_chip())
    want = virtual.submit(solo_protocol())
    virtual.drain()
    with ConcurrentExecutionService.simulator(
            ConcurrentConfig(n_workers=1, mode=mode,
                             max_tenants=max_tenants),
            chip=Biochip.small_chip()) as service:
        got = service.submit(solo_protocol()).result(timeout=90.0)
        leased = service.snapshot()["counters"]["leased"]
    assert got.ok
    assert got.run.wall_time == want.result().run.wall_time
    assert job_signature(got) == job_signature(want.result())
    assert leased == virtual.snapshot()["counters"]["leased"] == (
        1 if max_tenants > 1 else 0)


# -- cache-locality steering -------------------------------------------------


def test_pooled_cache_hit_rate_on_hot_traffic():
    """Regression: warm-fingerprint steering keeps the POOLED hit rate
    near the single-worker rate on hot traffic.

    Before steering, any idle worker grabbed any job, so every variant
    eventually compiled on every chip (hit rate 0.64 at 8 workers vs
    0.95 at 1).  With per-worker lanes the coordinator routes repeats
    to chips that already hold the fingerprint; the floor below allows
    one compile per worker for the hot variant (the initial burst
    legitimately fans out) plus one per cold variant pool-wide.
    """
    protocols = hot_protocol_traffic(GRID, n_jobs=96, seed=5)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=N_WORKERS),
            grid=GRID) as service:
        service.submit_many(protocols)
        results = service.drain(timeout=120.0)
        snap = service.snapshot()
    assert all(r.ok for r in results)
    assert snap["cache"]["hit_rate"] >= 0.85


# -- the asyncio front end ---------------------------------------------------


def test_async_frontend_streams_events_and_results():
    protocols = hot_protocol_traffic(GRID, n_jobs=4, seed=2)

    async def serve():
        async with AsyncExecutionService.dry_run(
                ConcurrentConfig(n_workers=2),
                grid=GRID) as service:
            handles = await service.submit_many(protocols)
            events = []
            async for event in handles[0].events():
                events.append(event)
            results = [await h for h in handles]
            # late subscription replays the full history: a second
            # iteration after completion yields the same stream
            replayed = [e async for e in handles[0].events()]
            return events, replayed, results

    events, replayed, results = asyncio.run(serve())
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "queued"
    assert "started" in kinds
    assert kinds.count("sense") >= 1  # live mid-protocol sense stream
    assert kinds[-1] == "done"
    assert "result" in events[-1]
    assert replayed == events
    assert all(r.ok for r in results)


def test_async_backpressure_suspends_coroutine_not_loop():
    protocols = hot_protocol_traffic(GRID, n_jobs=6, seed=1)
    ticks = []

    async def ticker(stop):
        while not stop.is_set():
            ticks.append(time.monotonic())
            await asyncio.sleep(0.01)

    async def serve():
        stop = asyncio.Event()
        tick_task = asyncio.create_task(ticker(stop))
        async with AsyncExecutionService.dry_run(
                slow_config(max_queue_depth=1), grid=GRID) as service:
            handles = await service.submit_many(protocols, block=True)
            results = await service.drain(timeout=60.0)
        stop.set()
        await tick_task
        return handles, results

    handles, results = asyncio.run(serve())
    assert all(h.sync.state is not JobState.REJECTED for h in handles)
    assert all(r.ok for r in results)
    # the loop kept turning while submit() was backpressured: the
    # ticker fired throughout the ~0.6s of paced serving
    assert len(ticks) >= 10
