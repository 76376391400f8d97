"""Unit tests for the fleet execution service: jobs, cache, scheduler,
admission control and telemetry."""

import dataclasses

import pytest

from repro import ExecutionService, Protocol, ServiceConfig
from repro.core.errors import ServiceError
from repro.service import JobState, ProgramCache, program_key
from repro.service.cache import rebind_program
from repro.workloads import (
    bursty_traffic,
    hot_protocol_traffic,
    mixed_priority_traffic,
    service_protocol_variant,
)


def tiny_protocol(name="tiny", column=10):
    return (
        Protocol(name)
        .trap("p", (2, 2))
        .move("p", (2, column))
        .release("p")
    )


def dry_service(**config_kwargs):
    from repro import Biochip

    return ExecutionService.dry_run(
        ServiceConfig(**config_kwargs), grid=Biochip.small_chip().grid
    )


class TestJobLifecycle:
    def test_submit_poll_wait(self):
        service = dry_service(n_chips=2)
        handle = service.submit(tiny_protocol())
        assert handle.poll() is JobState.QUEUED
        assert not handle.done()
        result = handle.wait()
        assert handle.done()
        assert result.ok and result.state is JobState.DONE
        assert result.run.count() == 3
        assert result.chip_id in (0, 1)

    def test_result_without_wait_raises_while_queued(self):
        service = dry_service(n_chips=1)
        handle = service.submit(tiny_protocol())
        with pytest.raises(ServiceError, match="queued"):
            handle.result(wait=False)

    def test_drain_serves_everything(self):
        service = dry_service(n_chips=3)
        handles = service.submit_many(tiny_protocol(f"p{i}") for i in range(7))
        results = service.drain()
        assert len(results) == 7
        assert all(r.ok for r in results)
        assert all(h.done() for h in handles)
        assert service.queue_depth == 0
        assert service.drain() == []  # idempotent on an empty queue

    def test_priority_order(self):
        service = dry_service(n_chips=1)
        low = service.submit(tiny_protocol("low"), priority=0)
        high = service.submit(tiny_protocol("high"), priority=5)
        mid = service.submit(tiny_protocol("mid"), priority=2)
        order = [r.protocol_name for r in service.drain()]
        assert order == ["high", "mid", "low"]
        assert low.result().ok and high.result().ok and mid.result().ok

    def test_fifo_within_priority(self):
        service = dry_service(n_chips=1)
        for i in range(4):
            service.submit(tiny_protocol(f"p{i}"), priority=1)
        assert [r.protocol_name for r in service.drain()] == [
            "p0", "p1", "p2", "p3"
        ]

    def test_failed_job_reports_error(self):
        service = dry_service(n_chips=1)
        # two cages trapped adjacent: violates min separation at runtime
        bad = Protocol("bad").trap("a", (5, 5)).trap("b", (5, 6))
        ok_handle = service.submit(tiny_protocol())
        bad_handle = service.submit(bad)
        service.drain()
        assert ok_handle.result().ok
        bad_result = bad_handle.result()
        assert bad_result.state is JobState.FAILED
        assert not bad_result.ok
        assert "separation" in str(bad_result.error)
        snap = service.snapshot()
        assert snap["counters"]["failed"] == 1
        assert snap["counters"]["completed"] == 1

    def test_deadline_expires_stale_jobs(self):
        service = dry_service(n_chips=1)
        # the long job runs first (higher priority) and advances the
        # fleet clock past the second job's queue-wait deadline
        long_job = service_protocol_variant(
            service.fleet.workers[0].session.backend.grid, variant=2,
            samples=5000,
        )
        service.submit(long_job, priority=5)
        impatient = service.submit(tiny_protocol("impatient"), deadline=1e-6)
        patient = service.submit(tiny_protocol("patient"), deadline=1e9)
        service.drain()
        assert impatient.result().state is JobState.EXPIRED
        assert patient.result().ok
        assert service.snapshot()["counters"]["expired"] == 1

    def test_virtual_latency_accounting(self):
        service = dry_service(n_chips=1)
        first = service.submit(tiny_protocol("first"))
        second = service.submit(tiny_protocol("second"))
        service.drain()
        r1, r2 = first.result(), second.result()
        # one chip: the second job queues behind the first
        assert r1.queue_wait == pytest.approx(0.0)
        assert r2.queue_wait == pytest.approx(r1.service_time)
        assert r2.turnaround == pytest.approx(
            r2.queue_wait + r2.service_time
        )

    def test_deadline_not_expired_when_an_idle_chip_was_free(self):
        # other chips' progress must not expire a job whose own chip
        # could start it immediately
        service = dry_service(n_chips=2)
        grid = service.fleet.workers[0].session.backend.grid
        long_job = service_protocol_variant(grid, variant=2, samples=5000)
        service.submit(long_job, priority=5)
        short = service.submit(tiny_protocol("short"), deadline=5.0)
        service.drain()
        r = short.result()
        assert r.ok, r.state
        assert r.queue_wait <= 5.0

    def test_one_clock_across_chips(self):
        # a job submitted after the fleet clock advanced must not
        # "finish before it was submitted" on a lagging idle chip
        service = dry_service(n_chips=2)
        service.submit(service_protocol_variant(
            service.fleet.workers[0].session.backend.grid, variant=1))
        service.drain()
        assert service.now > 0.0
        late = service.submit(tiny_protocol("late"))
        service.drain()
        r = late.result()
        assert r.submitted_at > 0.0
        assert r.started_at >= r.submitted_at
        assert r.finished_at >= r.started_at
        # the idle chip fast-forwarded exactly to the submission instant
        assert r.queue_wait == pytest.approx(0.0)


class TestAdmissionControl:
    def test_reject_when_queue_full(self):
        service = dry_service(n_chips=1, max_queue_depth=2)
        admitted = [service.submit(tiny_protocol(f"p{i}")) for i in range(2)]
        refused = service.submit(tiny_protocol("overflow"))
        assert refused.done()
        assert refused.result().state is JobState.REJECTED
        service.drain()
        assert all(h.result().ok for h in admitted)
        snap = service.snapshot()
        assert snap["counters"]["rejected"] == 1
        assert snap["counters"]["submitted"] == 3

    def test_shed_lowest_priority_for_hotter_job(self):
        service = dry_service(
            n_chips=1, max_queue_depth=2, admission="shed-lowest"
        )
        cold = service.submit(tiny_protocol("cold"), priority=0)
        warm = service.submit(tiny_protocol("warm"), priority=1)
        hot = service.submit(tiny_protocol("hot"), priority=9)
        assert cold.result().state is JobState.SHED
        service.drain()
        assert warm.result().ok and hot.result().ok
        assert service.snapshot()["counters"]["shed"] == 1

    def test_shed_keeps_incumbent_on_tie(self):
        service = dry_service(
            n_chips=1, max_queue_depth=1, admission="shed-lowest"
        )
        incumbent = service.submit(tiny_protocol("incumbent"), priority=1)
        latecomer = service.submit(tiny_protocol("latecomer"), priority=1)
        assert latecomer.result().state is JobState.REJECTED
        service.drain()
        assert incumbent.result().ok

    def test_bad_admission_policy_rejected_at_config(self):
        with pytest.raises(ValueError, match="admission"):
            ServiceConfig(admission="drop-table")

    def test_zero_depth_queue_refuses_cleanly_under_shed(self):
        # nothing queued to shed: the newcomer is rejected, not a crash
        service = dry_service(
            n_chips=1, max_queue_depth=0, admission="shed-lowest"
        )
        handle = service.submit(tiny_protocol(), priority=9)
        assert handle.result().state is JobState.REJECTED

    def test_terminal_jobs_are_forgotten_by_the_service(self):
        # a long-running service must not pin every served job's result
        service = dry_service(n_chips=1)
        handles = service.submit_many(tiny_protocol(f"p{i}") for i in range(5))
        service.drain()
        assert service._handles == {}
        # the caller's handles still carry the results
        assert all(h.result().ok for h in handles)


class TestProgramCache:
    def test_hit_on_structural_repeat(self):
        service = dry_service(n_chips=1)
        session = service.fleet.workers[0].session
        cache = ProgramCache()
        p1 = tiny_protocol("a")
        program1, hit1 = cache.get_or_compile(p1, session)
        # same structure, different names everywhere
        p2 = Protocol("b").trap("q", (2, 2)).move("q", (2, 10)).release("q")
        program2, hit2 = cache.get_or_compile(p2, session)
        assert (hit1, hit2) == (False, True)
        # the hit shares the compiled schedule but is rebound to p2
        assert program2.schedule is program1.schedule
        assert program2.protocol is p2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_rebind_shares_everything_but_the_commands(self):
        session = dry_service(n_chips=1).fleet.workers[0].session
        program = session.compile(tiny_protocol("a"))
        other = Protocol("b").trap("q", (2, 2)).move("q", (2, 10)).release("q")
        rebound = rebind_program(program, other)
        assert rebound == dataclasses.replace(
            program, protocol=other,
            op_commands=dict(zip(program.op_commands, other.commands)),
        )
        assert rebound.run_order is program.run_order
        assert rebound.schedule is program.schedule
        # a structure that does not line up is a collision: recompile
        sensed = Protocol("c").trap("p", (2, 2)).sense("p").release("p")
        assert rebind_program(program, sensed) is None

    def test_miss_on_different_structure(self):
        service = dry_service(n_chips=1)
        session = service.fleet.workers[0].session
        cache = ProgramCache()
        cache.get_or_compile(tiny_protocol(column=10), session)
        __, hit = cache.get_or_compile(tiny_protocol(column=12), session)
        assert not hit
        assert cache.stats.misses == 2

    def test_key_includes_grid_shape(self):
        from repro import Biochip

        protocol = tiny_protocol()
        small = Biochip.small_chip(rows=32, cols=32).grid
        large = Biochip.small_chip(rows=48, cols=48).grid
        assert program_key(protocol, small) != program_key(protocol, large)

    def test_lru_eviction(self):
        service = dry_service(n_chips=1)
        session = service.fleet.workers[0].session
        cache = ProgramCache(capacity=2)
        a, b, c = (tiny_protocol(column=col) for col in (10, 12, 14))
        cache.get_or_compile(a, session)
        cache.get_or_compile(b, session)
        cache.get_or_compile(a, session)  # refresh a; b is now LRU
        cache.get_or_compile(c, session)  # evicts b
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        __, hit_a = cache.get_or_compile(a, session)
        assert hit_a
        __, hit_b = cache.get_or_compile(b, session)
        assert not hit_b  # was evicted

    def test_cache_hit_keeps_submitters_identity(self):
        # a cached job's result must carry ITS protocol name, handle
        # names and measurement keys, not the first-compiled job's
        service = dry_service(n_chips=1)
        first = Protocol("first").trap("x1", (2, 2)).sense("x1").release("x1")
        second = Protocol("second").trap("y1", (2, 2)).sense("y1").release("y1")
        h1 = service.submit(first)
        h2 = service.submit(second)
        service.drain()
        assert h2.result().cache_hit
        r2 = h2.result()
        assert r2.protocol_name == "second"
        assert list(r2.run.measurements) == ["y1"]
        assert h1.result().run.measurements.keys() == {"x1"}

    def test_failed_job_does_not_poison_its_chip(self):
        service = dry_service(n_chips=1)
        # fails after trapping 'a': without sweeping, the leftover cage
        # at (5, 5) would break every later job near that site
        bad = Protocol("bad").trap("a", (5, 5)).trap("b", (5, 6))
        service.submit(bad)
        retry = service.submit(
            Protocol("retry").trap("g", (5, 5)).release("g")
        )
        service.drain()
        assert retry.result().ok
        assert service.fleet.workers[0].session.backend.cage_count == 0

    def test_unreleased_cages_swept_between_jobs(self):
        service = dry_service(n_chips=1)
        sloppy = Protocol("sloppy").trap("s", (5, 5))  # never releases
        service.submit(sloppy)
        service.submit(Protocol("next").trap("n", (5, 5)).release("n"))
        results = service.drain()
        assert all(r.ok for r in results)
        assert service.fleet.workers[0].session.backend.cage_count == 0

    def test_cached_program_reruns_cleanly(self):
        # handle isolation means one compiled program can serve many runs
        service = dry_service(n_chips=1)
        handles = service.submit_many(
            tiny_protocol(f"job{i}") for i in range(5)
        )
        service.drain()
        assert all(h.result().ok for h in handles)
        stats = service.fleet.cache_stats()
        assert (stats.hits, stats.misses) == (4, 1)


class TestTelemetry:
    def test_snapshot_shape(self):
        service = dry_service(n_chips=2)
        service.submit_many(tiny_protocol(f"p{i}") for i in range(4))
        service.drain()
        snap = service.snapshot()
        assert snap["counters"]["submitted"] == 4
        assert snap["counters"]["completed"] == 4
        assert snap["queue_wait"]["count"] == 4
        assert snap["service_time"]["p99"] >= snap["service_time"]["p50"] > 0
        assert snap["cache"]["hit_rate"] == pytest.approx(0.5)
        assert snap["fleet"]["n_chips"] == 2
        assert snap["fleet"]["throughput"] > 0
        assert set(snap["fleet"]["utilization"]) == {0, 1}

    def test_report_renders(self):
        service = dry_service(n_chips=2)
        service.submit_many(tiny_protocol(f"p{i}") for i in range(3))
        service.drain()
        text = service.report()
        for needle in ("job lifecycle", "latency", "cache hit rate", "chip"):
            assert needle in text

    def test_routing_meters_from_simulator_jobs(self):
        """Batch-planner cost on chip surfaces in the service snapshot."""
        service = ExecutionService.simulator(ServiceConfig(n_chips=1))
        routed = (
            Protocol("routed")
            .trap("a", (2, 2))
            .trap("b", (2, 8))
            .move_many({"a": (8, 2), "b": (8, 8)})
            .release("a")
            .release("b")
        )
        service.submit(routed)
        service.drain()
        routing = service.snapshot()["routing"]
        assert routing["plans"] >= 1
        assert routing["cages_planned"] >= 2
        assert routing["plan_seconds"] > 0.0
        assert routing["plan_time"]["count"] >= 1
        assert "batch routing" in service.report()

    def test_routing_meters_absent_without_batch_moves(self):
        """Dry-run chips never batch-plan: the meters stay zero and the
        report omits the routing table."""
        service = dry_service(n_chips=1)
        service.submit(tiny_protocol())
        service.drain()
        routing = service.snapshot()["routing"]
        assert routing["plans"] == 0
        assert routing["plan_time"]["count"] == 0
        assert "batch routing" not in service.report()

    def test_percentiles_nearest_rank(self):
        from repro.service import Histogram

        h = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            h.observe(v)
        assert h.percentile(50) == 5.0
        assert h.percentile(90) == 9.0
        assert h.percentile(99) == 10.0
        assert h.percentile(0) == 1.0
        assert Histogram("empty").percentile(99) == 0.0

    def test_utilization_splits_across_chips(self):
        service = dry_service(n_chips=2)
        service.submit_many(tiny_protocol(f"p{i}") for i in range(4))
        service.drain()
        utilization = service.snapshot()["fleet"]["utilization"]
        # identical jobs on 2 chips: both chips near fully busy
        assert all(u == pytest.approx(1.0) for u in utilization.values())


class TestTrafficGenerators:
    def test_seeded_generators_are_reproducible(self):
        from repro import Biochip

        grid = Biochip.small_chip().grid
        a = hot_protocol_traffic(grid, 12, seed=7)
        b = hot_protocol_traffic(grid, 12, seed=7)
        assert [p.fingerprint() for p in a] == [p.fingerprint() for p in b]
        c = hot_protocol_traffic(grid, 12, seed=8)
        assert [p.fingerprint() for p in a] != [p.fingerprint() for p in c]
        pa = mixed_priority_traffic(grid, 9, seed=3)
        pb = mixed_priority_traffic(grid, 9, seed=3)
        assert [pri for __, pri in pa] == [pri for __, pri in pb]
        ba = bursty_traffic(grid, 4, seed=5)
        bb = bursty_traffic(grid, 4, seed=5)
        assert [len(burst) for burst in ba] == [len(burst) for burst in bb]

    def test_hot_traffic_is_hot(self):
        from repro import Biochip

        grid = Biochip.small_chip().grid
        jobs = hot_protocol_traffic(grid, 50, hot_fraction=0.9, seed=0)
        hot_fp = service_protocol_variant(grid, 0).fingerprint()
        share = sum(p.fingerprint() == hot_fp for p in jobs) / len(jobs)
        assert share >= 0.7

    def test_variants_fingerprint_distinctly(self):
        from repro import Biochip

        grid = Biochip.small_chip().grid
        fingerprints = {
            service_protocol_variant(grid, v).fingerprint() for v in range(4)
        }
        assert len(fingerprints) == 4

    def test_bursty_traffic_runs_through_service(self):
        from repro import Biochip

        grid = Biochip.small_chip().grid
        service = ExecutionService.dry_run(
            ServiceConfig(n_chips=2, max_queue_depth=64), grid=grid
        )
        for burst in bursty_traffic(grid, 3, mean_burst_size=4, seed=2):
            service.submit_many(burst)
            service.drain()
        snap = service.snapshot()
        assert snap["counters"]["completed"] == snap["counters"]["submitted"]
        assert snap["counters"]["completed"] >= 3
