"""Serving benchmark: cache + fleet vs naive per-job ``Session.run``.

The fleet execution service amortises compilation through the
fingerprint-keyed program cache and spreads chip time across N
simulated chips; the naive baseline compiles and runs every job
serially on a single chip.  On repeated-protocol traffic (one hot
protocol dominating, as production assay traffic does) the two gains
are asserted separately, because they live on different clocks:

* the FLEET drives fleet-virtual-time throughput (chips run in
  parallel): >= 5x naive;
* the CACHE drives host compile work (compilation costs CPU, not chip
  seconds): compiles collapse from one-per-job to one-per-miss.

Emits ``BENCH_service.json`` (throughput, p50/p99 latency, cache hit
rate, compile counts) at the repo root so the serving-path perf
trajectory is tracked across PRs.

Run with:  pytest benchmarks/bench_service.py --benchmark-only -s
"""

import json
import os
import time
from pathlib import Path

from conftest import report

from repro import Biochip, ExecutionService, ServiceConfig, Session
from repro.analysis import ascii_table, format_seconds
from repro.core.backend import SimulatorBackend

# REPRO_BENCH_SMOKE=1 (the CI smoke job) shrinks the workload and drops
# the perf-bar asserts: CI fails on a crash, not on a slow runner.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

N_JOBS = 12 if SMOKE else 64
N_CHIPS = 2 if SMOKE else 8
HOT_FRACTION = 0.9
SEED = 11

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Degraded-mode fault load: the acceptance scenario is 5% dead pixels
#: plus a light transient-glitch rate, served with retries enabled.
DEAD_PIXEL_FRACTION = 0.05
TRANSIENT_RATE = 0.02


def _merge_json(update):
    """Read-modify-write the bench JSON so the healthy and degraded
    entries coexist regardless of which test ran last."""
    payload = {}
    if JSON_PATH.exists():
        try:
            payload = json.loads(JSON_PATH.read_text())
        except ValueError:
            payload = {}
    payload.update(update)
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _traffic():
    from repro.workloads import hot_protocol_traffic

    grid = Biochip.small_chip().grid
    return hot_protocol_traffic(
        grid, N_JOBS, hot_fraction=HOT_FRACTION, seed=SEED
    )


def _run_naive(jobs):
    """One chip, one compile and one run per job, strictly serial."""
    template = SimulatorBackend(Biochip.small_chip())
    host_start = time.perf_counter()
    makespan = 0.0
    for protocol in jobs:
        session = Session(template.spawn())
        result = session.run(protocol)  # compiles from scratch every time
        makespan += result.wall_time
    host_time = time.perf_counter() - host_start
    return {
        "makespan": makespan,
        "throughput": len(jobs) / makespan,
        "host_time": host_time,
        "compiles": len(jobs),
    }


def _run_service(jobs):
    """8 chips, affinity dispatch, per-chip compiled-program caches."""
    service = ExecutionService.simulator(
        ServiceConfig(n_chips=N_CHIPS, policy="affinity")
    )
    host_start = time.perf_counter()
    service.submit_many(jobs)
    service.drain()
    host_time = time.perf_counter() - host_start
    snap = service.snapshot()
    return {
        "makespan": snap["fleet"]["makespan"],
        "throughput": snap["fleet"]["throughput"],
        "host_time": host_time,
        "compiles": snap["cache"]["misses"],  # one compile per miss
        "cache_hit_rate": snap["cache"]["hit_rate"],
        "queue_wait_p50": snap["queue_wait"]["p50"],
        "queue_wait_p99": snap["queue_wait"]["p99"],
        "service_time_p50": snap["service_time"]["p50"],
        "service_time_p99": snap["service_time"]["p99"],
        "utilization_min": min(snap["fleet"]["utilization"].values()),
    }


def test_service_throughput_vs_naive(benchmark):
    jobs = _traffic()
    naive = _run_naive(jobs)
    service = benchmark(_run_service, jobs)
    speedup = service["throughput"] / naive["throughput"]

    _merge_json({
        "n_jobs": N_JOBS,
        "n_chips": N_CHIPS,
        "hot_fraction": HOT_FRACTION,
        "seed": SEED,
        "naive": naive,
        "service": service,
        "speedup": speedup,
    })

    report(
        ascii_table(
            ["variant", "fleet makespan", "jobs/s", "compiles",
             "host time"],
            [
                [
                    "naive per-job Session.run",
                    format_seconds(naive["makespan"]),
                    f"{naive['throughput']:.3f}",
                    str(naive["compiles"]),
                    format_seconds(naive["host_time"]),
                ],
                [
                    f"service ({N_CHIPS} chips, affinity)",
                    format_seconds(service["makespan"]),
                    f"{service['throughput']:.3f}",
                    f"{service['compiles']} "
                    f"(hit rate {service['cache_hit_rate']:.0%})",
                    format_seconds(service["host_time"]),
                ],
                [
                    "service advantage",
                    "--",
                    f"{speedup:.1f}x (fleet)",
                    f"{naive['compiles'] / service['compiles']:.1f}x fewer "
                    f"(cache)",
                    f"{naive['host_time'] / service['host_time']:.1f}x",
                ],
            ],
            title=(
                f"serving {N_JOBS} repeated-protocol jobs "
                f"(hot fraction {HOT_FRACTION:.0%}); "
                f"JSON -> {JSON_PATH.name}"
            ),
        )
    )
    if SMOKE:
        return  # smoke job: fail on crash, not on perf regression
    # the acceptance bar: the fleet delivers >= 5x virtual-time
    # throughput (compilation costs host CPU, not chip seconds, so this
    # half of the gain is pure parallelism)...
    assert speedup >= 5.0
    # ...while the cache collapses host compile work to the miss count
    assert service["compiles"] * 4 <= naive["compiles"]
    assert service["cache_hit_rate"] >= 0.85
    # latency percentiles are well-formed
    assert service["queue_wait_p99"] >= service["queue_wait_p50"] >= 0.0
    assert service["service_time_p99"] >= service["service_time_p50"] > 0.0


def _run_degraded(jobs):
    """The same traffic on a fleet with per-chip fault injection."""
    from repro.faults import FleetFaultPlan

    service = ExecutionService.simulator(
        ServiceConfig(
            n_chips=N_CHIPS,
            policy="affinity",
            max_retries=3,
            retry_backoff=0.25,
            quarantine_after=3,
            restart_cooldown=20.0,
        ),
        faults=FleetFaultPlan(
            dead_pixel_fraction=DEAD_PIXEL_FRACTION,
            transient_rate=TRANSIENT_RATE,
            seed=SEED,
        ),
    )
    host_start = time.perf_counter()
    service.submit_many(jobs)
    results = service.drain()
    host_time = time.perf_counter() - host_start
    snap = service.snapshot()
    makespan = snap["fleet"]["makespan"]
    completed = snap["counters"]["completed"]
    return {
        "makespan": makespan,
        "completed": completed,
        "failed": snap["counters"]["failed"],
        # jobs/s of *useful* work: only completed jobs count
        "goodput": completed / makespan if makespan > 0.0 else 0.0,
        "host_time": host_time,
        "retried": snap["counters"]["retried"],
        "migrated": snap["counters"]["migrated"],
        "quarantined": snap["counters"]["quarantined"],
        "restarted": snap["counters"]["restarted"],
        "faults_injected": snap["faults"],
        "all_terminal": len(results) == len(jobs),
    }


def test_service_degraded_under_faults(benchmark, extended):
    """Degraded-mode serving: 5% dead pixels + transient glitches.

    The self-healing tier (retry/migrate/quarantine/restart) must turn
    a fault-riddled fleet into graceful throughput loss, not a cliff:
    degraded goodput stays within 2x of the healthy fleet's, and every
    job still terminates.  Appends a ``degraded`` entry to
    ``BENCH_service.json`` next to the healthy baseline.
    """
    jobs = _traffic()
    healthy = _run_service(jobs)
    degraded = benchmark(_run_degraded, jobs)
    healthy_goodput = healthy["throughput"]
    ratio = (
        degraded["goodput"] / healthy_goodput if healthy_goodput else 0.0
    )

    _merge_json({
        "degraded": {
            "dead_pixel_fraction": DEAD_PIXEL_FRACTION,
            "transient_rate": TRANSIENT_RATE,
            "healthy_goodput": healthy_goodput,
            "result": degraded,
            "goodput_ratio": ratio,
        },
    })

    report(
        ascii_table(
            ["variant", "jobs/s", "completed", "retries", "quarantines",
             "restarts"],
            [
                [
                    f"healthy ({N_CHIPS} chips)",
                    f"{healthy_goodput:.3f}",
                    str(N_JOBS),
                    "0", "0", "0",
                ],
                [
                    f"degraded ({DEAD_PIXEL_FRACTION:.0%} dead px, "
                    f"{TRANSIENT_RATE:.0%}/op transients)",
                    f"{degraded['goodput']:.3f}",
                    f"{degraded['completed']}/{N_JOBS}",
                    str(degraded["retried"]),
                    str(degraded["quarantined"]),
                    str(degraded["restarted"]),
                ],
                [
                    "degradation",
                    f"{ratio:.2f}x of healthy",
                    "--", "--", "--", "--",
                ],
            ],
            title=(
                f"degraded-mode serving, {N_JOBS} jobs; "
                f"JSON -> {JSON_PATH.name} (key: degraded)"
            ),
        )
    )
    # robustness invariant holds even in smoke: nothing hangs
    assert degraded["all_terminal"]
    if SMOKE:
        return
    # graceful degradation, not a cliff: the faulted fleet keeps at
    # least half the healthy goodput and lands most of the workload
    assert ratio >= 0.5
    assert degraded["completed"] >= (N_JOBS * 3) // 4
    assert degraded["faults_injected"]["transient"] > 0


# -- observability overhead ---------------------------------------------------


def _metered_tracer(tracing_mod, flight_recorder):
    """A live tracer (keep + flight recorder, like a real traced run)
    that accounts the wall time spent inside its own span lifecycle on
    ``tracer.spent``.

    The <5% guard asserts on this *direct* cost share: it is the sum of
    hundreds of microsecond-scale intervals, so a scheduler preemption
    or GC pause almost never lands inside one -- unlike a diff of two
    end-to-end wall times, which on a busy host swings by more than the
    bar in either direction.
    """
    tracer = tracing_mod.Tracer(flight_recorder=flight_recorder, keep=True)
    tracer.spent = 0.0
    orig_start, orig_end = tracer.start_span, tracer.end_span

    def start_span(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig_start(*args, **kwargs)
        finally:
            tracer.spent += time.perf_counter() - t0

    def end_span(span):
        t0 = time.perf_counter()
        try:
            return orig_end(span)
        finally:
            tracer.spent += time.perf_counter() - t0

    tracer.start_span, tracer.end_span = start_span, end_span
    return tracer


def test_service_tracing_overhead(benchmark):
    """Tracing must be affordable always-on: on the same serving
    workload with a live tracer (in-memory keep + flight recorder),
    the span lifecycle's direct cost stays under 5% of host time.
    The end-to-end wall-clock floors are reported alongside as the
    uncontrolled observation.  Appends an ``observability`` entry to
    ``BENCH_service.json``.
    """
    from repro.observability import tracing
    from repro.observability.exporters import FlightRecorder

    jobs = _traffic()
    repeats = 1 if SMOKE else 9

    def traced_run():
        tracer = _metered_tracer(tracing, FlightRecorder())
        previous = tracing.install(tracer)
        try:
            result = _run_service(jobs)
        finally:
            tracing.install(previous)
        result["spans"] = tracer.ended
        result["tracer_seconds"] = tracer.spent
        return result

    # Warm both paths, then interleave (untraced, traced) pairs so both
    # variants see the same machine-load drift; floors (min-of-N) feed
    # the report, the per-run direct cost share feeds the assert.
    _run_service(jobs)
    traced_run()
    untraced_times, traced_times, shares = [], [], []
    for __ in range(repeats):
        untraced_times.append(_run_service(jobs)["host_time"])
        result = traced_run()
        traced_times.append(result["host_time"])
        shares.append(result["tracer_seconds"] / result["host_time"])
    traced_result = benchmark(traced_run)
    traced_times.append(traced_result["host_time"])
    shares.append(
        traced_result["tracer_seconds"] / traced_result["host_time"])
    untraced = min(untraced_times)
    traced = min(traced_times)
    overhead = traced / untraced - 1.0
    tracer_share = sorted(shares)[len(shares) // 2]

    _merge_json({
        "observability": {
            "untraced_host_time": untraced,
            "traced_host_time": traced,
            "overhead_fraction": overhead,
            "tracer_cost_fraction": tracer_share,
            "spans_per_run": traced_result["spans"],
        },
    })

    report(
        ascii_table(
            ["variant", "host time", "spans"],
            [
                ["untraced", format_seconds(untraced), "0"],
                ["traced", format_seconds(traced),
                 str(traced_result["spans"])],
                ["wall overhead", f"{overhead:+.1%}", "--"],
                ["tracer share", f"{tracer_share:.1%}", "--"],
            ],
            title=(
                f"tracing overhead on {N_JOBS} serving jobs; "
                f"JSON -> {JSON_PATH.name} (key: observability)"
            ),
        )
    )
    assert traced_result["spans"] > 0
    if SMOKE:
        return  # smoke job: fail on crash, not on perf regression
    assert tracer_share < 0.05


# -- wall-clock concurrent tier ---------------------------------------------

#: Device-latency pacing for the wall-clock benchmark: every attempt is
#: held on its worker for (accounted chip seconds) * TIME_SCALE of real
#: time, the way a real array would hold it (cages move at ~50 um/s; the
#: host merely waits on the device).  Throughput scaling across workers
#: then measures what the tier actually ships -- overlapped device
#: latency -- instead of how fast one CPU core can simulate.
TIME_SCALE = 0.002


def _mixed_priority_traffic():
    from repro.workloads import mixed_priority_traffic

    grid = Biochip.small_chip().grid
    return mixed_priority_traffic(grid, N_JOBS, seed=SEED)


def _run_wall_clock(jobs, n_workers):
    """The mixed-priority workload on a paced thread pool, real time."""
    from repro import ConcurrentConfig, ConcurrentExecutionService

    grid = Biochip.small_chip().grid
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(
                n_workers=n_workers,
                time_scale=TIME_SCALE,
            ),
            grid=grid) as service:
        host_start = time.perf_counter()
        service.submit_many(jobs)
        results = service.drain(timeout=600.0)
        wall = time.perf_counter() - host_start
        snap = service.snapshot()
    return {
        "n_workers": n_workers,
        "wall_seconds": wall,
        "jobs_per_sec": len(jobs) / wall,
        "completed": sum(1 for r in results if r.ok),
        "queue_wait_p50": snap["queue_wait"]["p50"],
        "queue_wait_p99": snap["queue_wait"]["p99"],
        "service_time_p50": snap["service_time"]["p50"],
        "service_time_p99": snap["service_time"]["p99"],
        "utilization_min": min(snap["fleet"]["utilization"].values()),
        "cache_hit_rate": snap["cache"]["hit_rate"],
    }


#: Thread workers of the pooled wall-clock run (compared to one).
WALL_CLOCK_WORKERS = 8


def test_service_wall_clock_scaling(benchmark, extended):
    """Real jobs/sec across thread workers (8 vs 1).

    All latencies here are wall seconds.  The acceptance bar: >= 3x
    real throughput at 8 workers over 1 -- device-latency overlap, the
    thing a multi-chip deployment buys (chips are the slow resource;
    the GIL-releasing numpy core and the pacing sleeps both let
    threads stack their waits).
    """
    jobs = _mixed_priority_traffic()
    single = _run_wall_clock(jobs, 1)
    pooled = benchmark(_run_wall_clock, jobs, WALL_CLOCK_WORKERS)
    scaling = pooled["jobs_per_sec"] / single["jobs_per_sec"]

    _merge_json({
        "concurrent": {
            "mode": "thread",
            "time_scale": TIME_SCALE,
            "n_jobs": N_JOBS,
            "single": single,
            "pooled": pooled,
            "scaling": scaling,
        },
    })

    report(
        ascii_table(
            ["pool", "wall time", "jobs/s", "wait p50/p99", "svc p50/p99"],
            [
                [
                    f"{run['n_workers']} worker(s)",
                    format_seconds(run["wall_seconds"]),
                    f"{run['jobs_per_sec']:.2f}",
                    f"{format_seconds(run['queue_wait_p50'])} / "
                    f"{format_seconds(run['queue_wait_p99'])}",
                    f"{format_seconds(run['service_time_p50'])} / "
                    f"{format_seconds(run['service_time_p99'])}",
                ]
                for run in (single, pooled)
            ] + [[
                "scaling", "--", f"{scaling:.1f}x", "--", "--",
            ]],
            title=(
                f"wall-clock serving, {N_JOBS} mixed-priority jobs, "
                f"device pacing {TIME_SCALE}x; "
                f"JSON -> {JSON_PATH.name} (key: concurrent)"
            ),
        )
    )
    # robustness invariant holds even in smoke: every job lands
    assert single["completed"] == len(jobs)
    assert pooled["completed"] == len(jobs)
    if SMOKE:
        return  # smoke job: fail on crash, not on perf regression
    assert pooled["service_time_p99"] >= pooled["service_time_p50"] > 0.0
    # the acceptance bar from the serving roadmap
    assert scaling >= 3.0


# -- spatial multi-tenancy ----------------------------------------------------

#: Co-residency per chip in the tenant run.  Four small-footprint leases
#: tile comfortably on the 48x48 chip with the routing guard band.
MAX_TENANTS = 4
MT_JOBS = 8 if SMOKE else 32


def _small_footprint_traffic():
    from repro.workloads import small_footprint_traffic

    grid = Biochip.small_chip().grid
    return small_footprint_traffic(grid, MT_JOBS, seed=SEED)


def _run_tenancy(jobs, max_tenants):
    """One chip, virtual clock, ``max_tenants`` region leases per chip
    (1 = exclusive occupancy, the pre-tenancy behaviour)."""
    grid = Biochip.small_chip().grid
    service = ExecutionService.dry_run(
        ServiceConfig(
            n_chips=1, max_tenants=max_tenants, max_queue_depth=None
        ),
        grid=grid,
    )
    host_start = time.perf_counter()
    service.submit_many(jobs)
    results = service.drain()
    host_time = time.perf_counter() - host_start
    snap = service.snapshot()
    makespan = max(r.finished_at for r in results)
    tenancy = snap.get("tenancy", {})
    return {
        "max_tenants": max_tenants,
        "makespan": makespan,
        "throughput": len(jobs) / makespan,
        "host_time": host_time,
        "completed": sum(1 for r in results if r.ok),
        "merge_groups": tenancy.get("groups", 0),
        "co_residency_max": tenancy.get("co_residency", {}).get("max", 1.0),
        "frame_merge_ratio_mean": tenancy.get(
            "frame_merge_ratio", {}
        ).get("mean", 1.0),
        "cache_hit_rate": snap["cache"]["hit_rate"],
    }


def test_service_multitenant_co_scheduling(benchmark, extended):
    """Spatial multi-tenancy on a single chip: co-resident leases plus
    frame merging vs exclusive occupancy.

    The acceptance bar: >= 2x jobs/s on small-footprint traffic with
    >= 4 co-resident tenants -- merged steps charge the chip once for
    overlapping dwell, so throughput rises with the frame-merge ratio.
    Appends a ``multitenant`` entry to ``BENCH_service.json``.
    """
    jobs = _small_footprint_traffic()
    exclusive = _run_tenancy(jobs, 1)
    tenant = benchmark(_run_tenancy, jobs, MAX_TENANTS)
    speedup = tenant["throughput"] / exclusive["throughput"]

    _merge_json({
        "multitenant": {
            "n_jobs": MT_JOBS,
            "max_tenants": MAX_TENANTS,
            "seed": SEED,
            "exclusive": exclusive,
            "tenant": tenant,
            "speedup": speedup,
            "frame_merge_ratio": tenant["frame_merge_ratio_mean"],
        },
    })

    report(
        ascii_table(
            ["variant", "makespan", "jobs/s", "merge ratio", "co-res max"],
            [
                [
                    "exclusive (1 tenant/chip)",
                    format_seconds(exclusive["makespan"]),
                    f"{exclusive['throughput']:.3f}",
                    "--", "1",
                ],
                [
                    f"leased ({MAX_TENANTS} tenants/chip)",
                    format_seconds(tenant["makespan"]),
                    f"{tenant['throughput']:.3f}",
                    f"{tenant['frame_merge_ratio_mean']:.2f}",
                    f"{tenant['co_residency_max']:.0f}",
                ],
                [
                    "tenancy advantage",
                    "--", f"{speedup:.1f}x", "--", "--",
                ],
            ],
            title=(
                f"multi-tenant serving, {MT_JOBS} small-footprint jobs "
                f"on one chip; JSON -> {JSON_PATH.name} (key: multitenant)"
            ),
        )
    )
    # correctness invariants hold even in smoke
    assert exclusive["completed"] == len(jobs)
    assert tenant["completed"] == len(jobs)
    assert tenant["merge_groups"] >= 1
    if SMOKE:
        return  # smoke job: fail on crash, not on perf regression
    # the acceptance bar: co-residency at least doubles throughput
    assert tenant["co_residency_max"] >= 4.0
    assert speedup >= 2.0
