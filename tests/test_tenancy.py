"""Spatial multi-tenancy: region leases, footprints, frame merging.

Property tests for the :class:`RegionLeaseAllocator` (disjointness
after guard-band inflation, capacity restoration, determinism), the
protocol footprint extractor, the merged-frame cost model, region
enforcement on both backend flavours, and the headline semantic
guarantee: a co-scheduled job's results are bit-identical to its
exclusive-mode run.
"""

import numpy as np
import pytest

from repro import Biochip, ExecutionService, Protocol, ServiceConfig
from repro.core.backend import DryRunBackend, SimulatorBackend
from repro.core.errors import ExecutionError
from repro.core.session import Session
from repro.faults import FaultInjector, FleetFaultPlan
from repro.service import (
    Footprint,
    LeasedBackend,
    RegionLease,
    RegionLeaseAllocator,
    frame_merge_ratio,
    merged_group_time,
    protocol_footprint,
    routing_separation,
)
from repro.service.core import chip_backend
from repro.workloads import small_footprint_protocol, small_footprint_traffic

GRID = Biochip.small_chip().grid


def windows_intersect(w1, w2):
    r0, c0, r1, c1 = w1
    s0, d0, s1, d1 = w2
    return r0 < s1 and s0 < r1 and c0 < d1 and d0 < c1


def inflate(window, guard, rows, cols):
    r0, c0, r1, c1 = window
    return (
        max(0, r0 - guard), max(0, c0 - guard),
        min(rows, r1 + guard), min(cols, c1 + guard),
    )


# -- allocator properties -----------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_leases_never_overlap_after_guard_inflation(seed):
    rng = np.random.default_rng(seed)
    allocator = RegionLeaseAllocator(64, 64, guard=2)
    live = []
    for __ in range(200):
        if live and rng.random() < 0.4:
            lease = live.pop(int(rng.integers(len(live))))
            allocator.release(lease)
            continue
        lease = allocator.allocate(
            int(rng.integers(2, 14)), int(rng.integers(2, 14))
        )
        if lease is not None:
            live.append(lease)
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                # even the guard-inflated windows must stay disjoint:
                # two tenants can never get closer than the separation
                wa = inflate(a.window, a.guard, 64, 64)
                assert not windows_intersect(wa, b.window), (a, b)


def test_capacity_restored_on_release():
    allocator = RegionLeaseAllocator(48, 48, guard=2)
    baseline = allocator.free_cells
    assert baseline == 48 * 48
    leases = []
    while True:
        lease = allocator.allocate(9, 9)
        if lease is None:
            break
        leases.append(lease)
    assert len(leases) >= 4  # a 48x48 chip holds at least a 2x2 tiling
    assert allocator.free_cells < baseline
    for lease in leases:
        allocator.release(lease)
    assert allocator.free_cells == baseline
    assert allocator.live_leases == []


@pytest.mark.parametrize("seed", range(4))
def test_allocator_is_deterministic(seed):
    def run_sequence():
        rng = np.random.default_rng(seed)
        allocator = RegionLeaseAllocator(48, 48, guard=2)
        live, trace = [], []
        for __ in range(120):
            if live and rng.random() < 0.35:
                allocator.release(live.pop(0))
                trace.append("release")
                continue
            lease = allocator.allocate(
                int(rng.integers(2, 12)), int(rng.integers(2, 12))
            )
            trace.append(None if lease is None else lease.window)
            if lease is not None:
                live.append(lease)
        return trace

    assert run_sequence() == run_sequence()


def test_allocator_rejects_bad_requests():
    allocator = RegionLeaseAllocator(16, 16, guard=1)
    with pytest.raises(ValueError):
        allocator.allocate(0, 4)
    assert allocator.allocate(17, 4) is None  # larger than the chip
    lease = allocator.allocate(4, 4)
    allocator.release(lease)
    with pytest.raises(ValueError):
        allocator.release(lease)  # double release


def test_exhaustion_returns_none_not_error():
    allocator = RegionLeaseAllocator(12, 12, guard=2)
    assert allocator.allocate(8, 8) is not None
    assert allocator.allocate(8, 8) is None


# -- footprints and the merge cost model -------------------------------------


def test_protocol_footprint_bounding_box():
    protocol = small_footprint_protocol(GRID, variant=0, n_cages=2, travel=4)
    footprint = protocol_footprint(protocol)
    assert footprint == Footprint(row0=0, col0=0, rows=3, cols=5)


def test_protocol_footprint_none_for_whole_chip_commands():
    protocol = Protocol("global").trap("a", (3, 3)).sense_all(samples=10)
    assert protocol_footprint(protocol) is None


def test_routing_separation_reads_backend():
    assert routing_separation(DryRunBackend(grid=GRID)) == 2


def test_merged_group_time_overlaps_dwell_serialises_frames():
    # two tenants: 10s total with 1s of frame programming each ->
    # dwell overlaps (max 9s) but the frame bus serialises (1+1)
    assert merged_group_time([10.0, 8.0], [1.0, 1.0]) == pytest.approx(11.0)
    assert merged_group_time([], []) == 0.0
    assert frame_merge_ratio([4, 4, 4]) == pytest.approx(3.0)
    assert frame_merge_ratio([0, 0]) == 1.0


# -- region enforcement -------------------------------------------------------


@pytest.mark.parametrize("make_backend", [
    lambda: DryRunBackend(grid=GRID),
    lambda: SimulatorBackend(Biochip.small_chip()),
])
def test_out_of_region_operations_rejected(make_backend):
    backend = make_backend()
    backend.set_region((10, 10), 8, 8)
    backend.trap((12, 12))  # inside: fine
    with pytest.raises(ExecutionError, match="outside leased region"):
        backend.trap((5, 5))
    cage = backend.trap((16, 16))
    with pytest.raises(ExecutionError, match="outside leased region"):
        backend.move(cage, (30, 30))
    backend.set_region(None)  # clearing the lease restores the chip
    backend.trap((5, 5))


def test_leased_view_translation_is_invisible():
    protocol = small_footprint_protocol(GRID, variant=1)
    reference = Session.dry_run(grid=GRID).run(protocol)
    backend = DryRunBackend(grid=GRID)
    backend.set_region((20, 17), 9, 11)
    leased = LeasedBackend(backend, offset=(23, 20))
    run = Session(leased).run(protocol)
    assert [(e.kind, e.detail) for e in run.events] == [
        (e.kind, e.detail) for e in reference.events
    ]
    assert run.wall_time == reference.wall_time
    assert leased.frames > 0 and leased.program_time > 0.0


def test_simulated_view_passes_history_and_cage_count_through():
    chip = Biochip.small_chip()
    lease = RegionLease(chip_id=0, origin=(20, 17), rows=9, cols=11, guard=2)
    view, injector = chip_backend(
        SimulatorBackend(chip), FleetFaultPlan(seed=5), 0, (0,), lease,
        offset=(20, 17),
    )
    assert isinstance(view, LeasedBackend)
    assert isinstance(injector, FaultInjector)
    view.trap((1, 1))
    view.trap((4, 6))
    for backend in (view, injector, injector.backend):
        assert backend.cage_count == 2
        assert backend.history == chip.history
    assert [kind for __, kind, __ in view.history] == ["trap", "trap"]


# -- co-scheduling equivalence ------------------------------------------------


def canonical(run):
    return [
        (e.kind, {k: v for k, v in e.detail.items() if k != "cage"})
        for e in run.events
    ]


def test_coscheduled_results_bit_identical_to_exclusive():
    """The satellite guarantee: multi-tenancy changes throughput, never
    results.  Every co-scheduled job's events, wall time and
    measurements equal its exclusive-mode reference exactly."""
    protocols = small_footprint_traffic(GRID, 12, seed=7)
    service = ExecutionService.dry_run(
        ServiceConfig(n_chips=1, max_tenants=4, max_queue_depth=64),
        grid=GRID,
    )
    handles = [service.submit(p) for p in protocols]
    results = service.drain()
    assert {r.state.name for r in results} == {"DONE"}
    snap = service.telemetry.snapshot()
    assert snap["tenancy"]["groups"] >= 1
    assert snap["tenancy"]["co_residency"]["max"] == 4.0
    assert snap["counters"]["merged"] > 0
    for protocol, handle in zip(protocols, handles):
        run = handle.wait().run
        reference = Session.dry_run(grid=GRID).run(protocol)
        assert canonical(run) == canonical(reference)
        assert run.wall_time == pytest.approx(reference.wall_time)
        assert set(run.measurements) == set(reference.measurements)
        for key, expected in reference.measurements.items():
            got = run.measurements[key]
            assert [m.reading for m in got] == [m.reading for m in expected]
            assert [m.detected for m in got] == [m.detected for m in expected]


def test_tenancy_speeds_up_small_footprint_traffic():
    def makespan(max_tenants):
        service = ExecutionService.dry_run(
            ServiceConfig(
                n_chips=1, max_tenants=max_tenants, max_queue_depth=64
            ),
            grid=GRID,
        )
        service.submit_many(small_footprint_traffic(GRID, 16, seed=3))
        results = service.drain()
        assert all(r.ok for r in results)
        return max(r.finished_at for r in results)

    exclusive = makespan(1)
    tenant = makespan(4)
    assert exclusive / tenant >= 2.0


def test_tenancy_disabled_without_backend_support():
    """A backend that never implemented set_region silently serves in
    exclusive mode -- tenancy is an optimisation, not a requirement."""

    class LegacyBackend(DryRunBackend):
        set_region = __import__(
            "repro.core.backend", fromlist=["Backend"]
        ).Backend.set_region

    service = ExecutionService(
        LegacyBackend(grid=GRID),
        ServiceConfig(n_chips=1, max_tenants=4, max_queue_depth=64),
    )
    service.submit_many(small_footprint_traffic(GRID, 6, seed=1))
    results = service.drain()
    assert all(r.ok for r in results)
    assert service.telemetry.counters["leased"].value == 0


def test_tenancy_telemetry_exports_prometheus_gauges():
    service = ExecutionService.dry_run(
        ServiceConfig(n_chips=1, max_tenants=4, max_queue_depth=64),
        grid=GRID,
    )
    service.submit_many(small_footprint_traffic(GRID, 8, seed=2))
    service.drain()
    text = service.telemetry.to_prometheus()
    assert "repro_tenancy_groups_total" in text
    assert "repro_tenancy_co_residency" in text
    assert "repro_tenancy_frame_merge_ratio" in text
    report = service.report()
    assert "multi-tenancy" in report
