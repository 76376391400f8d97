"""Lease groups sized from memos: the same leases a fresh allocator gives.

:class:`LeaseWindows` looks a job's window up by its fingerprint and the
lease it gets by the chip shape, guard, chip id and the sizes already
placed in the group, both in process-wide bounded memos.  A warm memo
must give, fit by fit, the ``(lease, offset)`` sequence a fresh
first-fit :class:`RegionLeaseAllocator` gives -- non-fitting requests,
repeated sizes and groups longer than the chip holds included -- and
an empty fingerprint must never be shared between protocols.  The work
guards count calls: a repeated group reads no footprint and runs no
allocator, on either tier.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    Biochip,
    ConcurrentConfig,
    ConcurrentExecutionService,
    ExecutionService,
    Protocol,
    ServiceConfig,
)
from repro.service import RegionLeaseAllocator, core
from repro.service.core import LEASE_MARGIN, LeaseWindows
from repro.service.tenancy import protocol_footprint
from repro.workloads import small_footprint_traffic

GRID = Biochip.small_chip().grid
MEMOS = (core._FOOTPRINT_MEMO, core._LAYOUT_MEMO)


@pytest.fixture(autouse=True)
def clear_memos():
    for memo in MEMOS:
        memo.clear()
    yield
    for memo in MEMOS:
        memo.clear()


def template(rows, cols, guard):
    """The two things :class:`LeaseWindows` reads off a chip template."""
    return SimpleNamespace(
        grid=SimpleNamespace(rows=rows, cols=cols), min_separation=guard
    )


def box_protocol(origin, rows, cols):
    """A protocol whose footprint is ``rows x cols`` at ``origin``."""
    r0, c0 = origin
    return (Protocol(f"box{origin}{rows}x{cols}")
            .trap("a", (r0, c0)).move("a", (r0 + rows - 1, c0 + cols - 1)))


def reference_fits(rows, cols, guard, chip_id, protocols):
    """Each protocol's ``(lease, offset)`` from a fresh first-fit
    allocator, or None."""
    allocator = RegionLeaseAllocator(rows, cols, guard=guard, chip_id=chip_id)
    fits = []
    for protocol in protocols:
        footprint = protocol_footprint(protocol)
        lease = allocator.allocate(footprint.rows + 2 * LEASE_MARGIN,
                                   footprint.cols + 2 * LEASE_MARGIN)
        fits.append(lease and (lease, (
            lease.origin[0] + LEASE_MARGIN - footprint.row0,
            lease.origin[1] + LEASE_MARGIN - footprint.col0,
        )))
    return fits


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``RegionLeaseAllocator.allocate`` and
    ``protocol_footprint`` calls, however they are reached."""
    counts = {"allocate": 0, "footprint": 0}
    allocate = RegionLeaseAllocator.allocate

    def counted_allocate(self, rows, cols):
        counts["allocate"] += 1
        return allocate(self, rows, cols)

    def counted_footprint(protocol):
        counts["footprint"] += 1
        return protocol_footprint(protocol)

    monkeypatch.setattr(RegionLeaseAllocator, "allocate", counted_allocate)
    monkeypatch.setattr(core, "protocol_footprint", counted_footprint)
    return counts


# Windows are footprints plus 2 * LEASE_MARGIN (6) a side, so on a chip of
# 8 to 40 a side a group of up to ten holds sizes that never fit, and
# more leases than the chip can take.
groups = st.tuples(
    st.integers(8, 40), st.integers(8, 40), st.integers(0, 3),
    st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),   # origin
                  st.integers(1, 12), st.integers(1, 12)),  # footprint
        min_size=1, max_size=4,
    ),
    st.lists(st.integers(0, 3), min_size=1, max_size=10),
)


@given(group=groups)
@example(group=(20, 20, 2, [0, 1], [(0, 0, 1, 1)], [0] * 10))  # overfull
@example(group=(12, 30, 1, [3, 0], [(1, 2, 1, 1), (0, 0, 9, 9)],
                [1, 0, 1, 0, 0]))  # a no-fit between fits
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_warm_memo_matches_a_fresh_allocator(group, calls):
    rows, cols, guard, chip_ids, boxes, picks = group
    for memo in MEMOS:
        memo.clear()
    kinds = [box_protocol((r0, c0), h, w) for r0, c0, h, w in boxes]
    protocols = [kinds[pick % len(kinds)] for pick in picks]
    for warm in (False, True):
        # both chip ids fill the memo before either reads it warm
        for chip_id in chip_ids:
            expected = reference_fits(rows, cols, guard, chip_id, protocols)
            calls["allocate"] = 0
            windows = LeaseWindows(template(rows, cols, guard), chip_id)
            got = [windows.fit(p, p.fingerprint()) for p in protocols]
            assert got == expected
            if warm:
                assert calls["allocate"] == 0
        # the allocator a warm group catches up holds the same leases
        assert windows.allocator.live_leases == [
            fit[0] for fit in expected if fit
        ]


def test_empty_fingerprint_is_never_shared(calls):
    small, large = box_protocol((0, 0), 2, 2), box_protocol((1, 1), 5, 7)
    for protocols in ([small, large], [large, small]):
        windows = LeaseWindows(template(48, 48, 2), 0)
        got = [windows.fit(p, "") for p in protocols]
        assert got == reference_fits(48, 48, 2, 0, protocols)
    assert calls["footprint"] == 4
    assert "" not in core._FOOTPRINT_MEMO


def test_unleasable_protocol_is_memoised_as_no_fit(calls):
    whole_chip = Protocol("scan").trap("a", (2, 2)).sense_all().release("a")
    fingerprint = whole_chip.fingerprint()
    for __ in range(2):
        assert LeaseWindows(template(48, 48, 2), 0).fit(
            whole_chip, fingerprint) is None
    assert calls["footprint"] == 1
    assert calls["allocate"] == 0


def test_virtual_tier_repeats_a_group_without_allocating(calls):
    protocols = small_footprint_traffic(GRID, 4, seed=5)
    service = ExecutionService.dry_run(
        ServiceConfig(n_chips=1, max_tenants=4), grid=GRID
    )
    service.submit_many(protocols)
    assert all(r.ok for r in service.drain())
    assert calls["allocate"] > 0 and calls["footprint"] > 0
    calls.update(allocate=0, footprint=0)
    groups = service.snapshot()["tenancy"]["groups"]
    service.submit_many(protocols)
    assert all(r.ok for r in service.drain())
    assert service.snapshot()["tenancy"]["groups"] == 2 * groups
    assert calls == {"allocate": 0, "footprint": 0}


def test_wall_tier_repeats_a_group_without_allocating(calls):
    protocols = small_footprint_traffic(GRID, 2, seed=5)
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=1, max_tenants=4), grid=GRID,
    ) as service:
        for round_ in range(2):
            # one job at a time: each is a group of one, leased alone
            for protocol in protocols:
                assert service.submit(protocol).wait().ok
            if round_ == 0:
                assert calls["allocate"] > 0 and calls["footprint"] > 0
                calls.update(allocate=0, footprint=0)
    assert calls == {"allocate": 0, "footprint": 0}


def test_memos_stay_within_their_capacity():
    footprints, layouts = MEMOS
    boxes = [box_protocol((0, 0), 1 + i % 8, 1 + i // 8)
             for i in range(footprints.size + 8)]
    fingerprints = [p.fingerprint() for p in boxes]
    assert len(set(fingerprints)) == len(boxes)
    for chip_id in range(layouts.size // 4 + 8):
        windows = LeaseWindows(template(48, 48, 2), chip_id)
        for i in range(4):
            k = (chip_id * 4 + i) % len(boxes)
            assert windows.fit(boxes[k], fingerprints[k]) is not None
    assert len(footprints) == footprints.size
    assert len(layouts) == layouts.size
