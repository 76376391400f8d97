"""Rectangular leases: summed-area allocation and closed-form fields.

:meth:`RegionLeaseAllocator.allocate` reads every candidate window's
reserved-pixel count from one summed-area table, and the wavefront
router writes the static distance field of a clean rectangular lease
in closed form.  Both must equal what they replaced, bit for bit: the
raster scan over origins (kept here as :class:`ScanAllocator`) and the
king-move BFS :func:`distance_field`.  The work guards count calls
and pixels read, not wall time, at paper scale (320x320).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Biochip
from repro.array.grid import ElectrodeGrid
from repro.faults import FaultModel
from repro.physics.constants import um
from repro.routing import multi
from repro.routing.astar import distance_field
from repro.routing.multi import RoutingRequest, WavefrontRouter
from repro.service import RegionLeaseAllocator
from repro.service.tenancy import RegionLease


class ScanAllocator(RegionLeaseAllocator):
    """The raster-scan allocator the summed-area table replaced."""

    def allocate(self, rows, cols):
        if rows < 1 or cols < 1:
            raise ValueError(f"window must be >= 1x1, got {rows}x{cols}")
        if rows > self.rows or cols > self.cols:
            return None
        for r0 in range(self.rows - rows + 1):
            for c0 in range(self.cols - cols + 1):
                a, b, c, d = self._inflated(r0, c0, rows, cols)
                if not self._used[a:c, b:d].any():
                    self._used[a:c, b:d] = True
                    lease = RegionLease(
                        chip_id=self.chip_id, origin=(r0, c0),
                        rows=rows, cols=cols, guard=self.guard,
                    )
                    self._live[lease] = (a, b, c, d)
                    return lease
        return None


# -- allocator oracle ---------------------------------------------------------


@st.composite
def lease_traffic(draw):
    """A chip shape, a guard, and an allocate/release sequence whose
    windows reach up to and beyond the chip size."""
    rows = draw(st.integers(1, 14))
    cols = draw(st.integers(1, 14))
    guard = draw(st.integers(0, 3))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("allocate"),
                      st.integers(1, rows + 2), st.integers(1, cols + 2)),
            st.tuples(st.just("release"), st.integers(0, 63), st.just(0)),
        ),
        max_size=40,
    ))
    return rows, cols, guard, ops


@given(traffic=lease_traffic())
@example(traffic=(1, 9, 0, [("allocate", 1, 2)] * 5 + [("release", 1, 0)]
                  + [("allocate", 1, 3), ("allocate", 1, 1)]))
@example(traffic=(9, 1, 2, [("allocate", 2, 1)] * 3 + [("release", 0, 0)]
                  + [("allocate", 1, 1), ("allocate", 9, 1)]))
@example(traffic=(6, 6, 3, [("allocate", 6, 6), ("allocate", 1, 1),
                            ("release", 0, 0), ("allocate", 7, 6)]))
@example(traffic=(1, 17, 1, [("allocate", 1, 2)] * 7
                  + [("release", 0, 0), ("release", 1, 0)]
                  + [("allocate", 1, 1)] * 4))        # fill, punch, refill
@example(traffic=(17, 1, 3, [("allocate", 2, 1)] * 4
                  + [("release", 1, 0)] + [("allocate", 1, 1)] * 3))
@example(traffic=(1, 1, 2, [("allocate", 1, 1), ("allocate", 1, 1),
                            ("release", 0, 0), ("allocate", 1, 1)]))
@settings(max_examples=300, deadline=None)
def test_summed_area_allocator_matches_the_raster_scan(traffic):
    rows, cols, guard, ops = traffic
    fast = RegionLeaseAllocator(rows, cols, guard=guard, chip_id=3)
    scan = ScanAllocator(rows, cols, guard=guard, chip_id=3)
    for kind, a, b in ops:
        if kind == "allocate":
            assert fast.allocate(a, b) == scan.allocate(a, b)
        elif scan.live_leases:
            lease = scan.live_leases[a % len(scan.live_leases)]
            fast.release(lease)
            scan.release(lease)
        assert fast.live_leases == scan.live_leases
        assert fast.free_cells == scan.free_cells
        assert np.array_equal(fast._used, scan._used)


def test_paper_scale_lease_groups_match_the_raster_scan():
    """A service lease group (a few leases on a fresh 320x320
    allocator), then enough leases to wrap past the first row, with
    releases in between."""
    fast = RegionLeaseAllocator(320, 320, guard=2)
    scan = ScanAllocator(320, 320, guard=2)
    sizes = [(7, 11), (9, 13), (7, 9), (11, 11)] + [(10, 14)] * 24
    for i, (rows, cols) in enumerate(sizes):
        assert fast.allocate(rows, cols) == scan.allocate(rows, cols)
        if i % 5 == 4:
            lease = scan.live_leases[i % len(scan.live_leases)]
            fast.release(lease)
            scan.release(lease)
    assert max(lease.origin[0] for lease in scan.live_leases) > 0
    assert fast.live_leases == scan.live_leases
    assert np.array_equal(fast._used, scan._used)


# -- closed-form field oracle -------------------------------------------------


def router_for(blocked):
    rows, cols = blocked.shape
    grid = ElectrodeGrid(rows=rows, cols=cols, pitch=um(20.0))
    return WavefrontRouter(grid, blocked=blocked)


def static_field(blocked, goal):
    """The router's static distance field for ``goal`` under ``blocked``
    (an empty plan installs the per-plan mask state)."""
    router = router_for(blocked)
    router.plan([])
    return router._static_distance(goal)


@pytest.fixture
def bfs_calls(monkeypatch):
    """Counts the router's :func:`distance_field` calls."""
    calls = []

    def counted(free, source, max_levels=None):
        calls.append(tuple(source))
        return distance_field(free, source, max_levels)

    monkeypatch.setattr(multi, "distance_field", counted)
    return calls


@st.composite
def leased_goals(draw):
    """A rectangular free box on a chip and a goal inside it."""
    rows = draw(st.integers(1, 16))
    cols = draw(st.integers(1, 16))
    r0 = draw(st.integers(0, rows - 1))
    r1 = draw(st.integers(r0 + 1, rows))
    c0 = draw(st.integers(0, cols - 1))
    c1 = draw(st.integers(c0 + 1, cols))
    # box edges and corners come up as often as interior goals
    goal_r = draw(st.sampled_from([r0, r1 - 1]) | st.integers(r0, r1 - 1))
    goal_c = draw(st.sampled_from([c0, c1 - 1]) | st.integers(c0, c1 - 1))
    return (rows, cols), (r0, r1, c0, c1), (goal_r, goal_c)


def box_blocked(shape, box):
    blocked = np.ones(shape, dtype=bool)
    r0, r1, c0, c1 = box
    blocked[r0:r1, c0:c1] = False
    return blocked


@given(case=leased_goals())
@example(case=((12, 12), (0, 12, 0, 12), (0, 0)))     # full chip, corner
@example(case=((12, 12), (0, 12, 0, 12), (11, 5)))    # full chip, edge
@example(case=((10, 14), (3, 4, 2, 13), (3, 12)))     # 1-row box
@example(case=((14, 10), (1, 14, 6, 7), (1, 6)))      # 1-column box
@example(case=((9, 9), (4, 5, 4, 5), (4, 4)))         # 1x1 box
@example(case=((16, 16), (5, 11, 2, 9), (10, 2)))     # box corner
@settings(max_examples=300, deadline=None)
def test_rectangle_field_equals_the_bfs(case):
    shape, box, goal = case
    blocked = box_blocked(shape, box)
    field = static_field(blocked, goal)
    reference = distance_field(~blocked, goal)
    assert field.dtype == reference.dtype
    assert np.array_equal(field, reference)


def test_rectangle_field_builds_no_bfs(bfs_calls):
    blocked = box_blocked((24, 24), (4, 18, 6, 20))
    router = router_for(blocked)
    plan = router.plan([
        RoutingRequest(0, (5, 7), (16, 18)),
        RoutingRequest(1, (16, 7), (5, 12)),
    ])
    assert plan.stats["fast_path_hits"] == 2
    assert bfs_calls == []


@pytest.mark.parametrize("case", [
    "dead pixel in the lease", "non-rectangular mask", "goal outside the box",
    "goal below the box",
])
def test_bfs_still_runs_off_the_rectangle(case, bfs_calls):
    blocked = box_blocked((20, 20), (2, 16, 3, 18))
    goal = (10, 10)
    if case == "dead pixel in the lease":
        blocked[8, 12] = True
    elif case == "non-rectangular mask":
        blocked[2:6, 3:7] = True       # an L-shaped free region
    elif case == "goal outside the box":
        goal = (10, 18)                # a blocked start parked on its goal,
                                       # just past the box's last column
    else:
        goal = (16, 10)                # ... just past the box's last row
    field = static_field(blocked, goal)
    assert bfs_calls == [goal]
    assert np.array_equal(field, distance_field(~blocked, goal))


@pytest.mark.parametrize("dead", [None, (9, 12)])
def test_leased_plans_and_reports_unchanged(dead, monkeypatch):
    """The rectangle rule is invisible: disabling it changes no plan,
    no ``move_many`` report and no chip time."""

    def run():
        chip = Biochip.small_chip(seed=2)
        if dead is not None:
            mask = np.zeros((48, 48), dtype=bool)
            mask[dead] = True
            chip.apply_faults(FaultModel(shape=(48, 48), dead_electrodes=mask))
        chip.set_region((6, 8), 14, 16)
        ids = [chip.trap(site).cage_id for site in [(7, 9), (7, 14), (18, 9)]]
        reports = [
            chip.move_many({ids[0]: (18, 22), ids[1]: (12, 9)}),
            chip.move_many({ids[2]: (7, 23), ids[0]: (10, 16)}),
        ]
        for report in reports:
            report.pop("plan_seconds", None)
        return reports, chip.elapsed, chip.cages.sites()

    fast = run()
    monkeypatch.setattr(multi, "_free_rectangle", lambda blocked: None)
    assert run() == fast


# -- work guards at paper scale -----------------------------------------------


def test_failing_allocate_on_a_full_320_chip_is_one_table_read(monkeypatch):
    allocator = RegionLeaseAllocator(320, 320, guard=2)
    calls = []
    inflated = RegionLeaseAllocator._inflated

    def counted(self, *args):
        calls.append(args)
        return inflated(self, *args)

    monkeypatch.setattr(RegionLeaseAllocator, "_inflated", counted)
    leases = 0
    while allocator.allocate(6, 6) is not None:
        leases += 1
        assert len(calls) == leases      # one window check per lease
    assert leases == 32 * 32      # 6x6 interiors on a 10-pixel pitch
    del calls[:]
    assert allocator.allocate(6, 6) is None
    assert allocator.allocate(1, 1) is None
    assert calls == []


class ReadCounted(np.ndarray):
    """A used-mask that records the size of every slice read from it."""

    def __getitem__(self, key):
        out = super().__getitem__(key)
        self.reads.append(np.size(out))
        return out


def test_a_lease_group_on_a_320_chip_reads_a_strip():
    """A fresh allocator holding a few leases -- what one service lease
    group asks of it -- reads a strip of the first rows per attempt,
    not the whole used-mask."""
    allocator = RegionLeaseAllocator(320, 320, guard=2)
    allocator._used = allocator._used.view(ReadCounted)
    allocator._used.reads = []
    for rows, cols in [(7, 11), (9, 13), (7, 9), (11, 11)]:
        assert allocator.allocate(rows, cols).origin[0] == 0
    reads = allocator._used.reads
    assert reads and max(reads) <= 15 * 60     # a strip, not 320 x 320


def test_leased_move_many_on_a_clean_320_chip_builds_no_bfs(bfs_calls):
    chip = Biochip.paper_chip()
    chip.set_region((150, 200), 12, 12)
    first = chip.trap((151, 201)).cage_id
    second = chip.trap((160, 201)).cage_id
    report = chip.move_many({first: (160, 210), second: (151, 210)})
    assert report["frames"] >= 9
    assert chip.routing_totals["fast_path_hits"] + chip.routing_totals[
        "greedy_walk_hits"] >= 1
    assert bfs_calls == []
