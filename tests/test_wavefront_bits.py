"""Bit-parallel wavefront: packed integer planes against numpy planes.

:meth:`WavefrontRouter._wavefront` runs its BFS on packed Python ints
(one int per level) and :meth:`_VectorReservationTable.reserve_path`
writes a path's windows in one scatter.  Both must equal what they
replaced, bit for bit: the numpy bool-plane wavefront with its level
stack and the per-offset window scatters, kept here as
:class:`NumpyPlaneRouter`.  Every ``_wavefront`` call is checked
against the oracle, and whole plans (sites, cage ids, every stats
counter but wall time) against an oracle-only plan.  The work guards
count ``dilate8_into`` calls, not wall time.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.array import state
from repro.array.grid import ElectrodeGrid
from repro.physics.constants import um
from repro.routing import astar, multi
from repro.routing.astar import MOVES_8, WAIT, RoutingError
from repro.routing.multi import (
    RoutingRequest,
    WavefrontRouter,
    _free_rectangle,
    _VectorReservationTable,
)
from repro.workloads import random_permutation_workload


class PerOffsetTable(_VectorReservationTable):
    """The reservation table with one scatter per window offset."""

    def reserve_path(self, cage_id, path):
        arr = np.asarray(path, dtype=np.int64).reshape(-1, 2)
        from_t = len(arr) - 1
        radius = self.radius
        if from_t > 0:
            t_index = np.arange(from_t)
            rows = arr[:from_t, 0] + radius
            cols = arr[:from_t, 1] + radius
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    self.blocked[t_index, rows + dr, cols + dc] = True
        goal_r = int(arr[-1, 0]) + radius
        goal_c = int(arr[-1, 1]) + radius
        window = self.parked_from[
            goal_r - radius : goal_r + radius + 1,
            goal_c - radius : goal_c + radius + 1,
        ]
        np.minimum(window, from_t, out=window)
        self._latest_parked = max(self._latest_parked, from_t)


class NumpyPlaneRouter(WavefrontRouter):
    """The wavefront on numpy bool planes: one ``(horizon + 1, h, w)``
    level stack per call and masked ``dilate8_into`` dilations."""

    def __post_init__(self):
        super().__post_init__()
        self._wave_buf = None
        self._scratch_buf = None

    def _make_table(self, horizon):
        if self.min_separation < 2:
            return super()._make_table(horizon)
        self._field_cache = {}
        self._free_box = _free_rectangle(self._blocked_arr)
        return PerOffsetTable(
            self.min_separation, (self.grid.rows, self.grid.cols), horizon
        )

    def _stack_for(self, levels, height, width):
        need = levels * height * width
        if self._wave_buf is None or self._wave_buf.size < need:
            self._wave_buf = np.empty(max(need, 1), dtype=bool)
        return self._wave_buf[:need].reshape(levels, height, width)

    def _scratch_for(self, height, width):
        need = height * width
        if self._scratch_buf is None or self._scratch_buf.size < need:
            self._scratch_buf = np.empty(max(need, 1), dtype=bool)
        return self._scratch_buf[:need].reshape(height, width)

    def _wavefront(self, start, goal, min_arrival, table, horizon, bounds):
        return self._numpy_wavefront(
            start, goal, min_arrival, table, horizon, bounds
        )

    def _numpy_wavefront(self, start, goal, min_arrival, table, horizon,
                         bounds):
        row0, row1, col0, col1 = bounds
        height, width = row1 - row0 + 1, col1 - col0 + 1
        radius = table.radius
        window = (slice(row0, row1 + 1), slice(col0, col1 + 1))
        padded = (
            slice(row0 + radius, row1 + 1 + radius),
            slice(col0 + radius, col1 + 1 + radius),
        )
        free = np.ones((height, width), dtype=bool)
        if self._blocked_arr is not None:
            np.logical_not(self._blocked_arr[window], out=free)
        start_local = (start[0] - row0, start[1] - col0)
        goal_local = (goal[0] - row0, goal[1] - col0)
        # the border: window cells with a free 8-neighbour outside the
        # window, on a chip padded by one blocked pixel
        rows, cols = self.grid.rows, self.grid.cols
        outside = np.zeros((rows + 2, cols + 2), dtype=bool)
        outside[1:-1, 1:-1] = (True if self._blocked_arr is None
                               else ~self._blocked_arr)
        outside[row0 + 1 : row1 + 2, col0 + 1 : col1 + 2] = False
        border = np.zeros((height, width), dtype=bool)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                border |= outside[row0 + 1 + dr : row1 + 2 + dr,
                                  col0 + 1 + dc : col1 + 2 + dc]
        free[start_local] = True
        parked = table.parked_from[padded]
        stack = self._stack_for(horizon + 1, height, width)
        scratch = self._scratch_for(height, width)
        current = stack[0]
        current[:] = False
        current[start_local] = True
        settle = table.latest_parked_time()
        counters = self._counters
        arrived = -1
        touched_border = False
        for t in range(1, horizon + 1):
            frontier = stack[t]
            state.dilate8_into(current, frontier, scratch)
            frontier &= free
            np.greater(parked, t, out=scratch)
            frontier &= scratch
            np.logical_not(table.blocked[t][padded], out=scratch)
            frontier &= scratch
            counters["frontier_steps"] += 1
            if t >= min_arrival and frontier[goal_local]:
                arrived = t
                break
            touched_border = touched_border or bool((frontier & border).any())
            if not frontier.any():
                return ("grow" if touched_border else "dead"), None
            if t > settle and np.array_equal(frontier, current):
                return ("grow" if touched_border else "dead"), None
            current = frontier
        if arrived < 0:
            return "grow", None
        path = np.empty((arrived + 1, 2), dtype=np.int32)
        path[arrived] = (goal[0], goal[1])
        row, col = goal_local
        for t in range(arrived, 0, -1):
            previous = stack[t - 1]
            best = None
            best_distance = None
            for dr, dc in (WAIT,) + MOVES_8:
                prow, pcol = row + dr, col + dc
                if not (0 <= prow < height and 0 <= pcol < width):
                    continue
                if not previous[prow, pcol]:
                    continue
                d = max(
                    abs(prow + row0 - start[0]), abs(pcol + col0 - start[1])
                )
                if best is None or d < best_distance:
                    best, best_distance = (prow, pcol), d
            row, col = best
            path[t - 1] = (row + row0, col + col0)
        return "found", path


class CheckedRouter(WavefrontRouter):
    """The production router, with every ``_wavefront`` call replayed
    on the numpy oracle against the same table: equal status, path and
    frontier-step count, or the test fails."""

    _stack_for = NumpyPlaneRouter._stack_for
    _scratch_for = NumpyPlaneRouter._scratch_for
    _numpy_wavefront = NumpyPlaneRouter._numpy_wavefront

    def __post_init__(self):
        super().__post_init__()
        self._wave_buf = None
        self._scratch_buf = None
        self.calls = []   # (status, min_arrival, bounds) per call

    def _wavefront(self, start, goal, min_arrival, table, horizon, bounds):
        counters = self._counters
        before = counters["frontier_steps"]
        status, path = super()._wavefront(
            start, goal, min_arrival, table, horizon, bounds
        )
        after = counters["frontier_steps"]
        want_status, want_path = self._numpy_wavefront(
            start, goal, min_arrival, table, horizon, bounds
        )
        assert counters["frontier_steps"] - after == after - before
        counters["frontier_steps"] = after    # count this call once
        assert status == want_status
        if want_path is None:
            assert path is None
        else:
            assert path.dtype == want_path.dtype
            assert np.array_equal(path, want_path)
        self.calls.append((status, min_arrival, bounds))
        return status, path


def plan_outcome(router, requests):
    """Sites, cage ids and stats (wall time dropped), or the error."""
    try:
        plan = router.plan(requests)
    except RoutingError as exc:
        return ("error", str(exc), dict(router._counters))
    stats = {k: v for k, v in plan.stats.items() if k != "plan_seconds"}
    return ("plan", plan.sites.tolist(), plan.cage_ids.tolist(), stats)


def assert_identical(grid, requests, blocked=None, **options):
    checked = CheckedRouter(grid, blocked=blocked, **options)
    got = plan_outcome(checked, requests)
    want = plan_outcome(
        NumpyPlaneRouter(grid, blocked=blocked, **options), requests
    )
    assert got == want
    return checked, got


# -- generated batches --------------------------------------------------------


def spaced(sites, separation):
    """The sites, in order, that keep ``separation`` from every earlier
    kept one."""
    kept = []
    for site in sites:
        if all(max(abs(site[0] - k[0]), abs(site[1] - k[1])) >= separation
               for k in kept):
            kept.append(site)
    return kept


@st.composite
def batches(draw):
    """A grid, a separation, a static mask and a batch of requests.

    Sides whose padded width is and is not a multiple of 8 come up
    often; sites on the first and last row and column come up as often
    as interior ones; masks are none, dead pixels, a clean lease
    rectangle or a lease with dead pixels in it; a start may sit on a
    dead pixel; a small window margin makes congested batches widen
    the window."""
    side = draw(st.sampled_from([22, 23, 62, 64]) | st.integers(8, 40))
    separation = draw(st.sampled_from([2, 2, 3]))
    mask_kind = draw(st.sampled_from(["none", "dead", "lease", "dirty lease"]))
    r0, r1, c0, c1 = 0, side, 0, side
    if mask_kind in ("lease", "dirty lease"):
        r0 = draw(st.integers(0, side // 2))
        r1 = draw(st.integers(r0 + 4, side))
        c0 = draw(st.integers(0, side // 2))
        c1 = draw(st.integers(c0 + 4, side))

    def sites(count):
        row = st.sampled_from([r0, r1 - 1]) | st.integers(r0, r1 - 1)
        col = st.sampled_from([c0, c1 - 1]) | st.integers(c0, c1 - 1)
        return spaced(draw(st.lists(st.tuples(row, col), min_size=1,
                                    max_size=count)), separation)

    count = draw(st.integers(1, 28))
    starts, goals = sites(count), sites(count)
    n = min(len(starts), len(goals))
    requests = [
        RoutingRequest(i, s, g)
        for i, (s, g) in enumerate(zip(starts[:n], goals[:n]))
    ]
    blocked = None
    if mask_kind != "none":
        blocked = np.zeros((side, side), dtype=bool)
        if mask_kind != "dead":
            blocked[:] = True
            blocked[r0:r1, c0:c1] = False
        if mask_kind != "lease":
            seed = draw(st.integers(0, 2**16))
            dead = np.random.default_rng(seed).random((side, side)) < 0.05
            blocked |= dead
        for request in requests:
            blocked[request.goal] = False
        if draw(st.booleans()):
            blocked[requests[0].start] = True    # died under a live cage
    margin = draw(st.sampled_from([1, 2, 8]))
    grid = ElectrodeGrid(side, side, um(20))
    return grid, separation, blocked, requests, margin


#: Cage 0 boxed in by dead rows 6 and 10 and a dead column 10, the box
#: open only to the left, and cage 1 crossing its greedy detour: cage
#: 0's first wavefront window (rows 7-9, columns 7-13) meets a free
#: pixel outside only through its left side, so it must report "grow",
#: and the wider window routes round the box.  The transposed case
#: grows through its top side.
WALLED_IN = np.zeros((16, 16), dtype=bool)
WALLED_IN[[6, 10], 6:15] = True
WALLED_IN[6:11, 10] = True


@given(case=batches())
@example(case=(ElectrodeGrid(22, 22, um(20)), 2, None,
               [RoutingRequest(0, (0, 0), (21, 21)),
                RoutingRequest(1, (21, 21), (0, 0)),
                RoutingRequest(2, (0, 21), (21, 0)),
                RoutingRequest(3, (21, 0), (0, 21))], 1))
@example(case=(ElectrodeGrid(16, 16, um(20)), 2, WALLED_IN,
               [RoutingRequest(0, (8, 8), (8, 12)),
                RoutingRequest(1, (8, 2), (3, 15))], 1))
@example(case=(ElectrodeGrid(16, 16, um(20)), 2, WALLED_IN.T.copy(),
               [RoutingRequest(0, (8, 8), (12, 8)),
                RoutingRequest(1, (2, 8), (15, 3))], 1))
@settings(max_examples=150, deadline=None)
def test_bit_planes_match_the_numpy_planes(case):
    grid, separation, blocked, requests, margin = case
    assert_identical(grid, requests, blocked=blocked,
                     min_separation=separation, window_margin=margin)


def test_a_cage_waits_on_its_dead_start():
    """A cage on an electrode that died under it may stay there: the
    start is a free site of every level, so an arrival held back to
    t = 4 waits on it."""
    grid = ElectrodeGrid(8, 8, um(20))
    blocked = np.zeros((8, 8), dtype=bool)
    blocked[3, 3] = True
    router = CheckedRouter(grid, blocked=blocked)
    router.plan([])      # installs the per-plan mask state
    table = router._make_table(12)
    status, path = router._wavefront((3, 3), (3, 4), 4, table, 12,
                                     (0, 7, 0, 7))
    assert status == "found"
    assert path.tolist() == [[3, 3]] * 4 + [[3, 4]]


def congested_batch(side, n, seed):
    """``n`` cages between random sites of a 2-pitch lattice."""
    rng = np.random.default_rng(seed)
    lattice = [(r, c) for r in range(0, side, 2) for c in range(0, side, 2)]
    starts = rng.choice(len(lattice), n, replace=False)
    goals = rng.choice(len(lattice), n, replace=False)
    return [RoutingRequest(i, lattice[s], lattice[g])
            for i, (s, g) in enumerate(zip(starts, goals))]


def test_congested_batches_cover_every_verdict():
    """Dense batches with a one-site window margin widen the window,
    reach every wavefront verdict, hold arrivals back behind a goal's
    transient blocks and replan; each call and plan equals the oracle's."""
    statuses, held, replans = set(), 0, 0
    for side, n, seed in [(22, 40, 0), (22, 40, 2), (23, 40, 0),
                          (62, 120, 0), (64, 120, 2)]:
        grid = ElectrodeGrid(side, side, um(20))
        checked, outcome = assert_identical(
            grid, congested_batch(side, n, seed), window_margin=1
        )
        statuses.update(status for status, __, __ in checked.calls)
        held += sum(1 for __, arrival, __ in checked.calls if arrival > 0)
        replans += outcome[3]["replans"]
    assert statuses == {"found", "grow", "dead"}
    assert held > 0
    assert replans > 0


# -- work guards --------------------------------------------------------------


@pytest.fixture
def dilations(monkeypatch):
    """Counts ``dilate8_into`` calls, wherever the package binds it."""
    calls = []
    dilate = state.dilate8_into

    def counted(src, out, tmp):
        calls.append(src.shape)
        return dilate(src, out, tmp)

    monkeypatch.setattr(state, "dilate8_into", counted)
    monkeypatch.setattr(astar, "dilate8_into", counted)
    monkeypatch.setattr(multi, "dilate8_into", counted, raising=False)
    return calls


@pytest.mark.parametrize("side, n", [(64, 24), (320, 300)])
def test_plans_dilate_no_bool_planes(side, n, dilations):
    """A ``route``-like 64x64 batch and a 320x320 permutation: the
    planner makes no ``dilate8_into`` call and keeps no bool level
    stack, and takes as many frontier steps as the oracle, which
    dilates once per step."""
    grid = ElectrodeGrid(side, side, um(20))
    requests = random_permutation_workload(grid, n, seed=3)
    router = WavefrontRouter(grid)
    steps = router.plan(requests).stats["frontier_steps"]
    assert steps > 0
    assert dilations == []
    assert not [
        name for name, value in vars(router).items()
        if isinstance(value, np.ndarray) and value.dtype == bool
    ]
    oracle = NumpyPlaneRouter(grid).plan(requests)
    assert oracle.stats["frontier_steps"] == steps
    assert len(dilations) == steps


# -- window-local layout ------------------------------------------------------


def wavefront_statuses(grid, cases, blocked=None, reserved=(), horizon=40,
                       **options):
    """Runs each ``(start, goal, min_arrival, bounds)`` case through a
    :class:`CheckedRouter`'s ``_wavefront`` (so against the oracle) on
    one table holding the ``reserved`` paths; returns the statuses."""
    router = CheckedRouter(grid, blocked=blocked, **options)
    router.plan([])      # installs the per-plan mask state
    table = router._make_table(horizon)
    for cage_id, path in enumerate(reserved):
        table.reserve_path(cage_id, path)
    return [
        router._wavefront(start, goal, arrival, table, horizon, bounds)[0]
        for start, goal, arrival, bounds in cases
    ]


def sweep(start, step, frames):
    """A reserved path from ``start`` moving by ``step`` each frame."""
    return [(start[0] + step[0] * t, start[1] + step[1] * t)
            for t in range(frames + 1)]


@pytest.mark.parametrize("separation", [2, 3])
def test_windows_flush_with_each_chip_edge(separation):
    """A window on a chip edge takes its guard column (or reads past
    its edge row) from the table's padding, which cages reserved along
    that edge have written."""
    grid = ElectrodeGrid(20, 20, um(20))
    reserved = [sweep((0, 0), (1, 0), 19), sweep((19, 19), (-1, 0), 19),
                sweep((0, 19), (0, -1), 19), sweep((19, 0), (0, 1), 19)]
    cases = [
        ((8, 1), (6, 7), 0, (4, 12, 0, 9)),        # left edge
        ((8, 18), (6, 12), 0, (4, 12, 10, 19)),    # right edge
        ((1, 8), (7, 6), 0, (0, 9, 4, 12)),        # top edge
        ((18, 8), (12, 6), 0, (10, 19, 4, 12)),    # bottom edge
        ((2, 2), (17, 17), 3, (0, 19, 0, 19)),     # the whole chip
        ((10, 0), (10, 19), 0, (0, 19, 0, 19)),
    ]
    statuses = wavefront_statuses(grid, cases, reserved=reserved,
                                  min_separation=separation)
    assert "found" in statuses


def test_one_row_and_one_column_windows():
    """A window one row high (levels never shift to a neighbour row)
    and one column wide (every row holds one window bit between its
    two guard columns), crossed by a reserved cage, so the cage waits
    for it or is cut off."""
    grid = ElectrodeGrid(20, 20, um(20))
    across = [sweep((0, 9), (1, 0), 19), sweep((9, 0), (0, 1), 19)]
    row_cases = [
        ((8, 3), (8, 15), 0, (8, 8, 2, 17)),
        ((8, 15), (8, 3), 0, (8, 8, 2, 17)),
        ((0, 0), (0, 19), 0, (0, 0, 0, 19)),       # on the top edge
    ]
    column_cases = [
        ((3, 8), (15, 8), 0, (2, 17, 8, 8)),
        ((15, 8), (3, 8), 0, (2, 17, 8, 8)),
        ((0, 19), (19, 19), 0, (0, 19, 19, 19)),   # on the right edge
    ]
    statuses = wavefront_statuses(grid, row_cases + column_cases,
                                  reserved=across)
    assert "found" in statuses[:3] and "found" in statuses[3:]
    # a cage parked across the row cuts it: no route in one row
    parked = [[(8, 9)]]
    assert wavefront_statuses(grid, row_cases[:1], reserved=parked) == [
        "grow"
    ]


@pytest.mark.parametrize("width", [6, 7, 14, 15, 22, 23])
def test_window_widths_around_a_whole_byte(width):
    """``width + 2`` a multiple of 8 fills the row's last byte, so the
    right guard column is the last bit of the row and a column shift
    out of it lands in the next row's left guard column; one column
    wider starts a new byte."""
    stride = 8 * ((width + 2 + 7) // 8)
    assert (stride == width + 2) == (width % 8 == 6)
    grid = ElectrodeGrid(30, 30, um(20))
    reserved = [sweep((0, 3), (1, 1), 25), sweep((12, 0), (0, 1), 29)]
    c0 = 3
    c1 = c0 + width - 1
    cases = [
        ((4, c0), (20, c1), 0, (2, 22, c0, c1)),
        ((20, c1), (4, c0), 4, (2, 22, c0, c1)),
        ((12, c1), (13, c0), 0, (10, 15, c0, c1)),
    ]
    statuses = wavefront_statuses(grid, cases, reserved=reserved)
    assert "found" in statuses


def test_lease_window_with_dead_pixels_in_its_ring():
    """A wavefront window inside a lease whose one-pixel ring is dead
    but for one pixel: the reached set touches the border only next to
    that pixel ("grow"), and with the whole ring dead it is provably
    stuck ("dead").  A window flush with the lease has no border on
    that side."""
    grid = ElectrodeGrid(24, 24, um(20))
    blocked = np.ones((24, 24), dtype=bool)
    blocked[4:20, 4:20] = False                  # the lease
    blocked[7, 7:16] = blocked[15, 7:16] = True  # the window's ring
    blocked[7:16, 7] = blocked[7:16, 15] = True
    never = 41                                   # past the horizon
    box = (8, 14, 8, 14)
    sealed = wavefront_statuses(
        grid, [((10, 10), (12, 12), never, box)], blocked=blocked
    )
    blocked[7, 11] = False                       # one gap in the ring
    gap = wavefront_statuses(
        grid,
        [((10, 10), (12, 12), never, box),
         ((10, 10), (12, 12), 0, box),
         ((5, 5), (9, 9), 0, (4, 10, 4, 10)),    # flush with the lease
         ((5, 5), (18, 18), never, (4, 19, 4, 19))],
        blocked=blocked,
        reserved=[sweep((11, 4), (0, 1), 15)],
    )
    assert sealed == ["dead"]
    assert gap[0] == "grow"
    assert gap[1] == "found"
    assert gap[3] == "dead"                      # the lease's own edges


def test_backtrack_breaks_a_three_way_distance_tie():
    """Start (5, 5), goal (5, 8), arrival held back to t = 5 on an open
    chip.  From the goal, the reached predecessors (4, 7), (5, 7) and
    (6, 7) are all two steps from the start; MOVES_8 order takes
    (4, 7) (move (-1, -1)).  From (4, 7), (4, 6) and (5, 6) tie at one
    step, and MOVES_8 takes (0, -1) before (1, -1): (4, 6).  Then
    (5, 5), where the cage waited."""
    grid = ElectrodeGrid(12, 12, um(20))
    router = CheckedRouter(grid)
    router.plan([])
    table = router._make_table(20)
    status, path = router._wavefront((5, 5), (5, 8), 5, table, 20,
                                     (0, 11, 0, 11))
    assert status == "found"
    assert path.tolist() == [[5, 5], [5, 5], [5, 5], [4, 6], [4, 7], [5, 8]]


def test_a_plan_allocates_one_pad_buffer(monkeypatch):
    """Every chunk of planes a plan packs goes through one buffer its
    reservation table allocates once, on the first chunk, whatever
    window size asks for it; the router keeps none of it."""
    views = []
    pad_view = _VectorReservationTable.pad_view

    def spy(table, planes, height, stride):
        fresh = table._pad is None
        view = pad_view(table, planes, height, stride)
        views.append((table, fresh, view, (height, stride)))
        return view

    monkeypatch.setattr(_VectorReservationTable, "pad_view", spy)
    grid = ElectrodeGrid(22, 22, um(20))
    router = CheckedRouter(grid, window_margin=1)
    plan = router.plan(congested_batch(22, 40, 1))
    assert plan.stats["replans"] == 0     # one attempt, so one table
    assert len({id(table) for table, *__ in views}) == 1
    table = views[0][0]
    assert [fresh for __, fresh, __, __ in views].count(True) == 1
    assert views[0][1]
    assert all(view.base is table._pad for __, __, view, __ in views)
    assert len({shape for *__, shape in views}) > 1
    assert len(views) > 10
