"""Planner probes through flat views, against numpy scalar reads.

:meth:`WavefrontRouter._direct_path` and :meth:`_greedy_walk` read the
reservation planes through the table's flat ``memoryview`` objects, and a
greedy step probes its candidates in ``(remaining, move index)`` order
only until the first free one.  Both must equal what they replaced,
bit for bit: the tiers that score every candidate and read numpy
scalars, kept here as :class:`ScalarProbeRouter` (with the numpy
:func:`downhill_path` they walked).  Every tier call is replayed on
the oracle, and whole plans (sites, cage ids, every stats counter but
wall time) are checked against an oracle-only plan.  The work guard
counts numpy scalar reads of the planes, not wall time.

:func:`first_pairwise_violation` sweeps small batches in row order;
it must name the same pair as the O(n^2) loop it replaced, kept here
as :func:`pair_loop`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.array.grid import ElectrodeGrid
from repro.array.state import first_pairwise_violation
from repro.physics.constants import um
from repro.routing.astar import MOVES_8, RoutingError, chebyshev_heuristic
from repro.routing.multi import (
    _GREEDY_RANKINGS,
    RoutingRequest,
    WavefrontRouter,
    _greedy_key,
    _greedy_ranking,
)
from repro.workloads import random_permutation_workload

# -- the oracle ---------------------------------------------------------------


def numpy_downhill_path(field, start):
    """:func:`repro.routing.astar.downhill_path` on numpy scalar reads."""
    rows, cols = field.shape
    row, col = start
    if field[row, col] < 0:
        raise RoutingError(f"site {tuple(start)} unreachable in distance field")
    path = [(row, col)]
    remaining = int(field[row, col])
    while remaining > 0:
        best = None
        for dr, dc in MOVES_8:
            r, c = row + dr, col + dc
            if not (0 <= r < rows and 0 <= c < cols):
                continue
            d = field[r, c]
            if d >= 0 and d < remaining and (best is None or d < best[0]):
                best = (int(d), r, c)
        remaining, row, col = best
        path.append((row, col))
    return path


class ScalarProbeRouter(WavefrontRouter):
    """The direct probe as one numpy gather, and a greedy walk that
    scores all nine candidates per step with numpy scalar reads."""

    def _direct_path(self, start, goal, min_arrival, table, horizon):
        return self._scalar_direct_path(start, goal, min_arrival, table,
                                        horizon)

    def _greedy_walk(self, start, goal, min_arrival, table, horizon):
        return self._scalar_greedy_walk(start, goal, min_arrival, table,
                                        horizon)

    def _scalar_direct_path(self, start, goal, min_arrival, table, horizon):
        distance = chebyshev_heuristic(start, goal)
        if distance == 0:
            return np.asarray([start], dtype=np.int32) if min_arrival == 0 else None
        if self._blocked_arr is None:
            steps = np.arange(distance + 1)
            dr, dc = goal[0] - start[0], goal[1] - start[1]
            row_seq = start[0] + np.sign(dr) * np.minimum(steps, abs(dr))
            col_seq = start[1] + np.sign(dc) * np.minimum(steps, abs(dc))
        else:
            fld = self._static_distance(goal)
            if fld[start] != distance:
                return None
            walk = np.asarray(numpy_downhill_path(fld, start), dtype=np.int64)
            row_seq, col_seq = walk[:, 0], walk[:, 1]
        arrival = max(distance, min_arrival)
        if arrival > horizon:
            return None
        waits = arrival - distance
        if waits:
            row_seq = np.concatenate(
                [np.full(waits, start[0], dtype=np.int64), row_seq]
            )
            col_seq = np.concatenate(
                [np.full(waits, start[1], dtype=np.int64), col_seq]
            )
        radius = table.radius
        t_seq = np.arange(1, arrival + 1)
        rows = row_seq[1:] + radius
        cols = col_seq[1:] + radius
        if (table.parked_from[rows, cols] <= t_seq).any():
            return None
        if table.blocked[t_seq, rows, cols].any():
            return None
        return np.column_stack([row_seq, col_seq]).astype(np.int32)

    def _scalar_greedy_walk(self, start, goal, min_arrival, table, horizon):
        field = None
        if self._blocked_arr is None:
            static_dist = chebyshev_heuristic(start, goal)
        else:
            field = self._static_distance(goal)
            static_dist = int(field[start])
            if static_dist < 0:
                return None
        bound = max(static_dist, min_arrival)
        if bound > horizon:
            return None
        radius = table.radius
        parked = table.parked_from
        blocked = table.blocked
        blocked_flat = self._blocked_flat
        cols = self.grid.cols
        rows = self.grid.rows
        site = start
        path = [start]
        for t in range(1, bound + 1):
            slack = bound - t
            best = None
            for dr, dc in ((0, 0),) + MOVES_8:
                nr, nc = site[0] + dr, site[1] + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                if field is not None:
                    remaining = int(field[nr, nc])
                    if remaining < 0:
                        continue
                else:
                    remaining = max(abs(nr - goal[0]), abs(nc - goal[1]))
                if remaining > slack:
                    continue
                if (blocked_flat is not None
                        and blocked_flat[nr * cols + nc]
                        and (nr, nc) != start):
                    continue
                if parked[nr + radius, nc + radius] <= t:
                    continue
                if blocked[t, nr + radius, nc + radius]:
                    continue
                if best is None or remaining < best[0]:
                    best = (remaining, nr, nc)
            if best is None:
                return None
            site = (best[1], best[2])
            path.append(site)
        return np.asarray(path, dtype=np.int32)


def numpy_min_arrival(table, goal):
    """The goal-transient scan of ``_route_one`` on a numpy column: one
    step past the goal's last transient block up to the settle time."""
    radius = table.radius
    upto = min(table.latest_parked_time(), table.blocked.shape[0] - 1)
    transients = np.nonzero(
        table.blocked[: upto + 1, goal[0] + radius, goal[1] + radius]
    )[0]
    return int(transients[-1]) + 1 if transients.size else 0


def same_path(got, want):
    if want is None:
        return got is None
    return (got is not None and got.dtype == want.dtype
            and got.shape == want.shape and np.array_equal(got, want))


class CheckedRouter(WavefrontRouter):
    """The production router, with every direct-probe and greedy-walk
    call replayed on the scalar oracle against the same table: the same
    path, or None for both, or the test fails.  The direct probe also
    checks the arrival ``_route_one`` read off the strided view."""

    _scalar_direct_path = ScalarProbeRouter._scalar_direct_path
    _scalar_greedy_walk = ScalarProbeRouter._scalar_greedy_walk

    def __post_init__(self):
        super().__post_init__()
        self.calls = []   # (tier, min_arrival, hit) per call

    def _direct_path(self, start, goal, min_arrival, table, horizon):
        assert min_arrival == numpy_min_arrival(table, goal)
        path = super()._direct_path(start, goal, min_arrival, table, horizon)
        want = self._scalar_direct_path(start, goal, min_arrival, table,
                                        horizon)
        assert same_path(path, want), (start, goal, min_arrival)
        self.calls.append(("direct", min_arrival, path is not None))
        return path

    def _greedy_walk(self, start, goal, min_arrival, table, horizon):
        path = super()._greedy_walk(start, goal, min_arrival, table, horizon)
        want = self._scalar_greedy_walk(start, goal, min_arrival, table,
                                        horizon)
        assert same_path(path, want), (start, goal, min_arrival)
        self.calls.append(("greedy", min_arrival, path is not None))
        return path


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
        ScalarProbeRouter(grid, blocked=blocked, **options), requests
    )
    assert got == want
    return checked, got


# -- the ranking table --------------------------------------------------------


def test_offset_classes_rank_the_moves_alike():
    """Every goal offset ranks the greedy moves as its class's entry
    does, so a step may look the ranking up instead of scoring."""
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert _GREEDY_RANKINGS[_greedy_key(a, b)] == _greedy_ranking(a, b)


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

    Sites on the first and last row and column come up as often as
    interior ones; masks are none, dead pixels, a clean lease rectangle
    or a lease with dead pixels in it; a start may sit on a dead pixel;
    a small window margin makes congested batches widen the window."""
    side = draw(st.sampled_from([8, 23, 64]) | st.integers(8, 64))
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

    count = draw(st.integers(1, 30))
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


@given(case=batches())
@example(case=(ElectrodeGrid(8, 8, um(20)), 2, None,
               [RoutingRequest(0, (0, 0), (7, 7)),
                RoutingRequest(1, (7, 7), (0, 0)),
                RoutingRequest(2, (0, 7), (7, 0)),
                RoutingRequest(3, (7, 0), (0, 7))], 1))
@settings(max_examples=150, deadline=None)
def test_flat_view_probes_match_the_scalar_probes(case):
    grid, separation, blocked, requests, margin = case
    assert_identical(grid, requests, blocked=blocked,
                     min_separation=separation, window_margin=margin)


def congested_batch(side, n, seed):
    """``n`` cages between random sites of a 2-pitch lattice."""
    rng = np.random.default_rng(seed)
    lattice = [(r, c) for r in range(0, side, 2) for c in range(0, side, 2)]
    starts = rng.choice(len(lattice), n, replace=False)
    goals = rng.choice(len(lattice), n, replace=False)
    return [RoutingRequest(i, lattice[s], lattice[g])
            for i, (s, g) in enumerate(zip(starts, goals))]


def test_congested_batches_cover_both_tiers():
    """Dense batches hit and miss in both tiers, hold arrivals back
    behind a goal's transient blocks (also on greedy hits) and replan;
    each call and plan equals the oracle's."""
    outcomes, held_greedy_hits, replans = set(), 0, 0
    for side, n, seed, blocked in [
        (22, 40, 0, None), (23, 40, 2, None), (64, 120, 0, None),
        (40, 60, 1, np.random.default_rng(1).random((40, 40)) < 0.04),
    ]:
        grid = ElectrodeGrid(side, side, um(20))
        requests = congested_batch(side, n, seed)
        if blocked is not None:
            for request in requests:
                blocked[request.goal] = False
        checked, outcome = assert_identical(grid, requests, blocked=blocked,
                                            window_margin=1)
        outcomes.update((tier, hit) for tier, __, hit in checked.calls)
        held_greedy_hits += sum(
            1 for tier, arrival, hit in checked.calls
            if tier == "greedy" and hit and arrival > 0
        )
        replans += outcome[3]["replans"]
    assert outcomes == {("direct", True), ("direct", False),
                        ("greedy", True), ("greedy", False)}
    assert held_greedy_hits > 0
    assert replans > 0


@pytest.mark.parametrize("goal", [(3, 3), (3, 5)])
def test_a_held_back_cage_waits_on_its_dead_start(goal):
    """A cage on an electrode that died under it may stay there: held
    back to t = 4, the greedy walk waits on the dead start, as the
    oracle does; the direct probe of a dead start declines."""
    grid = ElectrodeGrid(8, 8, um(20))
    blocked = np.zeros((8, 8), dtype=bool)
    blocked[3, 3] = True
    router = WavefrontRouter(grid, blocked=blocked)
    oracle = ScalarProbeRouter(grid, blocked=blocked)
    for each in (router, oracle):
        each.plan([])      # installs the per-plan mask state
    table = router._make_table(12)
    args = ((3, 3), goal, 4, table, 12)
    assert router._direct_path(*args) is None
    assert oracle._direct_path(*args) is None
    path = router._greedy_walk(*args)
    assert same_path(path, oracle._greedy_walk(*args))
    if goal == (3, 3):
        assert path.tolist() == [[3, 3]] * 5
    else:
        assert path is None      # the dead start has no static distance


# -- work guard ---------------------------------------------------------------


class CountingPlane(np.ndarray):
    """An ndarray view that counts all-integer (scalar) reads while
    :attr:`active`."""

    active = False
    reads = 0

    def __getitem__(self, key):
        if CountingPlane.active:
            keys = key if isinstance(key, tuple) else (key,)
            if all(isinstance(k, (int, np.integer)) for k in keys):
                CountingPlane.reads += 1
        return super().__getitem__(key)


def guarded(base):
    """``base`` with its tables' planes wrapped in :class:`CountingPlane`
    and the reads counted only inside the two scalar tiers."""

    class Guarded(base):
        def _make_table(self, horizon):
            table = super()._make_table(horizon)
            table.blocked = table.blocked.view(CountingPlane)
            table.parked_from = table.parked_from.view(CountingPlane)
            return table

        def _direct_path(self, *args):
            return self._counted(super()._direct_path, args)

        def _greedy_walk(self, *args):
            return self._counted(super()._greedy_walk, args)

        @staticmethod
        def _counted(tier, args):
            CountingPlane.active = True
            try:
                return tier(*args)
            finally:
                CountingPlane.active = False

    return Guarded


def test_the_tiers_make_no_numpy_scalar_reads(monkeypatch):
    """A ``route``-like 64x64 24-cage permutation: the direct probe and
    the greedy walk read no plane through numpy indexing, where the
    oracle makes thousands of scalar reads for the same plan."""
    monkeypatch.setattr(CountingPlane, "reads", 0)
    grid = ElectrodeGrid(64, 64, um(20))
    requests = random_permutation_workload(grid, 24, seed=3)
    router = guarded(WavefrontRouter)(grid)
    plan = router.plan(requests)
    assert plan.stats["fast_path_hits"] > 0
    assert plan.stats["greedy_walk_hits"] > 0
    assert CountingPlane.reads == 0
    oracle = guarded(ScalarProbeRouter)(grid).plan(requests)
    assert CountingPlane.reads > 1000
    assert np.array_equal(oracle.sites, plan.sites)


# -- first_pairwise_violation ---------------------------------------------------


def pair_loop(sites, separation):
    """The O(n^2) loop: the first pair (i < j) closer than separation."""
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) < separation:
                return tuple(a), tuple(b)
    return None


@st.composite
def site_batches(draw):
    """Up to 60 sites (so both the sweep and the integral path below
    and above 48), edge rows and columns and duplicates coming up
    often, on a grid from 1x1 to 64x64."""
    rows = draw(st.integers(1, 64))
    cols = draw(st.integers(1, 64))
    row = st.sampled_from([0, rows - 1]) | st.integers(0, rows - 1)
    col = st.sampled_from([0, cols - 1]) | st.integers(0, cols - 1)
    sites = draw(st.lists(st.tuples(row, col), max_size=60))
    if sites and draw(st.booleans()):
        sites = draw(st.permutations(spaced(sites, 2)))
    if sites and draw(st.booleans()):
        index = draw(st.integers(0, len(sites) - 1))
        sites.insert(draw(st.integers(0, len(sites))), sites[index])
    return sites, draw(st.integers(1, 4)), rows, cols


@given(case=site_batches())
@example(case=([], 2, 8, 8))
@example(case=([(0, 0), (7, 7)], 2, 8, 8))
@example(case=([(5, 5), (0, 0), (5, 5)], 1, 8, 8))
@example(case=([(r, c) for r in range(0, 64, 8) for c in range(0, 64, 8)],
               4, 64, 64))
@settings(max_examples=300, deadline=None)
def test_first_pairwise_violation_names_the_loops_pair(case):
    sites, separation, rows, cols = case
    got = first_pairwise_violation(sites, separation, rows, cols)
    assert got == pair_loop(sites, separation)
