"""Stationary cages are parked obstacles, never routing requests.

A cage the caller leaves out of ``move_many``'s goals must not move (the
paper's cages drag their trapped particles along, so moving a cage moves
what it holds).  The chip passes every such cage to the planner
as ``parked``: its separation window is blocked from t=0 in every
planning attempt, so no priority order or replan can route it, and the
plan has rows only for the movers.

The construction this replaced -- every stationary cage a zero-length
request, ordered ahead of the movers by a priority key -- is kept here
as the oracle (:func:`stationary_as_requests`).  Wherever it plans
without a replan, its plan, report and clock equal the parked
construction's bit for bit; on a replan it promoted the trapped movers
ahead of the stationary cages and could route those around them.

``Biochip.move`` is a batch of one on the same path: its tests pin the
path length to the static shortest distance and its charge to
``move_many``'s.
"""

import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Biochip, ExecutionError
from repro.array.cages import CageManager
from repro.faults import FaultModel
from repro.routing import (
    BatchRouter,
    RoutingError,
    WavefrontRouter,
    distance_field,
)
from repro.routing.astar import chebyshev_heuristic
from repro.routing.multi import RoutingRequest, _VectorReservationTable


def make_chip(side, dead=None, region=None):
    chip = Biochip.small_chip(rows=side, cols=side)
    if dead is not None:
        chip.apply_faults(FaultModel(shape=(side, side), dead_electrodes=dead))
    if region is not None:
        chip.set_region(*region)
    return chip


def trap_all(chip, sites):
    return [chip.trap(site).cage_id for site in sites]


def without_plan_seconds(detail):
    return {k: v for k, v in detail.items() if k != "plan_seconds"}


def history(chip):
    return [
        (t, kind, without_plan_seconds(detail) if kind == "move_many"
         else detail)
        for t, kind, detail in chip.history
    ]


def stationary_as_requests(chip, goals):
    """``chip.move_many(goals)`` as the chip built it before stationary
    cages were parked: every cage outside ``goals`` a zero-length
    request, ordered ahead of the movers.  Returns ``(report, plan)``."""
    moving = set(goals)
    requests = [RoutingRequest(cage_id, chip.cages.cage(cage_id).site, goal)
                for cage_id, goal in goals.items()]
    requests += [RoutingRequest(cage.cage_id, cage.site, cage.site)
                 for cage in chip.cages.cages if cage.cage_id not in moving]

    def priority(request):
        distance = chebyshev_heuristic(request.start, request.goal)
        return (request.cage_id in moving, -distance)

    router = WavefrontRouter(chip.grid, min_separation=chip.min_separation,
                             blocked=chip._blocked_mask())
    try:
        plan = router.plan(requests, priority=priority)
    except RoutingError as exc:
        raise ExecutionError(str(exc)) from exc
    replay = chip._run_batch(plan)
    report = {
        "cages": len(goals),
        "frames": plan.makespan,
        "moves": replay.moves,
        "program_time": replay.program_time,
        "dwell_time": replay.dwell_time,
        "plan_seconds": plan.stats["plan_seconds"],
    }
    chip._log("move_many", dict(report),
              replay.program_time + replay.dwell_time)
    return report, plan


@contextlib.contextmanager
def recorded_plans():
    """Record every plan the chip's ``_plan_batch`` returns."""
    plans = []
    original = Biochip._plan_batch

    def recording(chip, *args):
        plan, hit = original(chip, *args)
        plans.append(plan)
        return plan, hit

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Biochip, "_plan_batch", recording)
        yield plans


@contextlib.contextmanager
def sealed_once(cage_index):
    """Make the planner fail one mover's first route, forcing a replan
    with that mover promoted (``cage_index`` picks it among the
    requests of the first planned batch)."""
    original = WavefrontRouter._route_one
    seen = []

    def route_one(router, request, table, horizon):
        seen.append(request.cage_id)
        if len(seen) - 1 == cage_index:
            raise RoutingError(f"cage {request.cage_id}: sealed in")
        return original(router, request, table, horizon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WavefrontRouter, "_route_one", route_one)
        yield


@st.composite
def parked_batches(draw):
    """A batch on a 16-24 grid, cages on a 2-pitch lattice: movers and
    stationary cages, the movers in any goal-dict order, plus an optional
    dead mask and lease window."""
    side = draw(st.integers(16, 24))
    lattice = [(r, c) for r in range(1, side - 1, 2)
               for c in range(1, side - 1, 2)]
    sites = draw(st.permutations(lattice))
    n_moving = draw(st.integers(1, 12))
    n_stationary = draw(st.integers(0, 20))
    starts = sites[:n_moving]
    stationary = sites[n_moving:n_moving + n_stationary]
    free = [s for s in draw(st.permutations(lattice)) if s not in stationary]
    goals = free[:n_moving]
    order = draw(st.permutations(range(n_moving)))
    used = set(starts) | set(stationary) | set(goals)
    dead = None
    if draw(st.booleans()):
        cells = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
        dead = np.zeros((side, side), dtype=bool)
        for cell in draw(st.lists(cells, max_size=12)):
            if cell not in used:
                dead[cell] = True
    region = None
    if draw(st.booleans()):
        rows = [s[0] for s in used]
        cols = [s[1] for s in used]
        margin = draw(st.integers(0, 3))
        r0, c0 = max(0, min(rows) - margin), max(0, min(cols) - margin)
        r1 = min(side, max(rows) + margin + 1)
        c1 = min(side, max(cols) + margin + 1)
        region = ((r0, c0), r1 - r0, c1 - c0)
    return side, starts, goals, stationary, dead, region, order


#: A crowded 16x16 batch whose stationary cages the requests
#: construction drags on its replan: it promotes a trapped mover ahead
#: of them, which then parks across their windows.
DRAGGED = (
    16,
    [(9, 1), (11, 1), (3, 11), (7, 13), (13, 9), (1, 11), (13, 13),
     (11, 3), (13, 3), (13, 5), (13, 1), (7, 9), (9, 11), (9, 9)],
    [(11, 9), (11, 1), (5, 5), (7, 7), (7, 13), (9, 5), (5, 7), (13, 5),
     (7, 9), (3, 11), (1, 7), (13, 1), (11, 3), (7, 5)],
    [(3, 13), (11, 5), (5, 11), (1, 5), (5, 9), (11, 7), (1, 3), (7, 11),
     (9, 3), (3, 7), (11, 11), (3, 3), (13, 11), (1, 13), (3, 1), (9, 7),
     (7, 1), (3, 9), (11, 13), (1, 9)],
    None,
    None,
    range(14),
)


class TestStationaryCages:
    @given(batch=parked_batches(), force=st.none() | st.integers(0, 11))
    @example(batch=DRAGGED, force=None)
    @settings(max_examples=80, deadline=None)
    def test_a_stationary_cage_never_moves(self, batch, force):
        """No stationary cage has a plan row, and every one ends where
        it began -- also when a replan promotes a sealed-in mover."""
        side, starts, goals, stationary, dead, region, order = batch
        chip = make_chip(side, dead, region)
        ids = trap_all(chip, starts + stationary)
        parked = {cage_id: site for cage_id, site
                  in zip(ids[len(starts):], stationary)}
        moves = {ids[i]: goals[i] for i in order}
        sealing = (sealed_once(force) if force is not None
                   and force < len(starts) else contextlib.nullcontext())
        with recorded_plans() as plans, sealing:
            try:
                chip.move_many(moves)
            except ExecutionError:
                plans = []
        for plan in plans:
            assert parked.keys().isdisjoint(plan.cage_ids.tolist())
            if force is not None and force < len(starts):
                assert plan.stats["replans"] >= 1
        if plans:
            for cage_id, goal in moves.items():
                assert chip.cages.cage(cage_id).site == goal
        for cage_id, site in parked.items():
            assert chip.cages.cage(cage_id).site == site

    def test_the_requests_construction_drags_the_example(self):
        """The pinned example: the oracle moves stationary cages away and
        back on its replan; the chip refuses the batch instead."""
        side, starts, goals, stationary, __, __, order = DRAGGED
        oracle = make_chip(side)
        ids = trap_all(oracle, starts + stationary)
        __, plan = stationary_as_requests(
            oracle, {ids[i]: goals[i] for i in order})
        assert plan.stats["replans"] >= 1
        rows = np.isin(plan.cage_ids, ids[len(starts):])
        dragged = (plan.sites[rows] != plan.sites[rows][:, :1]).any(axis=(1, 2))
        assert dragged.any()
        chip = make_chip(side)
        ids = trap_all(chip, starts + stationary)
        with pytest.raises(ExecutionError):
            chip.move_many({ids[i]: goals[i] for i in order})

    @pytest.mark.parametrize("router_cls", [BatchRouter, WavefrontRouter])
    def test_a_goal_inside_a_parked_window_is_rejected(self, router_cls):
        router = router_cls(make_chip(16).grid)
        with pytest.raises(RoutingError, match=re.escape(
                "goals (5, 6) and (5, 7) violate separation")):
            router.plan([RoutingRequest(0, (1, 1), (5, 6))],
                        parked=[(9, 9), (5, 7)])

    def test_a_goal_beside_a_stationary_cage_is_rejected_as_before(self):
        messages = []
        for build in (stationary_as_requests, Biochip.move_many):
            chip = make_chip(16)
            mover, __, __ = trap_all(chip, [(1, 1), (9, 9), (5, 7)])
            with pytest.raises(ExecutionError) as caught:
                build(chip, {mover: (5, 6)})
            messages.append(str(caught.value))
            assert chip.cages.cage(mover).site == (1, 1)
        assert messages[0] == messages[1]
        assert chip.routing_totals["plans"] == 0

    @given(batch=parked_batches())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_requests_construction_without_a_replan(self, batch):
        side, starts, goals, stationary, dead, region, order = batch
        chip = make_chip(side, dead, region)
        oracle = make_chip(side, dead, region)
        ids = trap_all(chip, starts + stationary)
        assert trap_all(oracle, starts + stationary) == ids
        moves = {ids[i]: goals[i] for i in order}
        try:
            expected, reference = stationary_as_requests(oracle, moves)
        except ExecutionError as exc:
            if "violate separation" in str(exc):
                # the same batch is invalid however it is planned
                with pytest.raises(ExecutionError, match="violate separation"):
                    chip.move_many(moves)
            return
        if reference.stats["replans"]:
            return
        with recorded_plans() as plans:
            report = chip.move_many(moves)
        (plan,) = plans
        movers = np.isin(reference.cage_ids, list(moves))
        assert np.array_equal(plan.cage_ids, reference.cage_ids[movers])
        assert np.array_equal(plan.sites, reference.sites[movers])
        assert plan.makespan == reference.makespan
        n_parked = len(stationary)
        stats = {**without_plan_seconds(reference.stats),
                 "cages": len(starts),
                 "fast_path_hits":
                     reference.stats["fast_path_hits"] - n_parked}
        assert without_plan_seconds(plan.stats) == stats
        assert without_plan_seconds(report) == without_plan_seconds(expected)
        assert chip.elapsed == oracle.elapsed
        assert history(chip) == history(oracle)
        assert chip.cages.sites() == oracle.cages.sites()


@contextlib.contextmanager
def counted(owner, name):
    """Count the calls to ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, counting)
        yield calls


class TestWork:
    def test_one_mover_among_ten_thousand_parked_cages(self):
        """The planner's work follows the movers: one route, one
        reservation and one planned cage, however many cages sit still."""
        chip = Biochip.paper_chip()
        lattice = [(r, c) for r in range(0, chip.grid.rows, 3)
                   for c in range(0, chip.grid.cols, 3)]
        ids = trap_all(chip, lattice[:10_001])
        mover, start = ids[5_000], lattice[5_000]
        before = chip.routing_totals
        with counted(WavefrontRouter, "_route_one") as routes, \
                counted(_VectorReservationTable, "reserve_path") as reserved, \
                counted(CageManager, "run_plan") as runs:
            chip.move_many({mover: (start[0] + 1, start[1] + 1)})
        assert len(routes) == 1 and len(reserved) == 1
        ((run_ids, __),) = runs
        assert list(run_ids) == [mover]
        after = chip.routing_totals
        assert after["cages_planned"] - before["cages_planned"] == 1
        assert after["plans"] - before["plans"] == 1


@st.composite
def single_moves(draw):
    """One mover among up to 16 stationary cages on a 2-pitch lattice of
    a 16-24 grid, a dead mask, and a goal no closer than the separation
    to any stationary cage."""
    side = draw(st.integers(16, 24))
    lattice = [(r, c) for r in range(1, side - 1, 2)
               for c in range(1, side - 1, 2)]
    sites = draw(st.permutations(lattice))
    n_stationary = draw(st.integers(0, 16))
    start, stationary = sites[0], sites[1:1 + n_stationary]
    cells = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    dead = np.zeros((side, side), dtype=bool)
    for cell in draw(st.lists(cells, max_size=24)):
        if cell != start and cell not in stationary:
            dead[cell] = True
    goals = [s for s in sites[1 + n_stationary:] if not dead[s]]
    goal = draw(st.sampled_from(goals)) if goals else start
    return side, start, goal, stationary, dead


class TestSingleMove:
    @given(case=single_moves())
    @example(case=(16, (1, 1), (13, 13),
                   [(5, 3), (5, 5), (3, 5), (7, 7)], np.zeros((16, 16), bool)))
    @settings(max_examples=80, deadline=None)
    def test_the_path_is_a_static_shortest_path(self, case):
        side, start, goal, stationary, dead = case
        chip = make_chip(side, dead)
        mover, = trap_all(chip, [start])
        trap_all(chip, stationary)
        # the oracle: a king-move BFS around every parked window and
        # dead electrode
        blocked = dead.copy()
        radius = chip.min_separation - 1
        for row, col in stationary:
            blocked[max(0, row - radius):row + radius + 1,
                    max(0, col - radius):col + radius + 1] = True
        field = distance_field(~blocked, goal)
        if field[start] < 0:
            with pytest.raises(ExecutionError):
                chip.move(mover, goal)
            return
        path = chip.move(mover, goal)
        assert path[0] == start and path[-1] == goal
        assert len(path) - 1 == field[start]
        for a, b in zip(path, path[1:]):
            assert chebyshev_heuristic(a, b) == 1
            assert not blocked[b]
        assert chip.cages.cage(mover).site == goal
        __, kind, detail = chip.history[-1]
        assert kind == "move"
        assert detail == {"cage": mover, "from": start, "to": goal,
                          "steps": len(path) - 1}

    @given(case=single_moves())
    @settings(max_examples=40, deadline=None)
    def test_move_charges_what_move_many_charges(self, case):
        side, start, goal, stationary, dead = case
        chips = [make_chip(side, dead) for __ in range(2)]
        for chip in chips:
            trap_all(chip, [start] + stationary)
        single, batch = chips
        try:
            report = batch.move_many({0: goal})
        except ExecutionError:
            with pytest.raises(ExecutionError):
                single.move(0, goal)
            return
        path = single.move(0, goal)
        assert single.elapsed == batch.elapsed
        assert len(path) - 1 == report["frames"]
        assert single.cages.sites() == batch.cages.sites()

    def test_a_repeated_move_is_a_memo_hit(self):
        chip = make_chip(24)
        ids = trap_all(chip, [(4, 4), (4, 10), (10, 4)])
        for __ in range(2):
            assert chip.move(ids[0], (12, 12))[-1] == (12, 12)
            chip.move(ids[0], (4, 4))
        totals = chip.routing_totals
        assert (totals["memo_hits"], totals["memo_misses"]) == (2, 2)
        assert totals["cages_planned"] == 4

    def test_a_new_parked_set_forces_a_miss(self):
        """The memo key covers the parked sites: the same move among
        other stationary cages is planned afresh."""
        chip = make_chip(24)
        mover, bystander = trap_all(chip, [(4, 4), (4, 8)])
        detour = chip.move(mover, (4, 12))
        chip.move(mover, (4, 4))
        chip.release(bystander)
        trap_all(chip, [(12, 8)])
        before = chip.elapsed
        straight = chip.move(mover, (4, 12))
        assert detour != straight
        assert [site[0] for site in straight] == [4] * 9
        totals = chip.routing_totals
        assert (totals["memo_hits"], totals["memo_misses"]) == (0, 3)
        fresh = make_chip(24)
        mover, __ = trap_all(fresh, [(4, 4), (12, 8)])
        start = fresh.elapsed
        assert fresh.move(mover, (4, 12)) == straight
        assert fresh.elapsed - start == chip.elapsed - before

    def test_a_cage_leaves_an_electrode_that_died_under_it(self):
        chip = make_chip(24)
        mover, __ = trap_all(chip, [(6, 6), (6, 12)])
        dead = np.zeros((24, 24), dtype=bool)
        dead[6, 6] = dead[10, 6:9] = True
        chip.apply_faults(FaultModel(shape=(24, 24), dead_electrodes=dead))
        path = chip.move(mover, (14, 7))
        assert path[0] == (6, 6) and path[-1] == (14, 7)
        assert not any(dead[site] for site in path[1:])

    def test_merge_still_ends_adjacent(self):
        chip = make_chip(24)
        a, b = trap_all(chip, [(10, 10), (10, 20)])
        bystanders = trap_all(chip, [(14, 16), (6, 16), (10, 2)])
        sites = {cage_id: chip.cages.cage(cage_id).site
                 for cage_id in bystanders}
        merged = chip.merge(a, b)
        moves = [detail for __, kind, detail in chip.history if kind == "move"]
        (move,) = moves
        assert move["cage"] == b
        assert chebyshev_heuristic(move["to"], (10, 10)) == chip.min_separation
        assert merged.cage_id == a and chip.cage_count == 4
        for cage_id, site in sites.items():
            assert chip.cages.cage(cage_id).site == site
