"""The chips of one template share their batch plans.

Every chip keys its batch plans relative to its window -- its lease,
else the whole array at origin (0, 0) -- with the window's size and the
dead pixels inside it, in the one memo every chip spawned from the same
template shares.  So a tenant view hits the plan another view of the
same lease size made, wherever on the chip either window lies, and so
does a view whose window holds the same dead pixels at the same
window-relative sites; unleased spawns share whole-array plans.  The hit
is the plan, report and clock a fresh chip clipped to the hit's own
window makes.  A window of another size, or other dead pixels inside
it, keeps the plans apart.
"""

import contextlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Biochip,
    ConcurrentConfig,
    ConcurrentExecutionService,
    ExecutionError,
    ExecutionService,
    JobState,
    ServiceConfig,
)
from repro.array.cages import CageManager
from repro.core import platform
from repro.core.backend import SimulatorBackend
from repro.core.memo import LruMemo
from repro.faults import FaultModel
from repro.routing.multi import WavefrontRouter
from repro.workloads import small_footprint_protocol


def without_plan_seconds(detail):
    return {k: v for k, v in detail.items() if k != "plan_seconds"}


def history(chip):
    return [
        (t, kind, without_plan_seconds(detail) if kind == "move_many"
         else detail)
        for t, kind, detail in chip.history
    ]


@contextlib.contextmanager
def recorded_plans():
    """Record every (plan, memo hit) that a chip plans."""
    plans = []
    original = platform.Biochip._plan_batch

    def recording(chip, *args):
        hits = chip.routing_totals["memo_hits"]
        plan, entry = original(chip, *args)
        plans.append((plan, chip.routing_totals["memo_hits"] > hits))
        return plan, entry

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(platform.Biochip, "_plan_batch", recording)
        yield plans


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


def leased(chip, origin, shape, dead=None):
    """``chip`` with the dead mask ``dead`` installed, clipped to the
    ``shape`` window at ``origin`` (no shape: the whole array)."""
    if dead is not None:
        chip.apply_faults(FaultModel(shape=dead.shape, dead_electrodes=dead))
    if shape is not None:
        chip.set_region(origin, *shape)
    return chip


def run_batch(chip, origin, starts, goals, stationary=()):
    """Trap the cages at the window-relative ``starts`` and
    ``stationary`` sites and move the movers to ``goals``; returns
    ``(report, plan, hit)``."""
    shift = np.asarray(origin)

    def site(relative):
        return tuple(int(v) for v in np.add(relative, shift))

    ids = [chip.trap(site(s)).cage_id for s in list(starts) + list(stationary)]
    with recorded_plans() as plans:
        report = chip.move_many(
            {cage_id: site(goal) for cage_id, goal in zip(ids, goals)})
    ((plan, hit),) = plans
    return report, plan, hit


STARTS, GOALS, STATIONARY = [(1, 1), (3, 1)], [(1, 7), (3, 7)], [(7, 4)]
SHAPE = (9, 10)


def views(side=24):
    """A template and a spawner of views of it."""
    template = SimulatorBackend(Biochip.small_chip(rows=side, cols=side))
    return template, lambda: template.spawn().chip


class TestWhenPlansAreShared:
    def test_a_view_hits_the_plan_of_another_view_of_the_same_size(self):
        template, spawn = views()
        assert not run_batch(leased(spawn(), (2, 3), SHAPE),
                             (2, 3), STARTS, GOALS, STATIONARY)[2]
        assert run_batch(leased(spawn(), (12, 11), SHAPE),
                         (12, 11), STARTS, GOALS, STATIONARY)[2]
        assert len(template.chip._plan_memo) == 1

    def test_a_dead_pixel_inside_the_window_shares_by_layout(self):
        template, spawn = views()

        def dead_at(origin, relative):
            dead = np.zeros((24, 24), dtype=bool)
            dead[origin[0] + relative[0], origin[1] + relative[1]] = True
            return dead

        corner = (8, 9)  # the window's far corner
        assert not run_batch(leased(spawn(), (2, 3), SHAPE,
                                    dead_at((2, 3), corner)),
                             (2, 3), STARTS, GOALS, STATIONARY)[2]
        # the same window-relative dead pixel at another origin hits
        assert run_batch(leased(spawn(), (12, 11), SHAPE,
                                dead_at((12, 11), corner)),
                         (12, 11), STARTS, GOALS, STATIONARY)[2]
        # a clean window, or a dead pixel elsewhere in it, does not
        assert not run_batch(leased(spawn(), (12, 11), SHAPE),
                             (12, 11), STARTS, GOALS, STATIONARY)[2]
        assert not run_batch(leased(spawn(), (2, 3), SHAPE,
                                    dead_at((2, 3), (0, 9))),
                             (2, 3), STARTS, GOALS, STATIONARY)[2]
        assert len(template.chip._plan_memo) == 3

    def test_a_dead_pixel_outside_the_window_does_not_stop_sharing(self):
        template, spawn = views()
        dead = np.zeros((24, 24), dtype=bool)
        dead[2 - 1, 3 - 1] = dead[2 + 9, 3 + 10] = True  # just outside
        dead[12 + 9, 11] = True
        assert not run_batch(leased(spawn(), (2, 3), SHAPE, dead),
                             (2, 3), STARTS, GOALS, STATIONARY)[2]
        assert run_batch(leased(spawn(), (12, 11), SHAPE, dead),
                         (12, 11), STARTS, GOALS, STATIONARY)[2]
        assert len(template.chip._plan_memo) == 1

    def test_leases_of_different_sizes_never_share(self):
        template, spawn = views()
        for shape in (SHAPE, (9, 11), (10, 10), (8, 10)):
            assert not run_batch(leased(spawn(), (2, 3), shape),
                                 (2, 3), STARTS, GOALS, STATIONARY)[2]
        assert len(template.chip._plan_memo) == 4

    def test_other_parked_cages_or_separation_never_share(self):
        template, spawn = views()
        starts, goals = [(1, 1), (5, 1)], [(1, 7), (5, 7)]
        for stationary in ([(8, 4)], [(8, 6)], []):
            assert not run_batch(leased(spawn(), (2, 3), SHAPE),
                                 (2, 3), starts, goals, stationary)[2]
        wider = Biochip(grid=template.chip.grid, min_separation=3)
        wider._plan_memo = template.chip._plan_memo
        assert not run_batch(leased(wider, (2, 3), SHAPE),
                             (2, 3), starts, goals)[2]
        assert len(template.chip._plan_memo) == 4

    def test_unleased_spawns_share_plans(self):
        template, spawn = views()
        whole = (0, 0)
        assert not run_batch(spawn(), whole, STARTS, GOALS)[2]
        assert run_batch(spawn(), whole, STARTS, GOALS)[2]
        # a lease the size of the whole array is the same window
        assert run_batch(leased(spawn(), whole, (24, 24)),
                         whole, STARTS, GOALS)[2]
        assert len(template.chip._plan_memo) == 1

    def test_the_memo_pickles_with_its_entries(self):
        template, spawn = views()
        run_batch(leased(spawn(), (2, 3), SHAPE), (2, 3), STARTS, GOALS)
        copy = pickle.loads(pickle.dumps(template)).spawn().chip
        assert type(copy._plan_memo) is LruMemo
        assert list(copy._plan_memo) == list(template.chip._plan_memo)
        assert run_batch(leased(copy, (12, 11), SHAPE),
                         (12, 11), STARTS, GOALS)[2]


# -- a leased plan is the same plan wherever its window lies ------------------


@st.composite
def leased_batches(draw):
    """A window shape and a batch in window-relative sites: movers and
    stationary cages on a 2-pitch lattice, any of them on the window's
    border, and a few window-relative dead pixels off those sites."""
    rows, cols = draw(st.integers(5, 11)), draw(st.integers(5, 11))
    lattice = [(r, c) for r in range(0, rows, 2) for c in range(0, cols, 2)]
    sites = draw(st.permutations(lattice))
    n_moving = draw(st.integers(1, min(6, len(sites))))
    n_stationary = draw(st.integers(0, min(4, len(sites) - n_moving)))
    starts = sites[:n_moving]
    stationary = sites[n_moving:n_moving + n_stationary]
    free = [s for s in draw(st.permutations(lattice)) if s not in stationary]
    goals = free[:n_moving]
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    used = set(starts) | set(stationary) | set(goals)
    inside = sorted(set(draw(st.lists(cells, max_size=3))) - used)
    return (rows, cols), starts, goals, stationary, inside


SIDE = 28


def corner_origins(shape):
    rows, cols = shape
    return [(0, 0), (SIDE - rows, SIDE - cols), (0, SIDE - cols),
            (9, 7)]


def dead_mask(origin, inside, shape=None, seed=None):
    """The window-relative dead pixels ``inside`` placed at ``origin``,
    plus, given a ``seed``, a sprinkle of dead pixels kept off the
    ``shape`` window there; None when no pixel is dead."""
    dead = np.zeros((SIDE, SIDE), dtype=bool)
    if seed is not None:
        dead = np.random.default_rng(seed).random((SIDE, SIDE)) < 0.05
        dead[origin[0]:origin[0] + shape[0],
             origin[1]:origin[1] + shape[1]] = False
    for r, c in inside:
        dead[origin[0] + r, origin[1] + c] = True
    return dead if dead.any() else None


class TestTranslation:
    @given(batch=leased_batches())
    @settings(max_examples=40, deadline=None)
    def test_an_edge_lease_plans_as_an_interior_lease(self, batch):
        shape, starts, goals, stationary, inside = batch
        outcomes = []
        for origin in corner_origins(shape):
            # memo-less: each lease plans on a chip of its own, with the
            # same window-relative dead pixels
            chip = leased(Biochip.small_chip(rows=SIDE, cols=SIDE),
                          origin, shape, dead_mask(origin, inside))
            try:
                report, plan, hit = run_batch(
                    chip, origin, starts, goals, stationary)
            except ExecutionError:
                outcomes.append("rejected")
                continue
            assert not hit
            stats = {k: v for k, v in plan.stats.items()
                     if k != "plan_seconds"}
            outcomes.append((
                (plan.sites - np.asarray(origin)).tobytes(),
                plan.makespan,
                stats,
                without_plan_seconds(report),
            ))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    @given(batch=leased_batches(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_hit_on_another_view_is_a_fresh_plan_there(self, batch, data):
        shape, starts, goals, stationary, inside = batch
        if data.draw(st.booleans()):
            # unleased spawns: both windows are the whole array
            window, first, second = None, (0, 0), (0, 0)
        else:
            window = shape
            origins = corner_origins(shape)
            first = data.draw(st.sampled_from(origins))
            second = data.draw(st.sampled_from(origins))
        seed = None
        if window is not None and data.draw(st.booleans()):
            seed = data.draw(st.integers(0, 2**16))

        def dead(origin):
            # each view's own mask: the same window-relative dead pixels
            # inside its window, and dead pixels outside it
            return dead_mask(origin, inside, window, seed)

        __, spawn = views(SIDE)
        view_a = leased(spawn(), first, window, dead(first))
        view_b = leased(spawn(), second, window, dead(second))
        reference = leased(Biochip.small_chip(rows=SIDE, cols=SIDE),
                           second, window, dead(second))
        try:
            run_batch(view_a, first, starts, goals, stationary)
        except ExecutionError:
            # a rejected batch is never stored, and is rejected again
            assert len(view_a._plan_memo) == 0
            with pytest.raises(ExecutionError) as rejected:
                run_batch(reference, second, starts, goals, stationary)
            with pytest.raises(ExecutionError,
                               match=re.escape(str(rejected.value))):
                run_batch(view_b, second, starts, goals, stationary)
            return
        expected, fresh, fresh_hit = run_batch(
            reference, second, starts, goals, stationary)
        report, plan, hit = run_batch(
            view_b, second, starts, goals, stationary)
        assert hit and not fresh_hit
        assert np.array_equal(plan.cage_ids, fresh.cage_ids)
        assert np.array_equal(plan.sites, fresh.sites)
        assert plan.sites.dtype == fresh.sites.dtype
        assert plan.makespan == fresh.makespan
        assert without_plan_seconds(report) == without_plan_seconds(expected)
        assert view_b.elapsed == reference.elapsed
        assert history(view_b) == history(reference)
        assert view_b.cages.sites() == reference.cages.sites()
        assert ({c.cage_id: c.site for c in view_b.cages.cages}
                == {c.cage_id: c.site for c in reference.cages.cages})
        # the replayed view goes on from there like the reference
        shift = np.asarray(second)
        back = {tuple(np.add(goal, shift).tolist()):
                tuple(np.add(start, shift).tolist())
                for start, goal in zip(starts, goals)}
        for chip in (view_b, reference):
            moves = {cage.cage_id: back[cage.site]
                     for cage in chip.cages.cages if cage.site in back}
            try:
                chip.move_many(moves)
            except ExecutionError:
                pass
        assert history(view_b) == history(reference)
        assert view_b.cages.sites() == reference.cages.sites()


class TestSharedHitWork:
    def test_the_second_view_neither_routes_nor_runs_the_plan(self):
        template, spawn = views(48)
        stationary = [(r, c) for r in range(8, 16, 3) for c in range(0, 16, 3)]
        starts, goals = [(0, 0), (2, 0), (4, 0)], [(2, 12), (0, 12), (6, 14)]
        with counted(WavefrontRouter, "_route_one") as routes, \
                counted(CageManager, "run_plan") as runs:
            first = run_batch(leased(spawn(), (3, 5), (16, 16)), (3, 5),
                              starts, goals, stationary)[0]
        assert len(routes) >= 1 and len(runs) == 1
        for origin in ((30, 30), (0, 0), (3, 5)):
            with counted(WavefrontRouter, "_route_one") as routes, \
                    counted(CageManager, "run_plan") as runs:
                report, __, hit = run_batch(
                    leased(spawn(), origin, (16, 16)), origin,
                    starts, goals, stationary)
            assert hit and routes == [] and runs == []
            assert without_plan_seconds(report) == without_plan_seconds(first)


# -- the wall-clock tier's threads share one plan memo ------------------------


GRID = Biochip.small_chip().grid


def tenant_traffic(n_jobs):
    """Two-cage jobs in runs of four of one travel, cycling through
    three travels (three lease sizes and batches), at two sampling
    depths: a run hits its first job's plan, and with a memo of two a
    new run evicts one."""
    return [
        small_footprint_protocol(
            GRID, variant=j % 2, samples=20, travel=3 + j // 4 % 3,
            handle_prefix=f"j{j}h", name=f"job{j}")
        for j in range(n_jobs)
    ]


def job_signature(result, leased=True):
    """A job's events, chip time and readings.  A leased job runs on a
    fresh spawn of the template; a job served exclusively runs on
    whichever fleet chip the wall-clock tier's timing picks, so its
    readings come from that chip's noise stream and its chip time is a
    difference of that chip's clock: those are left out, and the chip
    time is compared to the nanosecond."""
    run = result.run
    skip = ("cage",) if leased else ("cage", "reading")
    events = tuple(
        (e.kind, e.op_id,
         tuple(sorted((k, v) for k, v in e.detail.items() if k not in skip)))
        for e in run.events
    )
    if not leased:
        return events, round(run.wall_time, 9)
    readings = tuple(
        (key, tuple((m.reading, m.detected) for m in run.measurements[key]))
        for key in sorted(run.measurements)
    )
    return events, run.wall_time, readings


@pytest.mark.parametrize("max_tenants", [1, 4])
def test_thread_workers_share_the_plan_memo_under_eviction(monkeypatch,
                                                           max_tenants):
    monkeypatch.setattr(platform, "_PLAN_MEMO_SIZE", 2)
    protocols = tenant_traffic(36)
    virtual = ExecutionService.simulator(
        ServiceConfig(n_chips=2, max_tenants=max_tenants),
        chip=Biochip.small_chip())
    virtual.submit_many(protocols)
    leased = max_tenants > 1
    want = {r.job_id: job_signature(r, leased) for r in virtual.drain()}
    assert virtual.snapshot()["routing"]["memo_hits"] > 0
    with ConcurrentExecutionService.simulator(
            ConcurrentConfig(n_workers=2, max_tenants=max_tenants),
            chip=Biochip.small_chip()) as service:
        handles = service.submit_many(protocols)
        results = service.drain(timeout=120.0)
        routing = service.snapshot()["routing"]
    assert len(results) == len(protocols)
    assert all(h.result().state is JobState.DONE for h in handles)
    assert {r.job_id: job_signature(r, leased) for r in results} == want
    assert routing["memo_hits"] > 0 and routing["memo_misses"] > 3
    assert routing["plans"] == len(protocols)
