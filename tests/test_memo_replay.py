"""A batch-plan memo hit replays the execution its miss committed.

The first run of a batch executes its plan through
:meth:`CageManager.run_plan` and stores the report's move count and
times in the memo entry.  A repeat of the batch (the same requests,
under any cage ids) commits the end sites of the plan rows that end away
from their start with one :meth:`ArrayState.move_cages` call and charges
the stored times.  The chip must then be exactly the chip a fresh plan
and a full ``run_plan`` leave: here a fresh chip with its memo cleared
before every batch is that reference.
"""

import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Biochip, ExecutionError
from repro.array.cages import CageError, CageManager
from repro.array.state import ArrayState
from repro.faults import FaultModel


def make_chip(side, dead=None, region=None):
    chip = Biochip.small_chip(rows=side, cols=side)
    if dead is not None:
        chip.apply_faults(FaultModel(shape=(side, side), dead_electrodes=dead))
    if region is not None:
        chip.set_region(*region)
    return chip


def trap_all(chip, sites):
    return [chip.trap(site).cage_id for site in sites]


def release_all(chip):
    for cage in chip.cages.cages:
        chip.release(cage.cage_id)


def without_plan_seconds(detail):
    return {k: v for k, v in detail.items() if k != "plan_seconds"}


def chip_state(chip):
    """Everything a batch execution can change, in comparable form."""
    state = chip.cages.state
    return {
        "sites": chip.cages.sites(),
        "cage_sites": {cage.cage_id: cage.site for cage in chip.cages.cages},
        "occupancy": state.occupancy.tobytes(),
        "cage_ids": state.cage_ids.tobytes(),
        "site_r": state._site_r.tobytes(),
        "site_c": state._site_c.tobytes(),
        "elapsed": chip.elapsed,
        "history": [
            (t, kind, without_plan_seconds(detail) if kind == "move_many"
             else detail)
            for t, kind, detail in chip.history
        ],
    }


@contextlib.contextmanager
def counted(owner, name):
    """Record the arguments of every call to ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, counting)
        yield calls


@st.composite
def replay_batches(draw):
    """A batch on a 16-24 grid, cages on a 2-pitch lattice: movers that
    stay put (and may have to dodge and come back), movers chained into
    a site another mover vacates, movers to free sites, stationary
    cages, and an optional dead mask and lease window."""
    side = draw(st.integers(16, 24))
    lattice = [(r, c) for r in range(1, side - 1, 2)
               for c in range(1, side - 1, 2)]
    sites = draw(st.permutations(lattice))
    n_moving = draw(st.integers(1, 10))
    n_stationary = draw(st.integers(0, 8))
    starts = sites[:n_moving]
    stationary = sites[n_moving:n_moving + n_stationary]
    free = sites[n_moving + n_stationary:]
    goals = []
    for start in starts:
        kind = draw(st.sampled_from(["stay", "chain", "free"]))
        options = {"stay": [start], "chain": starts, "free": free}[kind]
        options = [s for s in options if s not in goals]
        if kind == "chain":
            options = [s for s in options if s != start]
        if not options:
            options = [s for s in free if s not in goals]
        goals.append(draw(st.sampled_from(options)))
    # the order of the movers in the goals dict
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


#: A mover asked to stay put sits on another mover's straight line: it
#: steps aside and comes back, so its row moves but ends where it began.
DODGE = (16, [(5, 1), (5, 7)], [(5, 13), (5, 7)], [(9, 9)], None, None,
         range(2))
#: A chain: each mover takes the site the next one vacates.
CHAIN = (16, [(5, 3), (5, 5), (5, 7)], [(5, 5), (5, 7), (5, 9)],
         [(9, 5), (1, 7)], None, None, [2, 0, 1])


class TestReplay:
    @given(batch=replay_batches())
    @example(batch=DODGE)
    @example(batch=CHAIN)
    @settings(max_examples=60, deadline=None)
    def test_a_hit_leaves_the_chip_a_fresh_plan_leaves(self, batch):
        side, starts, goals, stationary, dead, region, order = batch
        chip = make_chip(side, dead, region)
        fresh = make_chip(side, dead, region)

        def moves(ids):
            return {ids[i]: goals[i] for i in order}

        def back(ids):
            return {ids[i]: starts[i] for i in order}

        # the first run fills the memo; the reference never uses it
        for c in (chip, fresh):
            ids = trap_all(c, starts + stationary)
            try:
                c.move_many(moves(ids))
            except ExecutionError as exc:
                # a rejected batch is rejected on every chip
                assert c is chip
                with pytest.raises(ExecutionError,
                                   match=re.escape(str(exc))):
                    fresh.move_many(moves(trap_all(fresh,
                                                   starts + stationary)))
                return
            release_all(c)
        assert chip_state(chip) == chip_state(fresh)
        # the repeat, under new cage ids: a replay on the chip, a fresh
        # plan run through run_plan on the reference
        ids = trap_all(chip, starts + stationary)
        assert trap_all(fresh, starts + stationary) == ids
        fresh._plan_memo.clear()
        expected = fresh.move_many(moves(ids))
        with counted(CageManager, "run_plan") as runs:
            report = chip.move_many(moves(ids))
        assert runs == []
        assert chip.routing_totals["memo_hits"] == 1
        assert without_plan_seconds(report) == without_plan_seconds(expected)
        assert chip_state(chip) == chip_state(fresh)
        # the chip goes on from the replayed state like the reference
        fresh._plan_memo.clear()
        try:
            expected = fresh.move_many(back(ids))
        except ExecutionError as exc:
            with pytest.raises(ExecutionError, match=re.escape(str(exc))):
                chip.move_many(back(ids))
        else:
            report = chip.move_many(back(ids))
            assert (without_plan_seconds(report)
                    == without_plan_seconds(expected))
        assert chip_state(chip) == chip_state(fresh)

    @pytest.mark.parametrize("batch", [DODGE, CHAIN], ids=["dodge", "chain"])
    def test_the_examples_hold_their_cases(self, batch):
        side, starts, goals, stationary, __, __, order = batch
        chip = make_chip(side)
        ids = trap_all(chip, starts + stationary)
        original = Biochip._plan_batch
        plans = []

        def recording(chip, *args):
            plan, entry = original(chip, *args)
            plans.append(plan)
            return plan, entry

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Biochip, "_plan_batch", recording)
            chip.move_many({ids[i]: goals[i] for i in order})
        (plan,) = plans
        moved = plan.deltas.any(axis=(1, 2))
        returned = (plan.sites[:, 0] == plan.sites[:, -1]).all(axis=1)
        if batch is DODGE:
            assert (moved & returned).any()
        else:
            assert set(goals) & set(starts)


class TestReplayWork:
    def test_a_hit_runs_no_plan_and_commits_only_the_rows_that_moved(self):
        chip = make_chip(48)
        # a crowd of bystanders, and three movers: one goes round the
        # stayer, one steps into a vacated site
        stationary = [(r, c) for r in range(20, 47, 3) for c in range(1, 47, 3)]
        starts = [(5, 1), (5, 7), (10, 4)]
        goals = [(5, 13), (5, 7), (10, 10)]

        def run():
            ids = trap_all(chip, starts + stationary)
            before = {cage.cage_id: cage.site for cage in chip.cages.cages}
            with counted(CageManager, "run_plan") as runs, \
                    counted(ArrayState, "move_cages") as commits:
                report = chip.move_many(dict(zip(ids, goals)))
            changed = sorted(cage.cage_id for cage in chip.cages.cages
                             if cage.site != before[cage.cage_id])
            release_all(chip)
            return report, runs, commits, changed

        first, runs, __, changed = run()
        assert len(runs) == 1
        assert len(changed) == 2  # the stayer is back where it began
        report, runs, commits, changed = run()
        assert chip.routing_totals["memo_hits"] == 1
        assert runs == []
        (args,) = commits
        assert sorted(args[-1].tolist()) == changed
        assert all(len(column) == 2 for column in args)
        assert without_plan_seconds(report) == without_plan_seconds(first)

    def test_a_miss_that_fails_to_run_stores_no_replay(self):
        starts, goals = [(4, 4), (8, 4)], [(4, 12), (8, 12)]
        chip = make_chip(24)

        def fail(self, ids, deltas):
            raise CageError("frame rejected")

        def run():
            ids = trap_all(chip, starts)
            try:
                return chip.move_many(dict(zip(ids, goals)))
            finally:
                release_all(chip)

        for __ in range(2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(CageManager, "run_plan", fail)
                with pytest.raises(CageError, match="frame rejected"):
                    run()
            (entry,) = chip._plan_memo.values()
            assert entry.replay is None
        totals = chip.routing_totals
        assert (totals["memo_hits"], totals["memo_misses"]) == (1, 1)
        # the first hit that runs the plan stores its replay; the next
        # replays it
        with counted(CageManager, "run_plan") as runs:
            ran = run()
        assert len(runs) == 1 and entry.replay is not None
        with counted(CageManager, "run_plan") as runs:
            replayed = run()
        assert runs == []
        assert without_plan_seconds(ran) == without_plan_seconds(replayed)
        reference = make_chip(24)
        ids = trap_all(reference, starts)
        assert (without_plan_seconds(reference.move_many(dict(zip(ids, goals))))
                == without_plan_seconds(replayed))
