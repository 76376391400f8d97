"""Unit tests for the Biochip platform façade and protocol execution."""

import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Biochip, ExecutionError, Protocol, Session
from repro.bio import Sample, cells_per_ml, mammalian_cell, polystyrene_bead
from repro.core.backend import SimulatorBackend
from repro.faults import FaultModel
from repro.physics.constants import ul, um


class TestBiochipConstruction:
    def test_paper_chip_scale(self):
        chip = Biochip.paper_chip()
        assert chip.grid.electrode_count > 100_000
        assert chip.cages.max_cage_count() >= 10_000

    def test_small_chip(self):
        chip = Biochip.small_chip(rows=32, cols=32)
        assert chip.grid.electrode_count == 1024

    def test_drive_voltage_capped_by_node(self):
        with pytest.raises(ValueError, match="exceeds node"):
            Biochip.small_chip().__class__(
                grid=Biochip.small_chip().grid, drive_voltage=12.0
            )

    def test_chamber_default_covers_grid(self):
        chip = Biochip.small_chip()
        assert chip.chamber.covers_grid(chip.grid)


class TestBiochipOperations:
    def test_trap_and_release(self):
        chip = Biochip.small_chip()
        cage = chip.trap((5, 5), polystyrene_bead())
        assert chip.cage_count == 1
        chip.release(cage.cage_id)
        assert chip.cage_count == 0

    def test_trap_conflict_raises_execution_error(self):
        chip = Biochip.small_chip()
        chip.trap((5, 5))
        with pytest.raises(ExecutionError):
            chip.trap((5, 6))

    def test_move_routes_around_other_cages(self):
        chip = Biochip.small_chip()
        blocker = chip.trap((10, 10))
        mover = chip.trap((10, 0))
        path = chip.move(mover.cage_id, (10, 20))
        assert chip.cages.cage(mover.cage_id).site == (10, 20)
        for site in path:
            assert max(abs(site[0] - 10), abs(site[1] - 10)) >= 2 or site == (10, 0) or site[1] > 12 or site[1] < 8

    def test_move_accounts_time(self):
        chip = Biochip.small_chip()
        cage = chip.trap((0, 0))
        before = chip.elapsed
        chip.move(cage.cage_id, (0, 10))
        elapsed = chip.elapsed - before
        # 10 steps at 20 um / 50 um/s = 4 s of physics, plus tiny electronics
        assert elapsed == pytest.approx(4.0, rel=0.05)

    def test_merge(self):
        chip = Biochip.small_chip()
        a = chip.trap((10, 10), "A")
        b = chip.trap((10, 20), "B")
        merged = chip.merge(a.cage_id, b.cage_id)
        assert merged.payload == ["A", "B"]
        assert chip.cage_count == 1

    def test_merged_cage_senses_combined_contrast(self):
        # regression: a merged (list-payload) cage used to sense only
        # payload[0] -- the sensed signal must be the summed contrast
        # of every particle in the cage
        chip = Biochip.small_chip(seed=2)
        a = chip.trap((5, 5), mammalian_cell())
        b = chip.trap((5, 9), polystyrene_bead())
        single_cell, __ = chip._cage_signal(a)
        single_bead, __ = chip._cage_signal(b)
        merged = chip.merge(a.cage_id, b.cage_id)
        combined, expected = chip._cage_signal(merged)
        assert expected
        assert combined == pytest.approx(single_cell + single_bead)
        result = chip.sense(merged.cage_id, n_samples=2000)
        assert result.expected and result.detected

    def test_empty_and_empty_list_payloads_sense_nothing(self):
        chip = Biochip.small_chip()
        empty = chip.trap((20, 20))
        assert chip._cage_signal(empty) == (0.0, False)
        empty.payload = []  # a merged cage whose contents were consumed
        assert chip._cage_signal(empty) == (0.0, False)

    def test_sense_detects_cell(self):
        chip = Biochip.small_chip()
        cage = chip.trap((5, 5), mammalian_cell())
        result = chip.sense(cage.cage_id, n_samples=2000)
        assert result.detected
        assert result.expected

    def test_sense_empty_cage_mostly_silent(self):
        chip = Biochip.small_chip(seed=3)
        cage = chip.trap((5, 5))
        result = chip.sense(cage.cage_id, n_samples=2000)
        assert not result.expected
        assert not result.detected

    def test_sense_time_scales_with_samples(self):
        chip = Biochip.small_chip()
        cage = chip.trap((5, 5), mammalian_cell())
        short = chip.sense(cage.cage_id, n_samples=100).duration
        long = chip.sense(cage.cage_id, n_samples=1000).duration
        assert long == pytest.approx(10.0 * short)

    def test_incubate_advances_clock(self):
        chip = Biochip.small_chip()
        before = chip.elapsed
        chip.incubate(60.0)
        assert chip.elapsed - before == pytest.approx(60.0)

    def test_verify_speed_for_bead(self):
        chip = Biochip.small_chip()
        assert chip.verify_speed(polystyrene_bead(um(5)))

    def test_verify_speed_reuses_the_cached_height(self, monkeypatch):
        from repro.physics.dep import DepCage

        solves = []
        solve = DepCage.levitation_height

        def counted(cage):
            solves.append(cage)
            return solve(cage)

        monkeypatch.setattr(DepCage, "levitation_height", counted)
        chip = Biochip.small_chip()
        bead = polystyrene_bead(um(5))
        assert chip.verify_speed(bead)
        first = len(solves)
        assert chip.verify_speed(bead)
        assert len(solves) == first

    def test_history_grows(self):
        chip = Biochip.small_chip()
        cage = chip.trap((5, 5))
        chip.move(cage.cage_id, (10, 10))
        kinds = [kind for __, kind, __ in chip.history]
        assert kinds == ["trap", "move"]


class TestLoadSample:
    def sample(self, per_ml=2e4):
        return Sample(volume=ul(1.0)).add(polystyrene_bead(), cells_per_ml(per_ml))

    def test_load_creates_cages(self):
        chip = Biochip.small_chip(rows=64, cols=64, seed=1)
        cages = chip.load_sample(self.sample(), max_particles=50)
        assert 0 < len(cages) <= 50
        assert chip.cage_count == len(cages)

    def test_load_respects_capacity(self):
        chip = Biochip.small_chip(rows=8, cols=8, seed=1)
        sample = Sample(volume=ul(4.0)).add(polystyrene_bead(), cells_per_ml(1e6))
        with pytest.raises(ExecutionError, match="capacity"):
            chip.load_sample(sample)

    def test_loaded_cages_have_payloads(self):
        chip = Biochip.small_chip(rows=64, cols=64, seed=2)
        cages = chip.load_sample(self.sample(), max_particles=20)
        assert all(c.payload is not None for c in cages)

    def test_overflow_of_free_sites_raises_not_drops(self):
        # 8x8 at spacing 2 -> 16 lattice sites; pre-occupy half of them,
        # then load a sample that fits the lattice but not the free
        # remainder.  The old capacity check compared against the full
        # lattice and silently dropped the surplus particles.
        chip = Biochip.small_chip(rows=8, cols=8, seed=1)
        for row in range(0, 8, 2):
            chip.trap((row, 0))
            chip.trap((row, 4))
        sample = Sample(volume=ul(4.0)).add(polystyrene_bead(), cells_per_ml(1e6))
        with pytest.raises(ExecutionError, match="free"):
            chip.load_sample(sample, max_particles=12)
        assert chip.cage_count == 8  # nothing partially loaded


class TestProtocolExecution:
    def test_full_protocol_run(self):
        chip = Biochip.small_chip()
        protocol = (
            Protocol("run")
            .trap("cell", (5, 5), mammalian_cell())
            .move("cell", (20, 20))
            .sense("cell", samples=2000)
            .incubate("cell", 10.0)
            .release("cell")
        )
        result = Session.simulator(chip).run(protocol)
        assert result.count() == 5
        assert result.detections("cell") == [True]
        assert result.wall_time > 0.0
        assert chip.cage_count == 0

    def test_merge_protocol(self):
        chip = Biochip.small_chip()
        protocol = (
            Protocol("pairing")
            .trap("cell", (10, 10), mammalian_cell())
            .trap("bead", (10, 30), polystyrene_bead())
            .merge("cell", "bead")
            .sense("cell")
            .release("cell")
        )
        result = Session.simulator(chip).run(protocol)
        assert result.count("merge") == 1
        assert chip.cage_count == 0

    def test_result_summary_text(self):
        chip = Biochip.small_chip()
        protocol = Protocol("t").trap("a", (5, 5)).release("a")
        result = Session.simulator(chip).run(protocol)
        assert "protocol 't'" in result.summary()

    def test_detection_accuracy_perfect_on_easy_case(self):
        chip = Biochip.small_chip(seed=4)
        protocol = (
            Protocol("acc")
            .trap("full", (5, 5), mammalian_cell())
            .trap("empty", (5, 15))
            .sense("full", samples=2000)
            .sense("empty", samples=2000)
            .release("full")
            .release("empty")
        )
        result = Session.simulator(chip).run(protocol)
        assert result.detection_accuracy() == 1.0

    def test_predicted_vs_wall_time_same_order(self):
        chip = Biochip.small_chip()
        protocol = (
            Protocol("time")
            .trap("a", (0, 0))
            .move("a", (20, 20))
            .release("a")
        )
        result = Session.simulator(chip).run(protocol)
        assert 0.2 < result.wall_time / result.predicted_makespan < 5.0


class TestMoveManyFrameAccounting:
    """``move_many`` executes its plan in one pass; its report and the
    chip clock equal the per-frame loop it replaced, bit for bit."""

    @staticmethod
    def per_frame(chip, plan):
        """The former execution loop: one ``step_arrays`` per frame, row
        rewrites from diffing the frames before and after."""
        import math

        previous_frame = chip.cages.frame()
        program_time = 0.0
        dwell_time = 0.0
        total_moves = 0
        diagonal_dwell = math.sqrt(2.0) * chip.grid.pitch / chip.cage_speed
        straight_dwell = chip.grid.pitch / chip.cage_speed
        for step in range(plan.makespan):
            ids, deltas = plan.moves_arrays_at(step)
            if ids.size == 0:
                continue
            chip.cages.step_arrays(ids, deltas)
            frame = chip.cages.frame()
            program_time += chip.addresser.incremental_program_time(
                previous_frame, frame
            )
            any_diagonal = bool((deltas != 0).all(axis=1).any())
            dwell_time += diagonal_dwell if any_diagonal else straight_dwell
            total_moves += int(ids.size)
            previous_frame = frame
        return plan.makespan, total_moves, program_time, dwell_time

    def check(self, make_chip, requests, monkeypatch):
        from repro.routing import WavefrontRouter

        plans = []
        plan = WavefrontRouter.plan

        def recording(router, *args, **kwargs):
            plans.append(plan(router, *args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(WavefrontRouter, "plan", recording)
        chip, twin = make_chip(), make_chip()
        for c in (chip, twin):
            handles = {r.cage_id: c.trap(r.start).cage_id for r in requests}
        report = chip.move_many({handles[r.cage_id]: r.goal for r in requests})
        frames, moves, program, dwell = self.per_frame(twin, plans[-1])
        assert (report["frames"], report["moves"]) == (frames, moves)
        assert report["program_time"] == program
        assert report["dwell_time"] == dwell
        assert chip.elapsed == twin.elapsed + (program + dwell)
        assert chip.cages.sites() == twin.cages.sites()
        return report

    @pytest.mark.parametrize("seed", range(6))
    def test_permutations(self, seed, monkeypatch):
        from repro.workloads import random_permutation_workload

        def make_chip():
            return Biochip.small_chip(rows=48, cols=48)

        requests = random_permutation_workload(
            make_chip().grid, 24, seed=seed)
        report = self.check(make_chip, requests, monkeypatch)
        assert report["moves"] > 24  # the vectorised plan pass

    def test_dead_electrodes(self, monkeypatch):
        from repro.faults import FaultModel
        from repro.workloads import random_permutation_workload

        model = FaultModel.random((48, 48), dead_pixel_fraction=0.02, seed=5)

        def make_chip():
            chip = Biochip.small_chip(rows=48, cols=48)
            chip.apply_faults(model)
            return chip

        requests = [
            r for r in random_permutation_workload(make_chip().grid, 30, seed=3)
            if not (model.is_dead_site(r.start) or model.is_dead_site(r.goal))
        ]
        self.check(make_chip, requests, monkeypatch)

    def test_leased_region(self, monkeypatch):
        from repro.array import ElectrodeGrid
        from repro.routing.multi import RoutingRequest
        from repro.workloads import random_permutation_workload

        origin = (8, 12)

        def make_chip():
            chip = Biochip.small_chip(rows=48, cols=48)
            chip.trap((2, 2))  # a tenant outside the lease stays put
            chip.set_region(origin, 24, 24)
            return chip

        window = random_permutation_workload(
            ElectrodeGrid(24, 24, um(20)), 12, seed=4)
        requests = [
            RoutingRequest(
                r.cage_id,
                (r.start[0] + origin[0], r.start[1] + origin[1]),
                (r.goal[0] + origin[0], r.goal[1] + origin[1]),
            )
            for r in window
        ]
        self.check(make_chip, requests, monkeypatch)


# -- the per-chip batch-plan memo ---------------------------------------------


def _without_plan_seconds(detail):
    """A move_many report or history detail minus its host wall-clock
    planner time, the one field two identical plans never share."""
    return {k: v for k, v in detail.items() if k != "plan_seconds"}


def _history(chip):
    return [
        (t, kind, _without_plan_seconds(detail) if kind == "move_many"
         else detail)
        for t, kind, detail in chip.history
    ]


@contextlib.contextmanager
def _recorded_plans():
    """Record every (chip, plan, memo hit) that ``move_many`` plans."""
    plans = []
    original = Biochip._plan_batch

    def recording(chip, *args):
        hits = chip.routing_totals["memo_hits"]
        plan, entry = original(chip, *args)
        plans.append((chip, plan, chip.routing_totals["memo_hits"] > hits))
        return plan, entry

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Biochip, "_plan_batch", recording)
        yield plans


@st.composite
def memo_batches(draw):
    """A batch on a 16-24 grid: moving and stationary cages on a
    2-pitch lattice, the movers in any goal-dict order, plus an optional
    dead mask and lease window, and whether the repeat runs on another
    spawn of the chip's template."""
    side = draw(st.integers(16, 24))
    lattice = [(r, c) for r in range(1, side - 1, 2)
               for c in range(1, side - 1, 2)]
    sites = draw(st.permutations(lattice))
    n_moving = draw(st.integers(1, 12))
    n_stationary = draw(st.integers(0, 8))
    starts = sites[:n_moving]
    stationary = sites[n_moving:n_moving + n_stationary]
    free = [s for s in draw(st.permutations(lattice)) if s not in stationary]
    goals = free[:n_moving]
    # the order of the movers in the goals dict, which need not be
    # their trap (cage id) order
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
    spawned = draw(st.booleans())
    return side, starts, goals, stationary, dead, region, order, spawned


#: A crowded 16x16 batch whose planning passes seal movers in behind
#: other movers' reservations, so the router replans twice with them
#: promoted: a hit must remap that promotion order to the new cage ids.
#: Its ten stationary cages stay put throughout.
REPLANNED_BATCH = (
    16,
    [(11, 7), (13, 11), (3, 5), (7, 7), (9, 9), (5, 7), (7, 1), (3, 3),
     (7, 11), (3, 9), (11, 13), (11, 1)],
    [(7, 1), (3, 5), (5, 9), (5, 7), (5, 1), (1, 11), (7, 9), (3, 11),
     (1, 9), (13, 7), (3, 9), (11, 11)],
    [(11, 3), (13, 5), (13, 13), (13, 1), (7, 5), (3, 13), (1, 13), (5, 13),
     (11, 9), (7, 3)],
    None,
    None,
    range(12),
    False,
)


class TestBatchPlanMemo:
    """A repeated batch reuses its memoised plan, and the result is bit
    for bit the result of planning it afresh."""

    @staticmethod
    def make_chip(side, dead=None, region=None, template=None):
        """A small chip, or a spawn of ``template``, with the dead mask
        ``dead`` installed and clipped to ``region``."""
        chip = (Biochip.small_chip(rows=side, cols=side) if template is None
                else template.spawn().chip)
        if dead is not None:
            chip.apply_faults(FaultModel(shape=(side, side),
                                         dead_electrodes=dead))
        if region is not None:
            chip.set_region(*region)
        return chip

    @staticmethod
    def trap_all(chip, starts, stationary):
        return [chip.trap(site).cage_id for site in starts + stationary]

    @staticmethod
    def release_all(chip):
        for cage in chip.cages.cages:
            chip.release(cage.cage_id)

    @given(batch=memo_batches())
    @example(batch=REPLANNED_BATCH)
    @settings(max_examples=60, deadline=None)
    def test_hit_is_bit_identical_to_a_fresh_plan(self, batch):
        side, starts, goals, stationary, dead, region, order, spawned = batch

        def batch_moves(ids):
            return {ids[i]: goals[i] for i in order}

        template = SimulatorBackend(Biochip.small_chip(rows=side, cols=side))
        chips = [self.make_chip(side, dead, region, template)]
        previous_ids = set()
        with _recorded_plans() as plans:
            for run in range(2):
                if spawned and run:
                    # the repeat runs on another spawn of the template
                    chips.append(self.make_chip(side, dead, region, template))
                chip = chips[-1]
                # the reference: a freshly built chip with no memo,
                # taken through the same operations from the start
                fresh = self.make_chip(side, dead, region)
                for __ in range(0 if spawned else run):
                    fresh.move_many(batch_moves(
                        self.trap_all(fresh, starts, stationary)))
                    self.release_all(fresh)
                    fresh._plan_memo.clear()
                ids = self.trap_all(chip, starts, stationary)
                fresh_ids = self.trap_all(fresh, starts, stationary)
                assert ids == fresh_ids
                if not spawned:
                    assert previous_ids.isdisjoint(ids)  # renamed cages
                previous_ids = set(ids)
                moves = batch_moves(ids)
                del plans[:]
                try:
                    expected = fresh.move_many(moves)
                except ExecutionError as exc:
                    # a rejected batch is rejected again, never memoised
                    with pytest.raises(ExecutionError,
                                       match=re.escape(str(exc))):
                        chip.move_many(moves)
                    assert len(chip._plan_memo) == 0
                    return
                report = chip.move_many(moves)
                (__, reference, fresh_hit), (__, plan, hit) = plans
                assert not fresh_hit
                assert hit == (run == 1)
                assert np.array_equal(plan.cage_ids, reference.cage_ids)
                assert np.array_equal(plan.sites, reference.sites)
                assert plan.makespan == reference.makespan
                assert (_without_plan_seconds(report)
                        == _without_plan_seconds(expected))
                assert chip.elapsed == fresh.elapsed
                assert _history(chip) == _history(fresh)
                assert chip.cages.sites() == fresh.cages.sites()
                self.release_all(chip)
        totals = {name: sum(c.routing_totals[name] for c in chips)
                  for name in ("memo_hits", "memo_misses", "plans",
                               "cages_planned")}
        assert (totals["memo_hits"], totals["memo_misses"]) == (1, 1)
        assert totals["plans"] == 2
        assert totals["cages_planned"] == 2 * len(starts)

    def test_the_replanned_example_replans(self):
        side, starts, goals, stationary, __, __, __, __ = REPLANNED_BATCH
        chip = self.make_chip(side)
        chip.move_many(dict(zip(self.trap_all(chip, starts, stationary),
                                goals)))
        assert chip.routing_totals["replans"] >= 1

    def run_batch(self, chip, starts, goals, stationary=()):
        """Trap, move and release one batch; returns (report, plan, hit)."""
        ids = self.trap_all(chip, list(starts), list(stationary))
        with _recorded_plans() as plans:
            report = chip.move_many(dict(zip(ids, goals)))
        self.release_all(chip)
        (__, plan, hit), = plans
        return report, plan, hit

    def test_a_fault_on_a_memoised_path_forces_a_replan(self):
        starts, goals = [(4, 4)], [(4, 16)]
        chip = self.make_chip(24)
        __, plan, hit = self.run_batch(chip, starts, goals)
        assert not hit
        path = [tuple(site) for site in plan.sites[0].tolist()]
        assert (4, 10) in path
        dead = np.zeros((24, 24), dtype=bool)
        dead[3:6, 10] = True
        chip.apply_faults(FaultModel(shape=(24, 24), dead_electrodes=dead))
        report, plan, hit = self.run_batch(chip, starts, goals)
        assert not hit
        assert not dead[tuple(plan.sites[0].T)].any()  # routed around
        expected, reference, __ = self.run_batch(
            self.make_chip(24, dead), starts, goals)
        assert np.array_equal(plan.sites, reference.sites)
        assert (_without_plan_seconds(report)
                == _without_plan_seconds(expected))
        totals = chip.routing_totals
        assert (totals["memo_hits"], totals["memo_misses"]) == (0, 2)
        # clearing the faults returns to the clean mask's plan
        chip.apply_faults(None)
        __, plan, hit = self.run_batch(chip, starts, goals)
        assert hit and (4, 10) in [tuple(site) for site in plan.sites[0]]

    def test_a_new_region_forces_a_miss(self):
        starts, goals = [(4, 4), (8, 4)], [(4, 12), (8, 12)]
        chip = self.make_chip(24)
        assert not self.run_batch(chip, starts, goals)[2]
        assert self.run_batch(chip, starts, goals)[2]
        chip.set_region((2, 2), 12, 14)
        assert not self.run_batch(chip, starts, goals)[2]
        assert self.run_batch(chip, starts, goals)[2]
        chip.set_region((0, 0), 16, 16)
        assert not self.run_batch(chip, starts, goals)[2]
        # back on the whole array, the whole array's plan serves
        chip.set_region(None)
        assert self.run_batch(chip, starts, goals)[2]
        totals = chip.routing_totals
        assert (totals["memo_hits"], totals["memo_misses"]) == (3, 3)

    @pytest.mark.parametrize("case", ["goals too close", "walled in"])
    def test_a_rejected_batch_is_never_stored(self, case):
        dead = None
        if case == "goals too close":
            starts, goals = [(4, 4), (4, 10)], [(12, 6), (12, 7)]
        else:
            starts, goals = [(6, 6)], [(16, 16)]
            dead = np.zeros((24, 24), dtype=bool)
            dead[4:9, 4:9] = True
            dead[5:8, 5:8] = False
        chip = self.make_chip(24, dead)
        for __ in range(3):
            ids = self.trap_all(chip, starts, [])
            with pytest.raises(ExecutionError):
                chip.move_many(dict(zip(ids, goals)))
            self.release_all(chip)
            assert len(chip._plan_memo) == 0
        totals = chip.routing_totals
        assert (totals["plans"], totals["memo_hits"],
                totals["memo_misses"]) == (0, 0, 0)

    def test_the_memo_is_bounded(self):
        from repro.core import platform

        bound = platform._PLAN_MEMO_SIZE
        chip = self.make_chip(24)
        goals = [(r, c) for r in range(2, 22, 2) for c in range(2, 22, 2)]
        assert len(goals) > bound + 1
        # one cage from (2, 2) to each goal in turn: all batches distinct
        for goal in goals[1:]:
            self.run_batch(chip, [(2, 2)], [goal])
            assert len(chip._plan_memo) <= bound
        assert len(chip._plan_memo) == bound
        totals = chip.routing_totals
        assert (totals["memo_hits"], totals["memo_misses"]) == (
            0, len(goals) - 1)
        # least recently used out: the newest batch is still there, the
        # first one is gone
        assert self.run_batch(chip, [(2, 2)], [goals[-1]])[2]
        assert not self.run_batch(chip, [(2, 2)], [goals[1]])[2]

    def test_the_memo_is_shared_with_spawned_chips(self):
        starts, goals = [(4, 4)], [(4, 16)]
        template = SimulatorBackend(self.make_chip(24))
        self.run_batch(template.chip, starts, goals)
        spawned = template.spawn().chip
        assert spawned._plan_memo is template.chip._plan_memo
        assert self.run_batch(spawned, starts, goals)[2]


# -- the lease window and its routing mask ------------------------------------


class TestLeaseMask:
    """A lease is held as its window bounds; the router's mask of the
    blocked outside is built from them on each call."""

    def test_the_mask_blocks_the_outside_and_the_dead_pixels(self):
        chip = Biochip.small_chip(rows=16, cols=16)
        assert chip._blocked_mask() is None
        chip.set_region((3, 5), 6, 4)
        want = np.ones((16, 16), dtype=bool)
        want[3:9, 5:9] = False
        assert np.array_equal(chip._blocked_mask(), want)
        dead = np.zeros((16, 16), dtype=bool)
        dead[4, 6] = dead[0, 0] = True
        chip.apply_faults(FaultModel(shape=(16, 16), dead_electrodes=dead))
        assert np.array_equal(chip._blocked_mask(), want | dead)
        # every call builds its own mask: no caller can change the lease
        chip._blocked_mask()[3:9, 5:9] = True
        assert not chip._blocked_mask()[5, 7]
        chip.set_region(None)
        assert np.array_equal(chip._blocked_mask(), dead)


# -- separation 1: the space-time A* plans every route ------------------------


class TestSeparationOne:
    """At ``min_separation=1`` the wavefront router defers to the
    space-time A* of :class:`~repro.routing.multi.BatchRouter` (its
    set-based reservation table), so that A* is production code."""

    @staticmethod
    def chip():
        from repro.array import ElectrodeGrid

        return Biochip(grid=ElectrodeGrid(16, 16, um(20)), min_separation=1)

    @staticmethod
    def assert_separated(chip):
        sites = np.array(chip.cages.sites())
        gaps = np.abs(sites[:, None, :] - sites[None, :, :]).max(axis=2)
        np.fill_diagonal(gaps, chip.min_separation)
        assert gaps.min() >= chip.min_separation

    def test_move_and_move_many_plan_with_the_a_star(self, monkeypatch):
        from repro.routing.multi import BatchRouter

        routed = []
        route_one = BatchRouter._route_one

        def counted(router, request, table, horizon):
            routed.append(request.cage_id)
            return route_one(router, request, table, horizon)

        monkeypatch.setattr(BatchRouter, "_route_one", counted)
        chip = self.chip()
        a, b, c = (chip.trap(site).cage_id
                   for site in ((2, 2), (2, 3), (5, 5)))
        # around the cage at (5, 5)
        chip.move(a, (10, 10))
        first = chip.routing_totals["expansions"]
        assert first > 0 and routed
        # c follows b into the site b leaves, one site from it
        report = chip.move_many({b: (2, 4), c: (2, 3)})
        assert report["cages"] == 2
        assert chip.routing_totals["expansions"] > first
        assert [chip.cages.cage(i).site for i in (a, b, c)] == [
            (10, 10), (2, 4), (2, 3)]
        self.assert_separated(chip)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_batch_ends_at_its_goals_separated(self, seed):
        from repro.workloads import random_permutation_workload

        chip = self.chip()
        requests = random_permutation_workload(chip.grid, 6, seed=seed)
        ids = {r.cage_id: chip.trap(r.start).cage_id for r in requests}
        chip.move_many({ids[r.cage_id]: r.goal for r in requests})
        assert chip.routing_totals["expansions"] > 0
        for r in requests:
            assert chip.cages.cage(ids[r.cage_id]).site == tuple(r.goal)
        self.assert_separated(chip)
