"""Unit tests for the Biochip platform façade and protocol execution."""

import pytest

from repro import Biochip, ExecutionError, Protocol, Session
from repro.bio import Sample, cells_per_ml, mammalian_cell, polystyrene_bead
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
