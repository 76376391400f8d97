"""Unit + property tests for task graphs, binding, and schedulers."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    AssayGraph,
    Binder,
    BindingError,
    DurationModel,
    FcfsScheduler,
    ListScheduler,
    Operation,
    OpType,
    Resource,
    default_chip_resources,
)
from repro.workloads import random_assay, serial_assay, wide_assay


class TestDurationModel:
    def test_move_linear_in_distance(self):
        model = DurationModel(pitch=20e-6, cage_speed=50e-6)
        assert model.move(10) == pytest.approx(10 * 20e-6 / 50e-6)

    def test_move_rejects_negative(self):
        with pytest.raises(ValueError):
            DurationModel().move(-1)

    def test_sense_linear_in_samples(self):
        model = DurationModel(sample_time=1e-4)
        assert model.sense(1000) == pytest.approx(0.1)

    def test_incubate_passthrough(self):
        assert DurationModel().incubate(42.0) == 42.0

    def test_merge_includes_overhead(self):
        model = DurationModel()
        assert model.merge() > model.move(2)


class TestAssayGraph:
    def build_diamond(self):
        graph = AssayGraph("diamond")
        graph.add(Operation("a", OpType.TRAP, 1.0))
        graph.add(Operation("b", OpType.MOVE, 2.0), after=["a"])
        graph.add(Operation("c", OpType.MOVE, 3.0), after=["a"])
        graph.add(Operation("d", OpType.SENSE, 1.0), after=["b", "c"])
        return graph

    def test_duplicate_id_rejected(self):
        graph = AssayGraph()
        graph.add(Operation("a", OpType.TRAP, 1.0))
        with pytest.raises(ValueError):
            graph.add(Operation("a", OpType.MOVE, 1.0))

    def test_missing_dependency_rejected(self):
        graph = AssayGraph()
        with pytest.raises(ValueError):
            graph.add(Operation("b", OpType.MOVE, 1.0), after=["nope"])
        assert len(graph) == 0 and "b" not in graph

    def test_self_dependency_rejected_without_partial_node(self):
        graph = self.build_diamond()
        with pytest.raises(ValueError, match="itself"):
            graph.add(Operation("e", OpType.MOVE, 1.0), after=["d", "e"])
        assert len(graph) == 4 and "e" not in graph
        assert graph.edge_count() == 4
        assert graph.validate()

    def test_long_chain_builds_and_sorts_in_linear_time(self):
        def build_and_sort(n):
            start = time.perf_counter()
            graph = AssayGraph("chain")
            graph.add(Operation("op0", OpType.TRAP, 1.0))
            for i in range(1, n):
                graph.add(Operation(f"op{i}", OpType.MOVE, 1.0),
                          after=[f"op{i - 1}"])
            order = [op.op_id for op in graph.operations()]
            return graph, order, time.perf_counter() - start

        build_and_sort(300)  # warm-up
        # both sides take the best of three runs, so one GC pause or
        # scheduler hiccup on a shared host cannot decide the ratio
        small = min(build_and_sort(300)[2] for __ in range(3))
        runs = [build_and_sort(3000) for __ in range(3)]
        graph, order, __ = runs[0]
        large = min(run[2] for run in runs)
        assert len(graph) == 3000 and graph.edge_count() == 2999
        assert order == [f"op{i}" for i in range(3000)]
        # 10x the ops: linear is ~10x the time, quadratic ~100x
        assert large < 40 * small + 0.05

    def test_order_is_kahn_generations_in_discovery_order(self):
        graph = self.build_diamond()
        graph.add(Operation("e", OpType.TRAP, 1.0))
        graph.add(Operation("f", OpType.MOVE, 1.0), after=["e"])
        assert [op.op_id for op in graph.operations()] == [
            "a", "e", "b", "c", "f", "d"
        ]

    def test_add_dependency_rejects_a_cycle(self):
        graph = self.build_diamond()
        with pytest.raises(ValueError, match="cycle"):
            graph.add_dependency("a", "d")
        assert graph.edge_count() == 4
        graph.add(Operation("e", OpType.INCUBATE, 1.0))
        graph.add_dependency("d", "e")
        assert graph.predecessors("d") == ["b", "c", "e"]
        assert graph.validate()

    def test_topological_order(self):
        graph = self.build_diamond()
        order = [op.op_id for op in graph.operations()]
        assert order.index("a") < order.index("b")
        assert order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_critical_path(self):
        graph = self.build_diamond()
        # a(1) -> c(3) -> d(1) = 5
        assert graph.critical_path_length() == pytest.approx(5.0)

    def test_total_work(self):
        assert self.build_diamond().total_work() == pytest.approx(7.0)

    def test_bottom_levels(self):
        levels = self.build_diamond().bottom_levels()
        assert levels["d"] == pytest.approx(1.0)
        assert levels["a"] == pytest.approx(5.0)

    def test_roots(self):
        assert self.build_diamond().roots() == ["a"]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Operation("x", OpType.MOVE, -1.0)


class TestMemoisedOrder:
    """The topological order is computed once per graph state: a query
    after ``add`` or ``add_dependency`` sees the new graph, and a
    compile sorts its graph once."""

    def order(self, graph):
        return [op.op_id for op in graph.operations()]

    def test_add_after_a_query_extends_the_order(self):
        graph = TestAssayGraph().build_diamond()
        assert self.order(graph) == ["a", "b", "c", "d"]
        graph.add(Operation("e", OpType.TRAP, 1.0))
        assert self.order(graph) == ["a", "e", "b", "c", "d"]
        graph.add(Operation("f", OpType.SENSE, 4.0), after=["d"])
        assert self.order(graph) == ["a", "e", "b", "c", "d", "f"]
        assert graph.critical_path_length() == pytest.approx(9.0)

    def test_add_dependency_after_a_query_reorders(self):
        graph = TestAssayGraph().build_diamond()
        graph.add(Operation("e", OpType.TRAP, 1.0))
        assert self.order(graph) == ["a", "e", "b", "c", "d"]
        assert graph.bottom_levels()["e"] == pytest.approx(1.0)
        graph.add_dependency("e", "d")
        assert self.order(graph) == ["a", "b", "c", "d", "e"]
        assert graph.bottom_levels()["e"] == pytest.approx(1.0)
        assert graph.bottom_levels()["a"] == pytest.approx(6.0)

    def test_a_failed_add_keeps_the_order(self):
        graph = TestAssayGraph().build_diamond()
        before = self.order(graph)
        with pytest.raises(ValueError):
            graph.add(Operation("e", OpType.MOVE, 1.0), after=["nope"])
        with pytest.raises(ValueError):
            graph.add_dependency("a", "d")
        assert self.order(graph) == before

    def test_a_compile_sorts_once(self, monkeypatch):
        from repro.array import ElectrodeGrid
        from repro.core.compiler import compile_protocol
        from repro.core.protocol import Protocol
        from repro.physics.constants import um

        calls = []
        kahn = AssayGraph._kahn

        def counted(graph):
            calls.append(graph.name)
            return kahn(graph)

        monkeypatch.setattr(AssayGraph, "_kahn", counted)
        protocol = Protocol("once")
        for i in range(4):
            protocol.trap(f"c{i}", (2 * i, 0))
        protocol.move_many({f"c{i}": (2 * i, 10) for i in range(4)})
        protocol.sense_all(samples=10)
        for i in range(4):
            protocol.release(f"c{i}")
        program = compile_protocol(protocol, ElectrodeGrid(48, 48, um(20)))
        program.ordered_commands()
        assert calls == ["once"]

    def test_neighbour_lists_follow_mutations_and_are_fresh(self):
        graph = TestAssayGraph().build_diamond()
        assert graph.predecessors("d") == ["b", "c"]
        assert graph.successors("a") == ["b", "c"]
        graph.add(Operation("a2", OpType.MOVE, 1.0), after=["a"])
        graph.add(Operation("e", OpType.INCUBATE, 5.0))
        graph.add_dependency("d", "e")
        assert graph.successors("a") == ["a2", "b", "c"]
        assert graph.predecessors("d") == ["b", "c", "e"]
        # a caller may mutate what it gets (workloads.assays does)
        graph.predecessors("d").append("z")
        graph.successors("a").clear()
        assert graph.predecessors("d") == ["b", "c", "e"]
        assert graph.successors("a") == ["a2", "b", "c"]


class TestBinder:
    def test_candidates_are_found_once_per_type(self):
        binder = Binder()
        for op_type in OpType:
            first = binder.candidates(Operation("x", op_type, 1.0))
            again = binder.candidates(Operation("y", op_type, 2.0))
            assert again is first
            assert first == [r for r in binder.resources if r.supports(op_type)]
        pinned = Operation("z", OpType.MOVE, 1.0, region="zone2")
        assert [r.name for r in binder.candidates(pinned)] == ["zone2"]

    def test_default_resources_cover_all_ops(self):
        binder = Binder()
        for op_type in OpType:
            operation = Operation("x", op_type, 1.0)
            assert binder.candidates(operation)

    def test_pinned_region(self):
        binder = Binder()
        operation = Operation("x", OpType.MOVE, 1.0, region="zone1")
        assert [r.name for r in binder.candidates(operation)] == ["zone1"]

    def test_pinned_wrong_type_rejected(self):
        binder = Binder()
        operation = Operation("x", OpType.SENSE, 1.0, region="zone0")
        with pytest.raises(BindingError):
            binder.candidates(operation)

    def test_unknown_region_rejected(self):
        binder = Binder()
        operation = Operation("x", OpType.MOVE, 1.0, region="mars")
        with pytest.raises(BindingError):
            binder.candidates(operation)

    def test_duplicate_resource_names_rejected(self):
        manipulation = frozenset({OpType.MOVE})
        with pytest.raises(ValueError):
            Binder([Resource("a", 1, manipulation), Resource("a", 1, manipulation)])

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource("z", 0, frozenset({OpType.MOVE}))


class TestSchedulers:
    def test_list_schedule_valid_on_random_assay(self):
        graph = random_assay(n_chains=12, seed=1)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        assert schedule.validate(graph, binder)

    def test_fcfs_schedule_valid_on_random_assay(self):
        graph = random_assay(n_chains=12, seed=1)
        binder = Binder()
        schedule = FcfsScheduler(binder).schedule(graph)
        assert schedule.validate(graph, binder)

    def test_makespan_at_least_critical_path(self):
        graph = random_assay(n_chains=8, seed=2)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        assert schedule.makespan >= graph.critical_path_length() - 1e-9

    def test_serial_chain_makespan_equals_work(self):
        graph = serial_assay(n_steps=10, seed=0)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        assert schedule.makespan == pytest.approx(graph.total_work())

    def test_wide_graph_parallelises(self):
        graph = wide_assay(n_parallel=32, seed=0)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        assert schedule.makespan < 0.5 * graph.total_work()

    def test_list_no_worse_than_fcfs_with_tight_sensing(self):
        """With a sensing bottleneck the list scheduler beats or matches
        FCFS (experiment X2's expected direction)."""
        binder = Binder(default_chip_resources(zones=2, cages_per_zone=8,
                                               sense_channels=1, loaders=1))
        worse = better = 0
        for seed in range(8):
            graph = random_assay(n_chains=10, seed=seed, sense_samples=50000)
            fcfs = FcfsScheduler(binder).schedule(graph).makespan
            lst = ListScheduler(binder).schedule(graph).makespan
            if lst <= fcfs + 1e-9:
                better += 1
            else:
                worse += 1
        assert better >= worse

    def test_utilisation_bounds(self):
        graph = random_assay(n_chains=10, seed=3)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        for value in schedule.utilisation(binder).values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_schedule_entry_lookup(self):
        graph = serial_assay(n_steps=3, seed=0)
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        assert schedule.entry("s0").start == pytest.approx(0.0)
        with pytest.raises(KeyError):
            schedule.entry("nope")

    def test_validate_catches_dependency_violation(self):
        graph = AssayGraph()
        graph.add(Operation("a", OpType.MOVE, 1.0))
        graph.add(Operation("b", OpType.MOVE, 1.0), after=["a"])
        binder = Binder()
        schedule = ListScheduler(binder).schedule(graph)
        # corrupt: start b before a ends
        from repro.scheduling.schedulers import Schedule, ScheduledOp

        bad = Schedule(entries=[
            ScheduledOp("a", "zone0", 0.0, 1.0),
            ScheduledOp("b", "zone0", 0.5, 1.5),
        ])
        with pytest.raises(ValueError):
            bad.validate(graph, binder)

    def test_validate_catches_capacity_violation(self):
        graph = AssayGraph()
        graph.add(Operation("a", OpType.SENSE, 1.0))
        graph.add(Operation("b", OpType.SENSE, 1.0))
        binder = Binder(default_chip_resources(sense_channels=1))
        from repro.scheduling.schedulers import Schedule, ScheduledOp

        bad = Schedule(entries=[
            ScheduledOp("a", "sense-bank", 0.0, 1.0),
            ScheduledOp("b", "sense-bank", 0.5, 1.5),
        ])
        with pytest.raises(ValueError):
            bad.validate(graph, binder)

    @given(seed=st.integers(0, 100), n_chains=st.integers(2, 14))
    @settings(max_examples=25, deadline=None)
    def test_schedules_always_valid_property(self, seed, n_chains):
        """Property: both schedulers produce dependency- and
        capacity-correct schedules on arbitrary random assays."""
        graph = random_assay(n_chains=n_chains, seed=seed)
        binder = Binder()
        for scheduler in (ListScheduler(binder), FcfsScheduler(binder)):
            schedule = scheduler.schedule(graph)
            assert schedule.validate(graph, binder)
            assert schedule.makespan >= graph.critical_path_length() - 1e-9


class _ScanResourceState:
    """The list scheduler's original slot search, kept as the reference
    for the sorted-interval sweep: every candidate re-scans every
    interval at every probe instant."""

    def __init__(self, resource):
        self.resource = resource
        self.intervals = []

    def _occupancy_below_capacity(self, start, end):
        probes = [start] + [
            t0 for t0, __ in self.intervals if start < t0 < end
        ]
        for probe in probes:
            count = sum(1 for t0, t1 in self.intervals if t0 <= probe < t1)
            if count >= self.resource.capacity:
                return False
        return True

    def earliest_slot(self, ready_time, duration):
        if duration <= 0.0:
            duration = 1e-12
        candidates = sorted(
            {ready_time} | {end for __, end in self.intervals if end > ready_time}
        )
        for candidate in candidates:
            if self._occupancy_below_capacity(candidate, candidate + duration):
                return candidate
        return candidates[-1]

    def commit(self, start, end):
        self.intervals.append((start, end))


# Times drawn from a coarse lattice so ties between starts, ends and
# ready times are common, plus arbitrary floats.
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0]),
    st.floats(0.0, 10.0, allow_nan=False),
)


class TestSlotSearch:
    """The sorted-interval sweep places every operation exactly where
    the original per-candidate scan did."""

    @given(
        capacity=st.integers(1, 3),
        ops=st.lists(st.tuples(_TIMES, _TIMES, st.booleans()), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_earliest_slot_matches_scan(self, capacity, ops):
        from repro.scheduling.schedulers import _ResourceState

        resource = Resource("r", capacity, frozenset({OpType.MOVE}))
        fast, scan = _ResourceState(resource), _ScanResourceState(resource)
        for ready, duration, at_slot in ops:
            start = fast.earliest_slot(ready, duration)
            assert start == scan.earliest_slot(ready, duration)
            # mostly commit where the scheduler would; sometimes
            # anywhere, overfilling the resource
            if not at_slot:
                start = ready
            fast.commit(start, start + duration)
            scan.commit(start, start + duration)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_schedules_match_scan_on_generated_graphs(self, data):
        from repro.scheduling import schedulers

        n_ops = data.draw(st.integers(1, 30))
        kinds = [OpType.TRAP, OpType.MOVE, OpType.SENSE, OpType.RELEASE]
        graph = AssayGraph("generated")
        for i in range(n_ops):
            kind = data.draw(st.sampled_from(kinds))
            duration = data.draw(_TIMES)
            after = data.draw(st.lists(st.integers(0, max(0, i - 1)),
                                       max_size=3, unique=True)) if i else []
            graph.add(Operation(f"op{i}", kind, duration),
                      after=[f"op{j}" for j in after])
        binder = Binder(default_chip_resources(
            zones=data.draw(st.integers(1, 3)),
            cages_per_zone=data.draw(st.integers(1, 3)),
            sense_channels=data.draw(st.integers(1, 3)),
            loaders=data.draw(st.integers(1, 2)),
        ))
        for scheduler in (ListScheduler, FcfsScheduler):
            fast = scheduler(binder).schedule(graph).entries
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(schedulers, "_ResourceState", _ScanResourceState)
                scan = scheduler(binder).schedule(graph).entries
            assert fast == scan

    def test_compile_scales_near_linearly_in_ops(self):
        """trap x n, one move_many, one sense_all, release x n: the
        original scan was cubic here (8.6 ms at 98 ops, 335 ms at 386)."""
        from repro.array import ElectrodeGrid
        from repro.core import compiler
        from repro.core.compiler import compile_protocol
        from repro.core.protocol import Protocol
        from repro.physics.constants import um

        grid = ElectrodeGrid(320, 320, um(20))

        def compile_time(n):
            protocol = Protocol("scale")
            sites = [(2 * (i // 100), 2 * (i % 100)) for i in range(n)]
            handles = [f"c{i}" for i in range(n)]
            for handle, site in zip(handles, sites):
                protocol.trap(handle, site)
            protocol.move_many({
                handle: (row + 100, col)
                for handle, (row, col) in zip(handles, sites)
            })
            protocol.sense_all(samples=10)
            for handle in handles:
                protocol.release(handle)
            # every timed compile schedules: none is a schedule-memo hit
            compiler._SCHEDULE_MEMO.clear()
            start = time.perf_counter()
            program = compile_protocol(protocol, grid)
            assert len(program.schedule.entries) == 2 * n + 2
            return time.perf_counter() - start

        compile_time(48)  # warm-up
        small = min(compile_time(48) for __ in range(3))
        large = compile_time(192)
        # 4x the ops: linear is ~4x the time, quadratic ~16x, cubic ~64x
        assert large < 10 * small + 0.05
