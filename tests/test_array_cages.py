"""Unit + property tests for the cage manager (invariant: separation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import CageError, CageManager, ElectrodeGrid, tile_cages
from repro.array.cages import DeadElectrodeError
from repro.physics.constants import um


def make_manager(rows=20, cols=20, sep=2):
    return CageManager(ElectrodeGrid(rows, cols, um(20)), min_separation=sep)


class TestCreateRelease:
    def test_create(self):
        manager = make_manager()
        cage = manager.create((5, 5), payload="cell")
        assert len(manager) == 1
        assert cage.payload == "cell"
        assert manager.cage_at((5, 5)) is cage

    def test_create_out_of_bounds(self):
        with pytest.raises(CageError):
            make_manager().create((25, 0))

    def test_create_too_close(self):
        manager = make_manager(sep=2)
        manager.create((5, 5))
        with pytest.raises(CageError):
            manager.create((5, 6))

    def test_create_at_separation_is_legal(self):
        manager = make_manager(sep=2)
        manager.create((5, 5))
        manager.create((5, 7))
        assert len(manager) == 2

    def test_release(self):
        manager = make_manager()
        cage = manager.create((5, 5))
        manager.release(cage.cage_id)
        assert len(manager) == 0
        assert manager.cage_at((5, 5)) is None

    def test_release_unknown(self):
        with pytest.raises(CageError):
            make_manager().release(99)

    def test_max_cage_count_paper_scale(self):
        """320x320 at separation 2 -> 25,600 cages: the paper's 'tens of
        thousands of DEP cages'."""
        manager = CageManager(ElectrodeGrid(320, 320, um(20)), min_separation=2)
        assert manager.max_cage_count() == 160 * 160
        assert manager.max_cage_count() >= 10_000


class TestStep:
    def test_single_move(self):
        manager = make_manager()
        cage = manager.create((5, 5))
        manager.step({cage.cage_id: (1, 0)})
        assert cage.site == (6, 5)
        assert manager.cage_at((6, 5)) is cage

    def test_diagonal_move(self):
        manager = make_manager()
        cage = manager.create((5, 5))
        manager.step({cage.cage_id: (1, 1)})
        assert cage.site == (6, 6)

    def test_rejects_multi_step(self):
        manager = make_manager()
        cage = manager.create((5, 5))
        with pytest.raises(CageError):
            manager.step({cage.cage_id: (2, 0)})

    def test_rejects_out_of_bounds(self):
        manager = make_manager()
        cage = manager.create((0, 0))
        with pytest.raises(CageError):
            manager.step({cage.cage_id: (-1, 0)})

    def test_move_to_exact_separation_is_legal(self):
        manager = make_manager(sep=2)
        a = manager.create((5, 5))
        manager.create((5, 8))
        manager.step({a.cage_id: (0, 1)})  # (5,6) vs (5,8): distance 2, legal
        assert a.site == (5, 6)

    def test_rejects_separation_violation(self):
        manager = make_manager(sep=2)
        a = manager.create((5, 5))
        manager.create((5, 7))
        with pytest.raises(CageError):
            manager.step({a.cage_id: (0, 1)})  # (5,6) vs (5,7): distance 1 < 2

    def test_atomicity_on_failure(self):
        """A failed batch leaves every cage where it was."""
        manager = make_manager(sep=2)
        a = manager.create((5, 5))
        b = manager.create((5, 7))
        with pytest.raises(CageError):
            manager.step({a.cage_id: (0, 1), b.cage_id: (1, 0)})
        assert a.site == (5, 5)
        assert b.site == (5, 7)

    def test_parallel_shift_preserves_separation(self):
        """The whole population shifting together is always legal -- the
        paper's massively parallel pattern shift."""
        manager = make_manager(rows=21, cols=21)
        cages = tile_cages(manager, spacing=4)
        moves = {c.cage_id: (1, 1) for c in cages if c.site[0] < 20 and c.site[1] < 20}
        manager.step(moves)
        assert len(manager) == len(cages)

    def test_swap_collision_detected(self):
        manager = make_manager(sep=1)
        a = manager.create((5, 5))
        b = manager.create((5, 6))
        with pytest.raises(CageError):
            manager.step({a.cage_id: (0, 1), b.cage_id: (0, -1)})


class TestStepArrays:
    """The array-native step entry point planners feed directly."""

    def test_matches_dict_step(self):
        import numpy as np

        a = make_manager()
        b = make_manager()
        for manager in (a, b):
            manager.create((5, 5))
            manager.create((5, 8))
        a.step({0: (0, 1), 1: (1, 0)})
        b.step_arrays(np.array([0, 1]), np.array([[0, 1], [1, 0]]))
        assert sorted(c.site for c in a.cages) == sorted(c.site for c in b.cages)

    def test_empty_batch_is_noop(self):
        import numpy as np

        manager = make_manager()
        manager.create((5, 5))
        manager.step_arrays(np.array([], dtype=np.int64),
                            np.empty((0, 2), dtype=np.int64))
        assert manager.cage_at((5, 5)) is not None

    def test_validation_still_applies(self):
        import numpy as np

        manager = make_manager(sep=2)
        a = manager.create((5, 5))
        b = manager.create((5, 8))
        with pytest.raises(CageError):
            manager.step_arrays(
                np.array([a.cage_id, b.cage_id]),
                np.array([[0, 1], [0, -1]]),
            )
        assert a.site == (5, 5) and b.site == (5, 8)

    def test_large_batch_takes_vector_path(self):
        """> 8 movers exercises the vectorized validator."""
        import numpy as np

        manager = make_manager(rows=41, cols=41)
        cages = tile_cages(manager, spacing=4)
        movers = [c for c in cages if c.site[0] < 40 and c.site[1] < 40]
        assert len(movers) > 8
        ids = np.array([c.cage_id for c in movers])
        deltas = np.tile([1, 1], (len(movers), 1))
        manager.step_arrays(ids, deltas)
        assert all(c.site[0] > 0 and c.site[1] > 0 for c in movers)


class TestMerge:
    def test_merge_payloads(self):
        manager = make_manager()
        a = manager.create((5, 5), payload="cell")
        b = manager.create((5, 7), payload="bead")
        merged = manager.merge(a.cage_id, b.cage_id)
        assert merged.payload == ["cell", "bead"]
        assert len(manager) == 1

    def test_merge_empty_cages(self):
        manager = make_manager()
        a = manager.create((5, 5))
        b = manager.create((5, 7))
        merged = manager.merge(a.cage_id, b.cage_id)
        assert merged.payload is None

    def test_merge_too_far(self):
        manager = make_manager()
        a = manager.create((0, 0))
        b = manager.create((10, 10))
        with pytest.raises(CageError):
            manager.merge(a.cage_id, b.cage_id)


class TestTiling:
    def test_tile_fills_lattice(self):
        manager = make_manager(rows=10, cols=10, sep=2)
        cages = tile_cages(manager)
        assert len(cages) == 25

    def test_tile_with_payloads(self):
        manager = make_manager(rows=10, cols=10, sep=2)
        cages = tile_cages(manager, payloads=["a", "b"])
        loaded = [c for c in cages if c.payload is not None]
        assert [c.payload for c in loaded] == ["a", "b"]

    def test_tile_rejects_tight_spacing(self):
        manager = make_manager(sep=3)
        with pytest.raises(CageError):
            tile_cages(manager, spacing=2)

    def test_frame_matches_sites(self):
        manager = make_manager(rows=10, cols=10)
        tile_cages(manager, spacing=3)
        frame = manager.frame()
        assert frame.counter_phase_sites() == manager.sites()


class TestSeparationInvariant:
    @given(
        seed=st.integers(0, 1000),
        n_moves=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_walk_never_violates_separation(self, seed, n_moves):
        """Property: whatever sequence of (possibly rejected) random
        steps we try, surviving state always satisfies the rule."""
        import numpy as np

        rng = np.random.default_rng(seed)
        manager = make_manager(rows=12, cols=12, sep=2)
        cages = tile_cages(manager, spacing=4)
        deltas = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        for _ in range(n_moves):
            moves = {
                c.cage_id: deltas[rng.integers(len(deltas))]
                for c in cages
                if rng.random() < 0.5
            }
            try:
                manager.step(moves)
            except CageError:
                pass
            sites = manager.sites()
            for i, a in enumerate(sites):
                for b in sites[i + 1 :]:
                    assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 2


# -- whole-plan execution ----------------------------------------------------


def _per_frame(manager, ids, deltas):
    """The reference for :meth:`CageManager.run_plan`: every frame through
    ``step_arrays`` (frames without movers skipped), dirty rows by
    diffing the frames before and after."""
    import numpy as np

    moving = (np.asarray(deltas) != 0).any(axis=2)
    dirty = []
    for t in range(moving.shape[1]):
        mask = moving[:, t]
        if not mask.any():
            dirty.append(0)
            continue
        before = manager.frame()
        manager.step_arrays(ids[mask], deltas[mask, t])
        dirty.append(len(manager.frame().dirty_rows(before)))
    return dirty


def _outcome(run, manager, ids, deltas):
    """(result or (error type, message), state arrays) of one run."""
    try:
        result = run(manager, ids, deltas)
    except CageError as exc:
        result = (type(exc), str(exc))
    state = manager.state
    arrays = (state.occupancy, state.cage_ids, state._site_r, state._site_c)
    return result, [a.copy() for a in arrays]


def _assert_same(build, ids, deltas):
    """run_plan and the per-frame reference agree on error, state and
    dirty rows, from two identically built managers."""
    import numpy as np

    got, got_state = _outcome(
        lambda m, i, d: m.run_plan(i, d), build(), ids, deltas)
    want, want_state = _outcome(_per_frame, build(), ids, deltas)
    assert got == want
    for a, b in zip(got_state, want_state):
        np.testing.assert_array_equal(a, b)
    return want


def _random_case(seed, sep, dead, fault):
    """A random manager recipe and a plan over it: valid frames built
    by dropping movers until ``step_arrays`` accepts the frame, then
    (with ``fault``) one frame broken in a chosen way."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(8, 21)), int(rng.integers(8, 21))
    dead_mask = rng.random((rows, cols)) < 0.04 if dead else None
    n_cages = int(rng.integers(6, 40))
    attempts = [
        (int(r), int(c))
        for r, c in zip(rng.integers(0, rows, 300), rng.integers(0, cols, 300))
    ]

    def build():
        manager = make_manager(rows, cols, sep)
        if dead_mask is not None:
            manager.set_dead_mask(dead_mask)
        for site in attempts:
            if len(manager) == n_cages:
                break
            try:
                manager.create(site)
            except CageError:
                pass
        return manager

    sim = build()
    all_ids = np.array([c.cage_id for c in sim.cages], dtype=np.int64)
    # a few cages stay outside the plan: they must still block movers
    ids = all_ids[rng.random(all_ids.size) < 0.85]
    frames = int(rng.integers(2, 12))
    deltas = np.zeros((ids.size, frames, 2), dtype=np.int64)
    for t in range(frames):
        step = rng.integers(-1, 2, size=(ids.size, 2))
        step[rng.random(ids.size) < 0.3] = 0
        # keep each move on the array and off dead electrodes, then drop
        # movers until the frame's conflicts are gone
        row, col = (a + s for a, s in zip(sim.state.sites_of(ids), step.T))
        off = (row < 0) | (row >= rows) | (col < 0) | (col >= cols)
        off |= sim.state.dead[row.clip(0, rows - 1), col.clip(0, cols - 1)]
        step[off] = 0
        while True:
            mask = step.any(axis=1)
            try:
                sim.step_arrays(ids[mask], step[mask])
                break
            except CageError:
                step[rng.choice(np.flatnonzero(mask))] = 0
        deltas[:, t] = step
    if fault is not None and ids.size:
        t = int(rng.integers(frames))
        cage = rng.integers(ids.size, size=int(rng.integers(1, 4)))
        if fault == "oversize":
            deltas[cage[0], t] = (0, 2)
        elif fault == "unknown":
            ids = np.append(ids, 10_000)
            deltas = np.concatenate([deltas, np.zeros((1, frames, 2), np.int64)])
            deltas[-1, t] = (1, 0)
        else:  # a few cages step at random: collisions, swaps, bounds...
            deltas[cage, t] = rng.integers(-1, 2, size=(cage.size, 2))
    return build, ids, deltas


class TestRunPlan:
    """:meth:`CageManager.run_plan` is per-frame ``step_arrays`` plus
    ``ArrayFrame.dirty_rows``: same errors, same state, same rows."""

    @given(
        seed=st.integers(0, 10**6),
        sep=st.integers(1, 3),
        dead=st.booleans(),
        fault=st.sampled_from([None, None, "oversize", "unknown", "scramble"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_frame_step_arrays(self, seed, sep, dead, fault):
        build, ids, deltas = _random_case(seed, sep, dead, fault)
        _assert_same(build, ids, deltas)

    def lattice(self, sep=2, rows=16, cols=24, dead=None, spacing=None):
        """Factory of managers holding a 4x6 lattice of cages
        ``spacing`` apart (default ``sep + 1``), ids in row-major order."""
        spacing = spacing or sep + 1

        def build():
            manager = make_manager(rows, cols, sep)
            if dead is not None:
                manager.set_dead_mask(dead)
            for r in range(4):
                for c in range(6):
                    manager.create((2 + r * spacing, 2 + c * spacing))
            return manager

        return build

    def shift_plan(self, n_cages, frames, step=(0, 1)):
        """Every cage steps by ``step`` in every frame."""
        import numpy as np

        deltas = np.zeros((n_cages, frames, 2), dtype=np.int64)
        deltas[:, :] = step
        return np.arange(n_cages), deltas

    def test_valid_plan_commits_every_frame(self):
        build = self.lattice()
        ids, deltas = self.shift_plan(24, 3)
        assert _assert_same(build, ids, deltas) == [4, 4, 4]
        manager = build()
        manager.run_plan(ids, deltas)
        assert manager.cage(0).site == (2, 5)

    @pytest.mark.parametrize("fault, message", [
        ("oversize", "step larger than one electrode"),
        ("unknown", "no cage with id 999"),
        ("bounds", "out of bounds"),
        ("dead", "dead electrode"),
        ("collide", "collide"),
        ("separation", "separation violated"),
    ])
    def test_failing_frame_raises_step_arrays_error(self, fault, message):
        """Every check fails frame 3 on the vectorised path, with the
        error step_arrays raises and frames 0..2 committed."""
        import numpy as np

        dead = None
        if fault == "dead":
            dead = np.zeros((16, 24), dtype=bool)
            dead[2, 21] = True  # cage 5 reaches it in frame 3
        build = self.lattice(
            dead=dead, cols=21 if fault == "bounds" else 24,
            spacing=2 if fault == "collide" else None,
        )
        ids, deltas = self.shift_plan(24, 5)
        if fault == "oversize":
            deltas[7, 3] = (2, 0)
        elif fault == "unknown":
            ids = np.append(ids, 999)
            deltas = np.concatenate([deltas, np.zeros_like(deltas[:1])])
            deltas[24, 3] = (1, 0)
        elif fault == "collide":
            deltas[1, 3] = (0, -1)  # cages 0 and 1 meet between them
        elif fault == "separation":
            deltas[1, 3] = (0, -1)
        assert np.count_nonzero(deltas.any(axis=2)) > 24  # vectorised path
        result = _assert_same(build, ids, deltas)
        assert result[0] in (CageError, DeadElectrodeError)
        assert message in result[1]
        manager = build()
        with pytest.raises(CageError):
            manager.run_plan(ids, deltas)
        assert manager.cage(0).site[1] == 5

    def test_swap_detected_at_separation_one(self):
        build = self.lattice(sep=1, spacing=1)
        ids, deltas = self.shift_plan(24, 4, step=(1, 0))
        deltas[:2, 2] = [(0, 1), (0, -1)]  # cages 0 and 1 trade sites
        result = _assert_same(build, ids, deltas)
        assert result[0] is CageError and "swap" in result[1]

    def test_bystanders_outside_the_plan_block_movers(self):
        import numpy as np

        build = self.lattice()
        ids, deltas = self.shift_plan(18, 5, step=(0, 0))
        deltas[12:18] = (1, 0)  # row 2 walks into row 3, outside the plan
        assert np.count_nonzero(deltas.any(axis=2)) > 24  # vectorised path
        result = _assert_same(build, ids, deltas)
        assert "separation violated" in result[1]

    def test_small_plan_runs_frame_by_frame(self):
        import numpy as np

        build = self.lattice()
        __, deltas = self.shift_plan(2, 4)
        ids = np.array([5, 11])  # the last column of rows 0 and 1
        assert _assert_same(build, ids, deltas) == [2, 2, 2, 2]

    def test_waiting_frames_cost_nothing(self):
        build = self.lattice()
        ids, deltas = self.shift_plan(24, 4)
        deltas[:, 1] = 0
        assert _assert_same(build, ids, deltas) == [4, 0, 4, 4]

    def test_long_plan_spans_several_chunks(self):
        """Frames beyond one chunk's canvas budget commit chunk by chunk."""
        from repro.array.cages import CHUNK_CANVAS_BYTES

        build = self.lattice(rows=160, cols=160)
        frames = 60
        assert frames * 162 * 162 > CHUNK_CANVAS_BYTES
        ids, deltas = self.shift_plan(24, frames)
        assert _assert_same(build, ids, deltas) == [4] * frames
        deltas[:, 30:] = (1, 0)
        deltas[4, 55:57] = (1, 1)  # cage 4 closes in on cage 5
        result = _assert_same(build, ids, deltas)
        assert "separation violated" in result[1]

    def test_step_and_plan_allocations_ignore_the_id_table(self):
        """A frame step's scratch is O(movers): nothing is sized by the
        id-indexed site table, which grows with every cage ever made."""
        import tracemalloc

        import numpy as np

        manager = make_manager(rows=40, cols=40, sep=1)
        manager._next_id = 10**6
        cages = [manager.create((5, c)) for c in range(12)]
        ids = np.array([c.cage_id for c in cages])
        shift = np.tile([0, 1], (len(cages), 1))
        manager.step_arrays(ids[::-1], shift)  # a chain, scratch warmed up
        tracemalloc.start()
        try:
            manager.step_arrays(ids[::-1], shift)
            manager.run_plan(ids, np.tile(shift[:, None], (1, 3, 1)))
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cages[0].site == (5, 5)
        assert peak < 256 * 1024


#: A bystander's site on a 12x15 array, as (row, col) with -1 the last
#: row or column and None the middle one: each corner and each edge.
BYSTANDER_SITES = {
    "top-left": (0, 0), "top": (0, None), "top-right": (0, -1),
    "right": (None, -1), "bottom-right": (-1, -1), "bottom": (-1, None),
    "bottom-left": (-1, 0), "left": (None, 0),
}


def _plan(*paths):
    """``(ids, deltas)`` for cages 0.. walking ``paths``, each a list of
    per-frame (drow, dcol) steps, shorter lists padded with waits."""
    import numpy as np

    frames = max(len(path) for path in paths)
    deltas = np.zeros((len(paths), frames, 2), dtype=np.int64)
    for i, path in enumerate(paths):
        if path:
            deltas[i, : len(path)] = path
    return np.arange(len(paths)), deltas


class TestPlanIndexing:
    """The whole-plan pass reads cages outside the plan at the movers'
    windows and takes dirty rows from the movers' cells only; these
    cases pin that indexing to the per-frame reference at each
    separation, near the array's edges and corners too."""

    ROWS, COLS = 12, 15

    def manager_with(self, sep, *sites, shape=(ROWS, COLS)):
        """Factory of managers holding cages at ``sites``, ids in order."""
        def build():
            manager = make_manager(*shape, sep)
            for site in sites:
                manager.create(site)
            return manager

        return build

    @staticmethod
    def vectorised(deltas):
        """Whether a plan runs the whole-plan pass, not frame by frame."""
        import numpy as np

        from repro.array.cages import SMALL_PLAN_MOVES

        return np.count_nonzero(deltas.any(axis=2)) > SMALL_PLAN_MOVES

    @pytest.mark.parametrize("sep", [1, 2, 3])
    @pytest.mark.parametrize("closes_in", [False, True])
    @pytest.mark.parametrize("where", list(BYSTANDER_SITES))
    def test_a_mover_next_to_a_bystander(self, where, closes_in, sep):
        """A mover paces between ``sep`` and ``sep + 1`` from a cage
        outside the plan on a corner or an edge, so its window reads the
        bystander and the padding beyond the edge; closing in to
        ``sep - 1`` raises the reference's error."""
        row, col = BYSTANDER_SITES[where]
        middle = (self.ROWS // 2, self.COLS // 2)
        size = (self.ROWS, self.COLS)
        bystander = tuple(
            middle[axis] if at is None else at % size[axis]
            for axis, at in enumerate((row, col)))
        # the unit step from the bystander into the array
        inward = tuple(0 if at is None else (1 if at == 0 else -1)
                       for at in (row, col))
        start = tuple(b + (sep + 1) * u for b, u in zip(bystander, inward))
        toward = tuple(-u for u in inward)
        pace = [toward, inward] * 13 + ([toward, toward] if closes_in else [])
        # a plan cage that never moves, across the array
        still = (self.ROWS - 1 - bystander[0], self.COLS - 1 - bystander[1])
        build = self.manager_with(sep, bystander, start, still)
        ids, deltas = _plan(pace, [])
        ids += 1  # cage 0, the bystander, is outside the plan
        assert self.vectorised(deltas)
        result = _assert_same(build, ids, deltas)
        if closes_in:
            assert result[0] is CageError
            assert ("collide" if sep == 1 else "separation violated") in result[1]
        else:
            assert len(result) == len(pace)

    @pytest.mark.parametrize("sep", [1, 2, 3])
    @pytest.mark.parametrize("step", [(1, 0), (0, 1), (1, 1)])
    def test_a_convoy_and_a_chain(self, sep, step):
        """Cages ``sep`` apart in a line along ``step`` all take ``step``
        every frame: at separation 1 each follower takes the site the
        cage ahead vacates in the same frame, so only the head's new row
        and the tail's old row change."""
        side, frames = 24, 10
        line = [(2 + i * sep * step[0], 2 + i * sep * step[1])
                for i in range(4)]
        bystander = (side - 1, 0) if step[1] else (0, side - 1)
        build = self.manager_with(sep, *line, bystander, shape=(side, side))
        ids, deltas = _plan(*([[step] * frames] * 4))
        assert self.vectorised(deltas)
        rows = 1 if step == (0, 1) else 2 if sep == 1 else 8
        assert _assert_same(build, ids, deltas) == [rows] * frames

    @pytest.mark.parametrize("sep", [1, 2, 3])
    @pytest.mark.parametrize("step", [(0, 1), (1, 0), (1, -1)])
    def test_a_mover_back_at_its_start_inside_one_chunk(self, sep, step):
        """A cage walks out and back while another walks on: the first
        ends where it began, its frames still dirty."""
        back = (-step[0], -step[1])
        build = self.manager_with(sep, (4, 6), (self.ROWS - 1, 1))
        ids, deltas = _plan([step] * 3 + [back] * 3 + [step, back] * 4,
                            [(0, 1)] * 12)
        assert self.vectorised(deltas)
        counts = _assert_same(build, ids, deltas)
        assert all(counts)
        manager = build()
        manager.run_plan(ids, deltas)
        assert manager.cage(0).site == (4, 6)

    @pytest.mark.parametrize("sep", [1, 2, 3])
    def test_a_collision_against_a_bystander(self, sep):
        """A convoy walks into a cage outside the plan: the frame that
        reaches it raises the per-frame reference's error, the frames
        before it committed."""
        build = self.manager_with(
            sep, *[(2 + i * sep, 1) for i in range(4)], (2 + sep, 9))
        ids, deltas = _plan(*([[(0, 1)] * 9] * 4))
        assert self.vectorised(deltas)
        result = _assert_same(build, ids, deltas)
        assert result[0] is CageError
        assert ("collide" if sep == 1 else "separation violated") in result[1]


# -- one error source ----------------------------------------------------------


def _scalar(manager, ids, deltas):
    return manager._step_scalar(dict(zip(ids, deltas)))


#: The public one-frame entry points, over a frame given as parallel
#: lists of cage ids and (drow, dcol) steps.
STEP_ENTRY_POINTS = {
    "step": lambda m, ids, deltas: m.step(dict(zip(ids, deltas))),
    "step_arrays": lambda m, ids, deltas: m.step_arrays(ids, deltas),
}

FRAME_FAULTS = (
    "oversize", "unknown", "bounds", "dead", "collide", "swap", "separation",
)


def _pairs(manager, lo, hi):
    """(a, b) cage pairs whose Chebyshev distance is in [lo, hi]."""
    cages = manager.cages
    return [
        (a, b)
        for i, a in enumerate(cages)
        for b in cages[i + 1 :]
        if lo <= max(abs(a.site[0] - b.site[0]), abs(a.site[1] - b.site[1])) <= hi
    ]


def _frame_case(seed, sep, dead, movers, faults):
    """A random manager recipe and one frame over it.

    Up to ``movers`` cages step at random; steps are zeroed (the cage
    stays in the frame) until the frame is legal, then each of
    ``faults`` is injected where the geometry allows it.  Cage 0 always
    sits on the (0, 0) corner and, with a dead mask (always there for a
    ``"dead"`` fault), (1, 1) is dead.
    Returns ``(build, ids, deltas)``, the frame as lists in random mover
    order.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(10, 25)), int(rng.integers(10, 25))
    dead_mask = None
    if dead or "dead" in faults:
        dead_mask = rng.random((rows, cols)) < 0.04
        dead_mask[0, 0], dead_mask[1, 1] = False, True
    n_cages = movers + int(rng.integers(0, 20))
    attempts = [(0, 0)] + [
        (int(r), int(c))
        for r, c in zip(rng.integers(0, rows, 600), rng.integers(0, cols, 600))
    ]

    def build():
        manager = make_manager(rows, cols, sep)
        if dead_mask is not None:
            manager.set_dead_mask(dead_mask)
        for site in attempts:
            if len(manager) == n_cages:
                break
            try:
                manager.create(site)
            except CageError:
                pass
        return manager

    probe = build()
    ids = rng.permutation([c.cage_id for c in probe.cages])[:movers]
    step = rng.integers(-1, 2, size=(ids.size, 2))
    while True:
        try:
            _scalar(probe, ids.tolist(), [tuple(s) for s in step.tolist()])
            break
        except CageError:
            step[rng.choice(np.flatnonzero(step.any(axis=1)))] = 0
    frame = dict(zip(ids.tolist(), [tuple(s) for s in step.tolist()]))
    manager = build()
    for fault in faults:
        if fault == "oversize":
            frame[int(rng.choice(ids))] = (2, int(rng.integers(-1, 2)))
        elif fault == "unknown":
            frame[10_000] = (1, 0)
        elif fault == "bounds":
            frame[0] = (-1, int(rng.integers(-1, 2)))
        elif fault == "dead":
            frame[0] = (1, 1)
        else:
            # separation: a pair exactly ``sep`` apart, and at least 2 so
            # that closing in does not collide
            lo, hi = {
                "collide": (1, 2), "swap": (1, 1), "separation": (max(sep, 2), sep),
            }[fault]
            pairs = _pairs(manager, lo, hi)
            if not pairs:
                continue
            a, b = pairs[rng.integers(len(pairs))]
            if fault == "collide":  # both step onto one site
                dest = [p + (q - p) // 2 for p, q in zip(a.site, b.site)]
                frame[a.cage_id] = (dest[0] - a.site[0], dest[1] - a.site[1])
                frame[b.cage_id] = (dest[0] - b.site[0], dest[1] - b.site[1])
            elif fault == "swap":
                frame[a.cage_id] = (b.site[0] - a.site[0], b.site[1] - a.site[1])
                frame[b.cage_id] = (a.site[0] - b.site[0], a.site[1] - b.site[1])
            else:  # a closes in on b, which holds still
                frame[a.cage_id] = tuple(
                    int(np.sign(q - p)) for p, q in zip(a.site, b.site)
                )
                frame[b.cage_id] = (0, 0)
    return build, list(frame), list(frame.values())


class TestOneErrorSource:
    """Every frame-step error comes from the scalar step: ``step`` and
    ``step_arrays`` raise its type and message at every frame size and
    commit the same state."""

    @given(
        seed=st.integers(0, 10**6),
        sep=st.integers(1, 3),
        dead=st.booleans(),
        movers=st.integers(1, 40),
        faults=st.lists(st.sampled_from(FRAME_FAULTS), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_entry_points_match_scalar_step(self, seed, sep, dead, movers, faults):
        import numpy as np

        build, ids, deltas = _frame_case(seed, sep, dead, movers, faults)
        want, want_state = _outcome(_scalar, build(), ids, deltas)
        if want is not None:  # a failed step changes nothing
            __, untouched = _outcome(lambda *args: None, build(), ids, deltas)
            for a, b in zip(want_state, untouched):
                np.testing.assert_array_equal(a, b)
        for name, run in STEP_ENTRY_POINTS.items():
            got, got_state = _outcome(run, build(), ids, deltas)
            assert got == want, name
            for a, b in zip(got_state, want_state):
                np.testing.assert_array_equal(a, b)

    def test_two_collisions_name_the_first_in_mover_order(self):
        """Nine movers, two collisions: every entry point names the pair
        the scalar step meets first in mover order, not the pair at the
        lowest site."""
        def build():
            manager = make_manager(rows=8, cols=30, sep=1)
            for col in range(30):
                manager.create((5, col))
            return manager

        frame = {25: (1, 0), 26: (1, -1), 3: (1, 0), 4: (1, -1)}
        frame.update({cage_id: (1, 0) for cage_id in range(10, 15)})
        ids, deltas = list(frame), list(frame.values())
        for run in (_scalar, *STEP_ENTRY_POINTS.values()):
            result, __ = _outcome(run, build(), ids, deltas)
            assert result == (CageError, "cages 25 and 26 collide at (6, 25)")
