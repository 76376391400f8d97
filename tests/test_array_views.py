"""The single-cage path of :class:`ArrayState`: flat views over the grids.

``add``, ``remove``, ``site_of``, ``id_at``, ``window_occupied``,
``ids_in_window`` and ``move_cages`` of a few cages read and write
through flat ``memoryview`` objects of the numpy grids.  The property
test drives random sequences of mutations -- capacity growth, batches on
both sides of :data:`SCALAR_MOVES`, dead masks, clears, pickle and
deepcopy round trips -- and after each step compares every query with a
reference read off the numpy arrays, and the arrays with a plain model
of which cage sits where.  The work guard counts numpy item reads and
writes on the grids: a trap, a release and a memo-hit ``move_many``
make none.
"""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Biochip
from repro.array import ElectrodeGrid
from repro.array.state import NO_CAGE, SCALAR_MOVES, ArrayState
from repro.physics.constants import um

ROWS, COLS = 9, 13


# -- references read off the numpy grids ------------------------------------

def reference_site_of(state, cage_id):
    if not 0 <= cage_id < state._site_r.size or state._site_r[cage_id] < 0:
        return None
    return (int(state._site_r[cage_id]), int(state._site_c[cage_id]))


def reference_window(state, site, radius):
    row, col = site
    r0, r1 = max(0, row - radius), min(ROWS - 1, row + radius)
    c0, c1 = max(0, col - radius), min(COLS - 1, col + radius)
    return state.cage_ids[r0 : r1 + 1, c0 : c1 + 1]


def reference_ids_in_window(state, site, radius, ignore_id=None):
    ids = reference_window(state, site, radius)
    found = ids[ids != NO_CAGE]
    if ignore_id is not None:
        found = found[found != ignore_id]
    return [int(i) for i in found]


def reference_window_occupied(state, site, radius, ignore_id=None):
    ids = reference_window(state, site, radius)
    if ignore_id is None:
        return bool((ids != NO_CAGE).any())
    return bool(((ids != NO_CAGE) & (ids != ignore_id)).any())


BORDER = sorted({(r, c) for r in (0, 1, ROWS - 2, ROWS - 1)
                 for c in range(COLS)}
                | {(r, c) for r in range(ROWS) for c in (0, 1, COLS - 2, COLS - 1)})


def check(state, model, queries):
    """Every query through the views equals its numpy reference, and
    the numpy grids hold exactly the cages of ``model`` (id -> site)."""
    occupancy = np.zeros((ROWS, COLS), dtype=bool)
    cage_ids = np.full((ROWS, COLS), NO_CAGE, dtype=np.int32)
    for cage_id, site in model.items():
        occupancy[site] = True
        cage_ids[site] = cage_id
    assert np.array_equal(state.occupancy, occupancy)
    assert np.array_equal(state.cage_ids, cage_ids)
    live = np.flatnonzero(state._site_r >= 0).tolist()
    assert live == sorted(model)
    assert np.array_equal(state._site_c >= 0, state._site_r >= 0)
    # a replaced dead mask has a view of its own
    assert state._dead_flat.tobytes() == state.dead.tobytes()
    for cage_id in [*model, -1, 0, 255, 256, state._site_r.size,
                    state._site_r.size + 7]:
        assert state.site_of(cage_id) == reference_site_of(state, cage_id)
        assert state.site_of(cage_id) == model.get(cage_id)
    for site, radius, ignore_id in queries:
        expected = cage_ids[site]
        assert state.id_at(site) == (None if expected == NO_CAGE else expected)
        assert (state.window_occupied(site, radius, ignore_id)
                == reference_window_occupied(state, site, radius, ignore_id))
        assert (state.ids_in_window(site, radius, ignore_id)
                == reference_ids_in_window(state, site, radius, ignore_id))
        assert (state.window_occupied(site, radius)
                == reference_window_occupied(state, site, radius))
        assert (state.ids_in_window(site, radius)
                == reference_ids_in_window(state, site, radius))


SITES = [(r, c) for r in range(ROWS) for c in range(COLS)]


@st.composite
def query(draw, model):
    site = draw(st.sampled_from(BORDER) | st.sampled_from(SITES))
    radius = draw(st.integers(0, 2))  # separations 1-3
    choices = [None, -1, 10**6, *model]
    return site, radius, draw(st.sampled_from(choices))


class TestViewsMatchTheGrids:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_sequences(self, data):
        state = ArrayState(ElectrodeGrid(ROWS, COLS, um(20)))
        model = {}
        next_id = data.draw(st.integers(0, 250))
        for __ in range(data.draw(st.integers(1, 25))):
            free = [site for site in SITES if site not in model.values()]
            op = data.draw(st.sampled_from(
                ["add", "add", "fill", "remove", "move", "move", "clear",
                 "dead", "pickle", "deepcopy"]))
            if op == "add" and free:
                # ids jump past the site tables' first 256 entries
                next_id += data.draw(st.integers(1, 200))
                site = data.draw(st.sampled_from(free))
                state.add(next_id, site)
                model[next_id] = site
            elif op == "fill":
                # enough cages for batches past the cutoff
                count = data.draw(st.integers(0, 3 * SCALAR_MOVES))
                for site in data.draw(st.permutations(free))[:count]:
                    next_id += 1
                    state.add(next_id, site)
                    model[next_id] = site
            elif op == "remove" and model:
                cage_id = data.draw(st.sampled_from(sorted(model)))
                state.remove(model.pop(cage_id))
            elif op == "remove":
                state.remove(data.draw(st.sampled_from(SITES)))
            elif op == "move" and model:
                count = data.draw(st.integers(1, min(len(model),
                                                     2 * SCALAR_MOVES)))
                movers = data.draw(st.lists(
                    st.sampled_from(sorted(model)), min_size=count,
                    max_size=count, unique=True))
                origins = [model[cage_id] for cage_id in movers]
                dests = data.draw(st.lists(
                    st.sampled_from(sorted(set(free) | set(origins))),
                    min_size=count, max_size=count, unique=True))
                columns = [[site[0] for site in origins],
                           [site[1] for site in origins],
                           [site[0] for site in dests],
                           [site[1] for site in dests], movers]
                if data.draw(st.booleans()):
                    columns = [np.array(column) for column in columns]
                state.move_cages(*columns)
                for cage_id, dest in zip(movers, dests):
                    model[cage_id] = dest
            elif op == "clear":
                state.clear()
                model = {}
            elif op == "dead":
                state.set_dead_mask(data.draw(st.lists(
                    st.booleans(), min_size=ROWS * COLS,
                    max_size=ROWS * COLS).map(
                        lambda bits: np.reshape(bits, (ROWS, COLS)))))
            elif op == "pickle":
                state = pickle.loads(pickle.dumps(state))
            elif op == "deepcopy":
                original = state
                state = copy.deepcopy(state)
                before = original.cage_ids.copy()
                if free:
                    # the copy writes its own grids, never the original's
                    next_id += 1
                    state.add(next_id, free[0])
                    model[next_id] = free[0]
                    assert np.array_equal(original.cage_ids, before)
            queries = data.draw(st.lists(query(model), min_size=1,
                                         max_size=6))
            check(state, model, queries)


# -- work guard ---------------------------------------------------------------

class CountingArray(np.ndarray):
    """An ndarray that records item reads and writes on the arrays in
    :attr:`watched` (by identity; arrays derived from them do not
    count)."""

    watched = ()
    calls = []

    def __getitem__(self, key):
        if any(self is array for array in CountingArray.watched):
            CountingArray.calls.append(("get", key))
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        if any(self is array for array in CountingArray.watched):
            CountingArray.calls.append(("set", key))
        super().__setitem__(key, value)


GRIDS = ("occupancy", "cage_ids", "_site_r", "_site_c", "dead")


def watch(state):
    """Swap the state's grids for counting views of the same memory."""
    watched = []
    for name in GRIDS:
        array = getattr(state, name).view(CountingArray)
        setattr(state, name, array)
        watched.append(array)
    state._views()
    CountingArray.watched = tuple(watched)
    CountingArray.calls = []
    return CountingArray.calls


class TestSingleCageWork:
    STARTS = [(5, 5), (5, 15), (15, 5), (15, 15)]
    GOALS = [(8, 8), (8, 18), (18, 8), (18, 18)]

    def test_trap_release_and_a_memo_hit_make_no_numpy_item_access(self):
        chip = Biochip.small_chip()
        calls = watch(chip.cages.state)
        try:
            for __ in range(2):
                ids = [chip.trap(site).cage_id for site in self.STARTS]
                assert calls == []
                hits = chip.routing_totals["memo_hits"]
                chip.move_many(dict(zip(ids, self.GOALS)))
                if chip.routing_totals["memo_hits"] == hits:
                    # the miss plans and runs the plan in numpy
                    del calls[:]
                assert [cage.site for cage in chip.cages.cages] == self.GOALS
                for cage_id in ids:
                    chip.release(cage_id)
                assert calls == []
            assert chip.routing_totals["memo_hits"] == 1
        finally:
            CountingArray.watched = ()

    def test_the_guard_sees_the_numpy_branch(self):
        """The counting arrays do see a numpy commit: a batch above the
        cutoff is counted."""
        state = ArrayState(ElectrodeGrid(ROWS, COLS, um(20)))
        count = SCALAR_MOVES + 1
        for cage_id, site in enumerate(SITES[:count]):
            state.add(cage_id, site)
        calls = watch(state)
        try:
            state.move_cages(
                *np.array(SITES[:count]).T,
                *np.array(SITES[count : 2 * count]).T,
                np.arange(count),
            )
            assert len(calls) == 6
        finally:
            CountingArray.watched = ()
