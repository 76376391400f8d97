"""A tenant view reset in place acts like a fresh spawn of its template.

The service keeps one tenant view on each chip and resets it before
every tenant instead of spawning a chip per tenant
(:meth:`Biochip.reset <repro.core.platform.Biochip.reset>`,
:meth:`DryRunBackend.reset <repro.core.backend.DryRunBackend.reset>`).
These tests run a random protocol on a view -- leased or not, behind a
fault plan or not, stranding whatever cages a failure leaves -- reset
it, and check that a second protocol then runs bit for bit like on a
fresh ``template.spawn()`` wrapped the same way: every outcome (cage
ids, reports, readings, errors), the event log, the chip clock and the
routing-total deltas.  A served fleet with reset views is compared
with one that spawns a view per tenant, and the set of ``Biochip``
instance attributes is pinned, so a new one forces a decision in
``reset()``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Biochip, ExecutionService, JobState, ServiceConfig
from repro.array import ElectrodeGrid
from repro.array.cages import CageError
from repro.bio import polystyrene_bead
from repro.core.backend import DryRunBackend, SimulatorBackend
from repro.core.errors import BiochipError
from repro.faults import FleetFaultPlan
from repro.physics.constants import um
from repro.service.core import ServedChip, chip_backend
from repro.service.tenancy import RegionLease
from repro.workloads import small_footprint_traffic

SIDE = 24
WINDOW = 12  # a lease's side; protocol sites lie in [0, WINDOW)
BEAD = polystyrene_bead()

#: One template per backend for the whole module: the simulator's
#: levitation cache then solves the bead once.
TEMPLATES = {
    "simulator": SimulatorBackend(Biochip.small_chip(rows=SIDE, cols=SIDE)),
    "dry_run": DryRunBackend(grid=ElectrodeGrid(SIDE, SIDE, um(20.0))),
}

#: Every instance attribute of a ``Biochip``.  Adding one means deciding
#: whether ``reset()`` restores it: configuration and template-shared
#: caches stay, per-run state is restored or rebound.
BIOCHIP_ATTRIBUTES = {
    # dataclass fields: configuration
    "grid", "node", "drive_voltage", "drive_frequency", "medium",
    "chamber", "min_separation", "cage_speed", "seed",
    # built once: parts reset() restores in place, and their snapshots
    "cages", "addresser", "rng", "readout",
    "_pristine_rng", "_pristine_flicker",
    # shared with every spawn of the template; kept
    "_levitation_cache", "_plan_memo",
    # rebound by reset()
    "elapsed", "_history", "faults", "_sensor_quarantine", "_region",
    "_origin", "_signal_cache",
    "_payload_signal_cache", "_routing_totals",
}

lattice_sites = st.tuples(st.sampled_from(range(0, WINDOW, 2)),
                          st.sampled_from(range(0, WINDOW, 2)))
# off the lattice and just outside the window: separation, bounds and
# lease errors
any_sites = st.tuples(st.integers(-1, WINDOW), st.integers(-1, WINDOW))
sites = st.one_of(lattice_sites, lattice_sites, any_sites)
cages = st.integers(0, 20)  # an index into the live cages
traps = st.tuples(st.just("trap"), lattice_sites, st.booleans())  # bead?

operations = st.one_of(
    traps,
    st.tuples(st.just("trap"), any_sites, st.booleans()),
    st.tuples(st.just("move"), cages, sites),
    st.tuples(st.just("move_many"),
              st.lists(st.tuples(cages, sites), min_size=1, max_size=4)),
    # every live cage one lattice step over: movers follow each other
    # into the sites they vacate
    st.tuples(st.just("shift"), st.sampled_from([(0, 2), (2, 0), (0, -2),
                                                 (2, 2), (-2, 0)])),
    # some cages move, the rest stay parked
    st.tuples(st.just("move_some"), st.integers(1, 3), sites),
    st.tuples(st.just("sense"), cages),
    st.tuples(st.just("sense_all"),),
    st.tuples(st.just("merge"), cages, cages),
    st.tuples(st.just("incubate"), st.floats(0.0, 5.0)),
    st.tuples(st.just("release"), cages),
)
# a few traps first, so most operations find cages
protocols = st.builds(list.__add__, st.lists(traps, max_size=4),
                      st.lists(operations, min_size=1, max_size=12))


def _sense(result):
    return (result.cage_id, result.reading, result.n_samples,
            result.detected, result.expected, result.duration,
            result.rescanned)


def run(backend, protocol):
    """Every operation's outcome, a chip error as its type and message.

    The cages' sites are tracked here, in protocol coordinates, from
    the operations that succeeded; ``shift`` and ``move_some`` aim
    their goals from them.
    """
    sites = {}  # live cage id -> site, in trap order

    def cage(index):
        live = list(sites)
        return live[index % len(live)] if live else 999

    def apply(kind, *args):
        if kind == "trap":
            site, bead = args
            cage_id = backend.trap(site, BEAD if bead else None)
            sites[cage_id] = site
            return cage_id
        if kind == "move":
            cage_id, goal = cage(args[0]), args[1]
            steps = backend.move(cage_id, goal)
            sites[cage_id] = goal
            return steps
        if kind in ("move_many", "shift", "move_some"):
            if kind == "move_many":
                goals = {cage(i): goal for i, goal in args[0]}
            elif kind == "shift":
                (dr, dc), = args
                goals = {cage_id: (site[0] + dr, site[1] + dc)
                         for cage_id, site in sites.items()}
            else:
                count, goal = args
                goals = {cage_id: (goal[0], goal[1] + 2 * k)
                         for k, cage_id in enumerate(list(sites)[:count])}
            report = backend.move_many(goals)
            sites.update(goals)
            return {k: v for k, v in report.items() if k != "plan_seconds"}
        if kind == "sense":
            return _sense(backend.sense(cage(args[0]), n_samples=20))
        if kind == "sense_all":
            return [(cage_id, _sense(r))
                    for cage_id, r in backend.sense_all(n_samples=20)]
        if kind == "merge":
            keep, absorb = cage(args[0]), cage(args[1])
            backend.merge(keep, absorb)
            sites.pop(absorb, None)
            return None
        if kind == "incubate":
            backend.incubate(args[0])
            return None
        cage_id = cage(args[0])
        backend.release(cage_id)
        sites.pop(cage_id, None)
        return None

    outcomes = []
    for op in protocol:
        try:
            outcomes.append(apply(*op))
        except (BiochipError, CageError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def measured(template, view, backend, protocol):
    """:func:`run` of ``protocol`` on ``backend``, a wrapped ``view``,
    with the view's event log, chip clock and routing-total deltas; the
    template's plan memo is cleared first, so both sides plan (and hit)
    alike."""
    memo = getattr(getattr(template, "chip", None), "_plan_memo", None)
    if memo is not None:
        memo.clear()
    before = getattr(backend, "routing_totals", None)
    outcomes = run(backend, protocol)
    deltas = None
    if before is not None:
        after = backend.routing_totals
        deltas = {k: after[k] - before[k] for k in after
                  if k != "plan_seconds"}
    events = [
        (t, kind, {k: v for k, v in detail.items() if k != "plan_seconds"})
        for t, kind, detail in getattr(view, "chip", view).history
    ]
    return outcomes, events, backend.elapsed, deltas


def wrapped(view, faults, lease_origin, seed):
    """``view`` as a lease group wraps it: clipped to a lease at
    ``lease_origin`` (None: not leased) and behind ``faults``."""
    lease = lease_origin and RegionLease(
        chip_id=0, origin=lease_origin, rows=WINDOW, cols=WINDOW, guard=2)
    # protocol sites lie in [0, WINDOW): the offset is the lease origin
    backend, __ = chip_backend(view, faults, 0, seed, lease,
                               lease_origin or (0, 0))
    return backend


fault_plans = st.one_of(
    st.none(),
    st.builds(
        FleetFaultPlan,
        dead_pixel_fraction=st.sampled_from([0.0, 0.03]),
        dead_sensor_fraction=st.sampled_from([0.0, 0.05]),
        noisy_sensor_fraction=st.sampled_from([0.0, 0.05]),
        transient_rate=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**16),
    ),
)
origins = st.one_of(
    st.none(),
    st.tuples(st.integers(0, SIDE - WINDOW), st.integers(0, SIDE - WINDOW)),
)


@given(
    kind=st.sampled_from(sorted(TEMPLATES)),
    first=protocols, first_faults=fault_plans, first_origin=origins,
    second=protocols, faults=fault_plans, origin=origins,
)
@settings(max_examples=80, deadline=None)
@example(  # reads on both sides: the noise state must be the spawn's
    kind="simulator",
    first=[("trap", (2, 2), True), ("sense", 0), ("sense_all",)],
    first_faults=None, first_origin=(3, 5),
    second=[("trap", (2, 2), True), ("sense", 0), ("sense_all",)],
    faults=None, origin=None,
)
def test_a_reset_view_runs_like_a_fresh_spawn(
        kind, first, first_faults, first_origin, second, faults, origin):
    template = TEMPLATES[kind]
    view = template.spawn()
    # the first protocol is never swept: a failure strands its cages
    run(wrapped(view, first_faults, first_origin, (0, 1)), first)
    view.reset()
    spawn = template.spawn()
    got = measured(template, view, wrapped(view, faults, origin, (0, 2)),
                   second)
    want = measured(template, spawn, wrapped(spawn, faults, origin, (0, 2)),
                    second)
    assert got == want


@pytest.mark.parametrize("kind", sorted(TEMPLATES))
def test_reset_returns_a_spawn_state(kind):
    """A used view's state after reset: no cage, clock and log empty,
    the whole array addressable, no fault model, and (on the
    simulator) the RNG where a fresh spawn's is."""
    template = TEMPLATES[kind]
    view = wrapped(template.spawn(), FleetFaultPlan(
        dead_pixel_fraction=0.05, seed=3), (4, 6), (0, 1))
    run(view, [("trap", (0, 0), True), ("trap", (4, 4), False),
               ("sense", 0), ("move", 1, (8, 8))])
    inner = view.inner.backend
    state = getattr(inner, "chip", inner)  # what holds the log
    log = state.history
    inner.reset()
    assert inner.elapsed == 0.0 and state.history == [] and log
    assert state.cage_count == 0
    if kind == "simulator":
        chip, spawn = inner.chip, template.spawn().chip
        assert chip.faults is None and chip.sensor_quarantine is None
        assert not chip.cages.state.has_dead
        assert not chip.cages.state.occupancy.any()
        assert chip._region is None
        assert chip.rng.bit_generator.state == spawn.rng.bit_generator.state
        assert (chip.readout._noise._flicker_state
                == spawn.readout._noise._flicker_state)
        assert chip._plan_memo is template.chip._plan_memo
        assert chip._levitation_cache is template.chip._levitation_cache
    # an address outside the old lease works again
    assert inner.trap((SIDE - 1, SIDE - 1)) == 0


def test_the_pristine_noise_state_follows_the_flicker_draw():
    """The state a chip is reset to is the one construction leaves:
    the seeded RNG after the readout chain drew its initial flicker
    offset from it (a snapshot taken before that draw would reset every
    chip, fresh ones included, one draw back)."""
    chip = Biochip.small_chip(seed=7)
    rng = np.random.default_rng(7)
    flicker = rng.normal(0.0, chip.readout._noise.flicker_sigma)
    chip.sense(chip.trap((2, 2)).cage_id, n_samples=20)
    chip.reset()
    assert chip.rng.bit_generator.state == rng.bit_generator.state
    assert chip.readout._noise._flicker_state == flicker


def test_reset_rebinds_what_a_finished_run_holds():
    chip = TEMPLATES["simulator"].spawn().chip
    chip.trap((2, 2))
    chip.incubate(1.0)
    log, totals = chip._history, chip._routing_totals
    chip.reset()
    assert len(log) == 2 and chip._history is not log
    assert chip._routing_totals is not totals


def test_every_biochip_attribute_is_decided_in_reset():
    assert set(vars(Biochip.small_chip())) == BIOCHIP_ATTRIBUTES


def served(spawn_per_tenant):
    """Per-job outcomes of seeded tenant traffic on one faulty chip
    served four tenants at a time, the served chip and every view it
    handed out; ``spawn_per_tenant`` gives every tenant a fresh spawn
    instead of the chip's reset tenant view."""
    grid = ElectrodeGrid(SIDE, SIDE, um(20.0))
    service = ExecutionService.simulator(
        ServiceConfig(n_chips=1, max_tenants=4, max_retries=2),
        chip=Biochip(grid=grid),
        faults=FleetFaultPlan(dead_pixel_fraction=0.02,
                              transient_rate=0.02, seed=5),
    )
    chip = service.fleet.worker(0)
    views = []
    reused = chip._view

    def view():
        views.append(chip.template.spawn() if spawn_per_tenant
                     else reused())
        return views[-1]

    chip._view = view
    service.submit_many(small_footprint_traffic(grid, 40, seed=7))
    outcomes = [
        (r.job_id, r.state, r.attempts, r.service_time,
         None if r.run is None else (
             [(e.op_id, e.kind, e.detail) for e in r.run.events],
             {k: [_sense(m) for m in v]
              for k, v in r.run.measurements.items()}))
        for r in service.drain()
    ]
    return outcomes, chip, views


def test_served_reset_views_match_a_spawn_per_tenant():
    got, chip, views = served(spawn_per_tenant=False)
    want, __, __ = served(spawn_per_tenant=True)
    assert got == want
    # one view, reused tenant after tenant
    assert len(views) > 4
    assert {id(v) for v in views} == {id(chip._tenant_view)}


def test_the_tenant_view_is_spawned_once_and_reset_on_reuse():
    template = TEMPLATES["dry_run"]
    chip = ServedChip(0, template)
    first = chip._view()
    first.trap((2, 2))
    assert chip._view() is first and first.cage_count == 0
    assert chip._tenant_view is first
    assert not hasattr(template, "_tenant_view")  # workers pickle only this


def test_a_served_chip_spawns_one_view_and_masks_only_on_a_miss(monkeypatch):
    """Lease group after lease group, a served chip spawns its tenant
    view once, and the router's lease mask is built once per plan that
    misses the memo, never per tenant."""
    grid = ElectrodeGrid(SIDE, SIDE, um(20.0))
    service = ExecutionService.simulator(
        ServiceConfig(n_chips=1, max_tenants=4), chip=Biochip(grid=grid))
    template = service.fleet.worker(0).template
    calls = {"spawn": 0, "mask": 0}
    spawn, blocked_mask = template.spawn, Biochip._blocked_mask

    def counted_spawn():
        calls["spawn"] += 1
        return spawn()

    def counted_mask(chip):
        calls["mask"] += 1
        return blocked_mask(chip)

    monkeypatch.setattr(template, "spawn", counted_spawn)
    monkeypatch.setattr(Biochip, "_blocked_mask", counted_mask)
    service.submit_many(small_footprint_traffic(
        grid, 200, hot_fraction=0.5, seed=11))
    results = service.drain()
    snap = service.snapshot()
    assert all(r.state is JobState.DONE for r in results)
    tenancy = snap["tenancy"]
    assert tenancy["groups"] >= 40
    assert 1 < tenancy["co_residency"]["max"] <= 4
    assert calls["spawn"] == 1
    assert calls["mask"] == snap["routing"]["memo_misses"] > 0
