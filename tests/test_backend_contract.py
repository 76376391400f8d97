"""Every backend wrapper forwards the whole backend contract.

:class:`~repro.core.backend.BackendWrapper` defines each contract
member once; the fault injector, a tenant's leased view, the wall
tier's sense tap and the simulator's adapter over its chip subclass it
and override only what they change.  These tests drive each wrapper
over both the simulator and the dry-run backend (and the simulator
adapter over its :class:`~repro.core.platform.Biochip`) and check
that every state member reads the wrapped backend's, and that every
operation reaches the wrapped backend once, with its arguments (sites
shifted by a leased view's offset), and returns what that returned --
except ``release``, ``incubate`` and ``set_region``, which return
None.  The wrapped backends run with a routing separation of 3, so a
wrapper that reads the default 2 instead of the chip's shows.
"""

import inspect
from types import SimpleNamespace

import pytest

from repro import Biochip, ExecutionService, ServiceConfig, Session
from repro.array import ElectrodeGrid
from repro.core.backend import (
    Backend,
    BackendWrapper,
    DryRunBackend,
    SimulatorBackend,
)
from repro.core.errors import ChipFault, ExecutionError
from repro.faults import FaultInjector, FaultModel
from repro.physics.constants import um
from repro.service import LeasedBackend, SenseTap, routing_separation
from repro.service.core import LeaseWindows, can_lease
from repro.workloads import small_footprint_traffic

GRID = ElectrodeGrid(24, 24, um(20.0))
SEPARATION = 3
OFFSET = (3, 5)

STATE = ("grid", "elapsed", "cage_count", "history", "routing_totals",
         "addresser", "min_separation")

#: What the wrapped backend returns from each spied operation.
SENTINEL = object()
RETURNS = {
    "trap": 7,
    "move": 3,
    "move_many": {"frames": 3, "moves": 5, "program_time": 1e-3},
    "merge": SENTINEL,
    "sense": SENTINEL,
    "sense_all": [(7, SENTINEL)],
    "incubate": SENTINEL,
    "release": SENTINEL,
    "set_region": SENTINEL,
}

#: ``(args, kwargs)`` each operation is called with on the wrapper.
CALLS = {
    "trap": (((4, 6), "bead"), {}),
    "move": ((7, (4, 9)), {}),
    "move_many": (({7: (4, 9), 8: (9, 9)},), {}),
    "merge": ((7, 8), {}),
    "sense": ((7,), {"n_samples": 64}),
    "sense_all": ((), {"n_samples": 64}),
    "incubate": ((2.5,), {}),
    "release": ((7,), {}),
    "set_region": (((2, 3), 10, 12), {}),
}

RETURNS_NONE = ("incubate", "release", "set_region")


def clean_model(**options):
    return FaultModel(shape=(GRID.rows, GRID.cols), **options)


def simulator():
    return SimulatorBackend(Biochip(grid=GRID, min_separation=SEPARATION))


def dry_run():
    return DryRunBackend(grid=GRID, min_separation=SEPARATION)


INNERS = {"simulator": simulator, "dry_run": dry_run}

WRAPPERS = {
    "injector": lambda inner: FaultInjector(inner, clean_model(), seed=3),
    "leased": lambda inner: LeasedBackend(inner, offset=OFFSET),
    "tap": lambda inner: SenseTap(inner, [].append),
}


def adapter():
    """The simulator adapter and the chip it wraps."""
    backend = simulator()
    return backend, backend.chip


def wrapped(wrap, inner):
    """A fresh ``inner`` backend wrapped by ``wrap``, and the backend."""
    backend = INNERS[inner]()
    return WRAPPERS[wrap](backend), backend


CASES = {
    f"{wrap}-{inner}": (lambda wrap=wrap, inner=inner: wrapped(wrap, inner))
    for wrap in WRAPPERS for inner in INNERS
}
CASES["simulator-chip"] = adapter


@pytest.fixture(params=list(CASES))
def pair(request):
    """``(wrapper, wrapped backend)`` for one case."""
    return CASES[request.param]()


def populate(backend):
    """Give ``backend`` a cage, a move and some clock to forward."""
    cage = backend.trap((2, 2))
    cage_id = getattr(cage, "cage_id", cage)  # a Biochip returns a Cage
    backend.move(cage_id, (2, 9))
    backend.incubate(0.5)


def spy(backend, calls, returns=RETURNS):
    """Replace ``backend``'s operations by recorders that log each call's
    bound arguments and return ``returns[name]``."""
    for name, returns in returns.items():
        signature = inspect.signature(getattr(type(backend), name))

        def record(*args, name=name, returns=returns, signature=signature,
                   **kwargs):
            bound = signature.bind(backend, *args, **kwargs)
            bound.apply_defaults()
            calls.append((name, tuple(bound.arguments.values())[1:]))
            return returns

        setattr(backend, name, record)


def shifted(site):
    return (site[0] + OFFSET[0], site[1] + OFFSET[1])


def reaching_args(wrapper, name):
    """The arguments ``name`` must reach the wrapped backend with."""
    args, kwargs = CALLS[name]
    if isinstance(wrapper, LeasedBackend):
        if name == "trap":
            args = (shifted(args[0]), args[1])
        elif name == "move":
            args = (args[0], shifted(args[1]))
        elif name == "move_many":
            args = ({cage_id: shifted(goal)
                     for cage_id, goal in args[0].items()},)
    bound = inspect.signature(getattr(Backend, name)).bind(
        None, *args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments.values())[1:]


# -- state ------------------------------------------------------------------


@pytest.mark.parametrize("member", STATE)
def test_state_reads_the_wrapped_backend(pair, member):
    wrapper, inner = pair
    populate(inner)
    try:
        want = getattr(inner, member)
    except AttributeError:  # the dry-run backend plans no batches
        with pytest.raises(AttributeError):
            getattr(wrapper, member)
        return
    got = getattr(wrapper, member)
    assert got == want
    if member in ("grid", "addresser"):
        assert got is want
    if member == "min_separation":
        assert got == SEPARATION


# -- operations -------------------------------------------------------------


@pytest.mark.parametrize("name", list(CALLS))
def test_operation_reaches_the_wrapped_backend(pair, name):
    wrapper, inner = pair
    calls = []
    returns, want = RETURNS, RETURNS[name]
    if isinstance(wrapper, SimulatorBackend):
        # the adapter turns the chip's cage into its id and a path into
        # its step count
        returns = {**RETURNS, "trap": SimpleNamespace(cage_id=7),
                   "move": [(0, 0)] * 4}
        want = {"trap": 7, "move": 3}.get(name, want)
    spy(inner, calls, returns)
    args, kwargs = CALLS[name]
    got = getattr(wrapper, name)(*args, **kwargs)
    assert calls == [(name, reaching_args(wrapper, name))]
    if name in RETURNS_NONE:
        assert got is None
    else:
        assert got is want


def test_leased_view_meters_what_the_wrapped_backend_reports():
    view = LeasedBackend(dry_run(), offset=OFFSET)
    spy(view.backend, [])
    view.move(7, (4, 9))
    view.move_many({7: (4, 9)})
    assert view.frames == RETURNS["move"] + RETURNS["move_many"]["frames"]
    write = view.addresser.row_write_time()
    assert view.program_time == pytest.approx(
        RETURNS["move"] * 2 * write + RETURNS["move_many"]["program_time"])
    assert view.inner is view.backend


@pytest.mark.parametrize("make_inner", INNERS.values(), ids=list(INNERS))
def test_leased_view_clips_the_wrapped_backend(make_inner):
    inner = make_inner()
    view = LeasedBackend(inner, offset=OFFSET)
    view.set_region((2, 3), 10, 12)  # rows [2, 12), cols [3, 15)
    cage = view.trap((1, 1))         # (4, 6) on the chip
    assert inner.history[-1][2]["cage"] == cage
    with pytest.raises(ExecutionError, match="outside leased region"):
        view.trap((15, 1))           # (18, 6): below the window
    view.set_region(None)
    view.trap((15, 1))
    assert inner.cage_count == 2


# -- what each wrapper adds -------------------------------------------------


@pytest.mark.parametrize("make_inner", INNERS.values(), ids=list(INNERS))
def test_injector_never_rolls_on_incubate_release_or_set_region(make_inner):
    inner = make_inner()
    injector = FaultInjector(inner, clean_model(transient_rate=1.0))
    cage = inner.trap((4, 4))
    injector.set_region((0, 0), 12, 12)
    injector.incubate(1.0)
    injector.release(cage)
    injector.set_region(None)
    assert injector.op_count == 0
    assert injector.counters["transient"] == 0
    assert inner.cage_count == 0
    with pytest.raises(ChipFault):
        injector.trap((4, 4))
    assert injector.op_count == 1


@pytest.mark.parametrize("make_inner", INNERS.values(), ids=list(INNERS))
def test_tap_streams_every_sense(make_inner):
    seen = []
    tap = SenseTap(make_inner(), seen.append)
    cages = [tap.trap(site) for site in ((2, 2), (2, 8), (8, 2))]
    one = tap.sense(cages[1], 16)
    every = tap.sense_all(n_samples=16)
    assert [cage_id for cage_id, __ in every] == sorted(cages)
    streamed = [one] + [result for __, result in every]
    assert len(seen) == len(streamed) == 4
    assert all(a is b for a, b in zip(seen, streamed))


def test_simulator_builds_the_small_chip_by_default():
    small = Biochip.small_chip()
    for backend in (SimulatorBackend(), SimulatorBackend(chip=None),
                    Session.simulator().backend):
        chip = backend.chip
        assert chip is backend.backend
        assert (chip.grid.rows, chip.grid.cols) == (48, 48)
        assert chip.grid == small.grid and chip.seed == small.seed
    chip = Biochip(grid=GRID)
    assert SimulatorBackend(chip).chip is chip


@pytest.mark.parametrize("make_inner", INNERS.values(), ids=list(INNERS))
def test_negative_incubation_is_one_execution_error(make_inner):
    """Both backends refuse a negative incubation with the same error
    and charge no time for it."""
    backend = make_inner()
    with pytest.raises(ExecutionError) as refused:
        backend.incubate(-1.0)
    assert str(refused.value) == "incubation time must be non-negative"
    assert backend.elapsed == 0.0


# -- routing separation -----------------------------------------------------


@pytest.mark.parametrize("make_inner", INNERS.values(), ids=list(INNERS))
def test_routing_separation_reads_through_every_wrapper(make_inner):
    inner = make_inner()
    for backend in (
        inner,
        FaultInjector(inner, clean_model()),
        LeasedBackend(inner),
        SenseTap(inner, print),
        SenseTap(LeasedBackend(FaultInjector(inner, clean_model())), print),
    ):
        assert routing_separation(backend) == SEPARATION


def test_a_third_party_backend_separates_by_two():
    assert routing_separation(Backend()) == 2
    assert routing_separation(BackendWrapper(Backend())) == 2


def test_fault_injected_template_guards_leases_by_the_chip_separation():
    template = FaultInjector(simulator(), clean_model())
    assert can_lease(template, ServiceConfig(max_tenants=4))
    assert LeaseWindows(template, chip_id=0).allocator.guard == SEPARATION


@pytest.mark.parametrize("inner", [
    SimulatorBackend(Biochip(grid=GRID)), DryRunBackend(grid=GRID),
], ids=list(INNERS))
def test_fault_injected_template_serves_lease_after_lease(inner):
    # the injector has no reset, so each later group spawns its views
    service = ExecutionService(
        FaultInjector(inner, clean_model()),
        ServiceConfig(n_chips=1, max_tenants=4, max_queue_depth=64),
    )
    service.submit_many(small_footprint_traffic(GRID, 12, seed=1))
    assert all(result.ok for result in service.drain())
    assert service.telemetry.counters["leased"].value == 12
    assert service.snapshot()["tenancy"]["groups"] > 1


def test_a_wrapped_backend_that_cannot_lease_is_served_exclusively():
    class NoLease(DryRunBackend):
        set_region = Backend.set_region

        def spawn(self):
            return NoLease(grid=self.grid)

    template = FaultInjector(NoLease(grid=GRID), clean_model())
    assert not can_lease(template, ServiceConfig(max_tenants=4))
    service = ExecutionService(
        template, ServiceConfig(n_chips=1, max_tenants=4, max_queue_depth=64)
    )
    service.submit_many(small_footprint_traffic(GRID, 6, seed=1))
    assert all(result.ok for result in service.drain())
    assert service.telemetry.counters["leased"].value == 0


# -- one contract, one place ------------------------------------------------

CONTRACT = set(STATE) | set(CALLS) | {"spawn"}

#: The contract members each wrapper overrides; the rest it inherits
#: from ``BackendWrapper``.
OVERRIDES = {
    FaultInjector: {"trap", "move", "move_many", "merge", "sense",
                    "sense_all", "spawn"},
    LeasedBackend: {"trap", "move", "move_many"},
    SenseTap: {"sense", "sense_all"},
    SimulatorBackend: {"trap", "move", "spawn"},
}


@pytest.mark.parametrize("cls", list(OVERRIDES), ids=lambda c: c.__name__)
def test_wrappers_override_only_what_they_change(cls):
    assert issubclass(cls, BackendWrapper)
    assert CONTRACT & set(vars(cls)) == OVERRIDES[cls]
    assert "__getattr__" not in vars(cls)


def test_the_wrapper_defines_the_whole_contract_but_spawn():
    assert CONTRACT - set(vars(BackendWrapper)) == {"spawn"}
