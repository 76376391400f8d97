"""How often the cage field solve runs, and how much work one solve is.

The levitation height of a particle type is a pure function of the
chip template's cage physics, so every chip spawned from one template
-- fleet chips, restarts, tenant views -- shares one solve.  Counted
by wrapping :meth:`DepCage.levitation_height`; the work guard counts
:func:`rectangle_solid_angle` calls, a deterministic stand-in for the
solve's host time.
"""

import sys
import threading

import pytest

from repro import Biochip, ExecutionService, Protocol, ServiceConfig
from repro.bio import polystyrene_bead
from repro.core.backend import SimulatorBackend
from repro.physics import fields
from repro.physics.dep import DepCage

BEAD = polystyrene_bead()


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one per ``DepCage.levitation_height`` call."""
    calls = []
    solve = DepCage.levitation_height

    def counted(self):
        calls.append(self.particle)
        return solve(self)

    monkeypatch.setattr(DepCage, "levitation_height", counted)
    return calls


def bead_band(name, row=0):
    """A two-cage band, the first cage carrying a bead, moved four
    columns on, sensed and released -- small enough to lease."""
    protocol = Protocol(name)
    protocol.trap("a", (row, 0), particle=BEAD)
    protocol.trap("b", (row + 2, 0))
    protocol.move_many({"a": (row, 4), "b": (row + 2, 4)})
    protocol.sense("a", samples=50)
    protocol.sense("b", samples=50)
    protocol.release("a")
    protocol.release("b")
    return protocol


def test_fleet_solves_once(solves):
    service = ExecutionService.simulator(
        ServiceConfig(n_chips=4, policy="round-robin")
    )
    service.submit_many([bead_band(f"j{i}") for i in range(8)])
    results = service.drain()
    assert {r.state.name for r in results} == {"DONE"}
    assert all(w.jobs_done >= 1 for w in service.fleet.workers)
    assert len(solves) == 1


def test_tenant_views_solve_once(solves):
    service = ExecutionService.simulator(
        ServiceConfig(n_chips=1, max_tenants=4, max_queue_depth=64)
    )
    for batch in range(3):
        service.submit_many([bead_band(f"b{batch}j{i}") for i in range(4)])
        results = service.drain()
        assert {r.state.name for r in results} == {"DONE"}
    assert service.snapshot()["tenancy"]["groups"] >= 3
    assert len(solves) == 1


def test_restart_solves_nothing_new(solves):
    service = ExecutionService.simulator(ServiceConfig(n_chips=1))
    service.submit(bead_band("before"))
    assert service.drain()[0].state.name == "DONE"
    assert len(solves) == 1
    service.restart_chip(0)
    service.submit(bead_band("after"))
    assert service.drain()[0].state.name == "DONE"
    assert len(solves) == 1


def test_one_solve_is_a_few_broadcast_calls(monkeypatch):
    """The work guard: the solve evaluates patches, images and stencil
    points in stacked calls, not one solid angle per patch and point."""
    calls = []
    solid_angle = fields.rectangle_solid_angle

    def counted(*args):
        calls.append(1)
        return solid_angle(*args)

    monkeypatch.setattr(fields, "rectangle_solid_angle", counted)
    height = Biochip.small_chip(48, 48).dep_cage(BEAD).levitation_height()
    assert height is not None
    assert len(calls) <= 100


def test_threads_sharing_a_template_agree():
    """Thread-tier workers spawn from one template and so share its
    cache.  Racing first reads may each solve, but every chip reads the
    one height and the cache holds one entry."""
    template = SimulatorBackend(Biochip.small_chip())
    chips = [template.spawn().chip for __ in range(8)]
    heights = [None] * len(chips)
    start = threading.Barrier(len(chips))

    def read(i):
        start.wait(timeout=30)
        heights[i] = chips[i]._levitation_height(BEAD)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(chips))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert heights == [2.336113311703224e-05] * len(chips)
    assert len(template.chip._levitation_cache) == 1
