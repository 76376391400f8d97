"""Compiles given no binder share one default binder per process.

Its resources are a tuple, so no caller can change the resource set
every later compile binds against, and its per-operation-type
candidate lists are found once, not once per compile.
"""

import pytest

from repro import Protocol
from repro.array import ElectrodeGrid
from repro.core.compiler import compile_protocol
from repro.physics.constants import um
from repro.scheduling.binder import Binder, default_chip_resources

GRID = ElectrodeGrid(32, 32, um(20))


def protocol(name, row):
    p = Protocol(name)
    p.trap("a", (row, 2))
    p.move("a", (row, 12))
    p.sense("a", samples=4)
    p.release("a")
    return p


def test_compiles_share_one_default_binder():
    first = compile_protocol(protocol("one", 2), GRID)
    second = compile_protocol(protocol("two", 6), GRID)
    assert first.binder is second.binder
    assert type(first.binder) is Binder
    assert first.binder.resources == tuple(default_chip_resources())


def test_the_shared_resources_cannot_be_changed_in_place():
    binder = compile_protocol(protocol("one", 2), GRID).binder
    with pytest.raises(AttributeError):
        binder.resources.append(binder.resources[0])
    assert len(binder.resources) == len(default_chip_resources())


def test_a_given_binder_is_used_as_given():
    own = Binder(default_chip_resources(loaders=1))
    assert compile_protocol(protocol("one", 2), GRID, binder=own).binder is own
