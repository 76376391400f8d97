"""The levitation solve's chunked scan against the full scan.

:meth:`DepCage.levitation_height` evaluates its scan heights in chunks
from the bottom and stops at the first bracket.  The reference here is
the full scan it replaced: every height in one force call, then the
first up-to-down crossing solved by the package's own Brent port (so
it runs without scipy).  They must agree bit for bit, ``None`` included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Biochip
from repro.bio import make_particle, polystyrene_bead
from repro.physics import dep
from repro.physics.constants import um
from repro.physics.dep import DepCage, _brackets, _brentq, buoyant_weight
from repro.physics.dielectrics import water_medium

BEAD_HEIGHT = 2.336113311703224e-05


def full_scan_height(cage):
    """The levitation solve as one scan over all 96 heights."""
    if cage.real_cm >= 0.0:
        return None
    z_lo = max(cage.radius, 0.02 * cage.pitch)
    z_hi = cage.lid_height - max(cage.radius, 0.02 * cage.pitch)
    if z_lo >= z_hi:
        return None
    zs = np.linspace(z_lo, z_hi, 96)
    __, __, fz = cage.force_at(np.zeros_like(zs), np.zeros_like(zs), zs)
    net = np.asarray(fz) - buoyant_weight(cage.radius, cage.particle_density)
    for i in range(len(zs) - 1):
        if net[i] > 0.0 >= net[i + 1]:
            lo, hi = float(zs[i]), float(zs[i + 1])
            ends = {lo: cage.net_vertical_force(lo), hi: cage.net_vertical_force(hi)}
            if not _brackets(ends[lo], ends[hi]):
                return min(ends, key=lambda z: abs(ends[z]))
            return _brentq(
                lambda z: ends[z] if z in ends else cage.net_vertical_force(z), lo, hi
            )
    return None


class ShiftedCage(DepCage):
    """A cage whose scalar force is offset from the scan's vectorised
    one, as rounding can offset it by a hair: with a large enough
    offset the bracket's ends no longer bracket, and the solve falls
    back to the end nearer balance."""

    shift = 0.0

    def net_vertical_force(self, z):
        return super().net_vertical_force(z) + self.shift


_kinds = st.sampled_from(["bead", "bacterium", "erythrocyte", "mammalian", "tumor", "yeast"])


@st.composite
def cages(draw):
    particle = make_particle(draw(_kinds), radius=um(draw(st.floats(0.5, 15.0))))
    return DepCage(
        pitch=um(draw(st.floats(8.0, 40.0))),
        voltage=draw(st.floats(0.05, 8.0)),
        lid_height=um(draw(st.floats(10.0, 200.0))),
        particle=particle,
        medium=water_medium(draw(st.sampled_from([0.002, 0.02, 0.1, 1.0]))),
        frequency=10.0 ** draw(st.floats(3.0, 8.0)),
        particle_density=draw(st.floats(900.0, 2500.0)),
    )


def _bead_cage(cls=DepCage, **changes):
    settings = dict(
        pitch=um(20), voltage=3.3, lid_height=um(100), particle=polystyrene_bead(),
        medium=water_medium(), frequency=1e6, particle_density=1050.0,
    )
    settings.update(changes)
    return cls(**settings)


@given(cage=cages())
@example(cage=_bead_cage())
@example(cage=_bead_cage(voltage=0.05, particle_density=2500.0))  # scans all 96
@example(cage=_bead_cage(lid_height=um(9)))  # no room between the ends
@example(cage=_bead_cage(lid_height=um(83)))  # bracket across chunks
@settings(max_examples=60, deadline=None)
def test_chunked_scan_matches_full_scan(cage):
    height = cage.levitation_height()
    assert height == full_scan_height(cage)
    assert height is None or type(height) is float


def test_seeded_sweep_reaches_every_outcome():
    """40 seeded cages from the property test's ranges, which reach all
    three outcomes: a height, a pDEP particle and a drive too weak."""
    rng = np.random.default_rng(7)
    outcomes = set()
    for __ in range(40):
        cage = DepCage(
            pitch=um(rng.uniform(8.0, 40.0)),
            voltage=rng.uniform(0.05, 8.0),
            lid_height=um(rng.uniform(10.0, 200.0)),
            particle=make_particle(str(rng.choice(["bead", "mammalian", "yeast"])),
                                   radius=um(rng.uniform(0.5, 15.0))),
            medium=water_medium(float(rng.choice([0.002, 0.1]))),
            frequency=10.0 ** rng.uniform(3.0, 8.0),
            particle_density=rng.uniform(900.0, 2500.0),
        )
        height = cage.levitation_height()
        assert height == full_scan_height(cage)
        outcomes.add("pdep" if cage.real_cm >= 0.0 else "none" if height is None else "height")
    assert outcomes == {"pdep", "none", "height"}


@pytest.mark.parametrize("lid, bracket", [(83.0, 23), (80.0, 24), (42.5, 47), (30.0, 75)])
def test_brackets_past_the_first_chunk(lid, bracket):
    """A lower lid puts the bead's bracket ``(zs[i], zs[i + 1])`` in a
    later chunk of 24 heights: across the first chunk boundary, on the
    second chunk's first pair, across the second boundary, and in the
    last chunk."""
    cage = _bead_cage(lid_height=um(lid))
    zs = np.linspace(cage.radius, cage.lid_height - cage.radius, 96)
    height = cage.levitation_height()
    assert int(np.searchsorted(zs, height)) - 1 == bracket
    assert height == full_scan_height(cage)


def test_every_chunk_takes_the_full_scan_steps(monkeypatch):
    """Each chunk's forces are the full scan's, bit for bit: a chunk
    differentiated with steps from its own lowest height would give
    other forces, and could move the bracket."""
    chunks = []
    force = DepCage._force

    def recorded(self, grad):
        out = force(self, grad)
        chunks.append(out[2])
        return out

    cage = _bead_cage(lid_height=um(30.0))
    zs = np.linspace(cage.radius, cage.lid_height - cage.radius, 96)
    __, __, full = cage.force_at(np.zeros_like(zs), np.zeros_like(zs), zs)
    monkeypatch.setattr(DepCage, "_force", recorded)
    cage.levitation_height()
    scan = [fz for fz in chunks if np.ndim(fz)]
    assert len(scan) == 4  # its bracket is in the last chunk
    assert np.array_equal(np.concatenate(scan), full)


def test_non_bracketing_ends_fall_back_to_the_nearer_end():
    cage = _bead_cage(ShiftedCage)
    assert cage.levitation_height() == BEAD_HEIGHT
    # Shift the scalar force up until both ends of the bracket push up.
    zs = np.linspace(max(cage.radius, 0.02 * cage.pitch),
                     cage.lid_height - max(cage.radius, 0.02 * cage.pitch), 96)
    i = int(np.searchsorted(zs, BEAD_HEIGHT)) - 1
    cage.shift = -2.0 * DepCage.net_vertical_force(cage, float(zs[i + 1]))
    height = cage.levitation_height()
    assert height in (float(zs[i]), float(zs[i + 1]))
    assert height == full_scan_height(cage)


def test_cold_bead_solve_memory_peak():
    """A memory guard, by counts: the tracemalloc peak of a cold bead
    solve on the small chip stays under a fixed bound.  Peak RSS moves
    with the allocation pattern, so a kernel that holds a tile's arrays
    while it allocates the next would show here first."""
    Biochip.small_chip(16, 16)._levitation_height(polystyrene_bead())  # warm imports
    chip = Biochip.small_chip(48, 48)
    bead = polystyrene_bead()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert chip._levitation_height(bead) == BEAD_HEIGHT
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 600 * 1024
