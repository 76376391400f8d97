"""The shared-corner field kernel on tiled electrode patterns.

A frame's patches tile the electrode plane, so neighbours share edges
and :meth:`ArrayFieldModel.potential` evaluates each distinct corner
once.  ``test_physics_fields``' free-floating patches almost never share
an edge, so here the patterns are the chip's own: single-cage
checkerboards and windows of random phase frames.  Every result must be
bit-identical to the per-patch loop of ``test_physics_fields``, and so
must a gradient taken with an array of per-point steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_physics_fields import (
    assert_bit_identical,
    observation_points,
    reference_field,
    reference_grad_e2,
    reference_potential,
)

from repro import Biochip
from repro.array import ElectrodeGrid
from repro.array.patterns import ArrayFrame
from repro.bio import polystyrene_bead
from repro.physics import dep, fields
from repro.physics.constants import um
from repro.physics.fields import ArrayFieldModel, checkerboard_cage_patches

_voltage = st.one_of(
    st.just(0.0),
    st.floats(-8.0, 8.0, allow_nan=False),
    st.integers(-5, 5),
    st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
_lid = st.one_of(st.none(), st.floats(40.0, 200.0))
_lid_amplitude = st.sampled_from([0.0, 0.7, 0.25 - 0.5j])


def _model(patches, draw):
    lid = draw(_lid)
    return ArrayFieldModel(
        patches=patches,
        lid_height=None if lid is None else um(lid),
        lid_amplitude=draw(_lid_amplitude),
        reflections=draw(st.integers(0, 3)),
    )


@st.composite
def cage_models(draw):
    """A single-cage checkerboard.  Centres at half-pitch multiples put
    an edge exactly on 0.0, where the points' coordinates often sit."""
    pitch = um(draw(st.floats(5.0, 40.0)))
    offset = st.one_of(
        st.floats(-60.0, 60.0).map(um),
        st.integers(-3, 3).map(lambda k: 0.5 * k * pitch),
    )
    patches = checkerboard_cage_patches(
        pitch,
        draw(_voltage),
        center=(draw(offset), draw(offset)),
        radius_cells=draw(st.integers(0, 4)),
    )
    return _model(patches, draw)


@st.composite
def frame_models(draw):
    """A window of a frame with random phases, ``ArrayFrame.field_model``."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    grid = ElectrodeGrid(rows, cols, um(draw(st.floats(8.0, 30.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = ArrayFrame(grid, rng.integers(-1, 2, size=(rows, cols)))
    r0, r1 = sorted(draw(st.integers(0, rows - 1)) for __ in range(2))
    c0, c1 = sorted(draw(st.integers(0, cols - 1)) for __ in range(2))
    lid = draw(st.floats(40.0, 200.0))
    return frame.field_model(
        draw(_voltage), um(lid), region=(r0, r1, c0, c1), reflections=draw(st.integers(0, 3))
    )


@st.composite
def stepped_points(draw):
    """Points and an array of per-point steps broadcast against them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    x = um(rng.uniform(-40.0, 40.0, n))
    y = draw(st.sampled_from([0.0, None]))
    y = um(rng.uniform(-40.0, 40.0, n)) if y is None else y
    z = um(rng.uniform(4.0, 50.0, n))
    step = um(rng.uniform(0.01, 1.0, draw(st.sampled_from([(n,), (1,), ()]))))
    return (x, y, z), step


class TestTiledPatches:
    @given(model=st.one_of(cage_models(), frame_models()), points=observation_points())
    @settings(max_examples=80, deadline=None)
    def test_potential(self, model, points):
        assert_bit_identical(model.potential(*points), reference_potential(model, *points))

    @given(model=st.one_of(cage_models(), frame_models()), points=observation_points())
    @settings(max_examples=60, deadline=None)
    def test_field(self, model, points):
        assert_bit_identical(model.field(*points), reference_field(model, *points))

    @given(model=st.one_of(cage_models(), frame_models()), points=observation_points())
    @settings(max_examples=40, deadline=None)
    def test_grad_e2(self, model, points):
        assert_bit_identical(model.grad_e2(*points), reference_grad_e2(model, *points))

    @given(
        model=st.one_of(cage_models(), frame_models()),
        points=observation_points(),
        budget=st.sampled_from([1, 5, 64, 700]),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_tiles_do_not_move_bits(self, model, points, budget):
        """Tiles of a patch block by a point block, or of one point by
        several patch blocks (each with its own corners), still sum in
        plain loop order."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fields, "_BLOCK_TERMS", budget)
            got = model.potential(*points)
        assert_bit_identical(got, reference_potential(model, *points))


class TestArrayStep:
    """``field`` and ``grad_e2`` given an array of steps, one per point."""

    @given(model=cage_models(), stepped=stepped_points())
    @settings(max_examples=40, deadline=None)
    def test_field(self, model, stepped):
        points, step = stepped
        assert_bit_identical(
            model.field(*points, step=step), reference_field(model, *points, step=step)
        )

    @given(model=cage_models(), stepped=stepped_points())
    @settings(max_examples=40, deadline=None)
    def test_grad_e2(self, model, stepped):
        points, step = stepped
        assert_bit_identical(
            model.grad_e2(*points, step=step), reference_grad_e2(model, *points, step=step)
        )


class TestSharedCornerWork:
    """Work guards, by counts: each distinct corner is evaluated once per
    point and height, and a force evaluation is one potential call."""

    def test_potential_evaluates_each_corner_once(self, monkeypatch):
        evaluated = []
        corner = fields._corner

        def counted(a, b, z):
            evaluated.append(np.broadcast(a, b, z).size)
            return corner(a, b, z)

        monkeypatch.setattr(fields, "_corner", counted)
        model = ArrayFieldModel(
            patches=checkerboard_cage_patches(um(20), 3.3), lid_height=um(100)
        )
        xs = np.linspace(-um(30), um(30), 500)
        model.potential(xs, 0.0, um(20))
        # 25 patches, 36 distinct corners, a direct and two image heights
        assert sum(evaluated) == 36 * 3 * 500

    def test_solve_stops_at_its_bracket(self, monkeypatch):
        """The bead's solve: one scan chunk (its bracket is in the first
        one), then one 36-point stencil per Brent step."""
        stencils = []
        potential = ArrayFieldModel._potential

        def counted(self, x, y, z, scalar):
            stencils.append(np.broadcast(x, y, z).size)
            return potential(self, x, y, z, scalar)

        monkeypatch.setattr(ArrayFieldModel, "_potential", counted)
        height = Biochip.small_chip(48, 48).dep_cage(polystyrene_bead()).levitation_height()
        assert height == 2.336113311703224e-05
        assert stencils[0] == 36 * dep._SCAN_CHUNK
        assert len(stencils) > 1 and set(stencils[1:]) == {36}
