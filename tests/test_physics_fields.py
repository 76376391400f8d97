"""Unit tests for the semi-analytic field solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.constants import um
from repro.physics.fields import (
    ArrayFieldModel,
    ElectrodePatch,
    cage_field_model,
    checkerboard_cage_patches,
    rectangle_solid_angle,
)


class TestSolidAngle:
    def test_full_plane_limit(self):
        """A huge rectangle seen from close by subtends ~2*pi."""
        omega = rectangle_solid_angle(-1.0, 1.0, -1.0, 1.0, 1e-6)
        assert omega == pytest.approx(2.0 * math.pi, rel=1e-4)

    def test_far_field_point_source(self):
        """Far away, Omega -> area * z / r^3."""
        a = 1e-5
        z = 1.0
        omega = rectangle_solid_angle(-a / 2, a / 2, -a / 2, a / 2, z)
        assert omega == pytest.approx(a * a * z / z**3, rel=1e-6)

    def test_off_patch_is_smaller(self):
        on = rectangle_solid_angle(-1, 1, -1, 1, 0.5)
        off = rectangle_solid_angle(4, 6, -1, 1, 0.5)
        assert off < on

    def test_vectorised(self):
        z = np.array([0.1, 1.0, 10.0])
        omega = rectangle_solid_angle(-1.0, 1.0, -1.0, 1.0, z)
        assert omega.shape == (3,)
        assert omega[0] > omega[1] > omega[2]

    def test_symmetry(self):
        """Symmetric positions give the same solid angle."""
        left = rectangle_solid_angle(-3.0, -1.0, -1.0, 1.0, 0.7)
        right = rectangle_solid_angle(1.0, 3.0, -1.0, 1.0, 0.7)
        assert left == pytest.approx(right, rel=1e-12)


class TestElectrodePatch:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ElectrodePatch(0.0, 0.0, 0.0, 1.0, 1.0)


class TestArrayFieldModel:
    def _single_patch_model(self, v=1.0):
        patch = ElectrodePatch(-um(10), um(10), -um(10), um(10), v)
        return ArrayFieldModel(patches=[patch])

    def test_potential_approaches_drive_at_surface(self):
        """Just above the centre of a driven patch, phi ~ V."""
        model = self._single_patch_model(2.0)
        phi = model.potential(0.0, 0.0, um(0.1))
        assert abs(phi) == pytest.approx(2.0, rel=0.05)

    def test_potential_decays_with_height(self):
        model = self._single_patch_model()
        phi_low = abs(model.potential(0.0, 0.0, um(5)))
        phi_high = abs(model.potential(0.0, 0.0, um(50)))
        assert phi_low > phi_high

    def test_rejects_points_below_surface(self):
        model = self._single_patch_model()
        with pytest.raises(ValueError):
            model.potential(0.0, 0.0, -um(1))

    def test_field_points_away_from_positive_patch_above_centre(self):
        model = self._single_patch_model(1.0)
        ex, ey, ez = model.field(0.0, 0.0, um(5))
        # directly above the centre the field is mostly vertical
        assert abs(ez) > abs(ex)
        assert abs(ez) > abs(ey)

    def test_grounded_lid_pulls_potential_down(self):
        no_lid = self._single_patch_model()
        with_lid = ArrayFieldModel(
            patches=list(no_lid.patches), lid_height=um(50), reflections=2
        )
        z = um(40)
        assert abs(with_lid.potential(0, 0, z)) < abs(no_lid.potential(0, 0, z))

    def test_e_squared_nonnegative(self):
        model = self._single_patch_model()
        xs = np.linspace(-um(30), um(30), 7)
        e2 = model.e_squared(xs, 0.0, um(10))
        assert np.all(e2 >= 0.0)


class TestCagePattern:
    def test_patch_count(self):
        patches = checkerboard_cage_patches(um(20), 3.3, radius_cells=2)
        assert len(patches) == 25

    def test_centre_patch_is_counter_phase(self):
        patches = checkerboard_cage_patches(um(20), 3.3, radius_cells=1)
        centre = [
            p for p in patches if p.x_min < 0 < p.x_max and p.y_min < 0 < p.y_max
        ]
        assert len(centre) == 1
        assert centre[0].amplitude == -3.3

    def test_cage_has_central_field_minimum(self):
        """|E|^2 above the cage centre is lower than above the in-phase
        neighbours: that's what makes it a trap for nDEP particles."""
        pitch = um(20)
        model = cage_field_model(pitch, 3.3, lid_height=um(100))
        # the closed minimum forms about one pitch above the surface
        # (where the cage physics levitates the particle)
        z = um(25)
        e2_centre = model.e_squared(0.0, 0.0, z)
        e2_neighbor = model.e_squared(pitch, 0.0, z)
        assert e2_centre < e2_neighbor

    def test_lateral_symmetry(self):
        pitch = um(20)
        model = cage_field_model(pitch, 3.3, lid_height=um(100))
        z = um(15)
        left = model.e_squared(-um(5), 0.0, z)
        right = model.e_squared(um(5), 0.0, z)
        assert left == pytest.approx(right, rel=1e-6)

    def test_force_scale_grows_with_voltage_squared(self):
        """The gradient of E^2 near the cage scales as V^2 (claim C1)."""
        pitch = um(20)
        z = um(15)
        g_low = cage_field_model(pitch, 1.0, um(100)).grad_e2(um(5), 0.0, z)
        g_high = cage_field_model(pitch, 2.0, um(100)).grad_e2(um(5), 0.0, z)
        ratio = g_high[0] / g_low[0]
        assert ratio == pytest.approx(4.0, rel=1e-6)


# -- bit-identity against the per-patch loop --------------------------------


def reference_potential(model, x, y, z):
    """The per-patch, per-image loop ``potential`` was written as: the
    summation order and arithmetic the vectorised version must keep."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("observation points must satisfy z > 0 (inside liquid)")
    phi = np.zeros(np.broadcast(x, y, z).shape, dtype=complex)
    two_pi = 2.0 * np.pi
    for patch in model.patches:
        if patch.amplitude == 0.0:
            continue
        omega = rectangle_solid_angle(
            patch.x_min - x, patch.x_max - x, patch.y_min - y, patch.y_max - y, z
        )
        phi = phi + patch.amplitude * omega / two_pi
        if model.lid_height is not None:
            for n in range(1, model.reflections + 1):
                z_img = 2.0 * n * model.lid_height - z if n % 2 else z - 2.0 * n * model.lid_height
                z_img = np.abs(z_img)
                omega_img = rectangle_solid_angle(
                    patch.x_min - x,
                    patch.x_max - x,
                    patch.y_min - y,
                    patch.y_max - y,
                    z_img,
                )
                sign = -1.0 if n % 2 else 1.0
                phi = phi + sign * patch.amplitude * omega_img / two_pi
    if model.lid_height is not None and model.lid_amplitude != 0.0:
        phi = phi + model.lid_amplitude * (z / model.lid_height)
    return phi


def reference_step(z, step):
    if step is not None:
        return step
    return max(float(np.min(z)) * 0.02, 1e-9)


def reference_field(model, x, y, z, step=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    h = reference_step(z, step)
    phi = lambda *p: reference_potential(model, *p)  # noqa: E731
    ex = -(phi(x + h, y, z) - phi(x - h, y, z)) / (2.0 * h)
    ey = -(phi(x, y + h, z) - phi(x, y - h, z)) / (2.0 * h)
    ez = -(phi(x, y, z + h) - phi(x, y, z - h)) / (2.0 * h)
    return ex, ey, ez


def reference_e_squared(model, x, y, z, step=None):
    ex, ey, ez = reference_field(model, x, y, z, step=step)
    return (np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2).real


def reference_grad_e2(model, x, y, z, step=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    h = reference_step(z, step)
    e2 = lambda *p: reference_e_squared(model, *p, step)  # noqa: E731
    gx = (e2(x + h, y, z) - e2(x - h, y, z)) / (2.0 * h)
    gy = (e2(x, y + h, z) - e2(x, y - h, z)) / (2.0 * h)
    gz = (e2(x, y, z + h) - e2(x, y, z - h)) / (2.0 * h)
    return gx, gy, gz


def assert_bit_identical(got, expected):
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_bit_identical(g, e)
        return
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


_coord = st.floats(-40.0, 40.0, allow_nan=False)
_amplitude = st.one_of(
    st.just(0.0),
    st.floats(-5.0, 5.0, allow_nan=False),
    st.integers(-3, 3),
    st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)


@st.composite
def field_models(draw):
    patches = []
    for __ in range(draw(st.integers(0, 8))):
        x0, y0 = draw(_coord), draw(_coord)
        w = draw(st.floats(1.0, 30.0))
        h = draw(st.floats(1.0, 30.0))
        patches.append(
            ElectrodePatch(um(x0), um(x0 + w), um(y0), um(y0 + h), draw(_amplitude))
        )
    lid = draw(st.one_of(st.none(), st.floats(60.0, 200.0)))
    return ArrayFieldModel(
        patches=patches,
        lid_height=None if lid is None else um(lid),
        lid_amplitude=draw(st.sampled_from([0.0, 0.7, 0.25 - 0.5j])),
        reflections=draw(st.integers(0, 3)),
    )


@st.composite
def observation_points(draw):
    """Scalar, 1-D, 2-D and mutually broadcast (x, y, z) in metres."""
    kind = draw(st.sampled_from(["scalar", "1d", "2d", "broadcast"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def xy(shape):
        return um(rng.uniform(-40.0, 40.0, shape))

    def z(shape):
        return um(rng.uniform(3.0, 50.0, shape))

    if kind == "scalar":
        return float(xy(())), float(xy(())), float(z(()))
    if kind == "1d":
        n = draw(st.integers(1, 12))
        return xy(n), xy(n), z(n)
    if kind == "2d":
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        return xy(shape), xy(shape), z(shape)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return xy((rows, 1)), 0.0, z((1, cols))


class TestVectorisedBitIdentity:
    """The vectorised potential and the stacked stencil give exactly the
    bits of the per-patch loop, for every point shape."""

    @given(model=field_models(), points=observation_points())
    @settings(max_examples=60, deadline=None)
    def test_potential(self, model, points):
        assert_bit_identical(model.potential(*points), reference_potential(model, *points))

    @given(model=field_models(), points=observation_points())
    @settings(max_examples=60, deadline=None)
    def test_field(self, model, points):
        assert_bit_identical(model.field(*points), reference_field(model, *points))

    @given(model=field_models(), points=observation_points())
    @settings(max_examples=40, deadline=None)
    def test_grad_e2(self, model, points):
        assert_bit_identical(model.grad_e2(*points), reference_grad_e2(model, *points))

    def test_blocks_do_not_move_bits(self):
        """A frame big enough to split into several patch blocks still
        sums in plain loop order."""
        patches = checkerboard_cage_patches(um(20), 3.3, radius_cells=20)
        model = ArrayFieldModel(patches=patches, lid_height=um(100))
        xs = np.linspace(-um(30), um(30), 40)
        zs = np.full_like(xs, um(20))
        assert_bit_identical(model.potential(xs, 0.0, zs), reference_potential(model, xs, 0.0, zs))

    def test_bead_levitation_pinned(self):
        """The bead's cage on the small chip: height, stiffness and
        holding force pinned to the per-patch loop's values."""
        from repro import Biochip
        from repro.bio import polystyrene_bead

        cage = Biochip.small_chip(48, 48).dep_cage(polystyrene_bead())
        height = cage.levitation_height()
        assert height == 2.336113311703224e-05
        assert cage.lateral_stiffness(height) == 2.198299025555834e-06
        assert cage.max_lateral_force(height) == 2.6853062691144308e-11
