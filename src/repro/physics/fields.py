"""Semi-analytic electric field of a programmable electrode array.

The paper's chip synthesises dielectrophoretic cages by applying a
pattern of in-phase / counter-phase sinusoidal voltages to an array of
square microelectrodes beneath the liquid, with a conductive (ITO) lid
acting as a counter-electrode (Fig. 3 of the paper).

We model the potential in the liquid half-space above the electrode
plane with the exact Dirichlet solution for a flat boundary held at a
piecewise-constant potential: the potential contributed by a rectangular
patch at amplitude ``V`` is ``V * Omega / (2 pi)`` where ``Omega`` is the
solid angle the rectangle subtends at the observation point.  The solid
angle of an axis-aligned rectangle has a closed form as a sum of four
arctangent corner terms, so the whole array field is an exact,
vectorised superposition -- no mesh, no PDE solve.

A grounded lid at height ``lid_height`` is handled with image patches
(odd mirror images about the lid plane), truncated after a configurable
number of reflections; two reflections are plenty for lid heights of the
order of the electrode pitch.

The quantity DEP cares about is ``grad |E_rms|^2``; we expose both the
potential/field and a numerically differentiated ``grad_e2``.

Evaluation is vectorised over patches, lid images and points at once.
The patches of a frame tile the electrode plane, so neighbours share
edges: a 5x5 cage has 100 patch corners but only 36 distinct ones.
:meth:`ArrayFieldModel.potential` therefore evaluates each distinct
(x-edge, y-edge) corner term once per point and height, and forms each
patch's solid angle from its four corners.  It works in tiles of
points (and, for very large frames, of patches) of bounded size, so
peak memory stays bounded.  :meth:`ArrayFieldModel.field` evaluates its
six central-difference points, and :meth:`ArrayFieldModel.grad_e2` all
36 points of its nested stencil, in one stacked potential call.  The
superposition is still summed in a fixed order -- each patch's direct
term, then its images 1..R, patch by patch, one term at a time --
because floating-point addition is not associative: a pairwise or
blocked reduction would move the last bits of every field, and with
them the levitation heights and sensed values that the rest of the
simulator pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: (patch, image, point) terms per tile in
#: :meth:`ArrayFieldModel.potential`; a tile holds at least one patch
#: and one point.
_BLOCK_TERMS = 8192


def rectangle_solid_angle(dx1, dx2, dy1, dy2, z):
    """Solid angle of an axis-aligned rectangle seen from above.

    The rectangle spans ``[dx1, dx2] x [dy1, dy2]`` in the plane ``z=0``
    (coordinates relative to the observation point's footprint) and the
    observation point sits at height ``z > 0``.  All arguments may be
    broadcastable numpy arrays.

    Uses the corner decomposition::

        Omega = sum_{corners} sign * atan2(a*b, z*sqrt(a^2+b^2+z^2))
    """

    return _corner(dx2, dy2, z) - _corner(dx1, dy2, z) - _corner(dx2, dy1, z) + _corner(dx1, dy1, z)


def _corner(a, b, z):
    """One corner term of :func:`rectangle_solid_angle`."""
    return np.arctan2(a * b, z * np.sqrt(a * a + b * b + z * z))


@dataclass
class ElectrodePatch:
    """A rectangular electrode held at a (phasor) amplitude.

    ``amplitude`` is the RMS phasor amplitude of the sinusoidal drive:
    +V for in-phase, -V for counter-phase, 0 for grounded.  Complex
    amplitudes are allowed for quadrature-phase patterns.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    amplitude: complex

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate electrode patch")


@dataclass
class ArrayFieldModel:
    """Field model for a set of electrode patches plus an optional lid.

    Parameters
    ----------
    patches:
        The driven electrodes.  Patches at amplitude zero contribute
        nothing and may be omitted; the model skips them.
    lid_height:
        Height of the grounded conductive lid [m], or ``None`` for an
        open half-space.
    lid_amplitude:
        Phasor amplitude of the lid (0 for a grounded lid).
    reflections:
        Number of image reflections used to satisfy the lid boundary
        condition (0 disables the lid images; 2 is accurate to <1% for
        typical chamber aspect ratios).
    """

    patches: list = field(default_factory=list)
    lid_height: float | None = None
    lid_amplitude: complex = 0.0
    reflections: int = 2

    def potential(self, x, y, z):
        """Complex potential phasor at the points ``(x, y, z)`` [V].

        ``x, y, z`` are broadcastable arrays; ``z`` must be positive
        (inside the liquid).

        The points are evaluated in tiles of at most ``_BLOCK_TERMS``
        (patch, image, point) terms -- every patch and a block of points,
        or one point and a block of patches when a single point's terms
        exceed that -- so peak memory stays bounded however many patches
        the frame has.  A tile evaluates each distinct patch corner once
        per point and height, and each patch's solid angle is
        ``c22 - c12 - c21 + c11`` of its corners, as in
        :func:`rectangle_solid_angle`.  Each term is
        ``amp * omega / two_pi`` (direct) or
        ``sign * amp * omega_img / two_pi`` (image), and the terms are
        added one at a time in patch order, direct term first, by a
        sequential ``cumsum`` seeded with the running sum.  That is the
        exact arithmetic of a plain per-patch loop over the points.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return self._potential(x, y, z, scalar=np.broadcast(x, y, z).shape == ())

    def _potential(self, x, y, z, scalar):
        """:meth:`potential` of float arrays.  ``scalar`` says that each
        point stands for a scalar evaluation, whose complex terms numpy
        computes with scalar arithmetic: its complex division is exact,
        where the array loop multiplies by the reciprocal."""
        if np.any(z <= 0.0):
            raise ValueError("observation points must satisfy z > 0 (inside liquid)")
        shape = np.broadcast(x, y, z).shape
        phi = np.zeros(shape, dtype=complex)
        live = [patch for patch in self.patches if patch.amplitude != 0.0]
        if live:
            phi = self._patch_sum(live, x, y, z, shape, scalar)
        if self.lid_height is not None and self.lid_amplitude != 0.0:
            phi = phi + self.lid_amplitude * (z / self.lid_height)
        return phi

    def _patch_sum(self, live, x, y, z, shape, scalar):
        """Superposition of the ``live`` patches and their lid images."""
        xs = np.broadcast_to(x, shape).ravel()
        ys = np.broadcast_to(y, shape).ravel()
        zs = np.broadcast_to(z, shape).ravel()
        # Row 0 is the direct term, rows 1..R the lid images.  Odd images
        # about the lid plane enforce phi=lid value there; alternating
        # sign mirrors about z = n * 2h.
        images = range(1, self.reflections + 1) if self.lid_height is not None else ()
        heights = [zs]
        signs = []
        for n in images:
            z_img = 2.0 * n * self.lid_height - zs if n % 2 else zs - 2.0 * n * self.lid_height
            heights.append(np.abs(z_img))
            signs.append(-1.0 if n % 2 else 1.0)
        heights = np.stack(heights)[None]
        per_patch = heights.shape[1]
        # A tile is a block of patches by a block of points: every patch
        # when one point's terms fit the budget, else one point at a time.
        points = max(1, _BLOCK_TERMS // (len(live) * per_patch))
        per_block = max(1, _BLOCK_TERMS // (per_patch * points))
        phi = np.zeros(zs.size, dtype=complex)
        for start in range(0, len(live), per_block):
            block = live[start:start + per_block]
            # Each distinct (x-edge, y-edge) corner once, and per patch the
            # slots of its corners in the order c22, c12, c21, c11.  Equal
            # edges give equal corner bits.  0.0 and -0.0 share a slot: that
            # can flip only the sign of a zero solid angle, and the running
            # sum, started at +0.0, comes out the same for either.
            slots = {}
            corners = np.array([
                [slots.setdefault(key, len(slots))
                 for key in ((p.x_max, p.y_max), (p.x_min, p.y_max),
                             (p.x_max, p.y_min), (p.x_min, p.y_min))]
                for p in block
            ]).T
            edges = np.array(list(slots), dtype=float)[:, :, None, None]
            coefs = [[p.amplitude] + [sign * p.amplitude for sign in signs] for p in block]
            is_complex = [
                not isinstance(p.amplitude, (int, float)) and np.iscomplexobj(p.amplitude)
                for p in block
            ]
            if not any(is_complex):
                coefs = np.array(coefs, dtype=float)[:, :, None]
            for first in range(0, zs.size, points):
                span = slice(first, first + points)
                phi[span] = _tile_sum(
                    phi[span], edges, corners, xs[span], ys[span], heights[..., span],
                    coefs, is_complex, scalar,
                )
        phi = phi.reshape(shape)
        return phi if shape else phi[()]

    def _stencil_potential(self, points, shape):
        """Potential at a stack of stencil points, each an ``(x, y, z)``
        broadcast to ``shape``: one :meth:`_potential` call, the stencil
        index leading the result.  A point stands for a scalar
        evaluation when ``shape`` is ``()``."""

        def stack(coords):
            out = np.empty((len(coords),) + shape)
            for k, c in enumerate(coords):
                out[k] = c
            return out

        xs, ys, zs = zip(*points)
        return self._potential(stack(xs), stack(ys), stack(zs), scalar=shape == ())

    def field(self, x, y, z, step=None):
        """Complex field phasor (Ex, Ey, Ez) by central differences [V/m].

        The six stencil points go through one stacked potential
        evaluation.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        h = self._step(z, step)
        shape = np.broadcast_shapes(x.shape, y.shape, z.shape, np.shape(h))
        return _central(self._stencil_potential(_stencil(x, y, z, h), shape), h)

    def e_squared(self, x, y, z, step=None):
        """|E_rms|^2 at the observation points [V^2/m^2]."""
        return _magnitude_squared(*self.field(x, y, z, step=step))

    def grad_e2(self, x, y, z, step=None):
        """Gradient of |E_rms|^2, the drive term of the DEP force [V^2/m^3].

        The central difference of :meth:`e_squared`, each of whose six
        calls differentiates the potential again: all 36 stencil points
        go through one stacked potential evaluation.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return self._grad_e2(x, y, z, *self._grad_steps(z, step))

    def _grad_steps(self, z, step):
        """The steps of :meth:`grad_e2` at heights ``z``: its own step
        ``h``, and the field's step about each of its stencil pairs --
        the x and y pairs, then the points at ``z + h`` and ``z - h``."""
        h = self._step(z, step)
        return h, (self._step(z, step), self._step(z + h, step), self._step(z - h, step))

    def _grad_e2(self, x, y, z, h, inner):
        """:meth:`grad_e2` of float arrays with the steps
        :meth:`_grad_steps` gives, so that a slice of the points can be
        evaluated with the steps of the whole."""
        steps = (inner[0],) * 4 + inner[1:]
        shape = np.broadcast_shapes(
            x.shape, y.shape, z.shape, np.shape(h), *(np.shape(s) for s in inner)
        )
        outer = _stencil(x, y, z, h)
        phi = self._stencil_potential(
            [point for centre, hk in zip(outer, steps) for point in _stencil(*centre, hk)], shape
        )
        e2 = [
            _magnitude_squared(*_central(phi[6 * k:6 * k + 6], hk)) for k, hk in enumerate(steps)
        ]
        return tuple((e2[2 * k] - e2[2 * k + 1]) / (2.0 * h) for k in range(3))

    def _step(self, z, step):
        if step is not None:
            return step
        zmin = float(np.min(z))
        return max(zmin * 0.02, 1e-9)


def _tile_sum(phi, edges, corners, x, y, heights, coefs, is_complex, scalar):
    """``phi`` plus the terms of one tile of :meth:`ArrayFieldModel._patch_sum`.

    ``edges`` are the tile's distinct corners and ``corners`` the slots
    of each patch's four corners; ``x, y`` are the points and
    ``heights`` their height rows (direct, then lid images).  ``coefs``
    holds each patch's amplitude per row, as a ``(patch, row, 1)`` float
    array when no amplitude is complex (``is_complex``).  Each patch's
    solid angle is ``c22 - c12 - c21 + c11``, the order of
    :func:`rectangle_solid_angle`.
    """
    two_pi = 2.0 * np.pi
    corner = _corner(edges[:, 0] - x, edges[:, 1] - y, heights)
    omega = corner[corners[0]]
    omega -= corner[corners[1]]
    omega -= corner[corners[2]]
    omega += corner[corners[3]]
    del corner
    # Row 0 of ``acc`` seeds the sum; the terms follow in patch order,
    # each in the arithmetic a per-patch loop gives it: real amplitudes
    # in float, complex ones in complex.
    acc = np.empty((1 + omega.shape[0] * omega.shape[1], omega.shape[2]), dtype=complex)
    acc[0] = phi
    terms = acc[1:].reshape(omega.shape)
    if not any(is_complex):
        # amp * omega / two_pi, in place (float products commute)
        omega *= coefs
        omega /= two_pi
        terms[...] = omega
    else:
        for out, amps, rows, cx in zip(terms, coefs, omega, is_complex):
            if not cx:
                out[...] = np.array(amps, dtype=float)[:, None] * rows / two_pi
            elif scalar:
                out[...] = [[amp * w / two_pi for w in row] for amp, row in zip(amps, rows)]
            else:
                out[...] = np.array(amps, dtype=complex)[:, None] * rows / two_pi
    return np.cumsum(acc, axis=0, out=acc)[-1]


def _stencil(x, y, z, h):
    """The six central-difference points about ``(x, y, z)``:
    ``x + h``, ``x - h``, ``y + h``, ``y - h``, ``z + h``, ``z - h``."""
    return (
        (x + h, y, z), (x - h, y, z),
        (x, y + h, z), (x, y - h, z),
        (x, y, z + h), (x, y, z - h),
    )


def _central(phi, h):
    """The field ``-grad phi`` from the potential at the six
    :func:`_stencil` points (leading index of ``phi``)."""
    ex = -(phi[0] - phi[1]) / (2.0 * h)
    ey = -(phi[2] - phi[3]) / (2.0 * h)
    ez = -(phi[4] - phi[5]) / (2.0 * h)
    return ex, ey, ez


def _magnitude_squared(ex, ey, ez):
    """|E|^2 of the field phasor ``(ex, ey, ez)``."""
    return (np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2).real


def checkerboard_cage_patches(pitch, voltage, center=(0.0, 0.0), radius_cells=2):
    """Electrode pattern of a single DEP cage (counter-phase centre electrode).

    The paper's chip creates a closed nDEP cage by driving one electrode
    in counter-phase (-V) while its neighbourhood is driven in phase
    (+V) with the lid grounded; the field minimum sits above the
    counter-phase electrode and traps a negative-DEP particle in
    levitation.  This helper builds the ``(2*radius_cells+1)^2`` patch
    neighbourhood centred at ``center`` (a grid-aligned point).

    Returns a list of :class:`ElectrodePatch`.
    """
    cx, cy = center
    patches = []
    for i in range(-radius_cells, radius_cells + 1):
        for j in range(-radius_cells, radius_cells + 1):
            amplitude = -voltage if (i == 0 and j == 0) else +voltage
            x0 = cx + (i - 0.5) * pitch
            y0 = cy + (j - 0.5) * pitch
            patches.append(
                ElectrodePatch(x0, x0 + pitch, y0, y0 + pitch, amplitude)
            )
    return patches


def cage_field_model(pitch, voltage, lid_height, center=(0.0, 0.0), radius_cells=2):
    """Convenience constructor: a single-cage :class:`ArrayFieldModel`."""
    return ArrayFieldModel(
        patches=checkerboard_cage_patches(pitch, voltage, center, radius_cells),
        lid_height=lid_height,
    )
