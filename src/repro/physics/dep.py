"""Dielectrophoresis: forces, cages, levitation and holding.

The point-dipole DEP force on a spherical particle of radius ``R`` in a
medium of absolute permittivity ``eps_m`` is::

    F = 2 pi eps_m R^3 Re[K(omega)] grad |E_rms|^2

with ``K`` the Clausius--Mossotti factor (:mod:`repro.physics.dielectrics`).
Negative ``Re[K]`` (nDEP) pushes the particle towards field minima: the
paper's chip programs a counter-phase electrode surrounded by in-phase
neighbours so that a *closed* field minimum forms above the electrode,
trapping the particle in stable levitation.

This module provides:

* :func:`dep_force` -- the point-dipole force given ``grad |E|^2``.
* :func:`dep_force_scale` -- the analytic V^2/d^3 scaling used by the
  technology trade-off study (claim C1 of DESIGN.md).
* :class:`DepCage` -- a trapped-particle abstraction: levitation height,
  stiffness, maximum drag speed and holding force, all computed from the
  semi-analytic field model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import EPSILON_0, GRAVITY, WATER_DENSITY
from .dielectrics import clausius_mossotti
from .fields import cage_field_model


#: Brent solver tolerances and iteration cap: scipy's ``brentq`` defaults,
#: fixed so that every levitation height matches a scipy solve bit for bit.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100

#: Heights in the levitation scan, and how many of them one force call
#: evaluates (see :meth:`DepCage.levitation_height`).
_SCAN_HEIGHTS = 96
_SCAN_CHUNK = 24


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def _brackets(fa, fb):
    """Whether end values ``fa``, ``fb`` bracket a root for
    :func:`_brentq`: one is zero or their sign bits differ."""
    return fa == 0.0 or fb == 0.0 or _signbit(fa) != _signbit(fb)


def _brentq(f, a, b):
    """A root of ``f`` in ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``) at
    its default tolerances.  It performs the same IEEE double operations
    in the same order, so it returns the same root bit for bit.  Raises
    :class:`ValueError` when ``f(a)`` and ``f(b)`` do not bracket a root
    or ``f`` returns NaN, and :class:`RuntimeError` when it has not
    converged after ``_BRENT_MAXITER`` iterations.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not _brackets(fpre, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for __ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} iterations")


def dep_force(radius, medium_permittivity, real_cm_factor, grad_e2):
    """Point-dipole DEP force [N].

    Parameters
    ----------
    radius:
        Particle radius [m].
    medium_permittivity:
        Absolute permittivity of the medium [F/m].
    real_cm_factor:
        Re[K(omega)], in [-0.5, 1].
    grad_e2:
        Gradient of |E_rms|^2 -- scalar component or ndarray [V^2/m^3].
    """
    return 2.0 * math.pi * medium_permittivity * radius**3 * real_cm_factor * np.asarray(grad_e2)


def dep_force_scale(radius, voltage, pitch, medium_relative_permittivity=78.5, cm=0.5):
    """Characteristic DEP force magnitude [N] from dimensional analysis.

    ``|grad E^2| ~ V^2 / d^3`` for electrode pitch ``d``, so::

        F ~ 2 pi eps_m R^3 |K| V^2 / d^3

    This is the scaling behind the paper's claim that *older technology
    generations may best fit*: actuation force grows with the square of
    the supply voltage, which shrinks with every new CMOS node.
    """
    eps_m = medium_relative_permittivity * EPSILON_0
    return 2.0 * math.pi * eps_m * radius**3 * abs(cm) * voltage**2 / pitch**3


def buoyant_weight(radius, particle_density, medium_density=WATER_DENSITY):
    """Net gravitational force on an immersed sphere [N] (positive = down)."""
    volume = 4.0 / 3.0 * math.pi * radius**3
    return volume * (particle_density - medium_density) * GRAVITY


@dataclass
class DepCage:
    """A closed nDEP cage above one counter-phase electrode.

    Combines the semi-analytic array field with the point-dipole force to
    answer the questions the paper's platform poses: where does the
    particle levitate, how stiff is the trap, and how fast can a moving
    cage drag the particle before it falls out?

    Parameters
    ----------
    pitch:
        Electrode pitch [m] (the paper's chip: 20 um).
    voltage:
        Drive amplitude [V] (RMS phasor magnitude).
    lid_height:
        Chamber height / lid distance [m].
    particle:
        Object with ``complex_permittivity`` and ``radius`` (e.g.
        :class:`repro.bio.particles.Particle` dielectric model).
    medium:
        :class:`repro.physics.dielectrics.Dielectric` of the buffer.
    frequency:
        Drive frequency [Hz].
    particle_density:
        Mass density of the particle [kg/m^3].
    """

    pitch: float
    voltage: float
    lid_height: float
    particle: object
    medium: object
    frequency: float
    particle_density: float = 1070.0

    def __post_init__(self):
        self._model = cage_field_model(self.pitch, self.voltage, self.lid_height)
        omega = 2.0 * math.pi * self.frequency
        self._cm = float(np.real(clausius_mossotti(self.particle, self.medium, omega)))
        self._eps_m = self.medium.absolute_permittivity

    @property
    def real_cm(self) -> float:
        """Re[K] at the drive frequency."""
        return self._cm

    @property
    def radius(self) -> float:
        return self.particle.radius

    def force_at(self, x, y, z):
        """DEP force vector (Fx, Fy, Fz) at a point [N]."""
        return self._force(self._model.grad_e2(x, y, z))

    def _force(self, grad):
        """The DEP force of the gradient ``grad`` of |E|^2."""
        gx, gy, gz = grad
        scale = 2.0 * math.pi * self._eps_m * self.radius**3 * self._cm
        return scale * np.asarray(gx), scale * np.asarray(gy), scale * np.asarray(gz)

    def vertical_force(self, z):
        """Vertical DEP force on the cage axis at height ``z`` [N]."""
        __, __, fz = self.force_at(0.0, 0.0, z)
        return float(fz)

    def net_vertical_force(self, z):
        """DEP force minus buoyant weight at height ``z`` [N]."""
        return self.vertical_force(z) - buoyant_weight(
            self.radius, self.particle_density
        )

    def levitation_height(self):
        """Stable levitation height of the trapped particle [m].

        Finds the equilibrium ``z`` where the upward nDEP force balances
        the buoyant weight, scanning the cage axis from just above the
        electrode to just below the lid.  Returns ``None`` when the cage
        cannot levitate the particle (e.g. pDEP particle or drive too
        weak) -- which is itself a meaningful engineering answer.

        The scan's ``_SCAN_HEIGHTS`` evenly spaced heights are evaluated
        from the bottom in chunks of ``_SCAN_CHUNK``, and the scan stops
        at the first height pair where the net force crosses from up to
        down; Brent's method then solves that bracket.  Every chunk uses
        the finite-difference steps of the whole scan, so each force is
        the one a single call over all heights gives, and the bracket
        and the height are those of the full scan.  On the chip's
        geometry (20 um pitch, 100 um chamber) a bead balances about one
        pitch above the electrodes, inside the first chunk.
        """
        if self._cm >= 0.0:
            return None
        z_lo = max(self.radius, 0.02 * self.pitch)
        z_hi = self.lid_height - max(self.radius, 0.02 * self.pitch)
        if z_lo >= z_hi:
            return None
        zs = np.linspace(z_lo, z_hi, _SCAN_HEIGHTS)
        steps = self._model._grad_steps(zs, None)
        weight = buoyant_weight(self.radius, self.particle_density)
        net = np.empty_like(zs)
        for start in range(0, len(zs), _SCAN_CHUNK):
            chunk = zs[start:start + _SCAN_CHUNK]
            zero = np.zeros_like(chunk)
            __, __, fz = self._force(self._model._grad_e2(zero, zero, chunk, *steps))
            net[start:start + len(chunk)] = fz - weight
            # A stable equilibrium has net force crossing + -> - as z grows.
            for i in range(max(start - 1, 0), start + len(chunk) - 1):
                if net[i] > 0.0 >= net[i + 1]:
                    return self._balance(float(zs[i]), float(zs[i + 1]))
        return None

    def _balance(self, lo, hi):
        """The balance point in the bracket ``[lo, hi]`` of the scan."""
        ends = {lo: self.net_vertical_force(lo), hi: self.net_vertical_force(hi)}
        if not _brackets(ends[lo], ends[hi]):
            # The scalar force differs from the scan's vectorised
            # one by up to ~1e-11 N, enough to flip the sign at
            # an end where the net force is that small: that end
            # is then the balance point.
            return min(ends, key=lambda z: abs(ends[z]))
        return _brentq(
            lambda z: ends[z] if z in ends else self.net_vertical_force(z),
            lo,
            hi,
        )

    def lateral_stiffness(self, z=None, probe=None):
        """Lateral trap stiffness k [N/m] near the cage axis.

        Linearises the lateral restoring force at levitation height
        (``Fx ~ -k x``).  A positive return value means the trap is
        laterally stable.
        """
        if z is None:
            z = self.levitation_height()
            if z is None:
                return None
        probe = probe if probe is not None else 0.05 * self.pitch
        fx_plus, __, __ = self.force_at(probe, 0.0, z)
        fx_minus, __, __ = self.force_at(-probe, 0.0, z)
        return -float(fx_plus - fx_minus) / (2.0 * probe)

    def max_lateral_force(self, z=None, n=64):
        """Maximum restoring lateral force along x at height ``z`` [N].

        This is the holding force that limits how fast the cage can be
        dragged: moving the cage exerts viscous drag on the particle, and
        the particle escapes when drag exceeds this force.
        """
        if z is None:
            z = self.levitation_height()
            if z is None:
                return None
        xs = np.linspace(0.01 * self.pitch, 1.2 * self.pitch, n)
        fx, __, __ = self.force_at(xs, np.zeros_like(xs), np.full_like(xs, z))
        return float(np.max(-np.asarray(fx)))

    def max_drag_speed(self, viscosity=0.89e-3, z=None):
        """Maximum cage translation speed before particle loss [m/s].

        Balances the Stokes drag ``6 pi eta R v`` against the maximum
        lateral holding force.  The paper quotes typical achieved speeds
        of 10-100 um/s.
        """
        f_max = self.max_lateral_force(z=z)
        if f_max is None or f_max <= 0.0:
            return 0.0
        return f_max / (6.0 * math.pi * viscosity * self.radius)
