"""Electronic noise models for the sensing chain.

The paper's second consideration -- *mass transfer is slow compared to
electronics, exploit it creatively, e.g. averaging sensor output for
thermal noise reduction* -- is a statement about white noise: averaging
``N`` independent samples reduces the RMS by ``sqrt(N)``.  This module
provides the physical noise sources of the capacitive/optical readout
chain and the averaging statistics used by claim C3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, ELEMENTARY_CHARGE, ROOM_TEMPERATURE


def johnson_noise_voltage(resistance, bandwidth, temperature=ROOM_TEMPERATURE):
    """RMS Johnson (thermal) noise voltage of a resistor [V].

    v_rms = sqrt(4 k T R B)
    """
    if resistance < 0.0 or bandwidth < 0.0:
        raise ValueError("resistance and bandwidth must be non-negative")
    return math.sqrt(4.0 * BOLTZMANN * temperature * resistance * bandwidth)


def ktc_noise_charge(capacitance, temperature=ROOM_TEMPERATURE):
    """RMS kTC sampling noise charge on a capacitor [C]."""
    if capacitance <= 0.0:
        raise ValueError("capacitance must be positive")
    return math.sqrt(BOLTZMANN * temperature * capacitance)


def ktc_noise_voltage(capacitance, temperature=ROOM_TEMPERATURE):
    """RMS kTC sampling noise voltage on a capacitor [V]."""
    return ktc_noise_charge(capacitance, temperature) / capacitance


def shot_noise_current(dc_current, bandwidth):
    """RMS shot noise current of a DC current [A]: sqrt(2 q I B)."""
    if dc_current < 0.0 or bandwidth < 0.0:
        raise ValueError("current and bandwidth must be non-negative")
    return math.sqrt(2.0 * ELEMENTARY_CHARGE * dc_current * bandwidth)


def flicker_noise_voltage(kf, f_low, f_high):
    """RMS 1/f (flicker) noise voltage integrated over a band [V].

    ``kf`` is the flicker coefficient [V^2] such that the PSD is
    ``kf / f``; integration gives ``sqrt(kf * ln(f_high/f_low))``.
    Flicker noise does *not* average away with repeated sampling, which
    is why the averaging claim is about the *thermal* component.
    """
    if not (0.0 < f_low < f_high):
        raise ValueError("require 0 < f_low < f_high")
    return math.sqrt(kf * math.log(f_high / f_low))


def averaged_white_noise(sigma, n_samples):
    """RMS of the mean of ``n_samples`` i.i.d. white-noise samples.

    The sqrt(N) law at the heart of the paper's time-for-quality trade.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return sigma / math.sqrt(n_samples)


def snr_db(signal_rms, noise_rms):
    """Signal-to-noise ratio in dB."""
    if noise_rms <= 0.0:
        raise ValueError("noise must be positive")
    if signal_rms < 0.0:
        raise ValueError("signal must be non-negative")
    if signal_rms == 0.0:
        return -math.inf
    return 20.0 * math.log10(signal_rms / noise_rms)


def snr_after_averaging(signal_rms, white_sigma, n_samples, floor_sigma=0.0):
    """SNR in dB after averaging ``n_samples``.

    ``floor_sigma`` models the non-averaging residual (flicker, fixed
    pattern noise): total noise is the RSS of the averaged white
    component and the floor.  With a non-zero floor the SNR saturates --
    the realistic version of the sqrt(N) curve.
    """
    white = averaged_white_noise(white_sigma, n_samples)
    total = math.hypot(white, floor_sigma)
    return snr_db(signal_rms, total)


def samples_for_target_snr(signal_rms, white_sigma, target_db, floor_sigma=0.0):
    """Minimum averaging count to reach ``target_db`` SNR, or None.

    Returns ``None`` when the floor makes the target unreachable.
    """
    target_noise = signal_rms / 10.0 ** (target_db / 20.0)
    residual_sq = target_noise**2 - floor_sigma**2
    if residual_sq <= 0.0:
        return None
    return max(1, math.ceil((white_sigma**2) / residual_sq))


#: The flicker cumulative sum runs in chunks of at most this many
#: samples, which bounds each correlation's power table at 8 KiB; at the
#: chip's correlation of 0.999 one chunk covers a read.
_CHUNK_MAX = 1024
#: ... and of at most as many as keep ``rho**-i`` within ``2**64``, so no
#: scaled drive of a chunk can overflow.
_CHUNK_LOG_RANGE = 64 * math.log(2.0)
#: rho -> read-only ``rho**-i`` for i below rho's chunk length.  It
#: depends on rho alone, so every generator shares it.
_POWERS = {}


def _power_table(rho):
    """The cached ``rho**-i`` table, one chunk long.

    Built from Python floats, not the numpy power ufunc, whose first
    call pages in code the sense path otherwise never needs.
    """
    table = _POWERS.get(rho)
    if table is None:
        size = min(_CHUNK_MAX, 1 + int(_CHUNK_LOG_RANGE / -math.log(rho)))
        if len(_POWERS) >= 64:
            _POWERS.clear()
        table = np.array([rho**-i for i in range(size)])
        table.flags.writeable = False
        _POWERS[rho] = table
    return table


def _flicker_trajectory(drive, rho, state):
    """Run the AR(1) recursion ``s[i] = rho*s[i-1] + drive[i]`` in place.

    ``drive`` becomes the trajectory started from ``state``; returns the
    final state as a float.  Unrolled, ``s[i] = (rho*state +
    sum(rho**-j * drive[j] for j <= i)) / rho**-i``: the prefix-sum form
    of a linear recurrence (Blelloch, 1990).  So the carried state is
    folded into the first drive, each drive scaled by ``rho**-j``, one
    cumulative sum taken and each sum divided by ``rho**-i``, chunk by
    chunk (:data:`_CHUNK_MAX`, :data:`_CHUNK_LOG_RANGE`), each chunk
    started from the last one's final state.  A rounding error made at
    step ``j`` reaches step ``i`` scaled by ``rho**(i - j)``, as in the
    sequential loop, so the trajectory stays within a few ulps of it.
    ``rho == 0`` leaves the drive as it is.
    """
    if rho == 0.0:
        return float(drive[-1])
    table = _power_table(rho)
    size = table.size
    for start in range(0, drive.size, size):
        chunk = drive[start : start + size]
        powers = table[: chunk.size]
        chunk[0] += rho * state
        chunk *= powers
        np.add.accumulate(chunk, out=chunk)
        chunk /= powers
        state = float(chunk[-1])
    return state


@dataclass
class NoiseGenerator:
    """Sampled noise source combining white and flicker-like components.

    Used by the sensor simulations: ``sample(n)`` returns ``n``
    consecutive noise samples where the white part is i.i.d. Gaussian
    and the flicker part is a slowly wandering offset (first-order
    autoregressive process with long correlation), so that averaging
    exhibits the realistic sqrt(N)-then-floor behaviour.
    """

    white_sigma: float
    flicker_sigma: float = 0.0
    flicker_correlation: float = 0.999
    rng: object = None

    def __post_init__(self):
        if self.white_sigma < 0.0 or self.flicker_sigma < 0.0:
            raise ValueError("noise amplitudes must be non-negative")
        if not 0.0 <= self.flicker_correlation < 1.0:
            raise ValueError("flicker correlation must be in [0, 1)")
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self._flicker_state = (
            self.rng.normal(0.0, self.flicker_sigma) if self.flicker_sigma else 0.0
        )

    def sample(self, n):
        """Return ``n`` consecutive noise samples [same units as sigma].

        RNG stream: one size-``n`` white draw, then -- when flicker is
        enabled -- one size-``n`` flicker-drive draw.  With flicker
        enabled, both are taken as one unit-normal draw, its halves scaled
        in place into the white noise and the drive: ``normal(0, s)`` is
        ``0.0 + s*z`` per element, so this is bit-identical to the two
        draws.

        The flicker AR(1) recursion ``s[i] = rho*s[i-1] + drive[i]`` is
        evaluated as a cumulative sum (:func:`_flicker_trajectory`), a
        fixed handful of numpy calls per read instead of ``n`` Python
        iterations.  It rounds in a different order from the sequential
        loop, so trajectories -- and the carried ``_flicker_state`` --
        may differ from it by a few ulps (~1e-14 of ``flicker_sigma``).
        Quantised readings do not change: a sample would have to land
        within those few ulps of an ADC code edge.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        if self.flicker_sigma == 0.0:
            if self.white_sigma:
                return self.rng.normal(0.0, self.white_sigma, size=n)
            return np.zeros(n)
        rho = self.flicker_correlation
        draw = self.rng.normal(0.0, 1.0, size=2 * n if self.white_sigma else n)
        flicker = draw[-n:]
        flicker *= self.flicker_sigma * math.sqrt(1.0 - rho**2)
        self._flicker_state = _flicker_trajectory(
            flicker, rho, self._flicker_state
        )
        if not self.white_sigma:
            return flicker
        white = draw[:n]
        white *= self.white_sigma
        white += flicker
        return white

    def sample_block(self, n_rows, n):
        """Return an ``(n_rows, n)`` block of noise trajectories.

        The vectorized counterpart of calling :meth:`sample` once per
        channel: each row is one channel's ``n`` consecutive samples.

        RNG stream (documented for reproducibility): one
        ``(n_rows, n)`` white draw, then -- when flicker is enabled --
        one ``(n, n_rows)`` *sample-major* flicker-drive draw (the AR(1)
        recursion walks samples, so the drive is laid out for contiguous
        per-sample access).  Every row's AR(1) flicker trajectory starts
        from the generator's current shared state (physically: the
        channels sample the same slow drift at scan start, then wander
        independently), and the shared state advances to the *last*
        row's final state.  The per-sample distribution is identical to
        sequential :meth:`sample` calls -- the flicker process is
        stationary -- but the draws are not bit-identical to them.

        The flicker recursion stays a loop over samples here, each step
        two vector ops across all rows that write the trajectory over the
        drive, rather than the cumulative sum of :meth:`sample`: with
        thousands of rows the per-step Python overhead is small next to
        the vector work, and the loop keeps block trajectories and the
        carried state bit-for-bit what they have been, where the sum
        would move them by a few ulps.
        """
        if n_rows < 1 or n < 1:
            raise ValueError("need n_rows >= 1 and n >= 1")
        white = (
            self.rng.normal(0.0, self.white_sigma, size=(n_rows, n))
            if self.white_sigma
            else np.zeros((n_rows, n))
        )
        if self.flicker_sigma == 0.0:
            return white
        rho = self.flicker_correlation
        drive = self.rng.normal(
            0.0, self.flicker_sigma * math.sqrt(1.0 - rho**2), size=(n, n_rows)
        )
        # Each drive row adds rho times the trajectory row before it
        # (``d + rho*s`` rounds exactly as ``rho*s + d``).
        state = np.full(n_rows, self._flicker_state)
        carried = np.empty(n_rows)
        for row in drive:
            np.multiply(state, rho, out=carried)
            row += carried
            state = row
        self._flicker_state = float(state[-1])
        white += drive.T
        return white
