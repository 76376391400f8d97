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
        enabled -- one size-``n`` flicker-drive draw.

        The flicker AR(1) recursion ``s[i] = rho*s[i-1] + drive[i]`` is
        evaluated as a log-depth doubling scan (Hillis & Steele, CACM
        1986) in place on the drive array ``x``: the carried state is
        folded in with ``x[0] += rho*s0`` (the recursion's first step,
        exactly), then for ``k = 1, 2, 4, ... < n`` each element adds
        ``rho**k`` times the element ``k`` before it, after which
        ``x[i]`` sums ``2k`` terms of the recursion.  That is
        ``ceil(log2 n)`` numpy calls instead of ``n`` Python iterations.
        The scan rounds in a different order from the sequential loop, so
        trajectories -- and the carried ``_flicker_state`` -- may differ
        from it by a few ulps (~1e-14 of ``flicker_sigma``).  Quantised readings do not
        change: a sample would have to land within those few ulps of an
        ADC code edge.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        white = self.rng.normal(0.0, self.white_sigma, size=n) if self.white_sigma else np.zeros(n)
        if self.flicker_sigma == 0.0:
            return white
        rho = self.flicker_correlation
        # The drive draw, scanned in place into the flicker trajectory.
        flicker = self.rng.normal(
            0.0, self.flicker_sigma * math.sqrt(1.0 - rho**2), size=n
        )
        flicker[0] += rho * self._flicker_state
        k, rho_k = 1, rho
        while k < n:
            flicker[k:] += rho_k * flicker[:-k]
            k *= 2
            rho_k *= rho_k
        self._flicker_state = float(flicker[-1])
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
        one vector op across all rows, rather than the doubling scan of
        :meth:`sample`: the scan does ``n log n`` work instead of ``n``,
        which only pays when the per-step Python overhead dominates, as
        it does for one row.  Measured on a shared 2-vCPU host, the scan
        made ``sample_block(11449, 50)`` 8-16% slower (~19 -> ~21.5 ms)
        and a 64-sample ``sense_all`` of 11,449 cages on a 320x320 chip
        7% slower (50.9 -> 54.3 ms).
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
        flicker = np.empty((n, n_rows))
        state = np.full(n_rows, self._flicker_state)
        for i in range(n):
            state *= rho
            state += drive[i]
            flicker[i] = state
        self._flicker_state = float(state[-1])
        white += flicker.T
        return white
