"""The readout chain: sensor -> charge amplifier -> ADC -> samples.

Joins the transducer models to the noise models and produces the
digitised sample streams every detection algorithm downstream consumes.
The chain is deliberately explicit about where each noise contribution
enters (kTC at the sampling switch, amplifier input-referred white +
flicker noise, ADC quantisation) because the paper's averaging claim is
precisely about which of these average away (white does, flicker and
quantisation-with-constant-input do not -- we add a dither-ish
assumption for quantisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..physics.constants import ROOM_TEMPERATURE
from ..physics.noise import NoiseGenerator, ktc_noise_voltage
from .capacitive import CapacitiveSensor


@dataclass
class ChargeAmplifier:
    """Charge-sensitive front-end converting dQ to volts.

    Parameters
    ----------
    feedback_capacitance:
        Feedback (integration) capacitor [F]; gain = 1/Cf [V/C].
    input_white_noise:
        Input-referred white noise RMS per sample [V].
    input_flicker_noise:
        Input-referred slow (1/f-like) noise RMS [V]; does not average.
    """

    #: Defaults: correlated double sampling suppresses most of the 1/f
    #: component, leaving a ~20 uV slow residual under ~150 uV white.
    feedback_capacitance: float = 50e-15
    input_white_noise: float = 150e-6
    input_flicker_noise: float = 20e-6

    def __post_init__(self):
        if self.feedback_capacitance <= 0.0:
            raise ValueError("feedback capacitance must be positive")

    def gain(self) -> float:
        """Conversion gain [V/C]."""
        return 1.0 / self.feedback_capacitance

    def output_voltage(self, charge) -> float:
        """Ideal (noiseless) output for a signal charge [V]."""
        return charge * self.gain()


@dataclass
class AnalogToDigital:
    """Uniform quantiser with full-scale range and resolution."""

    bits: int = 10
    full_scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.bits <= 24:
            raise ValueError("bits must be within [1, 24]")
        if self.full_scale <= 0.0:
            raise ValueError("full scale must be positive")

    @property
    def lsb(self) -> float:
        """One least-significant-bit step [V]."""
        return self.full_scale / (2**self.bits)

    def quantise(self, voltages):
        """Quantise voltages to code centres, clipping at the rails.

        Works in place on one private copy of the input, so the caller's
        array is never touched; a scalar input gives a numpy scalar.
        """
        v = self.quantise_in_place(np.array(voltages, dtype=float))
        return v if v.ndim else v[()]

    def quantise_in_place(self, v):
        """:meth:`quantise` on a float array the caller owns; returns it.

        Clamping the code to ``[0, 2**bits - 1]`` also clamps the voltage
        to the rails: ``full_scale / lsb`` is exactly ``2**bits``.
        """
        lsb = self.lsb
        v /= lsb
        np.floor(v, out=v)
        np.maximum(v, 0.0, out=v)
        np.minimum(v, 2**self.bits - 1, out=v)
        v += 0.5
        v *= lsb
        return v

    def quantisation_noise_rms(self) -> float:
        """RMS quantisation noise LSB/sqrt(12) [V]."""
        return self.lsb / math.sqrt(12.0)


@dataclass
class CapacitiveReadoutChain:
    """Full capacitive pixel readout: sensor + CDS amplifier + ADC.

    ``sample_pixel`` produces digitised samples for a pixel with or
    without a particle; correlated double sampling (CDS) is assumed for
    offset, so the observable is the *signal* voltage plus noise riding
    on a mid-scale pedestal.
    """

    sensor: CapacitiveSensor
    amplifier: ChargeAmplifier = field(default_factory=ChargeAmplifier)
    adc: AnalogToDigital = field(default_factory=AnalogToDigital)
    temperature: float = ROOM_TEMPERATURE
    pedestal_fraction: float = 0.25
    rng: object = None

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        ktc = ktc_noise_voltage(self.amplifier.feedback_capacitance, self.temperature)
        white = math.hypot(self.amplifier.input_white_noise, ktc)
        self._noise = NoiseGenerator(
            white_sigma=white,
            flicker_sigma=self.amplifier.input_flicker_noise,
            rng=self.rng,
        )

    @property
    def pedestal(self) -> float:
        """Mid-scale operating point the signal rides on [V]."""
        return self.pedestal_fraction * self.adc.full_scale

    def signal_voltage(self, particle, height=None) -> float:
        """Noise-free signal amplitude for a particle [V]."""
        charge = self.sensor.signal_charge(particle, height)
        return self.amplifier.output_voltage(charge)

    def noise_floor(self) -> float:
        """Single-sample RMS analog noise at the amplifier output [V]."""
        return math.hypot(self._noise.white_sigma, self._noise.flicker_sigma)

    def noise_after_averaging(self, n_samples) -> float:
        """Residual RMS noise of an N-sample mean [V].

        The white component averages as 1/sqrt(N); the flicker component
        is strongly correlated across consecutive samples and does not,
        so it sets the floor -- which is why the platform's detection
        thresholds must use this, not noise_floor()/sqrt(N).
        """
        if n_samples < 1:
            raise ValueError("need at least one sample")
        white = self._noise.white_sigma / math.sqrt(n_samples)
        return math.hypot(white, self._noise.flicker_sigma)

    def sample_pixel(self, particle=None, height=None, n_samples=1):
        """Digitised samples for one pixel.

        Returns an ndarray of ``n_samples`` ADC output voltages.  When
        ``particle`` is None the pixel is empty and samples contain only
        the pedestal plus noise.
        """
        signal = self.signal_voltage(particle, height) if particle is not None else 0.0
        analog = self.pedestal + signal + self._noise.sample(n_samples)
        return self.adc.quantise(analog)

    def averaged_reading(self, particle=None, height=None, n_samples=1) -> float:
        """Mean of ``n_samples`` digitised samples minus the pedestal [V].

        :meth:`averaged_reading_from_signal` for the particle's signal
        voltage (zero for an empty pixel).
        """
        signal = self.signal_voltage(particle, height) if particle is not None else 0.0
        return self.averaged_reading_from_signal(signal, n_samples)

    def averaged_reading_from_signal(self, signal, n_samples=1) -> float:
        """Averaged pedestal-removed reading for a known signal level [V].

        The one single-pixel averaging chain: :meth:`averaged_reading`
        calls it with one particle's signal, and the chip calls it with
        combined multi-particle cage signals, where the caller sums the
        per-particle contributions.  RNG use is one
        :meth:`~repro.physics.noise.NoiseGenerator.sample` call.
        """
        analog = self._noise.sample(n_samples)
        analog += self.pedestal + signal
        codes = self.adc.quantise_in_place(analog)
        # np.mean's own pairwise sum and division, without its overhead.
        return float(codes.sum()) / codes.size - self.pedestal

    def batch_readings(self, signals, n_samples=1, max_block=4_000_000):
        """Averaged pedestal-removed readings for many pixels at once [V].

        The array-scan counterpart of :meth:`averaged_reading_from_signal`:
        one vectorized pass draws noise, adds each pixel's signal,
        quantises, and averages -- no per-pixel Python loop.  Pixels are
        processed in blocks of at most ``max_block`` samples to bound
        memory (a full 320x320-scale population times thousands of
        samples would not fit in RAM as one matrix).

        RNG stream (documented): per block of pixels, one
        ``(block, n_samples)`` white draw then one flicker-drive draw
        (see :meth:`~repro.physics.noise.NoiseGenerator.sample_block`),
        blocks in pixel order.  Per-pixel readings are identical in
        distribution to sequential :meth:`averaged_reading` calls, not
        bit-identical to them.
        """
        if n_samples < 1:
            raise ValueError("need at least one sample")
        signals = np.asarray(signals, dtype=float)
        if signals.ndim != 1:
            raise ValueError("signals must be one-dimensional")
        readings = np.empty(signals.size)
        block = max(1, max_block // n_samples)
        for start in range(0, signals.size, block):
            chunk = signals[start : start + block]
            analog = self._noise.sample_block(chunk.size, n_samples)
            analog += self.pedestal
            analog += chunk[:, None]
            readings[start : start + block] = (
                self.adc.quantise_in_place(analog).mean(axis=1) - self.pedestal
            )
        return readings

    def single_sample_snr(self, particle, height=None) -> float:
        """Linear single-sample SNR (signal / analog noise floor)."""
        noise = self.noise_floor()
        if noise == 0.0:
            return math.inf
        return self.signal_voltage(particle, height) / noise

    def time_per_sample(self, addresser=None) -> float:
        """Seconds per sample: one row-scan slot (or 1 us default)."""
        if addresser is None:
            return 1e-6
        return addresser.row_scan_time()
