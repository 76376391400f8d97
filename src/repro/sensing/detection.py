"""Particle detection and localisation from pixel sample maps.

Turns raw readout-chain samples into the decisions the platform needs:
"is there a particle over this pixel?" (threshold detection with
calibratable false-alarm rate) and "where exactly is it?" (sub-pixel
centroid localisation over a neighbourhood) -- plus the evaluation
machinery (ROC sweeps, confusion matrices) used by the detection
benchmark (experiment X3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_erf = np.vectorize(math.erf, otypes=[float])


def _erfcinv(y):
    """Inverse complementary error function for ``0 < y < 1``.

    Newton's method on ``log(erfc(x)) = log(y)``, started from
    ``sqrt(-log(y))``, which the Chernoff bound ``erfc(x) <= exp(-x^2)``
    puts at or right of the root; ``log(erfc)`` is concave, so the
    iterates then fall monotonically onto it, in at most six steps for
    ``2e-15 <= y <= 0.9998``.  Solving against ``erfc`` rather than ``erf``
    keeps the tail well conditioned: near ``erf(x) = 1`` a double has no
    digits left to resolve ``x``.
    """
    log_y = math.log(y)
    x = math.sqrt(-log_y)
    for __ in range(16):
        tail = math.erfc(x)
        step = (math.log(tail) - log_y) * tail * (math.sqrt(math.pi) / 2.0) * math.exp(x * x)
        x += step
        if abs(step) <= 1e-14 * x:
            break
    return x


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * (1.0 - _erf(np.asarray(x, dtype=float) / math.sqrt(2.0)))


def threshold_for_false_alarm(noise_rms, false_alarm_rate):
    """Detection threshold [signal units] for a target false-alarm rate."""
    if not 0.0 < false_alarm_rate < 0.5:
        raise ValueError("false alarm rate must be in (0, 0.5)")
    if noise_rms <= 0.0:
        raise ValueError("noise must be positive")
    return noise_rms * math.sqrt(2.0) * _erfcinv(2.0 * false_alarm_rate)


def detection_probability(signal, noise_rms, threshold):
    """P(detect) for a Gaussian channel: Q((threshold - signal)/noise)."""
    if noise_rms <= 0.0:
        raise ValueError("noise must be positive")
    return float(q_function((threshold - signal) / noise_rms))


def roc_curve(signal, noise_rms, n_points=50):
    """(false alarm, detection) pairs sweeping the threshold.

    Analytic Gaussian ROC -- the ideal-observer reference the empirical
    detector is compared against.
    """
    thresholds = np.linspace(-3.0 * noise_rms, signal + 4.0 * noise_rms, n_points)
    pfa = q_function(thresholds / noise_rms)
    pd = q_function((thresholds - signal) / noise_rms)
    return list(zip(pfa.tolist(), pd.tolist()))


@dataclass
class ThresholdDetector:
    """Per-pixel presence detector on averaged readings.

    Parameters
    ----------
    threshold:
        Decision threshold on |averaged reading| [V].
    polarity:
        +1 if particles increase the reading, -1 if they decrease it,
        0 to detect on magnitude (default -- capacitive signals can have
        either sign depending on the particle/medium contrast).
    """

    threshold: float
    polarity: int = 0

    def __post_init__(self):
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.polarity not in (-1, 0, 1):
            raise ValueError("polarity must be -1, 0 or +1")

    def decide(self, reading) -> bool:
        """Presence decision for one averaged reading."""
        if self.polarity == 0:
            return abs(reading) >= self.threshold
        return self.polarity * reading >= self.threshold

    def decide_map(self, readings):
        """Boolean presence map for an ndarray of readings."""
        readings = np.asarray(readings, dtype=float)
        if self.polarity == 0:
            return np.abs(readings) >= self.threshold
        return self.polarity * readings >= self.threshold


@dataclass
class ConfusionMatrix:
    """Binary detection outcome counts and derived rates."""

    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0

    def record(self, truth, decision):
        """Accumulate one (truth, decision) outcome."""
        if truth and decision:
            self.true_positive += 1
        elif truth and not decision:
            self.false_negative += 1
        elif not truth and decision:
            self.false_positive += 1
        else:
            self.true_negative += 1

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
        )

    @property
    def sensitivity(self) -> float:
        """Detection rate among true particles (recall)."""
        denom = self.true_positive + self.false_negative
        return self.true_positive / denom if denom else float("nan")

    @property
    def specificity(self) -> float:
        """Correct-rejection rate among empty pixels."""
        denom = self.true_negative + self.false_positive
        return self.true_negative / denom if denom else float("nan")

    @property
    def accuracy(self) -> float:
        return (
            (self.true_positive + self.true_negative) / self.total
            if self.total
            else float("nan")
        )


def evaluate_detector(detector, readings, truth):
    """Run a detector over a reading map against ground truth.

    ``readings`` and ``truth`` are same-shape ndarrays (float, bool).
    Returns a :class:`ConfusionMatrix`.
    """
    readings = np.asarray(readings, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    if readings.shape != truth.shape:
        raise ValueError("readings and truth shapes differ")
    decisions = detector.decide_map(readings)
    matrix = ConfusionMatrix()
    matrix.true_positive = int(np.count_nonzero(decisions & truth))
    matrix.false_positive = int(np.count_nonzero(decisions & ~truth))
    matrix.true_negative = int(np.count_nonzero(~decisions & ~truth))
    matrix.false_negative = int(np.count_nonzero(~decisions & truth))
    return matrix


def centroid_localisation(readings, origin=(0, 0), pitch=1.0):
    """Sub-pixel position estimate from a neighbourhood of |readings|.

    Intensity-weighted centroid over the supplied window.  ``origin`` is
    the (row, col) grid index of the window's top-left pixel; the return
    value is the physical (x, y) estimate using the grid convention of
    :class:`~repro.array.grid.ElectrodeGrid` (pixel centre at index+0.5).
    """
    readings = np.abs(np.asarray(readings, dtype=float))
    total = readings.sum()
    if total <= 0.0:
        raise ValueError("cannot localise: zero total intensity")
    rows, cols = np.indices(readings.shape)
    row0, col0 = origin
    row_centroid = (rows * readings).sum() / total + row0
    col_centroid = (cols * readings).sum() / total + col0
    return ((col_centroid + 0.5) * pitch, (row_centroid + 0.5) * pitch)
