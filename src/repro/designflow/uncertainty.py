"""Model fidelity: how much a simulation can be trusted, and what it costs.

The pivot of the paper's argument for a new fluidic design flow is
*epistemic*: electronic simulation rests on "availability of accurate
models", while fluidic simulation "demand[s] a lot of input parameters
which are uncertain or completely unknown".  We capture that with
:class:`ModelFidelity`: a simulator is a noisy measurement of the true
design margin, with a bias/spread set by parameter uncertainty, plus a
cost and duration per run.

The numbers for the two domains are encoded in the factory functions;
the sweep in :mod:`repro.designflow.compare` varies fidelity
continuously to locate the crossover (experiment F1/F2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..physics.constants import hours


@dataclass(frozen=True)
class ModelFidelity:
    """A simulator as a noisy, priced oracle of the design margin.

    The design's true state is a *margin* ``m`` (positive = meets spec).
    One simulation run returns ``m + bias + noise`` with
    ``noise ~ N(0, sigma)``, after ``run_time`` seconds and
    ``run_cost`` euros (licences, engineer time, cluster).

    Parameters
    ----------
    sigma:
        RMS prediction error, in margin units (margins are normalised
        so the initial design gap is ~1).
    bias:
        Systematic error (unmodelled physics pulls one way).
    run_time:
        Wall-clock per simulation campaign [s].
    run_cost:
        Cost per simulation campaign [EUR].
    """

    sigma: float
    bias: float = 0.0
    run_time: float = hours(8.0)
    run_cost: float = 200.0

    def __post_init__(self):
        if self.sigma < 0.0 or self.run_time < 0.0 or self.run_cost < 0.0:
            raise ValueError("fidelity parameters must be non-negative")

    def predict(self, true_margin, rng) -> float:
        """One simulated estimate of the margin."""
        return true_margin + self.bias + rng.normal(0.0, self.sigma)

    def false_pass_probability(self, true_margin) -> float:
        """P(simulation says pass | design actually fails) at a margin < 0."""
        if self.sigma == 0.0:
            return float(true_margin + self.bias > 0.0)
        z = (0.0 - (true_margin + self.bias)) / self.sigma
        return 0.5 * (1.0 - math.erf(z / math.sqrt(2.0)))


def electronic_fidelity() -> ModelFidelity:
    """IC-design simulation: accurate device models, mature EDA.

    A few-percent margin error; a campaign (corners, extraction,
    verification) of the order of a working day.
    """
    return ModelFidelity(sigma=0.05, bias=0.0, run_time=hours(8.0), run_cost=300.0)


def fluidic_fidelity() -> ModelFidelity:
    """Multiphysics CFD of a biochip: "a research topic in itself".

    Wettability, electro-thermal flow, cell dielectric parameters are
    unknown at the tens-of-percent level, so even a *correct* solver
    predicts the margin with sigma ~ 0.4 and a bias from the unmodelled
    effects; a meaningful campaign (geometry + meshing + multi-physics
    sweeps) takes of the order of a week.
    """
    return ModelFidelity(sigma=0.40, bias=0.10, run_time=hours(40.0), run_cost=1500.0)


def parameter_sweep_fidelities(sigmas, base=None):
    """Fidelity objects sharing cost/time but sweeping sigma (for the
    crossover study)."""
    base = base if base is not None else fluidic_fidelity()
    return [
        ModelFidelity(
            sigma=float(s), bias=base.bias, run_time=base.run_time, run_cost=base.run_cost
        )
        for s in np.atleast_1d(sigmas)
    ]
