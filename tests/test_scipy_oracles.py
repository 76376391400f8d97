"""The in-repo numerics against scipy, their reference implementation.

scipy is not a dependency of the package, only of these tests: each
module skips when scipy is not installed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_special = pytest.importorskip("scipy.special")

from repro import Biochip  # noqa: E402
from repro.bio import PARTICLE_FACTORIES  # noqa: E402
from repro.physics import dep  # noqa: E402
from repro.physics.dep import _brentq  # noqa: E402
from repro.sensing.detection import _erfcinv, q_function  # noqa: E402


def outcome(solve, f, a, b):
    """A solve's root, or the type of error it raised."""
    try:
        return solve(f, a, b)
    except (ValueError, RuntimeError) as error:
        return type(error)


#: Generic continuous test functions of x, a root offset c and a scale k.
FUNCTIONS = {
    "tanh": lambda x, c, k: math.tanh(k * (x - c)),
    "cubic": lambda x, c, k: k * (x - c) ** 3 - (x - c),
    "exp": lambda x, c, k: math.exp(max(-50.0, min(50.0, k * (x - c)))) - 1.0,
    "sin": lambda x, c, k: math.sin(k * x) + c / 10.0,
    "atan": lambda x, c, k: k * math.atan(x - c) + 1e-3 * (x - c) ** 3,
    "step": lambda x, c, k: 1.0 if x > c else -1.0,
}

finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(FUNCTIONS)),
    c=finite,
    k=st.floats(0.1, 10.0),
    a=finite,
    b=finite,
)
@example(name="cubic", c=1.0, k=1.0, a=1.0, b=5.0)  # root at an end
@example(name="tanh", c=1.0, k=1.0, a=2.0, b=5.0)  # same sign at both ends
@example(name="step", c=0.123, k=1.0, a=-1e30, b=1e30)  # does not converge
def test_brentq_matches_scipy_bit_for_bit(name, c, k, a, b):
    def f(x):
        return FUNCTIONS[name](x, c, k)

    expected = outcome(scipy_optimize.brentq, f, a, b)
    assert outcome(_brentq, f, a, b) == expected


def test_brentq_matches_scipy_on_a_seeded_sweep():
    """6,000 seeded brackets.  Some branches (the bound on an accepted
    interpolation step) decide the root on only about one bracket in a
    hundred, too rarely for the property test to reach on every run."""
    rng = np.random.default_rng(20)
    names = sorted(FUNCTIONS)
    for trial in range(6000):
        name = names[trial % len(names)]
        c, a, b = rng.uniform(-10.0, 10.0, size=3)
        k = rng.uniform(0.1, 10.0)

        def f(x):
            return FUNCTIONS[name](x, c, k)

        expected = outcome(scipy_optimize.brentq, f, a, b)
        assert outcome(_brentq, f, a, b) == expected, (name, c, k, a, b)


def scipy_levitation_height(cage):
    """The levitation solve as it stood on ``scipy.optimize.brentq``."""
    if cage.real_cm >= 0.0:
        return None
    z_lo = max(cage.radius, 0.02 * cage.pitch)
    z_hi = cage.lid_height - max(cage.radius, 0.02 * cage.pitch)
    if z_lo >= z_hi:
        return None
    zs = np.linspace(z_lo, z_hi, 96)
    __, __, fz = cage.force_at(np.zeros_like(zs), np.zeros_like(zs), zs)
    net = np.asarray(fz) - dep.buoyant_weight(cage.radius, cage.particle_density)
    for i in range(len(zs) - 1):
        if net[i] > 0.0 >= net[i + 1]:
            return float(scipy_optimize.brentq(cage.net_vertical_force, zs[i], zs[i + 1]))
    return None


@pytest.mark.parametrize("size, frequency", [(16, None), (48, None), (16, 1e4)])
def test_levitation_heights_match_scipy(size, frequency):
    """Every built-in particle on the default drive, and at 10 kHz,
    where the cells turn nDEP and levitate too."""
    chip = Biochip.small_chip(size, size)
    if frequency is not None:
        chip.drive_frequency = frequency
    heights = {}
    for kind, factory in sorted(PARTICLE_FACTORIES.items()):
        cage = chip.dep_cage(factory())
        height = cage.levitation_height()
        assert height == scipy_levitation_height(cage), kind
        assert height is None or type(height) is float
        heights[kind] = height
    assert heights["bead"] is not None
    if frequency is not None:
        assert sum(h is not None for h in heights.values()) >= 4


def test_erf_matches_scipy():
    xs = np.linspace(-6.0, 6.0, 24001)
    ours = 1.0 - 2.0 * q_function(xs * math.sqrt(2.0))
    np.testing.assert_allclose(
        np.array([math.erf(x) for x in xs]), scipy_special.erf(xs), rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(ours, scipy_special.erf(xs), rtol=0, atol=1e-15)


def test_erfcinv_matches_scipy():
    ps = np.concatenate(
        [np.logspace(-15.0, math.log10(0.4999), 2000), np.linspace(1e-3, 0.4999, 2000)]
    )
    ours = np.array([_erfcinv(2.0 * p) for p in ps])
    np.testing.assert_allclose(ours, scipy_special.erfcinv(2.0 * ps), rtol=1e-12, atol=0)
