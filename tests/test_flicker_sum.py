"""The flicker cumulative sum at its chunk boundaries, and readings.

``NoiseGenerator.sample`` runs the AR(1) flicker recursion as a
cumulative sum in chunks of its power table's length.  These tests hold
it to the sequential loop of ``test_sense_path`` where the chunking
shows -- a read one sample short of, at, one past and three chunks past
the chunk length, with the state carried from call to call -- and hold
the perfbench chip's averaged readings equal to the loop-and-clip
oracle's, bit for bit.
"""

import copy

import numpy as np
import pytest

from repro import Biochip
from repro.physics import noise as noise_module
from test_sense_path import SCAN_TOL, clip_quantise, generator_pair, loop_sample

RHOS = (1e-300, 1e-3, 0.5, 0.999, 0.99999)


def boundary_sizes(rho):
    k = noise_module._power_table(rho).size
    return [n for n in (k - 1, k, k + 1, 3 * k + 1) if n >= 1]


@pytest.mark.parametrize("rho", RHOS)
def test_power_table_stays_in_range(rho):
    table = noise_module._power_table(rho)
    assert 1 <= table.size <= noise_module._CHUNK_MAX
    assert table[0] == 1.0
    assert np.all(np.isfinite(table)) and table[-1] <= 2.0**64
    assert not table.flags.writeable


@pytest.mark.parametrize("s0", [0.3, -4.0e5])
@pytest.mark.parametrize("white_sigma", [0.0, 2.0])
@pytest.mark.parametrize("rho", RHOS)
def test_chunk_boundaries_match_loop(rho, white_sigma, s0):
    flicker_sigma = 0.5
    gen, rng = generator_pair(41, white_sigma, flicker_sigma, rho)
    gen._flicker_state = state = s0
    for n in boundary_sizes(rho):
        got = gen.sample(n)
        want, state = loop_sample(rng, white_sigma, flicker_sigma, rho, state, n)
        scale = max(flicker_sigma, abs(s0))
        tol = SCAN_TOL * scale + 4 * np.spacing(np.abs(want))
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= tol), (rho, n)
        assert abs(gen._flicker_state - state) <= SCAN_TOL * scale
        assert isinstance(gen._flicker_state, float)
    # the RNG stream is the loop's: both sides drew the same normals
    assert gen.rng.normal() == rng.normal()


def test_zero_correlation_is_the_drive():
    gen, rng = generator_pair(3, 1.0, 0.7, 0.0)
    gen._flicker_state = 12.0
    got = gen.sample(50)
    white = rng.normal(0.0, 1.0, size=50)
    drive = rng.normal(0.0, 0.7, size=50)
    assert got.tobytes() == (white + drive).tobytes()
    assert gen._flicker_state == drive[-1]


class TestPerfbenchChipReadings:
    """Averaged reads at the perfbench chip equal the oracle's exactly."""

    SIGNALS = (0.0, 5.2e-4, -3.0e-4, 7.2e-3, 0.0123)

    @pytest.mark.parametrize("seed", range(10))
    def test_readings_equal_loop_and_clip(self, seed):
        chain = Biochip.small_chip(48, 48, seed=seed).readout
        noise = chain._noise
        assert noise.white_sigma > 0.0 and noise.flicker_sigma > 0.0
        rng = copy.deepcopy(chain.rng)
        state = noise._flicker_state
        sizes = np.random.default_rng(seed).integers(150, 251, size=210)
        for i, n in enumerate(sizes.tolist()):
            signal = self.SIGNALS[i % len(self.SIGNALS)]
            analog, state = loop_sample(
                rng, noise.white_sigma, noise.flicker_sigma,
                noise.flicker_correlation, state, n,
            )
            codes = clip_quantise(chain.adc, chain.pedestal + signal + analog)
            want = float(np.mean(codes)) - chain.pedestal
            got = chain.averaged_reading_from_signal(signal, n)
            assert got == want, (seed, i, n)
