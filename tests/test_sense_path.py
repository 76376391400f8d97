"""The single-cage sense path against its sequential reference.

``NoiseGenerator.sample`` evaluates the flicker AR(1) recursion as a
chunked cumulative sum and ``AnalogToDigital.quantise`` works in place
on one copy.  The reference implementations they replaced live here as
test oracles: the per-sample flicker loop and the ``clip``/``floor``/
``clip`` quantiser.  Flicker trajectories must agree to within 1e-12 of
the flicker sigma, and quantised readings must be *equal*.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Biochip
from repro.physics.noise import NoiseGenerator
from repro.sensing import AnalogToDigital

SCAN_TOL = 1e-12


def loop_flicker(drive, rho, state):
    """The sequential AR(1) recursion: returns (trajectory, final state)."""
    flicker = np.empty(drive.size)
    for i in range(drive.size):
        state = rho * state + drive[i]
        flicker[i] = state
    return flicker, state


def loop_sample(rng, white_sigma, flicker_sigma, rho, state, n):
    """``NoiseGenerator.sample`` with the loop, on the same RNG stream."""
    white = rng.normal(0.0, white_sigma, size=n) if white_sigma else np.zeros(n)
    if flicker_sigma == 0.0:
        return white, state
    drive = rng.normal(0.0, flicker_sigma * math.sqrt(1.0 - rho**2), size=n)
    flicker, state = loop_flicker(drive, rho, state)
    return white + flicker, state


def clip_quantise(adc, voltages):
    """The clip/floor/clip quantiser formula."""
    v = np.clip(np.asarray(voltages, dtype=float), 0.0, adc.full_scale)
    codes = np.floor(v / adc.lsb)
    codes = np.clip(codes, 0, 2**adc.bits - 1)
    return (codes + 0.5) * adc.lsb


def generator_pair(seed, white_sigma, flicker_sigma, rho):
    """A generator under test and a copy of its RNG for the oracle."""
    gen = NoiseGenerator(
        white_sigma=white_sigma,
        flicker_sigma=flicker_sigma,
        flicker_correlation=rho,
        rng=np.random.default_rng(seed),
    )
    return gen, copy.deepcopy(gen.rng)


rhos = st.one_of(st.just(0.0), st.floats(0.0, 0.9999))
states = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestFlickerScan:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 5000),
        rho=rhos,
        s0=states,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_matches_loop(self, n, rho, s0, seed):
        sigma = 1.0
        gen, rng = generator_pair(seed, 0.0, sigma, rho)
        gen._flicker_state = s0
        got = gen.sample(n)
        want, state = loop_sample(rng, 0.0, sigma, rho, s0, n)
        tol = SCAN_TOL * max(sigma, abs(s0))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
        assert abs(gen._flicker_state - state) <= tol
        assert isinstance(gen._flicker_state, float)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 3000), min_size=3, max_size=3),
        rho=rhos,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_state_carries_across_calls(self, sizes, rho, seed):
        white_sigma, flicker_sigma = 3.0, 0.5
        gen, rng = generator_pair(seed, white_sigma, flicker_sigma, rho)
        state = gen._flicker_state
        for n in sizes:
            got = gen.sample(n)
            want, state = loop_sample(rng, white_sigma, flicker_sigma, rho, state, n)
            # The white part is the same draw on both sides, so every
            # difference is the scan's rounding, bounded by the flicker
            # sigma plus the rounding of adding white noise on top.
            tol = SCAN_TOL * flicker_sigma + 4 * np.spacing(np.abs(want))
            assert np.all(np.abs(got - want) <= tol)
            assert gen._flicker_state == pytest.approx(
                state, rel=0.0, abs=SCAN_TOL * flicker_sigma
            )

    def test_single_sample_is_exactly_the_loop(self):
        for rho in (0.0, 0.5, 0.999):
            gen, rng = generator_pair(7, 2.0, 1.0, rho)
            state = gen._flicker_state
            for __ in range(5):
                want, state = loop_sample(rng, 2.0, 1.0, rho, state, 1)
                got = gen.sample(1)
                assert got.shape == (1,)
                assert got[0] == want[0]
                assert gen._flicker_state == state

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.9999])
    def test_every_scan_depth_matches_loop(self, rho):
        # Each n just below, at and above a power of two, so the scan's
        # last doubling step (k = n - 1 when n = 2**j + 1) is exercised.
        sizes = sorted({
            max(1, 2**j + d) for j in range(13) for d in (-1, 0, 1)
        } | set(range(1, 40)))
        gen, rng = generator_pair(17, 0.0, 1.0, rho)
        state = gen._flicker_state
        for n in sizes:
            want, state = loop_sample(rng, 0.0, 1.0, rho, state, n)
            got = gen.sample(n)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=SCAN_TOL)
            state = gen._flicker_state

    def test_flicker_only_returns_the_trajectory(self):
        gen, rng = generator_pair(3, 0.0, 1.0, 0.999)
        start = gen._flicker_state
        got = gen.sample(4000)
        want, state = loop_sample(rng, 0.0, 1.0, 0.999, start, 4000)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=SCAN_TOL)
        assert gen._flicker_state == pytest.approx(state, rel=0.0, abs=SCAN_TOL)

    def test_rng_stream_is_white_then_drive(self):
        gen, rng = generator_pair(11, 1.0, 1.0, 0.9)
        gen.sample(100)
        rng.normal(size=100)
        rng.normal(size=100)
        assert gen.rng.normal() == rng.normal()

    def test_white_only_is_the_white_draw(self):
        gen, rng = generator_pair(5, 1.5, 0.0, 0.999)
        np.testing.assert_array_equal(gen.sample(300), rng.normal(0.0, 1.5, size=300))


class TestReadingsUnchanged:
    """Quantised readings equal the loop oracle's, on the same RNG stream."""

    SIGNALS = (0.0, 5.2e-4, -3.0e-4, 7.2e-3, 0.0123)

    @staticmethod
    def oracle_reading(rng, chain, state, signal, n):
        noise = chain._noise
        analog, state = loop_sample(
            rng, noise.white_sigma, noise.flicker_sigma,
            noise.flicker_correlation, state, n,
        )
        analog = chain.pedestal + signal + analog
        reading = float(np.mean(clip_quantise(chain.adc, analog))) - chain.pedestal
        return reading, state

    def test_averaged_reading_from_signal_equals_loop(self):
        sizes = np.random.default_rng(2024).integers(50, 2201, size=60)
        for seed in range(30):
            chain = Biochip.paper_chip(seed=seed).readout
            assert chain._noise.flicker_sigma > 0.0
            rng = copy.deepcopy(chain.rng)
            state = chain._noise._flicker_state
            for i, n in enumerate(sizes):
                signal = self.SIGNALS[i % len(self.SIGNALS)]
                want, state = self.oracle_reading(rng, chain, state, signal, int(n))
                got = chain.averaged_reading_from_signal(signal, int(n))
                assert got == want, (seed, i, int(n))

    def test_averaged_reading_is_the_signal_path(self):
        a = Biochip.paper_chip(seed=4).readout
        b = Biochip.paper_chip(seed=4).readout
        for n in (1, 2, 17, 1000):
            assert a.averaged_reading(None, n_samples=n) == (
                b.averaged_reading_from_signal(0.0, n)
            )

    def test_batch_readings_bit_identical(self):
        chain = Biochip.paper_chip(seed=9).readout
        noise = chain._noise
        rng = copy.deepcopy(chain.rng)
        state = noise._flicker_state
        rho = noise.flicker_correlation
        signals = np.linspace(-2e-3, 1.5e-2, 37)
        for n in (1, 50, 400):
            white = rng.normal(0.0, noise.white_sigma, size=(signals.size, n))
            drive = rng.normal(
                0.0, noise.flicker_sigma * math.sqrt(1.0 - rho**2),
                size=(n, signals.size),
            )
            flicker = np.empty((n, signals.size))
            rows = np.full(signals.size, state)
            for i in range(n):
                rows *= rho
                rows += drive[i]
                flicker[i] = rows
            state = float(rows[-1])
            analog = white + flicker.T + chain.pedestal + signals[:, None]
            want = clip_quantise(chain.adc, analog).mean(axis=1) - chain.pedestal
            got = chain.batch_readings(signals, n)
            assert got.tobytes() == want.tobytes()
            assert noise._flicker_state == state


adcs = st.builds(
    AnalogToDigital,
    bits=st.integers(1, 24),
    full_scale=st.floats(1e-3, 1e3),
)
volts = st.floats(-1e4, 1e4, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf]
)


class TestQuantiserContract:
    @settings(max_examples=200, deadline=None)
    @given(adc=adcs, values=st.lists(volts, min_size=1, max_size=64))
    def test_array_matches_clip_formula(self, adc, values):
        v = np.array(values)
        before = v.copy()
        got = adc.quantise(v)
        want = clip_quantise(adc, v)
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64 and got.shape == v.shape
        assert got.tobytes() == want.tobytes()
        assert v.tobytes() == before.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(adc=adcs, value=volts)
    def test_scalar_matches_clip_formula(self, adc, value):
        got = adc.quantise(value)
        want = clip_quantise(adc, value)
        assert type(got) is np.float64
        assert got.tobytes() == want.tobytes()

    @given(adc=adcs, value=st.floats(-10.0, 10.0))
    def test_zero_d_array_gives_a_scalar(self, adc, value):
        got = adc.quantise(np.array(value))
        assert type(got) is np.float64
        assert got == clip_quantise(adc, value)

    def test_list_and_int_inputs(self):
        adc = AnalogToDigital(bits=8)
        values = [-1, 0, 1, 2]
        got = adc.quantise(values)
        assert values == [-1, 0, 1, 2]
        assert got.tobytes() == clip_quantise(adc, values).tobytes()
        assert type(adc.quantise(1)) is np.float64

    def test_two_dimensional_input_keeps_its_shape(self):
        adc = AnalogToDigital()
        v = np.random.default_rng(0).uniform(-0.5, 1.5, size=(7, 13))
        before = v.copy()
        got = adc.quantise(v)
        assert got.shape == (7, 13)
        assert got.tobytes() == clip_quantise(adc, v).tobytes()
        np.testing.assert_array_equal(v, before)

    def test_returns_a_fresh_array(self):
        adc = AnalogToDigital()
        v = np.full(4, 0.3)
        assert not np.shares_memory(adc.quantise(v), v)
