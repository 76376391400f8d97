"""The package runs on numpy alone.

scipy is a test-only oracle (see ``test_scipy_oracles.py``): the Brent
root finder behind every levitation height and the error functions
behind detection thresholds are in-repo.  These tests need no scipy.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import Biochip, Protocol, Session
from repro.bio import polystyrene_bead
from repro.physics.dep import DepCage, _brentq
from repro.sensing.detection import _erfcinv

SRC = Path(__file__).resolve().parents[1] / "src"


class TestBrentq:
    def test_finds_sqrt_two(self):
        assert _brentq(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=4e-12)

    def test_root_at_an_end_is_returned_as_is(self):
        assert _brentq(lambda x: x - 1.5, 1.5, 3.0) == 1.5
        assert _brentq(lambda x: x - 3.0, 1.5, 3.0) == 3.0

    def test_same_sign_ends_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)

    def test_a_jump_across_a_huge_bracket_does_not_converge(self):
        """A step function is solved one bisection per iteration: 1e30
        down to 2e-12 takes more than the 100 allowed."""
        with pytest.raises(RuntimeError, match="converge"):
            _brentq(lambda x: 1.0 if x > 0.123 else -1.0, -1e30, 1e30)


def test_erfcinv_inverts_erfc():
    for y in (2e-15, 1e-9, 1e-3, 0.1, 0.5, 0.9, 0.9998):
        x = _erfcinv(y)
        assert math.erfc(x) == pytest.approx(y, rel=1e-12)


class TestLevitationBracket:
    """The 96-point scan brackets the balance point with the vectorised
    force; the solver then re-evaluates the scalar one, which differs by
    ~1e-11 N.  When that flips a sign at a bracket end, the end nearest
    balance is the height, not a solver error."""

    @staticmethod
    def bracket(cage):
        """The (lo, hi) ends the solver evaluates first."""
        seen = []
        force = cage.net_vertical_force

        def spy(z):
            seen.append(z)
            return force(z)

        cage.net_vertical_force = spy
        height = cage.levitation_height()
        del cage.net_vertical_force
        return height, seen[0], seen[1]

    @pytest.mark.parametrize("flipped_end", ["lo", "hi"])
    def test_sign_flip_at_an_end_returns_that_end(self, monkeypatch, flipped_end):
        cage = Biochip.small_chip(16, 16).dep_cage(polystyrene_bead())
        height, lo, hi = self.bracket(cage)
        assert lo < height < hi
        force = DepCage.net_vertical_force
        # lo carries a positive net force and hi a non-positive one:
        # a tiny value of the wrong sign unbrackets the root
        tiny = {"lo": (lo, -1e-30), "hi": (hi, 1e-30)}[flipped_end]

        def flipped(self, z):
            return tiny[1] if z == tiny[0] else force(self, z)

        monkeypatch.setattr(DepCage, "net_vertical_force", flipped)
        assert cage.levitation_height() == tiny[0]

    def test_sign_flip_does_not_fail_a_sense(self, monkeypatch):
        chip = Biochip.small_chip(16, 16)
        __, lo, hi = self.bracket(chip.dep_cage(polystyrene_bead()))
        force = DepCage.net_vertical_force
        monkeypatch.setattr(
            DepCage, "net_vertical_force",
            lambda self, z: 1e-30 if z == hi else force(self, z),
        )
        protocol = Protocol("flip")
        protocol.trap("a", (2, 2), particle=polystyrene_bead())
        protocol.sense("a", samples=20)
        protocol.release("a")
        result = Session.simulator(chip).run(protocol)
        assert result.ok and result.count("sense") == 1
        assert chip._levitation_height(polystyrene_bead()) == hi


BLOCKED = textwrap.dedent(
    """
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockScipy())

    import repro
    from repro import ExecutionService, Protocol, ServiceConfig
    from repro.bio import polystyrene_bead
    from repro.designflow.uncertainty import ModelFidelity
    from repro.sensing import q_function, roc_curve, threshold_for_false_alarm

    protocol = Protocol("band")
    protocol.trap("a", (0, 0), particle=polystyrene_bead())
    protocol.trap("b", (2, 0))
    protocol.move_many({"a": (0, 4), "b": (2, 4)})
    protocol.sense("a", samples=50)
    protocol.sense("b", samples=50)
    protocol.release("a")
    protocol.release("b")
    service = ExecutionService.simulator(ServiceConfig(n_chips=1))
    service.submit(protocol)
    (result,) = service.drain()
    assert result.state.name == "DONE", result.state
    height = service.fleet.workers[0].session.backend.chip._levitation_height(
        polystyrene_bead()
    )
    assert height == 2.336113311703224e-05, height

    assert abs(float(q_function(0.0)) - 0.5) < 1e-15
    assert len(roc_curve(signal=3.0, noise_rms=1.0, n_points=8)) == 8
    assert abs(float(q_function(threshold_for_false_alarm(1.0, 1e-3))) - 1e-3) < 1e-12
    assert 0.0 < ModelFidelity(sigma=0.1).false_pass_probability(-0.05) < 0.5
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, loaded
    print("ok")
    """
)


def test_package_serves_with_scipy_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-c", BLOCKED],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
