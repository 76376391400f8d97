"""The fault injector: a backend wrapper that makes a chip misbehave.

:class:`FaultInjector` is a :class:`~repro.core.backend.BackendWrapper`
over any :class:`~repro.core.backend.Backend`, and realises a
:class:`~repro.faults.model.FaultModel` against it:

* dead electrodes -- operations that would put a cage *centre* on a
  dead pixel raise :class:`~repro.core.errors.ChipFault` before they
  reach the wrapped backend (and, for the full simulator, the dead mask
  is also pushed down into the chip's :class:`CageManager` and routers,
  so intermediate path steps route *around* dead pixels);
* sensor faults -- realised by the simulator's readout path (the
  injector only pushes the model down); the time/geometry backend has
  no readings to corrupt;
* transient faults -- a seeded per-operation process (rate and/or an
  explicit schedule of operation indices) that raises ``ChipFault``
  mid-protocol, modelling frame-program glitches and controller
  hiccups.

Every decision is deterministic for a given (model, seed, operation
sequence), so fault scenarios replay exactly.
"""

from __future__ import annotations

import numpy as np

from ..core.backend import BackendWrapper
from ..core.errors import ChipFault
from ..observability import tracing
from .model import FaultModel


class FaultInjector(BackendWrapper):
    """Wrap ``backend`` so it exhibits ``model``'s faults.

    The injector is itself a :class:`Backend`: sessions, services and
    registries drive it exactly like the chip it wraps.  ``counters``
    tallies what was injected (for telemetry); ``op_count`` counts the
    operations that rolled the transient process.

    Three operations never roll:

    * ``incubate`` -- holding cages static involves no frame
      reprogramming, and the fleet scheduler uses it for clock
      synchronisation: a fault there would be charged to no job;
    * ``release`` -- the sweep that cleans a chip after a failed job is
      made of releases, and a fault there would wedge the cleanup
      itself;
    * ``set_region`` -- leasing is a scheduler action, not a chip
      operation a transient glitch could hit.
    """

    def __init__(self, backend, model: FaultModel, seed=0):
        grid = backend.grid
        if model.shape != (grid.rows, grid.cols):
            raise ValueError(
                f"fault model shape {model.shape} does not match backend "
                f"grid ({grid.rows}, {grid.cols})"
            )
        super().__init__(backend)
        self.model = model
        self.seed = seed
        self.rng = np.random.default_rng(
            np.random.SeedSequence([int(s) for s in np.atleast_1d(seed)])
        )
        self.op_count = 0
        self.counters = {"transient": 0, "dead_site": 0}
        # The full simulator gets the masks pushed down so its cage
        # manager, routers and readout chain see the same defect map.
        chip = getattr(backend, "chip", None)
        if chip is not None and hasattr(chip, "apply_faults"):
            chip.apply_faults(model)

    # -- fault processes ----------------------------------------------------

    def _roll(self, op):
        """One operation tick of the transient-fault process."""
        index = self.op_count
        self.op_count += 1
        fire = index in self.model.transient_ops
        if not fire and self.model.transient_rate > 0.0:
            fire = bool(self.rng.random() < self.model.transient_rate)
        if fire:
            self.counters["transient"] += 1
            # Ambient event, not a span: the injector sits below the
            # session, so the event lands on the session.run (or
            # attempt) span that was active when the glitch fired.
            tracing.add_event("fault.transient", op=op, index=index)
            raise ChipFault(
                f"transient chip fault during {op} (op {index})"
            )

    def _check_site(self, site, op):
        """Reject an operation that parks a cage centre on a dead pixel."""
        if self.model.is_dead_site(site):
            self.counters["dead_site"] += 1
            tracing.add_event("fault.dead_site", op=op, site=tuple(site))
            raise ChipFault(f"{op} targets dead electrode {tuple(site)}")

    # -- operations ---------------------------------------------------------

    def trap(self, site, particle=None):
        self._roll("trap")
        self._check_site(site, "trap")
        return self.backend.trap(site, particle)

    def move(self, cage_id, goal):
        self._roll("move")
        self._check_site(goal, "move")
        return self.backend.move(cage_id, goal)

    def move_many(self, goals):
        self._roll("move_many")
        for cage_id, goal in goals.items():
            if self.model.is_dead_site(goal):
                self.counters["dead_site"] += 1
                tracing.add_event(
                    "fault.dead_site",
                    op="move_many", cage=cage_id, site=tuple(goal),
                )
                raise ChipFault(
                    f"move_many: cage {cage_id} goal {tuple(goal)} is a "
                    f"dead electrode"
                )
        return self.backend.move_many(goals)

    def merge(self, keep_id, absorb_id):
        self._roll("merge")
        return self.backend.merge(keep_id, absorb_id)

    def sense(self, cage_id, n_samples=1000):
        self._roll("sense")
        return self.backend.sense(cage_id, n_samples=n_samples)

    def sense_all(self, n_samples=1000):
        self._roll("sense_all")
        return self.backend.sense_all(n_samples=n_samples)

    def spawn(self) -> "FaultInjector":
        """A fresh wrapped spawn: same defect map, independent
        transient stream (physical defects are per-die, glitches are
        per-power-up)."""
        return FaultInjector(
            self.backend.spawn(),
            self.model,
            seed=int(self.rng.integers(0, 2**31)),
        )
