"""Layer spans recorded from outside the program.

The traced run (``--trace 1``) wraps the entry point of each layer of
the stack and records one span per call: layer, parent span, start and
end on the host's performance counter.  A layer's self time is its
spans' durations minus the part their child spans cover, so the self
times of all layers add up exactly to the traced host time; the root
span's own time is reported as ``unattributed``.

No program file is touched: wrappers are installed on the imported
classes and module globals of the benchmark's own process.  A target a
later version of the program no longer has is skipped, and its layer
then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (layer, module, attribute) for every wrapped entry point.  A dotted
#: attribute is a method, wrapped on the class that defines it; a plain
#: one is a module function, rebound in every ``repro`` module holding it.
TARGETS = (
    ("admission", "repro.service.scheduler", "ExecutionService.submit"),
    ("fingerprint", "repro.core.protocol", "Protocol.fingerprint"),
    ("scheduler", "repro.service.scheduler", "ExecutionService.step"),
    ("cache", "repro.service.cache", "ProgramCache.get_or_compile"),
    ("compile", "repro.core.compiler", "compile_protocol"),
    ("session", "repro.core.session", "Session.run"),
    ("chip", "repro.core.platform", "Biochip.trap"),
    ("chip", "repro.core.platform", "Biochip.move_many"),
    ("chip", "repro.core.platform", "Biochip.release"),
    ("route", "repro.routing.multi", "BatchRouter.plan"),
    ("route_direct", "repro.routing.multi", "WavefrontRouter._direct_path"),
    ("route_greedy", "repro.routing.multi", "WavefrontRouter._greedy_walk"),
    ("route_wavefront", "repro.routing.multi", "WavefrontRouter._wavefront"),
    ("frame", "repro.array.cages", "CageManager.step"),
    ("frame", "repro.array.cages", "CageManager.step_arrays"),
    ("frame", "repro.array.cages", "CageManager.frame"),
    ("frame", "repro.array.addressing",
     "RowColumnAddresser.incremental_program_time"),
    ("sense", "repro.core.platform", "Biochip.sense"),
    ("sense", "repro.core.platform", "Biochip.sense_all"),
    ("readout", "repro.sensing.readout",
     "CapacitiveReadoutChain.averaged_reading_from_signal"),
    ("readout", "repro.sensing.readout",
     "CapacitiveReadoutChain.batch_readings"),
    ("noise", "repro.physics.noise", "NoiseGenerator.sample"),
    ("noise", "repro.physics.noise", "NoiseGenerator.sample_block"),
    ("sweep", "repro.core.session", "sweep_handles"),
)

#: The root span opened around each closed-loop batch of jobs.  Its
#: self time is the host time no named layer accounts for.
ROOT = "unattributed"

#: The routing planner's escalation tiers, nested in ``route``.
ROUTE_TIERS = ("route_direct", "route_greedy", "route_wavefront")

#: Every layer of the split, root last.
LAYERS = tuple(dict.fromkeys(layer for layer, __, __ in TARGETS)) + (ROOT,)


class Recorder:
    """In-memory span log, with a call stack for parent links.

    Spans are recorded only while :attr:`active` is set, so set-up and
    output checks, which call into the same code, stay out of the split.
    """

    def __init__(self):
        self.active = False
        self.spans = []  # [layer, parent index or -1, start, end]
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack = []

    def open(self, layer) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, time.perf_counter(), 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.calls[layer] += 1
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = recorder.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    def self_seconds(self) -> dict:
        """Host seconds per layer, child spans subtracted."""
        own = dict.fromkeys(LAYERS, 0.0)
        spans = self.spans
        for layer, parent, start, end in spans:
            duration = end - start
            own[layer] += duration
            if parent >= 0:
                own[spans[parent][0]] -= duration
        return own

    def write(self, path):
        """Write the span log as JSON lines (seconds on the host's
        performance counter)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (layer, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "parent": parent, "layer": layer,
                    "start": start, "end": end,
                }) + "\n")


def install(recorder) -> int:
    """Wrap every target that exists; returns how many were wrapped."""
    wrapped = 0
    for layer, module_name, attribute in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in attribute:
            wrapped += _wrap_method(recorder, layer, module, attribute)
        else:
            wrapped += _wrap_function(recorder, layer, module, attribute)
    return wrapped


def _wrap_method(recorder, layer, module, attribute) -> int:
    class_name, name = attribute.split(".", 1)
    cls = getattr(module, class_name, None)
    if cls is None:
        return 0
    for owner in cls.__mro__:
        original = owner.__dict__.get(name)
        if original is None:
            continue
        if isinstance(original, staticmethod):
            setattr(owner, name,
                    staticmethod(recorder.wrap(layer, original.__func__)))
        elif callable(original):
            setattr(owner, name, recorder.wrap(layer, original))
        else:
            return 0
        return 1
    return 0


def _wrap_function(recorder, layer, module, name) -> int:
    original = getattr(module, name, None)
    if original is None:
        return 0
    traced = recorder.wrap(layer, original)
    for module_name, loaded in list(sys.modules.items()):
        if loaded is None or module_name.split(".", 1)[0] != "repro":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, traced)
    return 1
