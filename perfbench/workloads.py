"""The benchmark's workloads: seeded job streams, the service they run
on, and the checks on its results.

Every workload serves protocol jobs through the virtual-clock
:class:`repro.ExecutionService` in a closed loop: one client submits a
batch of ``concurrency`` jobs, waits until all of them are terminal,
then submits the next batch.  A job's latency is the host time from the
start of its batch to the scheduler step that returns its result.

hot     Four 48x48 chips, affinity dispatch.  Nine jobs in ten repeat
        one of eight band shapes, so the compiled-program cache serves
        them; the rest are new and are compiled.
cold    The same fleet and the same kind of job, but every job is new:
        each one is fingerprinted, misses the cache and is compiled.
route   One 64x64 chip.  Each job traps 24 cages at random sites, moves
        them to a random permutation of sites in one batch move and
        scans the whole array, so the routing planner and the frame
        step carry most of the work.
tenant  One 48x48 chip shared by four two-cage jobs at a time in leased
        windows whose frames are merged.

A band job traps a column band of cages (every other one holding a
bead), moves the whole band in one batch move to a column further on,
senses each cage and releases it.  In a crossing band the rows rotate
by one on the way, so the last cage passes every other and the planner
must go past its direct-path tier.
"""

from __future__ import annotations

import collections
import itertools
import math
import time

import numpy as np

from repro import (
    Biochip,
    ExecutionService,
    JobState,
    Protocol,
    ServiceConfig,
    Session,
    SimulatorBackend,
)
from repro.bio import polystyrene_bead
from repro.workloads import random_permutation_workload

BEAD = polystyrene_bead()

#: Run-event detail keys that legitimately differ from a reference run
#: of the same protocol: backend cage ids and what the noisy sensor
#: readings show.
UNCHECKED = ("cage", "reading", "detected", "detections")

#: The run-event kind each command type records.
EVENT_KIND = {
    "TrapCmd": "trap",
    "MoveCmd": "move",
    "MoveManyCmd": "move_many",
    "SenseCmd": "sense",
    "SenseAllCmd": "sense_all",
    "ReleaseCmd": "release",
}


def band_shape(rng, n_cages, travel, max_origin, cross=True):
    """A random band job: origin, travel (an inclusive range), the row
    order at the goal column and the samples per cage.  A crossing band
    rotates its rows by one, so the last cage passes every other."""
    rows = range(1, n_cages + 1) if cross else range(n_cages)
    return (
        (int(rng.integers(0, max_origin + 1)),
         int(rng.integers(0, max_origin + 1))),
        int(rng.integers(travel[0], travel[1] + 1)),
        tuple(r % n_cages for r in rows),
        tuple(int(s) for s in rng.integers(150, 251, size=n_cages)),
    )


def band_protocol(shape, name, beads=True):
    """The protocol of a band shape, with handles unique to ``name``."""
    (row0, col0), travel, rows, samples = shape
    protocol = Protocol(name)
    handles = [f"{name}.c{i}" for i in range(len(rows))]
    for i, handle in enumerate(handles):
        protocol.trap(handle, (row0 + 2 * i, col0),
                      particle=BEAD if beads and i % 2 == 0 else None)
    protocol.move_many({
        handle: (row0 + 2 * row, col0 + travel)
        for handle, row in zip(handles, rows)
    })
    for handle, count in zip(handles, samples):
        protocol.sense(handle, samples=count)
    for handle in handles:
        protocol.release(handle)
    return protocol


class Workload:
    """A fleet, a job stream and a batch size; the base is ``hot``."""

    name = "hot"
    chip_side = 48
    concurrency = 1
    warmup_jobs = 64
    #: Share of jobs that repeat one of ``pool_size`` shapes drawn up
    #: front.
    repeat_share = 0.9
    pool_size = 8
    beads = True
    #: Every n-th measured job is also compared with a run of the same
    #: protocol alone on a chip of its own ...
    reference_every = 1
    #: ... chip time included.
    compare_chip_time = True

    def config(self):
        return ServiceConfig(n_chips=4, policy="affinity", cache_capacity=64)

    def chip(self):
        return Biochip.small_chip(rows=self.chip_side, cols=self.chip_side)

    def new_shape(self, rng):
        return band_shape(rng, n_cages=4, travel=(10, 14), max_origin=16)

    def jobs(self, seed, phase):
        """Endless job stream; ``phase`` 0 warms up, 1 is measured.  The
        same seed and phase always give the same protocols."""
        pool_rng = np.random.default_rng([seed, 0])
        pool = [self.new_shape(pool_rng) for __ in range(self.pool_size)]
        rng = np.random.default_rng([seed, 1 + phase])
        for j in itertools.count():
            if rng.random() < self.repeat_share:
                shape = pool[int(rng.integers(len(pool)))]
            else:
                shape = self.new_shape(rng)
            yield band_protocol(shape, f"p{phase}j{j}", beads=self.beads)


class Cold(Workload):
    name = "cold"
    repeat_share = 0.0
    reference_every = 8


class Route(Workload):
    name = "route"
    chip_side = 64
    warmup_jobs = 24
    reference_every = 8
    n_cages = 24

    def config(self):
        return ServiceConfig(n_chips=1, cache_capacity=64)

    def jobs(self, seed, phase):
        grid = self.chip().grid
        rng = np.random.default_rng([seed, 1 + phase])
        for j in itertools.count():
            requests = random_permutation_workload(
                grid, self.n_cages, seed=int(rng.integers(2**32)))
            protocol = Protocol(f"p{phase}j{j}")
            for request in requests:
                protocol.trap(
                    f"c{request.cage_id}", request.start,
                    particle=BEAD if request.cage_id % 2 == 0 else None)
            protocol.move_many(
                {f"c{request.cage_id}": request.goal for request in requests})
            protocol.sense_all(samples=50)
            for request in requests:
                protocol.release(f"c{request.cage_id}")
            yield protocol


class Tenant(Workload):
    name = "tenant"
    concurrency = 4
    warmup_jobs = 256
    # Each tenant runs on a fresh view of the chip, and a fresh chip's
    # first bead read solves the bead's levitation height (~0.5 s of
    # host time), which would swamp every other layer.
    beads = False

    def config(self):
        return ServiceConfig(n_chips=1, max_tenants=4, cache_capacity=64)

    def new_shape(self, rng):
        # Straight bands: a crossing band is planned differently inside
        # a lease than on the whole chip, so its run could not be
        # compared with the exclusive reference.
        return band_shape(rng, n_cages=2, travel=(4, 6), max_origin=4,
                          cross=False)

    # On the simulator a leased run's events match the exclusive run's,
    # but its chip time comes out longer (19.16 s against 18.50 s for a
    # three-cage band), so only the events and reads are compared.
    compare_chip_time = False


WORKLOADS = {w.name: w for w in (Workload(), Cold(), Route(), Tenant())}


class System:
    """A workload's service, plus the checks on what it returns."""

    def __init__(self, workload):
        self.workload = workload
        self.service = ExecutionService.simulator(
            workload.config(), chip=workload.chip())
        self._references = {}
        self._reference_session = None
        self.chip_seconds = 0.0
        self.frames = 0

    def warm_up(self, seed, gauge):
        """Serve the warm-up jobs, filling the program caches, and call
        ``gauge`` after each batch; returns what the calls returned."""
        jobs = self.workload.jobs(seed, phase=0)
        speeds = []
        for __ in range(0, self.workload.warmup_jobs,
                        self.workload.concurrency):
            batch = [next(jobs) for __ in range(self.workload.concurrency)]
            handles, __ = self.serve(batch)
            if any(h.state is not JobState.DONE for h in handles):
                raise RuntimeError("a warm-up job did not complete")
            speeds.append(gauge())
        return speeds

    def serve(self, protocols):
        """Submit one batch and step the scheduler until every job in it
        is terminal; returns the handles and each job's host latency."""
        service = self.service
        started = time.perf_counter()
        handles = [service.submit(protocol) for protocol in protocols]
        waiting = {handle.job_id: i for i, handle in enumerate(handles)}
        latencies = [0.0] * len(handles)
        while waiting:
            result = service.step()
            if result is None:
                break
            index = waiting.pop(result.job_id, None)
            if index is not None:
                latencies[index] = time.perf_counter() - started
        return handles, latencies

    def check(self, number, protocol, handle) -> bool:
        """True when the job completed with a well-formed run that, for
        every ``reference_every``-th job, matches a run of the same
        protocol alone on a chip of its own."""
        if handle.state is not JobState.DONE:
            return False
        result = handle.result(wait=False)
        run = result.run
        if not well_formed(protocol, run):
            return False
        self.chip_seconds += result.service_time
        self.frames += sum(
            e.detail["frames"] for e in run.events if e.kind == "move_many")
        if number % self.workload.reference_every:
            return True
        got, want = signature(protocol, run), self.reference(protocol)
        return (got[0] == want[0] and got[2] == want[2]
                and (not self.workload.compare_chip_time
                     or math.isclose(got[1], want[1], rel_tol=1e-9)))

    def reference(self, protocol):
        """The signature of ``protocol`` run alone on a chip of its own
        (one reference chip serves them all, as each job releases every
        cage it traps)."""
        key = protocol.fingerprint()
        if key not in self._references:
            if self._reference_session is None:
                self._reference_session = Session(
                    SimulatorBackend(self.workload.chip()))
            run = self._reference_session.run(protocol)
            self._references[key] = signature(protocol, run)
        return self._references[key]

    def counters(self) -> dict:
        """The service's cache, routing and tenancy counters so far."""
        snap = self.service.snapshot()
        routing = snap["routing"]
        telemetry = self.service.telemetry
        return {
            "hits": snap["cache"]["hits"],
            "misses": snap["cache"]["misses"],
            "cages_planned": routing["cages_planned"],
            "fast_path_hits": routing["fast_path_hits"],
            "greedy_walk_hits": routing["greedy_walk_hits"],
            "frontier_steps": routing["frontier_steps"],
            "replans": routing["replans"],
            "merge_ratios": list(telemetry.frame_merge_ratio.samples),
        }


def well_formed(protocol, run) -> bool:
    """Every command ran once, each batch move took at least its longest
    Chebyshev distance in frames, and every read was recorded."""
    if run is None or not run.ok:
        return False
    expected = collections.Counter(
        EVENT_KIND.get(type(cmd).__name__, "?") for cmd in protocol.commands)
    if collections.Counter(e.kind for e in run.events) != expected:
        return False
    sites = {}
    min_frames = {}
    reads = 0
    for index, cmd in enumerate(protocol.commands):
        kind = type(cmd).__name__
        if kind == "TrapCmd":
            sites[cmd.handle] = cmd.site
        elif kind == "MoveManyCmd":
            min_frames[f"{index}:{kind}"] = max(
                max(abs(sites[h][0] - g[0]), abs(sites[h][1] - g[1]))
                for h, g in cmd.moves)
            sites.update(cmd.moves)
        elif kind == "SenseCmd":
            reads += 1
        elif kind == "SenseAllCmd":
            reads += len(sites)
        elif kind == "ReleaseCmd":
            del sites[cmd.handle]
    for event in run.events:
        if (event.kind == "move_many"
                and event.detail["frames"] < min_frames.get(event.op_id, 0)):
            return False
    return sum(len(v) for v in run.measurements.values()) == reads


def signature(protocol, run):
    """A run's events, chip time and read counts, with handles replaced
    by their definition order so renamed copies of a protocol compare
    equal."""
    alias = {handle: i for i, handle in enumerate(protocol.handles())}

    def canonical(key, value):
        if key == "handle":
            return alias[value]
        if key == "handles":
            return [alias[h] for h in value]
        return value

    events = [
        (e.op_id, e.kind, {k: canonical(k, v) for k, v in e.detail.items()
                           if k not in UNCHECKED})
        for e in run.events
    ]
    reads = sorted(
        (str(alias.get(key, key)), len(values))
        for key, values in run.measurements.items())
    return events, run.wall_time, reads

