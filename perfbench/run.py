"""Benchmark entry point: one workload, one seed, one timed run.

Run from the repository root::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Set-up -- building the workload's service and warming its program
caches -- is repeated ``SETUP_REPEATS`` times and its median reported
as ``setup_s``.  Then a closed-loop client serves the workload's jobs
(see ``workloads.py``) for ``--seconds`` seconds and every result is
checked.  The host's speed is timed with ``gauge.py`` between batches
and every time reported is scaled by it to the gauge's reference speed.
Progress goes to stderr; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with nothing traced.
``--trace 1`` serves the same jobs with a span recorded around every
call into each layer (see ``layers.py``), reports the per-layer split
and writes the spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import gauge
import layers

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Serve one workload for a fixed time and print its "
                    "metrics as JSON.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(system, seed, seconds, recorder=None):
    """Serve the measured job stream for ``seconds``, timing the gauge
    before the first batch and after each one.  Returns one
    ``(latencies, busy, speed)`` per batch -- ``speed`` the mean of the
    gauge times on either side of it -- and the jobs attempted and
    failed."""
    jobs = system.workload.jobs(seed, phase=1)
    concurrency = system.workload.concurrency
    batches = []
    attempted = failed = 0
    gc.collect()
    before = gauge.gauge()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        batch = [next(jobs) for __ in range(concurrency)]
        started = time.perf_counter()
        if recorder is not None:
            recorder.active = True
            root = recorder.open(layers.ROOT)
            handles, times = system.serve(batch)
            recorder.close(root)
            recorder.active = False
        else:
            handles, times = system.serve(batch)
        busy = time.perf_counter() - started
        after = gauge.gauge()
        batches.append((times, busy, (before + after) / 2))
        before = after
        for protocol, handle in zip(batch, handles):
            if not system.check(attempted, protocol, handle):
                failed += 1
            attempted += 1
    return batches, attempted, failed


def end_to_end(batches, setup_seconds, setup_rss_kib):
    """Each job's latency and each batch's host time, scaled by the
    gauge timed around its batch: the median latency, and the host time
    per job over the whole run."""
    scale = [gauge.REFERENCE / speed for __, __, speed in batches]
    latencies = [t * s for (times, __, __), s in zip(batches, scale)
                 for t in times]
    busy = sum(b * s for (__, b, __), s in zip(batches, scale))
    return {
        "job_ms": (statistics.median(latencies) * 1e3, "ms"),
        "host_ms_per_job": (busy / len(latencies) * 1e3, "ms"),
        "setup_rss_mb": (setup_rss_kib / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }


def per_layer(recorder, system, before, after, jobs, speed_scale):
    """Self time per layer, times ``speed_scale``, and the service's
    counters, per job."""
    own = {layer: seconds * speed_scale
           for layer, seconds in recorder.self_seconds().items()}
    tiers = layers.ROUTE_TIERS
    route_seconds = own["route"] + sum(own[tier] for tier in tiers)
    metrics = {
        f"{layer}_ms": (own[layer] / jobs * 1e3, "ms")
        for layer in layers.LAYERS if layer not in tiers
    }
    metrics["route_ms"] = (route_seconds / jobs * 1e3, "ms")
    for tier in tiers:
        metrics[f"{tier}_share"] = (
            own[tier] / route_seconds if route_seconds else 0.0, "ratio")
    metrics["traced_host_ms_per_job"] = (sum(own.values()) / jobs * 1e3, "ms")
    delta = {key: after[key] - before[key]
             for key in after if key != "merge_ratios"}
    lookups = delta["hits"] + delta["misses"]
    metrics["cache_hit_rate"] = (
        delta["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["compiles_per_job"] = (delta["misses"] / jobs, "count")
    metrics["route_us_per_cage"] = (
        route_seconds / delta["cages_planned"] * 1e6
        if delta["cages_planned"] else 0.0, "us")
    for key in ("fast_path_hits", "greedy_walk_hits", "frontier_steps",
                "replans"):
        metrics[f"{key}_per_job"] = (delta[key] / jobs, "count")
    attempts = recorder.calls.get("route_greedy", 0)
    metrics["greedy_walk_attempts_per_job"] = (attempts / jobs, "count")
    metrics["greedy_walk_yield"] = (
        delta["greedy_walk_hits"] / attempts if attempts else 0.0, "ratio")
    metrics["frames_per_job"] = (system.frames / jobs, "count")
    metrics["chip_s_per_job"] = (system.chip_seconds / jobs, "s")
    ratios = after["merge_ratios"][len(before["merge_ratios"]):]
    metrics["frame_merge_ratio"] = (
        statistics.fmean(ratios) if ratios else 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SOURCE}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        recorder = layers.Recorder()
        wrapped = layers.install(recorder)
        print(f"perfbench: {wrapped}/{len(layers.TARGETS)} layer entry "
              f"points wrapped", file=sys.stderr)

    setup_seconds = []
    for __ in range(1 if args.trace else SETUP_REPEATS):
        started = time.perf_counter()
        system = workloads.System(workload)
        speeds = system.warm_up(args.seed, gauge.gauge)
        elapsed = time.perf_counter() - started - sum(speeds)
        setup_seconds.append(
            elapsed * gauge.REFERENCE / statistics.median(speeds))
    # Peak memory so far: the program imported, set up and warm.  Taken
    # before measuring, as what the run adds grows with how many jobs
    # it gets through (the chips keep their event history).
    setup_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    before = system.counters()
    batches, attempted, failed = measure(
        system, args.seed, args.seconds, recorder)
    if args.trace:
        # The gauge is timed per batch, not per span, so the layers are
        # scaled by the run's mean factor, weighted by host time.
        speed_scale = (sum(b * gauge.REFERENCE / speed
                           for __, b, speed in batches)
                       / sum(b for __, b, __ in batches))
        metrics = per_layer(recorder, system, before, system.counters(),
                            attempted, speed_scale)
        trace_path = (ROOT / ".perfbench"
                      / f"trace-{workload.name}-{args.seed}.jsonl")
        recorder.write(trace_path)
        print(f"perfbench: {len(recorder.spans)} spans -> {trace_path}",
              file=sys.stderr)
    else:
        metrics = end_to_end(batches, setup_seconds, setup_rss_kib)
    print(f"perfbench: {workload.name} seed {args.seed}: {attempted} jobs, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
