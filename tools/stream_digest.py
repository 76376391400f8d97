"""Digest the fixed perfbench job streams, to check bit-identity across
two source trees.

Serves each workload's seeded job stream through ``perfbench``'s
``workloads.System`` (after its warm-up) under the package at
``--src``, and prints per workload one sha1 over every measured job's
``workloads.signature``, readings and ``service_time`` plus the
service's ``snapshot()["routing"]`` without its host wall time
(``plan_seconds``, ``plan_time``), followed by the batch-plan memo's
hits and misses.  ``hot``, ``cold`` and ``tenant`` serve 400 jobs,
``route`` 240.  Run it under two trees and diff the output::

    python tools/stream_digest.py --src parent/src > parent.digest
    python tools/stream_digest.py --src src > change.digest
    diff parent.digest change.digest && echo identical

``perfbench/workloads.py`` is read from the directory beside ``--src``
(the same tree's ``perfbench``) and never written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

#: Measured jobs served per workload.
JOBS = {"hot": 400, "cold": 400, "tenant": 400, "route": 240}


def digest(workloads, name, seed) -> str:
    """One line: the workload, its stream's sha1 and its memo counts."""
    workload = workloads.WORKLOADS[name]
    system = workloads.System(workload)
    system.warm_up(seed, lambda: 0.0)
    jobs = workload.jobs(seed, phase=1)
    h = hashlib.sha1()
    for __ in range(0, JOBS[name], workload.concurrency):
        batch = [next(jobs) for __ in range(workload.concurrency)]
        handles, __ = system.serve(batch)
        for protocol, handle in zip(batch, handles):
            result = handle.result(wait=False)
            run = result.run
            parts = [handle.job_id, result.state.value, result.service_time]
            if run is not None:
                parts.append(workloads.signature(protocol, run))
                parts.append(sorted(
                    (key, [m.reading for m in values])
                    for key, values in run.measurements.items()))
            h.update(repr(parts).encode())
    routing = system.service.snapshot()["routing"]
    h.update(repr(sorted(
        (k, v) for k, v in routing.items()
        if k not in ("plan_seconds", "plan_time"))).encode())
    return (f"{name} {h.hexdigest()} memo {routing['memo_hits']} hits "
            f"{routing['memo_misses']} misses")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src",
                        help="the source tree to import repro from")
    parser.add_argument("--workload", action="append", choices=sorted(JOBS),
                        help="a workload to serve (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(src.parent / "perfbench")]
    import workloads

    for name in args.workload or ("hot", "cold", "route", "tenant"):
        print(digest(workloads, name, args.seed), flush=True)


if __name__ == "__main__":
    main()
