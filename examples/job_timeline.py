"""Tracing a retried-and-migrated job and inspecting its timeline.

A 2-chip fleet where *both* chips glitch on their first operation after
power-up: the job faults on chip 0, backs off, migrates to chip 1,
faults again, backs off, migrates back and completes on the third
attempt.  With a tracer installed the whole story is captured as one
span tree -- the job root span with its admit / dispatch / backoff /
migrate events, an ``attempt`` span per try (chip id, cache-hit flag,
classified error kind), and under each attempt the ``session.run``,
``chip.move_many`` and ``routing.plan`` spans with the fault-injector
events stamped where the glitch actually happened.

The walkthrough:

1. serve the job with an in-memory capture and render its timeline;
2. write the same trace to JSONL + flight-recorder files, the format
   the CLI inspector reads (``python -m repro.observability.timeline``);
3. print the Prometheus text exposition of the service telemetry.

Run with:  python examples/job_timeline.py
"""

import os
import tempfile

from repro import (
    Biochip,
    ExecutionService,
    FlightRecorder,
    JsonlSpanExporter,
    ServiceConfig,
    Tracer,
)
from repro.faults import FaultModel, FleetFaultPlan
from repro.observability import timeline, tracing
from repro.workloads import hot_protocol_traffic


def build_service():
    """A 2-chip fleet whose chips both fault their first op."""
    shape = (48, 48)
    plan = FleetFaultPlan(models={
        0: FaultModel(shape=shape, transient_ops=frozenset({0})),
        1: FaultModel(shape=shape, transient_ops=frozenset({0})),
    })
    config = ServiceConfig(n_chips=2, max_retries=2, retry_backoff=0.5,
                           quarantine_after=None)
    return ExecutionService.simulator(config, faults=plan)


def main():
    protocol = hot_protocol_traffic(Biochip.small_chip().grid, 1, seed=3)[0]

    # 1. in-memory capture: the idiom for tests and notebooks.
    service = build_service()
    with tracing.capture() as tracer:
        result = service.submit(protocol).wait()
    print(f"job finished: state={result.state.value} "
          f"attempts={result.attempts} chip={result.chip_id}\n")
    print(timeline.render_job_timeline(tracer.finished_spans, 0))

    # 2. the same trace streamed to disk -- what REPRO_TRACE=path does
    # for the benchmarks.  The flight recorder rides along and dumps
    # its ring next to the trace if a job fails or a chip is benched.
    path = os.path.join(tempfile.mkdtemp(prefix="repro-trace-"),
                        "trace.jsonl")
    tracer = Tracer(exporters=[JsonlSpanExporter(path)],
                    flight_recorder=FlightRecorder(path=path + ".flight"))
    previous = tracing.install(tracer)
    try:
        service = build_service()
        service.submit(protocol).wait()
    finally:
        tracing.install(previous)
        tracer.close()
    spans = timeline.read_spans(path)
    print(f"\nwrote {len(spans)} spans to {path}")
    print(f"inspect with:  python -m repro.observability.timeline {path} "
          f"--job 0")

    # 3. the metrics side: Prometheus text exposition.
    print("\n--- telemetry (Prometheus text format, excerpt) ---")
    text = service.to_prometheus()
    for line in text.splitlines():
        if "jobs_total" in line or "chip_health" in line:
            print(line)


if __name__ == "__main__":
    main()
