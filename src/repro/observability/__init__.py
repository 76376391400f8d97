"""End-to-end observability: tracing, exporters, and the timeline
inspector.

The serving stack is a closed-loop instrument -- jobs retry, migrate
and get quarantined across chips and execution tiers -- and aggregate
:class:`~repro.service.telemetry.Telemetry` counters cannot answer
"what did job 17 actually do?".  This package supplies the production
observability layer:

* :mod:`~repro.observability.tracing` -- zero-dependency ``Tracer`` /
  ``Span`` core with dual clocks (wall time + a per-span domain "chip"
  clock), ``contextvars`` propagation (threads, asyncio), and a null
  fast path when tracing is off;
* :mod:`~repro.observability.exporters` -- JSONL span logs, in-memory
  capture, and the bounded :class:`FlightRecorder` dumped at
  crash-shaped moments (job failure, chip quarantine);
* :mod:`~repro.observability.timeline` -- the per-job timeline
  inspector (``python -m repro.observability.timeline trace.jsonl``).

Quickstart::

    from repro.observability import tracing

    with tracing.capture() as tracer:
        service.submit_many(protocols)
        service.drain()
    print(len(tracer.finished_spans), "spans")

    # or, for production runs: REPRO_TRACE=trace.jsonl <your program>
    tracing.configure_from_env()

Metrics exposition lives on the service itself, the same on both
serving tiers: ``service.to_prometheus()`` renders every counter,
latency summary and per-chip health, utilization and restart gauge in
the Prometheus text format (``service.snapshot()`` and
``service.report()`` show the same state as a dict and as tables).
"""

from .exporters import FlightRecorder, InMemorySpanExporter, JsonlSpanExporter
from .timeline import job_timeline, read_spans, render_job_timeline
from .tracing import (
    Span,
    TraceError,
    Tracer,
    capture,
    configure_from_env,
    current_span,
    get_tracer,
    install,
    shutdown,
    span,
)

__all__ = [
    "FlightRecorder",
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "Span",
    "TraceError",
    "Tracer",
    "capture",
    "configure_from_env",
    "current_span",
    "get_tracer",
    "install",
    "job_timeline",
    "read_spans",
    "render_job_timeline",
    "shutdown",
    "span",
]
