"""Tests for the observability stack: tracing core, exporters, flight
recorder, service instrumentation, and the job-timeline inspector.

The acceptance scenario: with both chips of a 2-chip fleet glitching on
their first operation (``transient_ops={0}``) and ``max_retries=2``, a
job fails on chip A, backs off, migrates to chip B, fails again, backs
off, migrates back, and succeeds on attempt 3.  The trace must
reconstruct that story -- admit -> dispatch -> fault -> backoff ->
migrate -> done -- identically (as a canonical span tree) on the
virtual-clock and thread tiers, with consistent chip-time ordering.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro import (
    Biochip,
    ExecutionService,
    Protocol,
    ServiceConfig,
    Session,
)
from repro.core.backend import SimulatorBackend
from repro.core.errors import ChipFault
from repro.faults import FaultInjector, FaultModel, FleetFaultPlan
from repro.observability import timeline, tracing
from repro.observability.exporters import (
    FlightRecorder,
    InMemorySpanExporter,
    JsonlSpanExporter,
)
from repro.service import ConcurrentConfig, ConcurrentExecutionService
from repro.service.telemetry import Telemetry
from repro.workloads import hot_protocol_traffic

SHAPE = (48, 48)


def small_grid():
    return Biochip.small_chip().grid


def one_protocol(seed=3):
    return hot_protocol_traffic(small_grid(), 1, seed=seed)[0]


def first_op_fault_plan():
    """Both chips glitch on their first operation, then run clean."""
    return FleetFaultPlan(models={
        0: FaultModel(shape=SHAPE, transient_ops=frozenset({0})),
        1: FaultModel(shape=SHAPE, transient_ops=frozenset({0})),
    })


def assert_trace_integrity(tracer):
    """Every started span ended exactly once; parent ids resolve."""
    assert tracer.open_count() == 0
    assert tracer.started == tracer.ended
    span_ids = {s["span_id"] for s in tracer.finished_spans}
    for span in tracer.finished_spans:
        assert span["end_wall"] is not None
        if span["parent_id"] is not None:
            assert span["parent_id"] in span_ids


def canonical_tree(spans, job_id):
    """Tier-independent shape of one job's trace: root status plus the
    ordered (attempt, status, error kind) triple of each attempt span.
    Chip identities and event interleaving are tier-specific (the
    thread tier's placement among the steered chips is
    scheduling-dependent) and are deliberately NOT part of the
    canonical form."""
    tree = timeline.job_timeline(spans, job_id)
    attempts = sorted(
        (s for s in spans if s["name"] == "attempt"
         and s["trace_id"] == tree["trace_id"]),
        key=lambda s: s["attributes"]["attempt"],
    )
    return {
        "root": (tree["name"], tree["status"], tree["attributes"]["state"],
                 tree["attributes"]["attempts"]),
        "attempts": [
            (s["attributes"]["attempt"], s["status"],
             s["attributes"].get("error.kind"))
            for s in attempts
        ],
    }


def routed_protocol():
    """Two cages moved as one batch: every repeat is a memo hit on a
    chip that planned it once."""
    return (
        Protocol("routed")
        .trap("a", (2, 2)).trap("b", (2, 8))
        .move_many({"a": (8, 2), "b": (8, 8)})
        .release("a").release("b")
    )


# -- tracing core -------------------------------------------------------------


class TestTracerCore:
    def test_span_nesting_and_dual_clocks(self):
        chip_time = {"t": 0.0}
        with tracing.capture() as tracer:
            with tracing.span("outer", clock=lambda: chip_time["t"]) as outer:
                chip_time["t"] = 2.5
                outer.add_event("tick", detail=1)
                with tracing.span("inner") as inner:
                    assert inner.trace_id == outer.trace_id
                    assert inner.parent_id == outer.span_id
                chip_time["t"] = 4.0
        assert_trace_integrity(tracer)
        outer_dict, = (s for s in tracer.finished_spans
                       if s["name"] == "outer")
        assert outer_dict["start_chip"] == 0.0
        assert outer_dict["end_chip"] == 4.0
        assert outer_dict["events"][0]["name"] == "tick"
        assert outer_dict["events"][0]["chip"] == 2.5
        assert outer_dict["end_wall"] >= outer_dict["start_wall"]

    def test_exception_marks_error_and_ends_span(self):
        with tracing.capture() as tracer:
            with pytest.raises(ValueError):
                with tracing.span("boom"):
                    raise ValueError("bad")
        assert_trace_integrity(tracer)
        span, = tracer.finished_spans
        assert span["status"] == "error"
        assert "bad" in span["error"]

    def test_double_end_raises(self):
        with tracing.capture() as tracer:
            span = tracer.start_span("once")
            span.end()
            with pytest.raises(tracing.TraceError):
                span.end()

    def test_null_path_when_tracing_off(self):
        assert tracing.get_tracer() is None
        with tracing.span("ignored", attributes={"a": 1}) as span:
            assert span.recording is False
            span.add_event("nothing")
            span.set_error("nothing")
        tracing.add_event("ambient-noop")
        assert tracing.dump_flight("no recorder") is None
        # one cached null context: truly zero allocation per call
        assert tracing.span("a") is tracing.span("b")

    def test_capture_restores_previous_tracer(self):
        outer = tracing.Tracer(keep=True)
        previous = tracing.install(outer)
        try:
            with tracing.capture() as inner:
                assert tracing.get_tracer() is inner
            assert tracing.get_tracer() is outer
        finally:
            tracing.install(previous)

    def test_remote_parent_and_ingest(self):
        with tracing.capture() as tracer:
            root = tracer.start_span("job", parent=None)
            child = tracer.start_span(
                "attempt", parent=(root.trace_id, root.span_id))
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            child.end()
            root.end()
            # a span finished by another tracer (worker process)
            tracer.ingest({"name": "remote", "trace_id": root.trace_id,
                           "span_id": "sX", "parent_id": root.span_id})
        assert tracer.started == tracer.ended == 3
        assert {s["name"] for s in tracer.finished_spans} == {
            "job", "attempt", "remote"}


# -- exporters ----------------------------------------------------------------


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlSpanExporter(path, buffer_size=2)
        with tracing.capture(exporters=[exporter]):
            for i in range(5):
                with tracing.span("s%d" % i):
                    pass
        exporter.close()
        spans = timeline.read_spans(path)
        assert [s["name"] for s in spans] == ["s0", "s1", "s2", "s3", "s4"]

    def test_flight_recorder_ring_and_dump(self, tmp_path):
        path = tmp_path / "trace.flight"
        recorder = FlightRecorder(capacity=3, path=path)
        with tracing.capture(flight_recorder=recorder):
            for i in range(5):
                with tracing.span("s%d" % i):
                    pass
            dumped = tracing.dump_flight("test incident")
        # bounded: only the last 3 spans survive
        assert [s["name"] for s in dumped] == ["s2", "s3", "s4"]
        assert recorder.dumps == 1
        assert recorder.last_reason == "test incident"
        lines = [json.loads(line) for line in
                 path.read_text().strip().splitlines()]
        assert lines[0]["flight_dump"] == "test incident"
        assert lines[0]["spans"] == 3
        # read_spans skips the header and keeps the spans
        assert [s["name"] for s in timeline.read_spans(path)] == [
            "s2", "s3", "s4"]

    def test_in_memory_drain(self):
        exporter = InMemorySpanExporter()
        exporter.export({"name": "a"})
        exporter.export({"name": "b"})
        assert [s["name"] for s in exporter.drain()] == ["a", "b"]
        assert exporter.drain() == []

    def test_configure_from_env(self, tmp_path):
        assert tracing.configure_from_env(environ={}) is None
        path = tmp_path / "trace.jsonl"
        tracer = tracing.configure_from_env(
            environ={"REPRO_TRACE": str(path)})
        try:
            assert tracing.get_tracer() is tracer
            with tracing.span("configured"):
                pass
        finally:
            assert tracing.shutdown() is tracer
        assert [s["name"] for s in timeline.read_spans(path)] == [
            "configured"]
        assert tracer.flight_recorder.path == str(path) + ".flight"


# -- telemetry ----------------------------------------------------------------


class TestTelemetry:
    def test_empty_report_and_summaries(self):
        """Regression: a telemetry object that has served nothing must
        render a report and structurally-complete summaries."""
        telemetry = Telemetry()
        text = telemetry.report()
        assert "submitted" in text
        snap = telemetry.snapshot()
        for stage in ("queue_wait", "service_time"):
            summary = snap[stage]
            assert summary == {
                "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p99": 0.0, "max": 0.0,
            }

    def test_to_prometheus_counters_and_summaries(self):
        telemetry = Telemetry()
        telemetry.count("submitted")
        telemetry.count("submitted")
        telemetry.count("completed")
        text = telemetry.to_prometheus()
        assert 'repro_jobs_total{event="submitted"} 2' in text
        assert 'repro_jobs_total{event="completed"} 1' in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'quantile="0.99"' in text
        assert text.endswith("\n")

    def test_to_prometheus_fleet_gauges(self):
        service = ExecutionService.simulator(ServiceConfig(n_chips=2))
        service.submit(one_protocol())
        service.drain()
        text = service.to_prometheus()
        assert "repro_fleet_throughput_jobs_per_second" in text
        assert 'repro_chip_health{chip="0",state="healthy"} 1' in text
        assert 'repro_chip_utilization{chip="1"}' in text


    @pytest.mark.parametrize("tier", ["virtual", "thread"])
    def test_memo_hits_and_misses_reach_every_surface(self, tier):
        """Three runs of one batch on one chip: one planned, two served
        from the chip's plan memo -- on the wall-clock tier through the
        worker's per-attempt routing delta."""
        if tier == "virtual":
            service = ExecutionService.simulator(ServiceConfig(n_chips=1))
            for __ in range(3):
                assert service.submit(routed_protocol()).wait().ok
        else:
            service = ConcurrentExecutionService.simulator(
                config=ConcurrentConfig(n_workers=1))
            with service:
                for __ in range(3):
                    assert service.submit(routed_protocol()).wait(
                        timeout=120).ok
        routing = service.snapshot()["routing"]
        assert (routing["plans"], routing["memo_hits"],
                routing["memo_misses"]) == (3, 2, 1)
        assert routing["cages_planned"] == 6
        text = service.to_prometheus()
        assert 'repro_routing_total{metric="memo_hits"} 2' in text
        assert 'repro_routing_total{metric="memo_misses"} 1' in text
        report = service.report()
        assert "memo hits" in report and "memo misses" in report

    def test_observe_routing_folds_every_counter(self):
        from repro.core.platform import ROUTING_COUNTERS

        telemetry = Telemetry()
        delta = dict.fromkeys(ROUTING_COUNTERS, 1)
        telemetry.observe_routing(delta)
        telemetry.observe_routing({"plans": 1, "memo_hits": 1})
        routing = telemetry.snapshot()["routing"]
        assert routing["plans"] == 2
        assert routing["memo_hits"] == 2
        assert all(routing[key] >= 1 for key in ROUTING_COUNTERS)


# -- instrumentation: core seams ----------------------------------------------


class TestCoreInstrumentation:
    def test_session_run_nests_chip_and_routing_spans(self):
        session = Session.simulator()
        with tracing.capture() as tracer:
            session.run(one_protocol())
        assert_trace_integrity(tracer)
        by_name = {}
        for span in tracer.finished_spans:
            by_name.setdefault(span["name"], []).append(span)
        run_span, = by_name["session.run"]
        assert run_span["parent_id"] is None
        assert run_span["attributes"]["ops"] > 0
        assert run_span["end_chip"] > run_span["start_chip"]
        move = by_name["chip.move_many"][0]
        assert move["parent_id"] == run_span["span_id"]
        assert move["attributes"]["frames"] >= 1
        plan = by_name["routing.plan"][0]
        assert plan["parent_id"] == move["span_id"]
        assert plan["attributes"]["planner"] == "wavefront"
        assert plan["attributes"]["makespan"] >= 1
        # planning is host work: wall-only span
        assert plan["start_chip"] is None

    def test_routing_plan_span_carries_the_memo_outcome(self):
        session = Session.simulator()
        with tracing.capture() as tracer:
            for __ in range(2):
                session.run(routed_protocol())
        assert_trace_integrity(tracer)
        moves = {s["span_id"] for s in tracer.finished_spans
                 if s["name"] == "chip.move_many"}
        miss, hit = (s for s in tracer.finished_spans
                     if s["name"] == "routing.plan")
        assert miss["attributes"]["memo"] == "miss"
        assert hit["attributes"]["memo"] == "hit"
        for span in (miss, hit):
            assert span["parent_id"] in moves
            assert span["attributes"]["planner"] == "wavefront"
            assert span["attributes"]["cages"] == 2
            assert span["start_chip"] is None
        assert miss["attributes"]["fast_path_hits"] == 2
        # a hit does none of the planner's work
        for counter in ("fast_path_hits", "greedy_walk_hits",
                        "frontier_steps", "expansions", "replans"):
            assert hit["attributes"][counter] == 0
        assert (hit["attributes"]["makespan"]
                == miss["attributes"]["makespan"])

    def test_sense_all_span(self):
        protocol = (
            Protocol("scan")
            .trap("a", (10, 10)).trap("b", (30, 30))
            .sense_all(samples=500)
            .release("a").release("b")
        )
        session = Session.simulator()
        with tracing.capture() as tracer:
            session.run(protocol)
        sense, = (s for s in tracer.finished_spans
                  if s["name"] == "chip.sense_all")
        assert sense["attributes"]["n_samples"] == 500
        assert sense["attributes"]["cages"] == 2
        assert sense["end_chip"] > sense["start_chip"]

    def test_fault_event_lands_on_session_span(self):
        model = FaultModel(shape=SHAPE, transient_ops=frozenset({1}))
        injector = FaultInjector(
            SimulatorBackend(Biochip.small_chip()), model, seed=7)
        session = Session(injector)
        with tracing.capture() as tracer:
            with pytest.raises(ChipFault):
                session.run(one_protocol())
        assert_trace_integrity(tracer)
        run_span, = (s for s in tracer.finished_spans
                     if s["name"] == "session.run")
        assert run_span["status"] == "error"
        event, = (e for e in run_span["events"]
                  if e["name"] == "fault.transient")
        assert event["attributes"]["index"] == 1


# -- instrumentation: the serving tiers ---------------------------------------


class TestServiceTracing:
    def test_job_error_carries_trace_ids_and_flight_dumps_on_failure(self):
        plan = FleetFaultPlan(models={
            0: FaultModel(shape=SHAPE, transient_rate=1.0),
        })
        service = ExecutionService.simulator(
            ServiceConfig(n_chips=1, max_retries=0, quarantine_after=None),
            faults=plan,
        )
        recorder = FlightRecorder()
        with tracing.capture(flight_recorder=recorder) as tracer:
            result = service.submit(one_protocol()).wait()
        assert_trace_integrity(tracer)
        assert result.state.value == "failed"
        attempt, = (s for s in tracer.finished_spans
                    if s["name"] == "attempt")
        assert result.error.trace_id == attempt["trace_id"]
        assert result.error.span_id == attempt["span_id"]
        assert attempt["attributes"]["error.kind"] == "transient"
        assert recorder.dumps == 1
        assert "job 0 failed: transient" == recorder.last_reason

    def test_rejected_job_still_ends_root_span(self):
        service = ExecutionService.simulator(
            ServiceConfig(n_chips=1, max_queue_depth=0))
        with tracing.capture() as tracer:
            handle = service.submit(one_protocol())
        assert handle.state.value == "rejected"
        assert_trace_integrity(tracer)
        root, = tracer.finished_spans
        assert root["attributes"]["state"] == "rejected"
        assert root["status"] == "ok"  # the service refused; no crash
        assert root["attributes"]["error.kind"] == "rejected"

    def test_quarantine_log_line_carries_trace_ids(self, caplog):
        plan = FleetFaultPlan(models={
            0: FaultModel(shape=SHAPE, transient_rate=1.0),
            1: FaultModel.none(SHAPE),
        })
        service = ExecutionService.simulator(
            ServiceConfig(n_chips=2, max_retries=3, quarantine_after=1,
                          restart_cooldown=None),
            faults=plan,
        )
        recorder = FlightRecorder()
        with tracing.capture(flight_recorder=recorder) as tracer:
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                result = service.submit(one_protocol()).wait()
        assert result.ok
        assert_trace_integrity(tracer)
        record, = (r for r in caplog.records
                   if "quarantined" in r.getMessage())
        message = record.getMessage()
        assert "chip 0" in message
        # the logged span ids resolve into the trace
        attempt_ids = {s["span_id"] for s in tracer.finished_spans
                       if s["name"] == "attempt"}
        assert any(span_id in message for span_id in attempt_ids)
        assert recorder.dumps >= 1  # dumped at quarantine

    def test_virtual_acceptance_retried_and_migrated(self):
        service = ExecutionService.simulator(
            ServiceConfig(n_chips=2, max_retries=2, retry_backoff=0.5,
                          quarantine_after=None),
            faults=first_op_fault_plan(),
        )
        with tracing.capture() as tracer:
            result = service.submit(one_protocol()).wait()
        assert result.ok
        assert result.attempts == 3
        assert_trace_integrity(tracer)
        spans = tracer.finished_spans

        root = timeline.job_timeline(spans, 0)
        assert [e["name"] for e in root["events"]] == [
            "admit", "dispatch", "backoff", "migrate", "dispatch",
            "backoff", "migrate", "dispatch",
        ]
        attempts = [c for c in root["children"] if c["name"] == "attempt"]
        assert [a["attributes"]["attempt"] for a in attempts] == [1, 2, 3]
        assert [a["status"] for a in attempts] == ["error", "error", "ok"]
        assert [a["attributes"].get("error.kind") for a in attempts] == [
            "transient", "transient", None]
        # migrated: attempt 2 ran on different hardware than attempt 1
        assert attempts[0]["attributes"]["chip"] != \
            attempts[1]["attributes"]["chip"]
        # every failed attempt rolled exactly its first op; the
        # glitch event is on the attempt's session.run child
        for failed in attempts[:2]:
            session_run, = [c for c in failed["children"]
                            if c["name"] == "session.run"]
            assert any(e["name"] == "fault.transient"
                       for e in session_run["events"])
        # chip-time ordering is consistent: backoff pushes each retry's
        # window strictly forward, and within an attempt end >= start
        starts = [a["start_chip"] for a in attempts]
        assert starts == sorted(starts)
        assert starts[1] >= attempts[0]["end_chip"]
        for a in attempts:
            assert a["end_chip"] >= a["start_chip"]
        # wall ordering agrees
        wall_starts = [a["start_wall"] for a in attempts]
        assert wall_starts == sorted(wall_starts)

        # the timeline inspector reconstructs the story as text
        text = timeline.render_job_timeline(spans, 0)
        assert "attempt 1" in text and "attempt 3" in text
        assert "ERROR[transient]" in text
        assert "* migrate" in text and "* backoff" in text
        assert "state=done attempts=3" in text

    def test_thread_tier_matches_virtual_canonical_tree(self):
        # virtual reference
        virtual = ExecutionService.simulator(
            ServiceConfig(n_chips=2, max_retries=2, retry_backoff=0.5,
                          quarantine_after=None),
            faults=first_op_fault_plan(),
        )
        with tracing.capture() as vtracer:
            vresult = virtual.submit(one_protocol()).wait()
        # thread tier, same fault plan and retry budget
        config = ConcurrentConfig(n_workers=2, max_retries=2,
                                  retry_backoff=0.02, quarantine_after=None)
        with tracing.capture() as ttracer:
            with ConcurrentExecutionService.simulator(
                    config=config, faults=first_op_fault_plan()) as service:
                tresult = service.submit(one_protocol()).wait(timeout=120)
        assert vresult.ok and tresult.ok
        assert vresult.attempts == tresult.attempts == 3
        assert_trace_integrity(vtracer)
        assert_trace_integrity(ttracer)
        vtree = canonical_tree(vtracer.finished_spans, 0)
        ttree = canonical_tree(ttracer.finished_spans, 0)
        assert vtree == ttree
        assert vtree["root"] == ("job", "ok", "done", 3)
        # the thread tier's root span saw at least one migration and
        # both backoffs (exact interleaving is scheduling-dependent)
        troot = timeline.job_timeline(ttracer.finished_spans, 0)
        names = [e["name"] for e in troot["events"]]
        assert names.count("dispatch") == 3
        assert names.count("backoff") == 2
        assert names.count("migrate") >= 1
        assert names[0] == "admit"
        # wall-clock ordering of the attempts is monotone
        attempts = sorted(
            (s for s in ttracer.finished_spans if s["name"] == "attempt"),
            key=lambda s: s["attributes"]["attempt"])
        starts = [a["start_wall"] for a in attempts]
        assert starts == sorted(starts)
        # chip clock of the wall tier IS the shared wall clock
        chip_starts = [a["start_chip"] for a in attempts]
        assert chip_starts == sorted(chip_starts)

    def test_process_tier_ships_spans_back(self):
        config = ConcurrentConfig(n_workers=1, mode="process",
                                  quarantine_after=None)
        with tracing.capture() as tracer:
            with ConcurrentExecutionService.simulator(
                    config=config) as service:
                result = service.submit(one_protocol()).wait(timeout=120)
        assert result.ok
        assert_trace_integrity(tracer)
        names = {s["name"] for s in tracer.finished_spans}
        # the worker process shipped its whole subtree back
        assert {"job", "attempt", "session.run"} <= names
        root, = (s for s in tracer.finished_spans if s["name"] == "job")
        attempt, = (s for s in tracer.finished_spans
                    if s["name"] == "attempt")
        assert attempt["trace_id"] == root["trace_id"]
        assert attempt["parent_id"] == root["span_id"]
        assert attempt["attributes"]["chip_seconds"] > 0.0

    @pytest.mark.parametrize("tier", ["virtual", "thread"])
    def test_trace_integrity_under_faulted_traffic(self, tier):
        jobs = hot_protocol_traffic(small_grid(), 6, seed=11)
        plan = FleetFaultPlan(models={
            0: FaultModel(shape=SHAPE, transient_rate=0.05),
            1: FaultModel.none(SHAPE),
        })
        with tracing.capture() as tracer:
            if tier == "virtual":
                service = ExecutionService.simulator(
                    ServiceConfig(n_chips=2, max_retries=3), faults=plan)
                service.submit_many(jobs)
                results = service.drain()
            else:
                config = ConcurrentConfig(n_workers=2, max_retries=3,
                                          retry_backoff=0.01)
                with ConcurrentExecutionService.simulator(
                        config=config, faults=plan) as service:
                    service.submit_many(jobs)
                    results = service.drain(timeout=300.0)
        assert len(results) == len(jobs)
        assert_trace_integrity(tracer)
        roots = [s for s in tracer.finished_spans if s["name"] == "job"]
        assert len(roots) == len(jobs)
        assert all("state" in s["attributes"] for s in roots)


# -- the traced faulted-fleet run (CI artifact) -------------------------------


def test_traced_faulted_fleet_writes_jsonl_artifact(tmp_path):
    """End-to-end: a seeded faulted fleet run traced to JSONL (the CI
    trace artifact when ``REPRO_TRACE`` is set), with the flight
    recorder dumping on quarantine and the inspector reconstructing
    per-job timelines from the file."""
    path = os.environ.get("REPRO_TRACE") or str(tmp_path / "trace.jsonl")
    tracer = tracing.Tracer(
        exporters=[JsonlSpanExporter(path)],
        flight_recorder=FlightRecorder(path=path + ".flight"),
    )
    previous = tracing.install(tracer)
    try:
        plan = FleetFaultPlan(models={
            0: FaultModel(shape=SHAPE, transient_rate=1.0),
            1: FaultModel.none(SHAPE),
        })
        service = ExecutionService.simulator(
            ServiceConfig(n_chips=2, max_retries=3, quarantine_after=2,
                          restart_cooldown=None),
            faults=plan,
        )
        jobs = hot_protocol_traffic(small_grid(), 4, seed=11)
        service.submit_many(jobs)
        results = service.drain()
        assert all(r.ok for r in results)
        assert service.telemetry.counters["quarantined"].value >= 1
        # quarantine dumped the flight recorder
        assert tracer.flight_recorder.dumps >= 1
    finally:
        tracing.install(previous)
        tracer.close()

    spans = timeline.read_spans(path)
    ids = timeline.job_ids(spans)
    assert ids == [0, 1, 2, 3]
    for job_id in ids:
        text = timeline.render_job_timeline(spans, job_id)
        assert "state=done" in text
    with open(path + ".flight", encoding="utf-8") as fh:
        flight_lines = fh.readlines()
    header = json.loads(flight_lines[0])
    assert "quarantined" in header["flight_dump"]


# -- the timeline CLI ---------------------------------------------------------


class TestTimelineCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlSpanExporter(path)
        service = ExecutionService.simulator(
            ServiceConfig(n_chips=2, max_retries=2, retry_backoff=0.5,
                          quarantine_after=None),
            faults=first_op_fault_plan(),
        )
        with tracing.capture(exporters=[exporter]):
            service.submit(one_protocol()).wait()
        exporter.close()
        return str(path)

    def test_list_jobs(self, trace_path, capsys):
        assert timeline.main([trace_path]) == 0
        out = capsys.readouterr().out
        assert "1 jobs" in out
        assert "state=done" in out
        assert "attempts=3" in out

    def test_render_one_job(self, trace_path, capsys):
        assert timeline.main([trace_path, "--job", "0"]) == 0
        out = capsys.readouterr().out
        assert "attempt 1" in out
        assert "* migrate" in out
        assert "ERROR[transient]" in out

    def test_json_tree(self, trace_path, capsys):
        assert timeline.main([trace_path, "--job", "0", "--json"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["name"] == "job"
        assert [c["name"] for c in tree["children"]].count("attempt") == 3
