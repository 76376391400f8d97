"""Service telemetry: counters, latency histograms, utilization report.

Minimal in-process observability for the fleet execution service --
monotonic counters for job lifecycle events, sample-keeping histograms
for the two halves of job latency (submit->start queue wait and
start->done service time), the batch-planner and multi-tenancy meters,
and their ``snapshot()`` dict, Prometheus lines and report tables.  The
per-chip health, load and cache gauges are not here: they live in each
chip's record and are rendered, with these meters, by the serving
core's one observation surface (:mod:`repro.service.core`).  On the
virtual-clock tier all durations are fleet virtual seconds, so every
number is deterministic for a given workload; the wall-clock tier
meters real seconds through the same classes.

Every meter is thread-safe with its own lock (lock-sharded: two
threads touching *different* meters never contend).  The wall-clock
tier writes only under its service lock (chip workers touch no
telemetry: ``_pump_pass``, ``close`` and ``submit`` write it), so the
locks keep a meter whole for readers on other threads, such as
``AsyncExecutionService.telemetry``.  The single-threaded virtual tier
pays one uncontended lock acquisition per event, which is noise next
to a protocol dispatch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..analysis import ascii_table, format_seconds
from ..core.platform import ROUTING_COUNTERS


class Counter:
    """A monotonic event counter.  Thread-safe per instance."""

    def __init__(self, name):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        with self._lock:
            self.value += amount

    def __int__(self):
        return self.value


class Histogram:
    """A sample-keeping latency/throughput histogram.

    Keeps every observation (service workloads are bounded, and exact
    percentiles beat bucketed ones for reproduction assertions); exposes
    nearest-rank percentiles, mean and max.  Thread-safe per instance:
    writers append under the lock, readers take a consistent snapshot
    of the samples under it.
    """

    def __init__(self, name):
        self.name = name
        self.samples = []
        self._lock = threading.Lock()

    def observe(self, value):
        value = float(value)  # coerce outside the lock; may raise
        with self._lock:
            self.samples.append(value)

    def _snapshot(self) -> list:
        with self._lock:
            return list(self.samples)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self.samples)

    @property
    def mean(self) -> float:
        samples = self._snapshot()
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def max(self) -> float:
        samples = self._snapshot()
        return max(samples) if samples else 0.0

    def percentile(self, p) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]; 0.0 when empty."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self._snapshot())
        if not ordered:
            return 0.0
        rank = max(1, -(-p * len(ordered) // 100))  # ceil without math
        return ordered[int(rank) - 1]

    #: What :meth:`summary` reports before any observation -- one
    #: structural guard instead of per-field conditionals, so empty
    #: histograms can never divide by zero or index an empty list
    #: (``report()`` renders a fresh service's tables safely).
    EMPTY_SUMMARY = {
        "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        "max": 0.0,
    }

    def summary(self) -> dict:
        """count/mean/p50/p90/p99/max of the observations so far."""
        samples = sorted(self._snapshot())
        if not samples:
            return dict(self.EMPTY_SUMMARY)

        def nearest_rank(p):
            return samples[int(max(1, -(-p * len(samples) // 100))) - 1]

        return {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "p50": nearest_rank(50),
            "p90": nearest_rank(90),
            "p99": nearest_rank(99),
            "max": samples[-1],
        }


#: Lifecycle counters every service tracks.  The second row is the
#: fault-tolerance meters: attempts re-queued after retryable failures,
#: retries that landed on a different chip than the one that failed,
#: attempts cut off by the per-job service-time budget, chips benched
#: by the self-healing loop, and chip restarts (manual or cooldown).
#: The third row is the multi-tenancy meters: region leases granted,
#: tenants evicted by a fault in their group, and jobs whose frames
#: landed in a merged (>= 2 tenant) frame group.
COUNTER_NAMES = (
    "submitted", "completed", "failed", "rejected", "shed", "expired",
    "retried", "migrated", "timeout", "quarantined", "restarted",
    "leased", "evicted", "merged",
)


@dataclass
class Telemetry:
    """The job, latency, routing and tenancy meters of one service."""

    counters: dict = field(
        default_factory=lambda: {n: Counter(n) for n in COUNTER_NAMES}
    )
    queue_wait: Histogram = field(
        default_factory=lambda: Histogram("queue_wait")
    )
    service_time: Histogram = field(
        default_factory=lambda: Histogram("service_time")
    )
    routing_plan_time: Histogram = field(
        default_factory=lambda: Histogram("routing_plan_time")
    )
    co_residency: Histogram = field(
        default_factory=lambda: Histogram("co_residency")
    )
    frame_merge_ratio: Histogram = field(
        default_factory=lambda: Histogram("frame_merge_ratio")
    )
    routing_totals: dict = field(
        default_factory=lambda: {
            **dict.fromkeys(ROUTING_COUNTERS, 0), "plan_seconds": 0.0,
        }
    )
    # routing_totals is the one multi-field meter, so its merges need a
    # lock of their own (counters/histograms shard theirs per instance).
    _routing_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, name, amount=1):
        self.counters[name].inc(amount)

    def observe_served(self, job_result):
        """Record latencies of a job that actually ran (done/failed)."""
        self.queue_wait.observe(job_result.queue_wait)
        self.service_time.observe(job_result.service_time)

    def observe_routing(self, delta):
        """Fold one job's batch-planner cost into the routing meters.

        ``delta`` is the difference of the executing chip's
        ``routing_totals`` across the job (host wall-clock seconds and
        counters; routing cost is host work, not chip virtual time),
        keyed by :data:`~repro.core.platform.ROUTING_COUNTERS`; a key the
        delta lacks adds zero.  Jobs that never planned a batch
        (``plans == 0``) are skipped so the plan-time histogram stays a
        per-planning-job distribution.
        """
        if not delta or not delta.get("plans"):
            return
        with self._routing_lock:
            for key in ROUTING_COUNTERS:
                self.routing_totals[key] += delta.get(key, 0)
        self.routing_plan_time.observe(delta.get("plan_seconds", 0.0))

    def observe_tenancy(self, tenants, merge_ratio):
        """Record one lease group dispatch: how many tenants shared the
        chip and the frame-merge ratio their movement achieved
        (sum of per-tenant frames over merged frames; 1.0 = nothing
        merged)."""
        self.co_residency.observe(tenants)
        self.frame_merge_ratio.observe(merge_ratio)

    @property
    def served(self) -> int:
        return self.counters["completed"].value + self.counters["failed"].value

    def throughput(self, makespan) -> float:
        """Served jobs per second of the tier's clock over ``makespan``."""
        return self.served / makespan if makespan > 0.0 else 0.0

    def snapshot(self) -> dict:
        """One JSON-ready dict of every meter."""
        with self._routing_lock:
            routing = dict(self.routing_totals)
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "queue_wait": self.queue_wait.summary(),
            "service_time": self.service_time.summary(),
            "routing": {
                **routing,
                "plan_time": self.routing_plan_time.summary(),
            },
            "tenancy": {
                "groups": self.co_residency.count,
                "co_residency": self.co_residency.summary(),
                "frame_merge_ratio": self.frame_merge_ratio.summary(),
            },
        }

    def to_prometheus(self, namespace="repro") -> str:
        """Every meter in the Prometheus text exposition format (see
        :func:`prometheus_lines`)."""
        return "\n".join(prometheus_lines(self.snapshot(), namespace)) + "\n"

    def report(self) -> str:
        """Human-readable telemetry tables (see :func:`report_tables`)."""
        return "\n\n".join(report_tables(self.snapshot()))


def metric_family(name, kind, help_text, samples) -> list:
    """Prometheus text lines of one metric family: its HELP and TYPE
    lines, then ``name{labels} value`` per ``(labels, value)`` sample
    (``labels`` rendered, e.g. ``'{chip="0"}'``, or ``""``)."""
    return [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"] + [
        f"{name}{labels} {value}" for labels, value in samples
    ]


def prometheus_lines(snap, namespace="repro") -> list:
    """A :meth:`Telemetry.snapshot`'s meters as Prometheus text lines.

    Counters become one labelled ``{namespace}_jobs_total`` family
    (``event="submitted"`` ...); the latency histograms export as
    summaries (``quantile`` labels plus ``_sum``/``_count``); the
    routing totals and tenancy gauges follow.  Safe on a fresh
    service: empty histograms render zero-valued summaries instead of
    dividing by zero.
    """
    lines = metric_family(
        f"{namespace}_jobs_total", "counter", "Job lifecycle events.",
        [(f'{{event="{name}"}}', value)
         for name, value in snap["counters"].items()],
    )
    lines += [
        f"# HELP {namespace}_latency_seconds Job latency by stage.",
        f"# TYPE {namespace}_latency_seconds summary",
    ]
    stages = [
        ("queue_wait", snap["queue_wait"]),
        ("service_time", snap["service_time"]),
        ("routing_plan", snap["routing"]["plan_time"]),
    ]
    for stage, summary in stages:
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"),
                              ("0.99", "p99")):
            lines.append(
                f'{namespace}_latency_seconds{{stage="{stage}",'
                f'quantile="{quantile}"}} {summary[key]:.9g}'
            )
        total = summary["mean"] * summary["count"]
        lines.append(
            f'{namespace}_latency_seconds_sum{{stage="{stage}"}} '
            f"{total:.9g}"
        )
        lines.append(
            f'{namespace}_latency_seconds_count{{stage="{stage}"}} '
            f"{summary['count']}"
        )
    lines += metric_family(
        f"{namespace}_routing_total", "counter", "Batch-planner work done.",
        [(f'{{metric="{metric}"}}', f"{value:.9g}")
         for metric, value in snap["routing"].items()
         if metric != "plan_time"],
    )
    tenancy = snap["tenancy"]
    lines += metric_family(
        f"{namespace}_tenancy_groups_total", "counter",
        "Lease group dispatches.", [("", tenancy["groups"])],
    )
    lines += metric_family(
        f"{namespace}_tenancy_co_residency", "gauge",
        "Mean co-resident tenants per lease group.",
        [("", f"{tenancy['co_residency']['mean']:.9g}")],
    )
    lines += metric_family(
        f"{namespace}_tenancy_frame_merge_ratio", "gauge",
        "Mean per-tenant frames over merged frames.",
        [("", f"{tenancy['frame_merge_ratio']['mean']:.9g}")],
    )
    return lines


def report_tables(snap) -> list:
    """A :meth:`Telemetry.snapshot`'s meters as text tables: the job
    lifecycle and latency, plus batch routing and multi-tenancy when
    any job used them."""
    sections = [
        ascii_table(
            ["counter", "value"],
            [[name, str(value)] for name, value in
             snap["counters"].items()],
            title="job lifecycle",
        )
    ]
    latency_rows = []
    for label in ("queue_wait", "service_time"):
        s = snap[label]
        latency_rows.append([
            label, str(s["count"]), format_seconds(s["mean"]),
            format_seconds(s["p50"]), format_seconds(s["p99"]),
            format_seconds(s["max"]),
        ])
    sections.append(
        ascii_table(
            ["latency", "count", "mean", "p50", "p99", "max"],
            latency_rows,
            title="latency (fleet virtual time)",
        )
    )
    routing = snap["routing"]
    if routing["plans"]:
        plan_time = routing["plan_time"]
        sections.append(
            ascii_table(
                ["metric", "value"],
                [
                    ["plans", str(routing["plans"])],
                    ["cages planned", str(routing["cages_planned"])],
                    ["planner host time", format_seconds(routing["plan_seconds"])],
                    ["plan time p99", format_seconds(plan_time["p99"])],
                    ["fast-path hits", str(routing["fast_path_hits"])],
                    ["greedy-walk hits", str(routing["greedy_walk_hits"])],
                    ["frontier steps", str(routing["frontier_steps"])],
                    ["replans", str(routing["replans"])],
                    ["memo hits", str(routing["memo_hits"])],
                    ["memo misses", str(routing["memo_misses"])],
                ],
                title="batch routing (host time)",
            )
        )
    tenancy = snap["tenancy"]
    if tenancy["groups"]:
        co = tenancy["co_residency"]
        ratio = tenancy["frame_merge_ratio"]
        sections.append(
            ascii_table(
                ["metric", "mean", "p50", "max"],
                [
                    ["co-residency", f"{co['mean']:.2f}",
                     f"{co['p50']:.0f}", f"{co['max']:.0f}"],
                    ["frame-merge ratio", f"{ratio['mean']:.2f}",
                     f"{ratio['p50']:.2f}", f"{ratio['max']:.2f}"],
                ],
                title=f"multi-tenancy ({tenancy['groups']} lease groups)",
            )
        )
    return sections
