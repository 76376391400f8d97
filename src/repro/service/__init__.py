"""Fleet execution service: serve protocol traffic across many chips.

The paper's microsite array is one chip; this subsystem is the serving
layer a production deployment needs on top of it -- a job queue with
priorities, deadlines and admission control
(:mod:`~repro.service.scheduler`), a compiled-program cache keyed by
structural protocol fingerprints (:mod:`~repro.service.cache`), a fleet
of isolated chips with pluggable dispatch policies
(:mod:`~repro.service.fleet`), and deterministic latency/throughput
telemetry (:mod:`~repro.service.telemetry`).

Quickstart::

    from repro import ExecutionService, Protocol, ServiceConfig

    service = ExecutionService.simulator(
        ServiceConfig(n_chips=8, policy="affinity", max_queue_depth=64)
    )
    protocol = (
        Protocol("assay")
        .trap("p", (10, 10)).move("p", (30, 30))
        .sense("p", samples=2000).release("p")
    )
    handles = [service.submit(protocol, priority=i % 3) for i in range(32)]
    results = service.drain()          # or handles[0].wait() for one job
    print(service.report())            # throughput, p99 latency, hit rate

Hot protocols compile once per chip and then hit the program cache on
every repeat; the affinity policy keeps each fingerprint pinned to the
chip that compiled it.

The virtual-clock :class:`ExecutionService` above is the deterministic
reference tier.  For serving on real time there is the wall-clock tier
(:mod:`~repro.service.concurrent`): :class:`ConcurrentExecutionService`
runs the same semantics across thread or process chip workers, and
:class:`AsyncExecutionService` fronts it with asyncio submission,
streaming job handles and queue backpressure.

Both tiers are traced end to end when a tracer is installed (see
:mod:`repro.observability`): every job carries a span tree from admit
through dispatch, retries and migration to its terminal state.  Both
tiers share one observation surface, rendered by the serving core from
one :class:`ChipRecord` per chip: ``service.snapshot()``,
``service.report()`` and ``service.to_prometheus()`` (counters,
latency summaries and per-chip health, utilization and restart gauges
in the Prometheus text exposition format).
"""

from .cache import CacheStats, ProgramCache, program_key, rebind_program
from .concurrent import (
    AsyncExecutionService,
    AsyncJobHandle,
    Clock,
    ConcurrentConfig,
    ConcurrentExecutionService,
    ConcurrentJobHandle,
    FleetClock,
    SenseTap,
    WallClock,
)
from .fleet import (
    POLICIES,
    AffinityPolicy,
    ChipWorker,
    DispatchPolicy,
    Fleet,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    make_policy,
)
from .jobs import (
    ErrorKind,
    Job,
    JobError,
    JobHandle,
    JobResult,
    JobState,
    classify_error,
)
from .core import ADMISSION_POLICIES, ChipHealth, ChipRecord
from .scheduler import ExecutionService, ServiceConfig
from .telemetry import Counter, Histogram, Telemetry
from .tenancy import (
    Footprint,
    LeasedBackend,
    RegionLease,
    RegionLeaseAllocator,
    frame_merge_ratio,
    merged_group_time,
    protocol_footprint,
    routing_separation,
)

#: Explicit so ``import *`` exports the API, not the submodule objects
#: (cache, fleet, ...) that the imports above bind in package globals.
__all__ = [
    "ADMISSION_POLICIES",
    "AffinityPolicy",
    "AsyncExecutionService",
    "AsyncJobHandle",
    "CacheStats",
    "ChipHealth",
    "ChipRecord",
    "ChipWorker",
    "Clock",
    "ConcurrentConfig",
    "ConcurrentExecutionService",
    "ConcurrentJobHandle",
    "Counter",
    "DispatchPolicy",
    "FleetClock",
    "ErrorKind",
    "ExecutionService",
    "Fleet",
    "Footprint",
    "Histogram",
    "Job",
    "JobError",
    "JobHandle",
    "JobResult",
    "JobState",
    "LeasedBackend",
    "LeastLoadedPolicy",
    "POLICIES",
    "ProgramCache",
    "RegionLease",
    "RegionLeaseAllocator",
    "RoundRobinPolicy",
    "SenseTap",
    "ServiceConfig",
    "Telemetry",
    "WallClock",
    "classify_error",
    "frame_merge_ratio",
    "make_policy",
    "merged_group_time",
    "program_key",
    "protocol_footprint",
    "rebind_program",
    "routing_separation",
]
