"""Serving protocol traffic: the fleet execution service end to end.

Simulates a production serving scenario on top of the paper's chip in
all three serving modes:

1. virtual clock -- the deterministic ``ExecutionService`` reference:
   bursts of mixed-priority jobs against an 8-chip fleet with a bounded
   admission queue, affinity dispatch and shed-lowest overload policy;
2. wall clock -- ``ConcurrentExecutionService`` runs the same traffic
   on real chip-worker threads with device-latency pacing, so jobs/sec
   and p50/p99 latency are measured in real seconds;
3. asyncio -- ``AsyncExecutionService`` streams per-job progress events
   to a coroutine while backpressure suspends submitters, not the loop.

Run with:  python examples/protocol_serving.py
"""

import asyncio

from repro import (
    AsyncExecutionService,
    Biochip,
    ConcurrentConfig,
    ConcurrentExecutionService,
    ExecutionService,
    JobState,
    ServiceConfig,
)
from repro.workloads import bursty_traffic, mixed_priority_traffic


def virtual_clock_demo(grid):
    service = ExecutionService.dry_run(
        ServiceConfig(
            n_chips=8,
            policy="affinity",
            max_queue_depth=24,
            admission="shed-lowest",
        ),
        grid=grid,
    )

    print("steady mixed-priority traffic:")
    handles = service.submit_many(mixed_priority_traffic(grid, 20, seed=1))
    service.drain()
    served = sum(h.result().state is JobState.DONE for h in handles)
    print(f"  {served}/{len(handles)} jobs served, "
          f"fleet time {service.now:.1f} s")

    print("\nbursty overload against the bounded queue:")
    for i, burst in enumerate(bursty_traffic(grid, 3, mean_burst_size=40,
                                             seed=2)):
        burst_handles = service.submit_many(
            (protocol, j % 3) for j, protocol in enumerate(burst)
        )
        refused = sum(h.state in (JobState.REJECTED, JobState.SHED)
                      for h in burst_handles)
        service.drain()
        print(f"  burst {i}: {len(burst_handles)} submitted, "
              f"{refused} refused at admission")

    print()
    print(service.report())


def wall_clock_demo(grid):
    # time_scale paces each attempt by a fraction of its accounted chip
    # seconds, emulating device latency: the workers overlap real waits.
    with ConcurrentExecutionService.dry_run(
            ConcurrentConfig(n_workers=8, time_scale=0.002),
            grid=grid) as service:
        service.submit_many(mixed_priority_traffic(grid, 20, seed=1))
        results = service.drain()
        served = sum(r.state is JobState.DONE for r in results)
        snap = service.snapshot()
        fleet = snap["fleet"]
        print(f"  {served}/{len(results)} jobs served by "
              f"{fleet['n_chips']} {snap['pool']['mode']} workers in "
              f"{fleet['makespan']:.2f} wall seconds "
              f"({fleet['throughput']:.1f} jobs/s)")


async def asyncio_demo(grid):
    async with AsyncExecutionService.dry_run(
            ConcurrentConfig(n_workers=4, max_queue_depth=8,
                             time_scale=0.002),
            grid=grid) as service:
        protocols = mixed_priority_traffic(grid, 8, seed=3)
        # block=True backpressures: the coroutine suspends while the
        # admission queue is full, the event loop keeps running.
        handles = [await service.submit(p, priority=pr, block=True)
                   for p, pr in protocols]
        n_sense = 0
        async for event in handles[0].events():
            n_sense += event["kind"] == "sense"
        results = await asyncio.gather(*handles)
        served = sum(r.state is JobState.DONE for r in results)
        print(f"  {served}/{len(results)} jobs served; first job "
              f"streamed {n_sense} sense events mid-protocol")


def main():
    grid = Biochip.small_chip().grid

    print("=== virtual clock (deterministic reference) ===")
    virtual_clock_demo(grid)

    print("\n=== wall clock (threaded chip workers) ===")
    wall_clock_demo(grid)

    print("\n=== asyncio front end (streaming + backpressure) ===")
    asyncio.run(asyncio_demo(grid))


if __name__ == "__main__":
    main()
