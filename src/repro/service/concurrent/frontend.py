"""Asyncio front end over the wall-clock concurrent execution tier.

:class:`AsyncExecutionService` wraps a
:class:`~repro.service.concurrent.workers.ConcurrentExecutionService`
so protocol traffic can be served from a single event loop::

    async with AsyncExecutionService.dry_run(
            ConcurrentConfig(n_workers=8, max_queue_depth=16)) as service:
        handle = await service.submit(protocol, priority=2)
        async for event in handle.events():
            ...                       # queued / started / sense / retrying
        result = await handle        # the terminal JobResult

``await submit(...)`` is where backpressure lives: with the bounded
admission queue full and ``block=True`` (the default here), the
*coroutine* suspends -- not the event loop -- until a worker frees
capacity.  The blocking wait happens on an executor thread; the loop
keeps serving other coroutines meanwhile.

Threading model: the pool's coordinator and workers run exactly as in
the sync tier; this front end only bridges their completions and
progress events into the loop with ``call_soon_threadsafe``.  An
:class:`AsyncJobHandle` is therefore loop-affine (use it from the loop
that created it), while the underlying sync handle remains usable from
any thread.
"""

from __future__ import annotations

import asyncio

from .workers import ConcurrentConfig, ConcurrentExecutionService


class AsyncJobHandle:
    """Awaitable, event-streaming view of one submitted job.

    * ``await handle`` -- the terminal
      :class:`~repro.service.jobs.JobResult` (never raises for job
      failure; check ``result.ok`` / ``result.error``).
    * ``async for event in handle.events()`` -- the job's progress
      stream (dicts with a ``"kind"`` key: queued, started, sense,
      retrying, then exactly one terminal kind).  The full history is
      replayed to late iterators, so subscribing after completion
      still yields every event.
    """

    def __init__(self, sync_handle, loop):
        self.sync = sync_handle
        self._loop = loop
        self._result_future = loop.create_future()
        # Subscribe exactly once; fan out to any number of iterators.
        # The sync handle replays history on subscribe, so no event is
        # lost between submit and this constructor running.
        self._history = []
        self._queues = []
        sync_handle.subscribe(self._on_event)

    # -- bridging (called from coordinator/worker threads) ------------------

    def _on_event(self, event):
        self._loop.call_soon_threadsafe(self._deliver, event)

    def _deliver(self, event):  # runs on the loop
        self._history.append(event)
        for event_queue in self._queues:
            event_queue.put_nowait(event)
        if "result" in event and not self._result_future.done():
            self._result_future.set_result(event["result"])

    # -- the async API ------------------------------------------------------

    @property
    def job_id(self) -> int:
        return self.sync.job_id

    @property
    def state(self):
        return self.sync.state

    def done(self) -> bool:
        return self._result_future.done()

    def __await__(self):
        return self._result_future.__await__()

    async def result(self):
        return await self._result_future

    async def events(self):
        """Async-iterate the job's progress events, terminal last."""
        event_queue = asyncio.Queue()
        for event in self._history:  # replay, then live
            event_queue.put_nowait(event)
        self._queues.append(event_queue)
        try:
            while True:
                event = await event_queue.get()
                yield event
                if "result" in event:
                    return
        finally:
            self._queues.remove(event_queue)


class AsyncExecutionService:
    """The concurrent tier behind an asyncio-native submit/drain API.

    Construct directly over an existing
    :class:`ConcurrentExecutionService`, or via the
    :meth:`simulator`/:meth:`dry_run` constructors.  Use as an async
    context manager so the pool is drained and joined on exit.
    """

    def __init__(self, service: ConcurrentExecutionService):
        self.service = service

    @classmethod
    def simulator(cls, config: ConcurrentConfig | None = None, chip=None,
                  registry=None, faults=None) -> "AsyncExecutionService":
        return cls(ConcurrentExecutionService.simulator(
            config=config, chip=chip, registry=registry, faults=faults))

    @classmethod
    def dry_run(cls, config: ConcurrentConfig | None = None, registry=None,
                faults=None, **backend_kwargs) -> "AsyncExecutionService":
        return cls(ConcurrentExecutionService.dry_run(
            config=config, registry=registry, faults=faults,
            **backend_kwargs))

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.close(drain=exc_type is None)

    # -- serving ------------------------------------------------------------

    async def submit(self, protocol, priority=0, deadline=None, block=True,
                     timeout=None) -> AsyncJobHandle:
        """Admit one job; suspends (without blocking the loop) while
        the bounded admission queue is full and ``block=True``."""
        loop = asyncio.get_running_loop()
        sync_handle = await loop.run_in_executor(
            None,
            lambda: self.service.submit(
                protocol, priority=priority, deadline=deadline,
                block=block, timeout=timeout,
            ),
        )
        return AsyncJobHandle(sync_handle, loop)

    async def submit_many(self, jobs, block=True) -> list:
        """Submit a batch (protocols or ``(protocol, priority[,
        deadline])`` tuples); handles in submission order."""
        handles = []
        for item in jobs:
            if isinstance(item, tuple):
                handles.append(await self.submit(*item, block=block))
            else:
                handles.append(await self.submit(item, block=block))
        return handles

    async def drain(self, timeout=300.0) -> list:
        """Wait (loop stays live) until every submitted job is
        terminal; returns results in completion order."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.service.drain(timeout=timeout)
        )

    async def close(self, drain=True, timeout=60.0):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.service.close(drain=drain, timeout=timeout)
        )

    # -- passthroughs -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self.service.queue_depth

    @property
    def telemetry(self):
        return self.service.telemetry

    def snapshot(self) -> dict:
        return self.service.snapshot()

    def report(self) -> str:
        return self.service.report()

    def to_prometheus(self, namespace="repro") -> str:
        return self.service.to_prometheus(namespace)
