"""The wall tier's coordinator, driven one pass at a time.

:class:`ScriptedService` is a :class:`ConcurrentExecutionService` whose
pool start builds the worker records over in-memory lanes and restart
events with stub runners, and starts no thread; its clock is a manual
one.  A test plays the workers by hand: it pulls a job from a worker's
lane and reports it ``started``, reports outcomes, trips quarantine,
answers restart requests and kills workers, and hands each batch of
messages to one ``_pump_pass(now, messages)`` -- the pass the pump
thread makes over real messages in real time.

The replay test runs one scripted message order twice and gets the
same jobs, counters, gauges and trace.  The state machine drives random
traffic, worker replies and operator actions and checks, after every
rule, what no order of events may break: every admitted job is waiting
in the coordinator, held by exactly one worker, or terminal; terminal
states never change; the queue depth counts the waiting jobs; the
counters equal the handle tallies and the workers' restarts; the pool
gauges are the per-worker job dicts and the live handles; a pool that
can never serve again holds no waiting job; and no worker holds more
unreported jobs than its lane is deep.
"""

import queue
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Biochip, ConcurrentConfig, JobState, Protocol
from repro.observability import tracing
from repro.service.cache import CacheStats
from repro.service.concurrent.workers import (
    ConcurrentExecutionService,
    _Worker,
)
from repro.service.core import ADMISSION_POLICIES, Attempt, ChipHealth
from repro.service.jobs import ErrorKind, JobError

GRID = Biochip.small_chip().grid

#: Terminal states and the service counter each one is tallied in.
COUNTED = {
    JobState.DONE: "completed",
    JobState.FAILED: "failed",
    JobState.REJECTED: "rejected",
    JobState.SHED: "shed",
    JobState.EXPIRED: "expired",
}


class ManualClock:
    """A clock that reads what the test last set."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


class StubRunner:
    """Stands in for a worker's thread or process: alive until killed."""

    def __init__(self):
        self.alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass


class ScriptedService(ConcurrentExecutionService):
    """The wall tier with no thread: its workers are the test's."""

    def _start_pool(self):
        self._done_q = queue.Queue()
        self._stop_event = threading.Event()
        self._records = [
            _Worker(i, lane=queue.Queue(maxsize=self._lane_depth),
                    restart_event=threading.Event(), runner=StubRunner())
            for i in range(self.config.n_workers)
        ]
        self._pump = StubRunner()


def scripted_service(**options):
    service = ScriptedService.dry_run(ConcurrentConfig(**options), grid=GRID)
    service.clock = ManualClock()
    return service


def protocol(row=2):
    return Protocol(f"row{row}").trap("p", (row, 2)).move("p", (row, 10)) \
        .release("p")


def message(kind, worker_id, *payload):
    """A worker message as :class:`_WorkerRuntime` sends it."""
    return (kind, worker_id, {}, CacheStats(), *payload)


def transient(worker_id, attempts):
    return JobError(kind=ErrorKind.TRANSIENT, message="glitch",
                    chip_id=worker_id, attempts=attempts)


def pump(service, now, messages=()):
    """One coordinator pass at ``now`` over ``messages``, each given as
    ``(kind, worker_id, *payload)``."""
    service.clock.t = now
    with service._lock:
        service._pump_pass(now, [message(*m) for m in messages])


def feed(service, now, messages):
    """:func:`pump`, with the workers' side played as a real worker
    does: it pulls the job it reports ``started`` from its lane, and
    clears its restart event before it reports ``restarted``."""
    for kind, worker_id, *payload in messages:
        record = service._records[worker_id]
        if kind == "started":
            assert record.lane.get_nowait().job_id == payload[0]
        elif kind == "restarted":
            assert record.restart_event.is_set()
            record.restart_event.clear()
    pump(service, now, messages)


def script():
    """Two workers, four jobs of one protocol: each worker fails job 0
    once and benches itself, the retries migrate, and the health loop
    restarts both workers after their cooldowns.  ``(now, messages)``
    pairs, built afresh per run (the coordinator keeps the attempts)."""
    def ok(started, finished):
        return Attempt(started_at=started, finished_at=finished)

    def failed(worker_id, attempts, started, finished):
        return Attempt(error=transient(worker_id, attempts),
                       started_at=started, finished_at=finished)

    return [
        (1.0, [("started", 0, 0, 1.0), ("started", 1, 1, 1.0)]),
        (2.0, [("outcome", 0, 0, failed(0, 1, 1.0, 2.0), None),
               ("quarantined", 0, 2.0, 1, transient(0, 1)),
               ("outcome", 1, 1, ok(1.0, 2.0), None)]),
        (4.0, [("started", 1, 3, 4.0)]),
        (5.0, [("outcome", 1, 3, ok(4.0, 5.0), None)]),
        (6.0, [("started", 1, 0, 6.0)]),
        (7.0, [("outcome", 1, 0, failed(1, 2, 6.0, 7.0), None),
               ("quarantined", 1, 7.0, 1, transient(1, 2))]),
        (8.0, [("restarted", 0, 8.0, 1)]),
        (9.0, [("started", 0, 2, 9.0)]),
        (10.0, [("outcome", 0, 2, ok(9.0, 10.0), None)]),
        (11.0, [("started", 0, 0, 11.0)]),
        (12.0, [("outcome", 0, 0, ok(11.0, 12.0), None)]),
        (13.0, [("restarted", 1, 13.0, 1)]),
    ]


def replay():
    """Serve the script on a fresh service; returns what it shows."""
    service = scripted_service(
        n_workers=2, max_retries=2, retry_backoff=1.0, restart_cooldown=5.0,
    )
    with tracing.capture() as tracer:
        handles = service.submit_many(protocol() for __ in range(4))
        for now, messages in script():
            feed(service, now, messages)
    jobs = [
        (h.state, h.result().chip_id, h.result().attempts,
         h.result().started_at, h.result().finished_at)
        for h in handles
    ]
    trace = [
        (span["name"], span["attributes"], span["status"], span["error"],
         span["start_chip"], span["end_chip"],
         [(e["name"], e["chip"], e["attributes"]) for e in span["events"]])
        for span in tracer.finished_spans
    ]
    return jobs, service.snapshot(), trace


def test_a_scripted_message_order_replays_identically():
    before = threading.active_count()
    first, second = replay(), replay()
    assert threading.active_count() == before  # no thread was started
    assert first == second
    jobs, snap, __ = first
    assert [state for state, *__ in jobs] == [JobState.DONE] * 4
    assert [chip for __, chip, *__ in jobs] == [0, 1, 0, 1]
    assert jobs[0][2] == 3  # job 0 ran on worker 0, 1, then 0 again
    counters = snap["counters"]
    assert (counters["retried"], counters["migrated"],
            counters["quarantined"], counters["restarted"]) == (2, 2, 2, 2)
    assert snap["fleet"]["health"] == {0: "healthy", 1: "healthy"}
    assert snap["pool"]["inflight"] == snap["pool"]["outstanding"] == 0


def test_a_worker_pulled_job_keeps_its_lane_slot_until_started():
    """Lane occupancy is the coordinator's own count: a job the worker
    has pulled but not reported keeps the slot, so the next job waits."""
    service = scripted_service(n_workers=1)
    first, second = service.submit_many([protocol(), protocol()])
    lane = service._records[0].lane
    assert lane.get_nowait().job_id == first.job_id  # pulled, unreported
    pump(service, 1.0)
    assert lane.empty() and service.queue_depth == 1
    pump(service, 2.0, [("started", 0, first.job_id, 2.0)])
    assert lane.get_nowait().job_id == second.job_id
    assert service.snapshot()["pool"]["inflight"] == 2


def test_a_dead_worker_fails_the_job_it_pulled_but_never_started():
    """A worker that dies holding a pulled, unreported job: the death
    fails that attempt, and the retry runs on the other worker."""
    service = scripted_service(n_workers=2, retry_backoff=0.0)
    handle = service.submit(protocol())
    assert service._records[0].lane.get_nowait().job_id == handle.job_id
    service._records[0].runner.alive = False
    pump(service, 1.0)  # the first liveness miss
    pump(service, 2.0)  # the second: worker 0 is dead
    assert service.snapshot()["fleet"]["health"][0] == "dead"
    assert handle.job.attempts == 1
    pump(service, 2.5)  # the retry's backoff is over
    feed(service, 3.0, [("started", 1, handle.job_id, 3.0)])
    feed(service, 4.0, [("outcome", 1, handle.job_id,
                         Attempt(started_at=3.0, finished_at=4.0), None)])
    assert handle.result().ok and handle.result().chip_id == 1


# -- a model of the scripted wall tier ----------------------------------------

N_WORKERS = 3

#: A ``die`` or ``trip_quarantine`` rule acts on one draw in this many.
RARE = 4


class StubWorker:
    """What the model knows of one scripted worker: the jobs it has
    pulled from its lane and not yet reported started, those it has
    started and not reported, its restarts, and whether it is parked
    in quarantine or dead."""

    def __init__(self):
        self.pulled = []
        self.running = []
        self.restarts = 0
        self.parked = False
        self.dead = False


class WallModel(RuleBasedStateMachine):
    """Random traffic, worker replies and operator actions against one
    scripted wall tier.  A worker rule acts on a worker drawn from
    those that can take it; deaths and quarantines are :data:`RARE`,
    so most runs keep enough of the pool serving to finish jobs."""

    @initialize(
        max_tenants=st.sampled_from([1, 2]),
        max_queue_depth=st.sampled_from([None, 3]),
        admission=st.sampled_from(ADMISSION_POLICIES),
        max_retries=st.integers(0, 2),
        restart_cooldown=st.sampled_from([None, 0.0, 5.0]),
        retry_backoff=st.sampled_from([0.0, 1.0, 5.0]),
    )
    def open_service(self, max_tenants, max_queue_depth, admission,
                     max_retries, restart_cooldown, retry_backoff):
        self.service = scripted_service(
            n_workers=N_WORKERS, max_tenants=max_tenants,
            max_queue_depth=max_queue_depth, admission=admission,
            max_retries=max_retries, restart_cooldown=restart_cooldown,
            retry_backoff=retry_backoff,
        )
        self.workers = [StubWorker() for __ in range(N_WORKERS)]
        self.handles = []
        self.terminal = {}  # job_id -> the first terminal state seen

    def _pass(self, messages=()):
        pump(self.service, self.service.clock.now(), messages)

    def _able(self, can):
        """The ids of the live workers for which ``can(worker, record)``."""
        return [
            i for i, (worker, record) in enumerate(
                zip(self.workers, self.service._records))
            if not worker.dead and can(worker, record)
        ]

    def _pullers(self):
        return self._able(lambda w, r: not w.parked and not r.lane.empty())

    def _starters(self):
        return self._able(
            lambda w, r: not w.parked and (w.pulled or not r.lane.empty())
        )

    def _reporters(self):
        return self._able(lambda w, r: w.running)

    def _idlers(self):
        return self._able(lambda w, r: not w.parked and not w.running)

    def _restartable(self):
        return self._able(
            lambda w, r: not w.running and r.restart_event.is_set()
        )

    @rule(
        priority=st.integers(0, 3),
        deadline=st.one_of(st.none(), st.floats(0.0, 10.0)),
        row=st.integers(2, 6),
    )
    def submit(self, priority, deadline, row):
        self.handles.append(
            self.service.submit(protocol(row), priority, deadline)
        )

    @precondition(lambda self: self._pullers())
    @rule(data=st.data())
    def pull(self, data):
        """A worker pulls its next lane job; its report is still to
        come."""
        self.pull_from(data.draw(st.sampled_from(self._pullers())))

    def pull_from(self, worker_id):
        lane = self.service._records[worker_id].lane
        self.workers[worker_id].pulled.append(lane.get_nowait())

    @precondition(lambda self: self._starters())
    @rule(data=st.data())
    def start_next(self, data):
        """A worker reports the oldest job it pulled (pulling one first
        when it holds none) started, or expired when its deadline has
        passed."""
        worker_id = data.draw(st.sampled_from(self._starters()))
        worker = self.workers[worker_id]
        if not worker.pulled:
            self.pull_from(worker_id)
        job = worker.pulled.pop(0)
        now = self.service.clock.now()
        if job.expired(now):
            self._pass([("expired", worker_id, job.job_id)])
        else:
            self.workers[worker_id].running.append(job)
            self._pass([("started", worker_id, job.job_id, now)])

    @precondition(lambda self: self._reporters())
    @rule(data=st.data(), ok=st.booleans())
    def finish(self, data, ok):
        """A worker reports its oldest running job done, or failed with
        a transient chip fault."""
        worker_id = data.draw(st.sampled_from(self._reporters()))
        job = self.workers[worker_id].running.pop(0)
        now = self.service.clock.now()
        attempt = Attempt(started_at=now, finished_at=now)
        if not ok:
            attempt.error = transient(worker_id, job.attempts + 1)
        self._pass([("outcome", worker_id, job.job_id, attempt, None)])

    @precondition(lambda self: self._idlers())
    @rule(data=st.data(), fate=st.integers(1, RARE))
    def trip_quarantine(self, data, fate):
        """A worker between jobs benches itself and parks."""
        if fate != 1:
            return
        worker_id = data.draw(st.sampled_from(self._idlers()))
        self.workers[worker_id].parked = True
        now = self.service.clock.now()
        self._pass([("quarantined", worker_id, now, 1,
                     transient(worker_id, 1))])

    @precondition(lambda self: self._restartable())
    @rule(data=st.data())
    def answer_restart(self, data):
        """A worker between jobs, or parked, answers a restart request."""
        worker_id = data.draw(st.sampled_from(self._restartable()))
        worker = self.workers[worker_id]
        self.service._records[worker_id].restart_event.clear()
        worker.parked = False
        worker.restarts += 1
        self._pass([("restarted", worker_id, self.service.clock.now(),
                     worker.restarts)])

    @rule(dt=st.sampled_from([0.5, 1.0, 3.0]))
    def advance_clock(self, dt):
        self.service.clock.t += dt
        self._pass()

    @precondition(lambda self: self._able(lambda w, r: True))
    @rule(data=st.data(), fate=st.integers(1, RARE),
          report=st.booleans())
    def die(self, data, fate, report):
        """A worker dies: it reports ``worker_error``, or its runner
        just stops being alive for the liveness check to find."""
        if fate != 1:
            return
        worker_id = data.draw(st.sampled_from(self._able(lambda w, r: True)))
        worker = self.workers[worker_id]
        worker.dead = True
        worker.pulled, worker.running = [], []  # lost with the worker
        if report:
            self._pass([("worker_error", worker_id, "crashed")])
        else:
            self.service._records[worker_id].runner.alive = False

    @rule(worker_id=st.integers(0, N_WORKERS - 1))
    def restart_worker(self, worker_id):
        self.service.restart_worker(worker_id)
        self._pass()

    # -- invariants --------------------------------------------------------

    def _holders(self, job_id):
        return [r for r in self.service._records if job_id in r.jobs]

    @invariant()
    def each_job_waits_is_held_once_or_is_terminal(self):
        waiting = {job.job_id for job in self.service._waiting()}
        for handle in self.handles:
            holders = len(self._holders(handle.job_id))
            if handle.state.terminal:
                assert holders == 0 and handle.job_id not in waiting
            else:
                assert holders + (handle.job_id in waiting) == 1

    @invariant()
    def terminal_states_never_change(self):
        for handle in self.handles:
            if handle.state.terminal:
                first = self.terminal.setdefault(handle.job_id, handle.state)
                assert handle.state is first
            else:
                assert handle.job_id not in self.terminal

    @invariant()
    def queue_depth_counts_the_waiting_jobs(self):
        waiting = sum(
            not h.state.terminal and not self._holders(h.job_id)
            for h in self.handles
        )
        assert self.service.queue_depth == waiting

    @invariant()
    def counters_equal_the_handle_tallies(self):
        counters = self.service.snapshot()["counters"]
        assert counters["submitted"] == len(self.handles)
        for state, counter in COUNTED.items():
            tally = sum(h.state is state for h in self.handles)
            assert counters[counter] == tally, (counter, counters)
        assert counters["restarted"] == sum(w.restarts for w in self.workers)

    @invariant()
    def pool_gauges_are_the_job_dicts_and_the_live_handles(self):
        pool = self.service.snapshot()["pool"]
        records = self.service._records
        assert pool["inflight"] == sum(len(r.jobs) for r in records)
        assert pool["outstanding"] == sum(
            not h.state.terminal for h in self.handles
        )

    @invariant()
    def a_pool_that_can_never_serve_holds_no_waiting_job(self):
        serving = (ChipHealth.HEALTHY, ChipHealth.QUARANTINED)
        if not any(r.health in serving for r in self.service._records):
            assert self.service.queue_depth == 0

    @invariant()
    def no_worker_holds_more_unreported_jobs_than_its_lane_depth(self):
        service = self.service
        for worker, record in zip(self.workers, service._records):
            held = record.lane.qsize() + len(worker.pulled)
            assert held <= service._lane_load(record) <= service._lane_depth


WallModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None,
)
TestWallModel = WallModel.TestCase
