"""Model-based test of the virtual-clock service's job lifecycle.

A hypothesis state machine drives :class:`ExecutionService` on a
two-chip fleet with seeded transient faults through random sequences
of submissions, top-priority bursts over a waiting retry, drain steps,
full drains and operator quarantines and restarts, across both occupancy
modes, both admission policies and every restart-cooldown setting.
After every rule it checks what no schedule may break: a job is queued
or terminal between steps, a terminal state never changes, the queue
depth counts exactly the queued jobs (retries in backoff included),
and the service's counters equal the handles' tallies and the chips'
restarts.  After a full drain no chip holds a cage.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import Biochip, ExecutionService, JobState, Protocol, ServiceConfig
from repro.faults import FleetFaultPlan
from repro.service.core import ADMISSION_POLICIES

GRID = Biochip.small_chip().grid
N_CHIPS = 2

#: The highest priority the submit rules draw.
TOP_PRIORITY = 3

#: Terminal states and the service counter each one is tallied in.
COUNTED = {
    JobState.DONE: "completed",
    JobState.FAILED: "failed",
    JobState.REJECTED: "rejected",
    JobState.SHED: "shed",
    JobState.EXPIRED: "expired",
}


def small_protocol(row):
    return (Protocol(f"row{row}").trap("p", (row, 2)).move("p", (row, 10))
            .release("p"))


class ServiceModel(RuleBasedStateMachine):
    """Random traffic and operator actions against one service."""

    @initialize(
        max_tenants=st.sampled_from([1, 4]),
        max_queue_depth=st.sampled_from([None, 3]),
        admission=st.sampled_from(ADMISSION_POLICIES),
        restart_cooldown=st.sampled_from([None, 0.0, 20.0]),
        retry_backoff=st.sampled_from([0.0, 0.5, 30.0]),
        transient_rate=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
        seed=st.integers(0, 2**16),
    )
    def open_service(self, max_tenants, max_queue_depth, admission,
                     restart_cooldown, retry_backoff, transient_rate, seed):
        self.service = ExecutionService.dry_run(
            ServiceConfig(
                n_chips=N_CHIPS, max_tenants=max_tenants,
                max_queue_depth=max_queue_depth, admission=admission,
                restart_cooldown=restart_cooldown, retry_backoff=retry_backoff,
            ),
            faults=FleetFaultPlan(transient_rate=transient_rate, seed=seed),
            grid=GRID,
        )
        self.handles = []
        self.terminal = {}  # job_id -> the first terminal state seen

    @rule(
        priority=st.integers(0, TOP_PRIORITY),
        deadline=st.one_of(st.none(), st.floats(0.0, 60.0)),
        row=st.integers(2, GRID.rows - 3),
    )
    def submit(self, priority, deadline, row):
        self.handles.append(
            self.service.submit(small_protocol(row), priority, deadline)
        )

    @rule(row=st.integers(2, GRID.rows - 3))
    def burst_over_a_retry(self, row):
        """Two bottom-priority jobs and one drain step -- when the
        first fails into its backoff and the second completes, an old
        low-priority retry waits in the delay heap -- then as many
        top-priority jobs as a bounded queue holds: under shed-lowest
        they shed every lower-priority waiting job, that retry
        included."""
        for __ in range(2):
            self.submit(0, None, row)
        self.service.step()
        for __ in range(self.service.config.max_queue_depth or 0):
            self.submit(TOP_PRIORITY, None, row)

    @rule()
    def step(self):
        self.service.step()

    @rule()
    def drain(self):
        self.service.drain()
        assert all(h.state.terminal for h in self.handles)
        for worker in self.service.fleet.workers:
            assert worker.session.backend.cage_count == 0

    @rule(chip_id=st.integers(0, N_CHIPS - 1))
    def quarantine_chip(self, chip_id):
        self.service.quarantine_chip(chip_id)

    @rule(chip_id=st.integers(0, N_CHIPS - 1))
    def restart_chip(self, chip_id):
        self.service.restart_chip(chip_id)

    @invariant()
    def jobs_are_queued_or_terminal(self):
        for handle in self.handles:
            assert handle.state is JobState.QUEUED or handle.state.terminal

    @invariant()
    def terminal_states_never_change(self):
        for handle in self.handles:
            if handle.state.terminal:
                first = self.terminal.setdefault(handle.job_id, handle.state)
                assert handle.state is first
            else:
                assert handle.job_id not in self.terminal

    @invariant()
    def queue_depth_counts_the_queued_jobs(self):
        queued = sum(h.state is JobState.QUEUED for h in self.handles)
        assert self.service.queue_depth == queued

    @invariant()
    def counters_equal_the_handle_tallies(self):
        counters = self.service.snapshot()["counters"]
        assert counters["submitted"] == len(self.handles)
        for state, counter in COUNTED.items():
            tally = sum(h.state is state for h in self.handles)
            assert counters[counter] == tally, (counter, counters)

    @invariant()
    def restarts_equal_the_chips_restarts(self):
        counters = self.service.snapshot()["counters"]
        restarts = sum(w.restarts for w in self.service.fleet.workers)
        assert counters["restarted"] == restarts


ServiceModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None,
)
TestServiceModel = ServiceModel.TestCase
