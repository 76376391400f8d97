"""The chip fleet: N spawned backends with load accounting and dispatch.

The paper's platform is one chip; a production deployment racks many.
A :class:`Fleet` spawns N independent backends from one template (the
same isolation primitive ``Session.run_many`` uses), gives each chip a
:class:`~repro.service.cache.ProgramCache` -- compiled programs live
*on their chip*, as frame data would on real hardware -- and accounts
per-chip load in accumulated chip-seconds.

Which chip gets the next job is a pluggable :class:`DispatchPolicy`:

* :class:`RoundRobinPolicy` -- rotate blindly; perfect for uniform
  traffic, oblivious to skew;
* :class:`LeastLoadedPolicy` -- send to the chip with the least
  accumulated chip time; balances skewed job sizes;
* :class:`AffinityPolicy` -- pin each protocol fingerprint to the chip
  that first compiled it (falling back to an inner policy for new
  fingerprints), so hot protocols hit their chip's program cache
  instead of recompiling fleet-wide.
"""

from __future__ import annotations

from .cache import CacheStats
from .core import ServedChip

#: One chip of the fleet: its serving lifecycle and, being a
#: :class:`~repro.service.core.ChipRecord`, its health and load meters
#: (``busy_time`` is the dispatch load: chip seconds already committed).
ChipWorker = ServedChip


class DispatchPolicy:
    """Chip-selection strategy interface."""

    def select(self, workers, fingerprint) -> ChipWorker:
        """Pick the worker that should run the next job.

        ``fingerprint`` is the job protocol's structural fingerprint,
        for cache-aware policies.
        """
        raise NotImplementedError


class RoundRobinPolicy(DispatchPolicy):
    """Rotate through the fleet in chip order."""

    def __init__(self):
        self._next = 0

    def select(self, workers, fingerprint) -> ChipWorker:
        worker = workers[self._next % len(workers)]
        self._next += 1
        return worker


class LeastLoadedPolicy(DispatchPolicy):
    """Send each job to the chip with the least committed chip time."""

    def select(self, workers, fingerprint) -> ChipWorker:
        return min(workers, key=lambda w: (w.busy_time, w.chip_id))


class AffinityPolicy(DispatchPolicy):
    """Stick each fingerprint to chips that hold its cached program.

    Bounded-load affinity: a fingerprint's jobs go to the least loaded
    of its *home* chips (the chips that already compiled it) as long as
    that chip's load stays within ``load_factor`` times the fleet
    average; past the bound the job falls back to ``inner``
    (least-loaded by default) and that chip joins the home set.  A hot
    protocol therefore replicates its compiled program across exactly
    as many chips as its traffic share needs -- near-perfect cache hit
    rates without serialising the fleet behind one chip.

    A home claim is verified against the chip's actual program cache on
    every selection: if a bounded cache evicted the fingerprint's
    program, that chip silently stops being home instead of being
    routed to forever.  The homes map itself is LRU-bounded
    (``max_tracked``), so a long-lived service tracking an unbounded
    stream of distinct fingerprints keeps flat memory.

    ``load_factor=None`` gives pure sticky affinity (one home per
    fingerprint, never spread).
    """

    def __init__(self, inner: DispatchPolicy | None = None,
                 load_factor: float | None = 1.25, max_tracked: int = 4096):
        if load_factor is not None and load_factor < 1.0:
            raise ValueError(f"load_factor must be >= 1, got {load_factor}")
        if max_tracked < 1:
            raise ValueError(f"max_tracked must be >= 1, got {max_tracked}")
        from collections import OrderedDict

        self.inner = inner or LeastLoadedPolicy()
        self.load_factor = load_factor
        self.max_tracked = max_tracked
        self._homes: "OrderedDict" = OrderedDict()  # fp -> [chip_id, ...]

    def _within_bound(self, worker, workers) -> bool:
        if self.load_factor is None:
            return True
        average = sum(w.busy_time for w in workers) / len(workers)
        return worker.busy_time <= self.load_factor * average

    def _live_homes(self, workers, fingerprint):
        """Home chips that still hold the fingerprint's program,
        pruning stale claims (chip gone, or program evicted)."""
        claimed = self._homes.get(fingerprint)
        if claimed is None:
            return []
        self._homes.move_to_end(fingerprint)
        by_id = {w.chip_id: w for w in workers}
        live = [
            chip_id for chip_id in claimed
            if chip_id in by_id
            and by_id[chip_id].cache.holds_fingerprint(fingerprint)
        ]
        if len(live) != len(claimed):
            if live:
                self._homes[fingerprint] = live
            else:
                del self._homes[fingerprint]
        return [by_id[chip_id] for chip_id in live]

    def select(self, workers, fingerprint) -> ChipWorker:
        homes = self._live_homes(workers, fingerprint)
        if homes:
            home = min(homes, key=lambda w: (w.busy_time, w.chip_id))
            if len(homes) == len(workers) or self._within_bound(home, workers):
                return home
        worker = self.inner.select(workers, fingerprint)
        if fingerprint:
            home_set = self._homes.setdefault(fingerprint, [])
            self._homes.move_to_end(fingerprint)
            if worker.chip_id not in home_set:
                home_set.append(worker.chip_id)
            while len(self._homes) > self.max_tracked:
                self._homes.popitem(last=False)
        return worker


#: Policy names accepted by :class:`ServiceConfig`.
POLICIES = {
    "round-robin": RoundRobinPolicy,
    "least-loaded": LeastLoadedPolicy,
    "affinity": AffinityPolicy,
}


def make_policy(policy) -> DispatchPolicy:
    """Resolve a policy name or instance to a :class:`DispatchPolicy`."""
    if isinstance(policy, DispatchPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown dispatch policy {policy!r}; "
            f"pick one of {sorted(POLICIES)} or pass a DispatchPolicy"
        ) from None


class Fleet:
    """N isolated chips spawned from one template backend."""

    def __init__(self, workers):
        self.workers = list(workers)  # materialise before the guard:
        if not self.workers:          # a generator is always truthy
            raise ValueError("a fleet needs at least one chip")

    @classmethod
    def spawn(cls, template_backend, n_chips, registry=None,
              cache_capacity=None, **chip_options) -> "Fleet":
        """``n_chips`` fresh chips spawned from ``template_backend``,
        each with its own session and program cache; ``chip_options``
        (fault ``plan``, ``quarantine_after``) go to every
        :class:`ChipWorker`."""
        if n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {n_chips}")
        return cls(
            ChipWorker(
                i, template_backend, registry=registry,
                cache_capacity=cache_capacity, **chip_options,
            )
            for i in range(n_chips)
        )

    def __len__(self):
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    @property
    def now(self) -> float:
        """Fleet virtual time [s]: the furthest-along chip's clock.

        Chips run in parallel in the modelled deployment, so the
        fleet-wide wall clock is the max, and makespan of a drained
        workload is ``now`` at drain end.

        Written as a plain loop over the backend clocks: this is the
        job-span domain clock, sampled at every span start/event/end
        when tracing is on, so it stays allocation-free.
        """
        best = 0.0
        for worker in self.workers:
            elapsed = worker.session.backend.elapsed
            if elapsed > best:
                best = elapsed
        return best

    @property
    def total_busy_time(self) -> float:
        return sum(w.busy_time for w in self.workers)

    def worker(self, chip_id) -> ChipWorker:
        """Look up one chip by id (ValueError when absent)."""
        for worker in self.workers:
            if worker.chip_id == chip_id:
                return worker
        raise ValueError(f"no chip {chip_id} in fleet")

    def cache_stats(self) -> CacheStats:
        """Aggregate hit/miss stats across every chip's cache."""
        stats = CacheStats()
        for worker in self.workers:
            stats = stats.merge(worker.cache.stats)
        return stats
