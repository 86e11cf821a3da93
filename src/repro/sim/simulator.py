"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and an event queue.  All protocol
components (network, nodes, clients) schedule work on the simulator; calling
:meth:`Simulator.run` advances virtual time until the queue drains, a time
bound is reached, or an event budget is exhausted.

Batched execution model
-----------------------
The scheduler offers two equivalent drain strategies:

* :meth:`Simulator.step` / :meth:`Simulator.run` — the classic loop: peek,
  pop, fire, one event at a time.
* :meth:`Simulator.run_batched` — drains whole *cohorts* of events sharing
  the earliest timestamp (via :meth:`EventQueue.pop_batch`) and fires them
  back to back without re-entering the scheduler between events.  Because
  cohorts are returned in scheduling (``seq``) order, and events scheduled
  mid-cohort for the same instant join the *next* cohort (exactly where the
  one-at-a-time loop would have placed them), batched execution produces the
  **same event order, clock trajectory and results** as :meth:`run` — it is
  purely a constant-factor optimisation of the drain loop.  Events cancelled
  by an earlier member of their own cohort are skipped at fire time, which
  mirrors the lazy-cancellation behaviour of the one-at-a-time loop.

Determinism guarantees
----------------------
Runs are fully reproducible from the seed: every source of randomness must
derive from :attr:`Simulator.rng` or from :meth:`Simulator.fork_rng`, events
with equal timestamps fire in scheduling order, and ``run``/``run_batched``
are observationally equivalent, so *same seed ⇒ same event trace ⇒ same
results* regardless of which drain strategy (or batch size) is used.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

#: Hooks invoked every time a new :class:`Simulator` is constructed.  Modules
#: holding process-global caches whose entries must never leak *between* runs
#: (e.g. the attested-log verification memo) register a clearing function
#: here; they pay one cleared cache per simulation instead of taking a
#: dependency edge from the cache module to every run entry point.  Hooks
#: must be idempotent and draw no randomness — sub-simulations (the beacon
#: protocol's isolated runs) also construct simulators mid-run, which simply
#: re-clears the caches.
_RUN_RESET_HOOKS: List[Callable[[], None]] = []


def register_run_reset(hook: Callable[[], None]) -> None:
    """Register ``hook`` to run at every :class:`Simulator` construction."""
    _RUN_RESET_HOOKS.append(hook)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  Every source
        of randomness in a simulation (network jitter, workload skew, beacon
        draws) derives from this generator or from generators forked from it,
        so a run is fully reproducible from its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self._fork_counts: Dict[str, int] = {}
        for hook in _RUN_RESET_HOOKS:
            hook()

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before current time {self._now!r}"
            )
        return self._queue.push(time, callback, args)

    def advance_clock(self, until: float) -> None:
        """Advance the clock to ``until`` without running events.

        ``run``/``run_batched`` only move the clock to their bound when
        events are pending; the engine's barrier loop uses this to pin a
        drained simulation's clock at the window end, so every partition and
        the parent agree on "now" at each barrier.
        """
        self._now = max(self._now, until)

    def is_last_scheduled(self, event: Event) -> bool:
        """True iff ``event`` is the most recently scheduled and still pending.

        This is the invariant batched-delivery cohorts rely on: appending
        work to such an event is indistinguishable from scheduling a fresh
        event immediately after it.
        """
        return self._queue.last_seq == event.seq and self._queue.is_pending(event)

    def fork_rng(self, label: str = "") -> random.Random:
        """Return a new RNG deterministically derived from the simulator seed.

        Each fork draws from an independent stream.  The first fork for a
        given label derives from ``(seed, label)`` alone (so existing labelled
        streams are stable), while repeated forks for the same label — or
        several callers relying on the default ``""`` label — mix in a
        per-label counter, so no two forks can silently share a stream.
        """
        count = self._fork_counts.get(label, 0)
        self._fork_counts[label] = count + 1
        if count == 0:
            return random.Random(f"{self.seed}:{label}")
        return random.Random(f"{self.seed}:{label}#{count}")

    # --------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue returned an event from the past")
        self._now = event.time
        self._events_processed += 1
        event.fire()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this bound.  The clock is
            advanced to ``until`` when the bound is hit with events pending.
        max_events:
            Stop after executing this many events (a safety valve for
            benchmarks).

        Returns
        -------
        int
            The number of events executed by this call.
        """
        executed = 0
        queue = self._queue
        while True:
            if max_events is not None and executed >= max_events:
                break
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = max(self._now, until)
                break
            event = queue.pop()
            # The heap guarantees monotone pop times, so the past-event guard
            # in step() is redundant here; the counter is updated per event
            # so callbacks reading events_processed mid-run stay accurate.
            self._now = event.time
            self._events_processed += 1
            event.fire()
            executed += 1
        return executed

    def run_batched(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the simulation, draining same-timestamp cohorts in batches.

        Observationally equivalent to :meth:`run` (same event order, same
        clock, same results — see the module docstring), but pops whole
        cohorts of equal-time events at once and fires them without touching
        the heap in between, which measurably reduces scheduler overhead on
        message-heavy workloads.
        """
        executed = 0
        queue = self._queue
        while True:
            if max_events is not None and executed >= max_events:
                break
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = max(self._now, until)
                break
            budget = None if max_events is None else max_events - executed
            batch = queue.pop_batch(limit=budget)
            if not batch:
                break
            self._now = next_time
            for event in batch:
                # An earlier member of this cohort may have cancelled a later
                # one after it was popped; honour that, as the one-at-a-time
                # loop would — including not counting the skipped event
                # toward the budget (run()'s pop discards cancelled events
                # without counting them).
                if not event.cancelled:
                    self._events_processed += 1
                    event.fire()
                    executed += 1
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains, with an event budget as a guard."""
        executed = self.run_batched(max_events=max_events)
        if self.pending_events:
            raise SimulationError(
                f"simulation did not become idle within {max_events} events"
            )
        return executed
