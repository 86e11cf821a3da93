"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and an event queue.  All protocol
components (network, nodes, clients) schedule work on the simulator; calling
:meth:`Simulator.run` advances virtual time until the queue drains, a time
bound is reached, or an event budget is exhausted.

Drain loop
----------
There is one loop, :meth:`Simulator.run`: look at the head of the queue's
heap, discard it if it was cancelled, stop at the ``max_events`` budget or
the ``until`` bound, otherwise pop it, move the clock and call
:meth:`Event.fire` — one heap operation and one dispatch call per event,
straight on the queue's heap.  :meth:`Simulator.step` is the loop with a
budget of one.  Same-instant events need no handling of their own:
``(time, seq)`` is unique, an event scheduled for the current instant by a
firing callback has a larger ``seq`` than everything already queued and so
fires after the other same-instant events, and an event cancelled by an
earlier one of them is still on the heap, flagged, when its turn comes.

The simulated runtime
---------------------
A :class:`Simulator` *is* the sim-mode :class:`~repro.runtime.base.Runtime`:
protocol code schedules on it directly, and the wall-clock service hands the
same code an :class:`~repro.runtime.wallclock.AsyncioRuntime` instead.
Driving time (:meth:`run`, :meth:`step`, :meth:`advance_clock`) is the
harness's side and stays off the protocol.

Determinism guarantees
----------------------
Runs are fully reproducible from the seed: every source of randomness must
derive from :meth:`Simulator.fork_rng` and events with equal timestamps fire
in scheduling order, so *same seed ⇒ same event trace ⇒ same results*
however the run is sliced into ``until`` / ``max_events`` calls.  A result
that depends on a run's state is never cached process-wide, so constructing
a simulator resets nothing outside it: such a result lives on the object it
describes (an attestation's verdict, a block's hash) and dies with it.
"""

from __future__ import annotations

import random
from heapq import heappop
from typing import Any, Callable, Dict, Optional

from repro.errors import SimulationError
from repro.runtime.base import derive_label_rng
from repro.sim.events import Event, EventQueue


class Simulator:
    """Deterministic discrete-event simulator — the simulated ``Runtime``.

    Parameters
    ----------
    seed:
        Seed of every generator :meth:`fork_rng` hands out.  Every source of
        randomness in a simulation (network jitter, workload skew, beacon
        draws) is such a fork, so a run is fully reproducible from its seed.
    """

    is_simulated = True

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self.seed = seed
        self._fork_counts: Dict[str, int] = {}

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

    def spawn(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the current instant.

        It fires after every event already queued for this instant.
        """
        return self._queue.push(self._now, callback, args)

    def advance_clock(self, until: float) -> None:
        """Advance the clock to ``until`` without running events.

        ``run`` only moves the clock to its bound when events are pending;
        the engine's barrier loop uses this to pin a drained simulation's
        clock at the window end, so every partition and the parent agree on
        "now" at each barrier.
        """
        self._now = max(self._now, until)

    def fork_rng(self, label: str = "") -> random.Random:
        """Return a new RNG deterministically derived from the simulator seed.

        Each fork draws from an independent stream.  The first fork for a
        given label derives from ``(seed, label)`` alone (so existing labelled
        streams are stable), while repeated forks for the same label — or
        several callers relying on the default ``""`` label — mix in a
        per-label counter, so no two forks can silently share a stream.  The
        derivation is :func:`~repro.runtime.base.derive_label_rng`, shared
        with the wall-clock runtime.
        """
        count = self._fork_counts.get(label, 0)
        self._fork_counts[label] = count + 1
        return derive_label_rng(self.seed, label, count)

    # --------------------------------------------------------------- running
    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None when nothing is queued."""
        return self._queue.peek_time()

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the simulation: one heap pop and one :meth:`Event.fire` per event.

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
        heap = queue._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                # Dead heads go before either bound is tested, so neither the
                # event budget nor the clock ever sees them.
                heappop(heap)
                queue._dead -= 1
                continue
            if max_events is not None and executed >= max_events:
                break
            if until is not None and entry[0] > until:
                if until > self._now:
                    self._now = until
                break
            heappop(heap)
            event._queue = None
            # Pop times are monotone (nothing can be scheduled in the past);
            # the counter is updated per event so callbacks reading
            # events_processed mid-run stay accurate.
            self._now = entry[0]
            self._events_processed += 1
            event.fire()
            executed += 1
        return executed

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        return self.run(max_events=1) == 1
