"""Event and event-queue primitives for the discrete-event simulator.

The queue is **one binary heap** of ``(time, seq, event)`` triples.  ``seq``
is unique, so CPython's ``heapq`` orders entries by comparing the two leading
primitives in C and never reaches the :class:`Event` — no ``__lt__`` dispatch,
no second structure to keep in step with the heap.

Cancellation is a flag: :meth:`Event.cancel` marks the event, drops its
callback and arguments at once (a cancelled timer must not pin its closure
until its due time) and leaves the dead entry on the heap, where it is
discarded when it surfaces.  The queue counts dead entries, so ``len(queue)``
stays exact, and **compacts** — filter plus ``heapify`` — as soon as they
outnumber the live ones: dead weight is bounded by the live size however many
timers a long run arms and cancels.  Compaction cannot move an event, because
keys are unique and pop order is therefore a function of the key set alone.

Ordering is exactly ``(time, seq)``: two events scheduled for the same
instant fire in scheduling order, which keeps simulations deterministic.  An
event scheduled for the current instant while its cohort fires gets a larger
``seq`` and so fires after the cohort.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback, ordered by ``(time, seq)``.

    Events are created by :meth:`EventQueue.push`; user code only ever holds
    them to :meth:`cancel` them (or to inspect ``time``).  ``_queue`` is the
    owning queue while the event sits on its heap and ``None`` once it was
    popped or cancelled.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple = (), queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Cancel the event in O(1) amortised; it will never fire.

        Cancelling an event that already fired or was already cancelled is a
        no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            self.callback = self.args = None
            queue._entry_died()

    def fire(self) -> Any:
        """Invoke the callback with its stored arguments."""
        return self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time!r}, seq={self.seq}, {state})"


class EventQueue:
    """A priority queue of :class:`Event` objects on a single heap.

    ``_dead`` counts the cancelled entries still on the heap, so
    ``len(queue)`` is exact even after cancellations.  The
    :class:`~repro.sim.simulator.Simulator` drain loop pops ``_heap``
    directly (one heap operation per event, no method call); every other
    client goes through the methods below.
    """

    __slots__ = ("_heap", "_dead", "_next_seq")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._dead = 0
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at simulated ``time`` and return the event."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heappush(self._heap, (time, seq, event))
        return event

    def _entry_died(self) -> None:
        """An entry on the heap was cancelled; compact once the dead outnumber the live."""
        self._dead += 1
        heap = self._heap
        if self._dead * 2 > len(heap):
            # In place: the simulator's drain loop holds a reference to the list.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._dead = 0

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live event without removing it."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[2].cancelled:
                return head[0]
            heappop(heap)
            self._dead -= 1
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        if self.peek_time() is None:
            return None
        event = heappop(self._heap)[2]
        event._queue = None
        return event

    def is_pending(self, event: Event) -> bool:
        """True while ``event`` is still queued (not popped, not cancelled)."""
        return event._queue is self

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently scheduled event (-1 if none)."""
        return self._next_seq - 1

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[2]._queue = None
        self._heap.clear()
        self._dead = 0
