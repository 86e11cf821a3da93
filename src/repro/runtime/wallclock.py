"""``AsyncioRuntime`` — the wall-clock implementation of the runtime seam.

The same protocol stack that runs inside the discrete-event simulator runs
here as callbacks on a real ``asyncio`` event loop:

* ``now`` is ``loop.time()`` rebased to 0 at runtime construction, so
  timestamps look like sim timestamps (small floats starting near zero) and
  deadline arithmetic written against sim time keeps working.
* ``schedule``/``schedule_at`` with a positive delay map to
  ``loop.call_later`` and return the loop's ``TimerHandle`` — which already
  has the ``cancel()`` method the protocol code calls on view-change and
  prepare timers.  A zero delay, or a time at or before ``now``, maps to
  ``loop.call_soon`` instead: its ``Handle`` cancels the same way, and the
  callback skips the timer heap.  On a live shard every network hop and
  every charge is such a zero delay (``NO_DELAY``, zero costs), so this is
  most of what the loop schedules.
* ``spawn`` maps to ``loop.call_soon``.
* ``fork_rng`` uses the *same* ``(seed, label, counter)`` derivation as
  ``Simulator.fork_rng`` (see :func:`repro.runtime.base.derive_label_rng`),
  so a service node seeded like its sim twin draws identical random streams.

Every member of the seam means the same thing on both clocks; what differs
is only how events interleave.  A delay the protocol stack asks for is
waited out for real, so a live shard asks for none that is modelled: its
committee charges no operation costs and its in-memory network no latency
(:mod:`repro.service.shardnode`); only protocol timers remain.

Determinism note: this module is wall-clock *on purpose* and is scoped out
of detlint's DET001 by the ``service`` policy scope; everything that calls
through the :class:`Runtime` interface stays strict.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, Optional

from repro.errors import SimulationError
from repro.runtime.base import derive_label_rng


class AsyncioRuntime:
    """Wall-clock :class:`Runtime` backed by an ``asyncio`` event loop."""

    is_simulated = False

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None, seed: int = 0) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._epoch = self._loop.time()
        self.seed = seed
        self._fork_counts: Dict[str, int] = {}

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def now(self) -> float:
        """Wall-clock seconds since this runtime was created."""
        return self._loop.time() - self._epoch

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> asyncio.Handle:
        if delay > 0:
            return self._loop.call_later(delay, callback, *args)
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._loop.call_soon(callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> asyncio.Handle:
        # Sim raises on scheduling in the past; on a real clock "the past"
        # can be an artifact of callback latency, so run it immediately
        # instead — the deadline semantics protocol code wants are "no
        # earlier than `time`", which a late callback still satisfies.
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def spawn(self, callback: Callable[..., Any], *args: Any) -> asyncio.Handle:
        return self._loop.call_soon(callback, *args)

    def fork_rng(self, label: str = "") -> random.Random:
        count = self._fork_counts.get(label, 0)
        self._fork_counts[label] = count + 1
        return derive_label_rng(self.seed, label, count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncioRuntime(seed={self.seed}, now={self.now:.6f})"
