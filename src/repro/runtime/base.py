"""The :class:`Runtime` protocol — the contract between protocol code and time.

The sim-vs-wall-clock contract
------------------------------

Protocol code (consensus replicas, the cross-shard 2PC driver, clients) is
written once against this interface and must not care which implementation is
behind it.  The contract each implementation upholds:

* ``now`` is a monotone non-decreasing float in *seconds*.  Under the
  :class:`~repro.sim.simulator.Simulator` it is simulated time (advances only
  when events fire); under :class:`~repro.runtime.wallclock.AsyncioRuntime`
  it is wall-clock seconds since the runtime was created.
* ``schedule(delay, cb, *args)`` runs ``cb(*args)`` ``delay`` seconds from
  ``now`` and returns a handle with a ``cancel()`` method.  Negative delays
  are an error in both runtimes.  ``schedule_at(time, cb, *args)`` is the
  absolute-time variant.
* ``spawn(cb, *args)`` runs ``cb`` "soon": at the current timestamp in sim
  mode (after the events already queued for it), on the next loop iteration
  under asyncio.
* ``fork_rng(label)`` returns a deterministically seeded
  ``random.Random`` derived from ``(seed, label, per-label counter)``.  Both
  runtimes use the *same* derivation (:func:`derive_label_rng`), so a
  wall-clock service seeded like the sim draws identical random streams —
  only event interleaving differs.

What deliberately does **not** cross the seam: ``run()`` (driving time forward
is a harness concern — the asyncio loop runs itself) and fault injection
(``crash``/``partition`` live on the network layer).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class RuntimeHandle(Protocol):
    """A cancellable scheduled callback (sim ``Event``, asyncio ``Handle`` or ``TimerHandle``)."""

    def cancel(self) -> Any: ...


class Runtime(Protocol):
    """Scheduling/clock/randomness surface shared by sim and wall-clock modes.

    See the module docstring for the cross-implementation contract.
    """

    #: True for the simulator; lets harness-only code (``run()``) guard
    #: itself without importing it.
    is_simulated: bool

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> RuntimeHandle: ...

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> RuntimeHandle: ...

    def spawn(self, callback: Callable[..., None], *args: Any) -> RuntimeHandle: ...

    def fork_rng(self, label: str) -> random.Random: ...


def derive_label_rng(seed: int, label: str, count: int) -> random.Random:
    """The ``fork_rng`` derivation used by *both* runtimes.

    First fork of a label seeds from ``"{seed}:{label}"``; fork ``k`` (k>=1)
    from ``"{seed}:{label}#{k}"``, so a wall-clock node seeded like its sim
    twin draws the same random streams.
    """
    if count == 0:
        return random.Random(f"{seed}:{label}")
    return random.Random(f"{seed}:{label}#{count}")
