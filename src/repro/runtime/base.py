"""The :class:`Runtime` protocol — the contract between protocol code and time.

The sim-vs-wall-clock contract
------------------------------

Protocol code (consensus replicas, the cross-shard 2PC driver, clients) is
written once against this interface and must not care which implementation is
behind it.  The contract each implementation upholds:

* ``now`` is a monotone non-decreasing float in *seconds*.  Under
  :class:`~repro.runtime.sim.SimRuntime` it is simulated time (advances only
  when events fire); under :class:`~repro.runtime.wallclock.AsyncioRuntime`
  it is wall-clock seconds since the runtime was created.
* ``schedule(delay, cb, *args)`` runs ``cb(*args)`` ``delay`` seconds from
  ``now`` and returns a handle with a ``cancel()`` method.  Negative delays
  are an error in both runtimes.  ``schedule_at(time, cb, *args)`` is the
  absolute-time variant.
* ``spawn(cb, *args)`` runs ``cb`` "soon": at the current timestamp in sim
  mode (a zero-delay event), on the next loop iteration under asyncio.
* ``fork_rng(label)`` returns a deterministically seeded
  ``random.Random`` derived from ``(seed, label, per-label counter)``.  Both
  runtimes use the *same* derivation, so a wall-clock service seeded like the
  sim draws identical random streams — only event interleaving differs.
* ``is_last_scheduled(handle)`` is a scheduling introspection hook used by
  the simulator's batched cohort delivery.  Real clocks cannot answer it, so
  ``AsyncioRuntime`` always says ``False`` — which simply disables the
  cohort-merge fast path, never changes semantics.

What deliberately does **not** cross the seam: ``run()`` (driving time forward
is a harness concern — the asyncio loop runs itself) and fault injection
(``crash``/``partition`` live on the network layer).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Protocol, TYPE_CHECKING, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports runtime)
    from repro.sim.simulator import Simulator


@runtime_checkable
class RuntimeHandle(Protocol):
    """A cancellable scheduled callback (sim ``Event`` or asyncio ``TimerHandle``)."""

    def cancel(self) -> Any: ...


class Runtime(Protocol):
    """Scheduling/clock/randomness surface shared by sim and wall-clock modes.

    See the module docstring for the cross-implementation contract.
    """

    #: True for the simulated runtime; lets harness-only code (``run()``)
    #: guard itself without importing the simulator.
    is_simulated: bool

    #: The underlying :class:`Simulator` in sim mode, ``None`` on a real clock.
    #: Protocol code must not touch this — it exists so harnesses and tests
    #: can keep driving the simulator they handed in.
    simulator: Optional["Simulator"]

    @property
    def now(self) -> float: ...

    @property
    def rng(self) -> random.Random: ...

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> RuntimeHandle: ...

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> RuntimeHandle: ...

    def spawn(self, callback: Callable[..., None], *args: Any) -> RuntimeHandle: ...

    def cancel(self, handle: RuntimeHandle) -> None: ...

    def fork_rng(self, label: str) -> random.Random: ...

    def is_last_scheduled(self, handle: RuntimeHandle) -> bool: ...


def as_runtime(source: Any) -> Runtime:
    """Coerce a ``Simulator`` or ``Runtime`` into a ``Runtime``.

    A ``Simulator`` is wrapped in a :class:`~repro.runtime.sim.SimRuntime`
    that is cached on the simulator instance, so every component wrapping the
    same simulator shares one adapter (identity matters only for caching —
    the adapter is stateless beyond its simulator reference).
    """
    if hasattr(source, "schedule") and hasattr(source, "fork_rng"):
        if getattr(source, "is_simulated", None) is not None:
            return source  # already a Runtime
        cached = getattr(source, "_runtime_adapter", None)
        if cached is not None:
            return cached
        from repro.runtime.sim import SimRuntime

        adapter = SimRuntime(source)
        source._runtime_adapter = adapter
        return adapter
    raise TypeError(f"cannot adapt {type(source).__name__} into a Runtime")


def derive_label_rng(seed: int, label: str, count: int) -> random.Random:
    """The shared ``fork_rng`` derivation used by *both* runtimes.

    First fork of a label seeds from ``"{seed}:{label}"``; fork ``k`` (k>=1)
    from ``"{seed}:{label}#{k}"``.  This mirrors ``Simulator.fork_rng``
    exactly so a wall-clock node seeded like its sim twin draws the same
    random streams.
    """
    if count == 0:
        return random.Random(f"{seed}:{label}")
    return random.Random(f"{seed}:{label}#{count}")
