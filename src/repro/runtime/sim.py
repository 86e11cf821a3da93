"""``SimRuntime`` — the simulated-clock implementation of the runtime seam.

Every method is a 1:1 delegation to the wrapped
:class:`~repro.sim.simulator.Simulator`: same methods, same arguments, same
call order.  That makes the adapter *byte-for-byte* transparent — event
sequence numbers, cohort membership, RNG fork counters and therefore every
committed fingerprint gate are identical whether protocol code calls the
simulator directly (pre-seam) or through this adapter (post-seam).

Do not add logic here.  Anything beyond delegation (even a conditional)
risks perturbing event ordering and breaking the bit-identical contract the
benchmark gates pin.  What *is* allowed is removing a forwarding hop that
computes nothing: the scheduling calls are the simulator's own bound methods
and ``now`` reads the simulator's clock field directly, because protocol code
reads the clock more often than it fires events
(``tests/test_transport_budget.py`` counts the frames).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.sim.events import Event
from repro.sim.simulator import Simulator


class SimRuntime:
    """Thin adapter presenting a :class:`Simulator` as a :class:`Runtime`.

    Obtain instances through :func:`repro.runtime.base.as_runtime`, which
    caches one adapter per simulator so all components of a run share it.
    """

    is_simulated = True

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        # The hot delegations are the simulator's own bound methods, so a
        # call through the seam is one call, not a forwarding hop plus one.
        self.schedule = simulator.schedule
        self.schedule_at = simulator.schedule_at
        self.is_last_scheduled = simulator.is_last_scheduled

    @property
    def now(self) -> float:
        return self.simulator._now

    @property
    def rng(self) -> random.Random:
        return self.simulator.rng

    @property
    def seed(self) -> int:
        return self.simulator.seed

    def spawn(self, callback: Callable[..., Any], *args: Any) -> Event:
        return self.simulator.schedule(0.0, callback, *args)

    def cancel(self, handle: Event) -> None:
        handle.cancel()

    def fork_rng(self, label: str = "") -> random.Random:
        return self.simulator.fork_rng(label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRuntime(seed={self.simulator.seed}, now={self.simulator.now:.6f})"
