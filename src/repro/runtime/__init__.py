"""Runtime seam: one protocol stack, two clocks.

Every layer that schedules work (nodes, networks, consensus replicas, the 2PC
driver) talks to a :class:`Runtime`:

* :class:`~repro.sim.simulator.Simulator` — the discrete-event simulator is
  the simulated runtime itself; nothing wraps it.  Sim mode stays the
  differential oracle.
* :class:`~repro.runtime.wallclock.AsyncioRuntime` — the same scheduling
  surface mapped onto a wall-clock ``asyncio`` event loop, used by
  ``repro.service`` to run the *unchanged* consensus/txn/sharding code as a
  real networked service.

Constructors that take a ``sim`` or ``runtime`` argument accept either.
"""

from repro.runtime.base import Runtime, RuntimeHandle
from repro.runtime.wallclock import AsyncioRuntime

__all__ = [
    "Runtime",
    "RuntimeHandle",
    "AsyncioRuntime",
]
