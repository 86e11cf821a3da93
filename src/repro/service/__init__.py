"""Service mode: the unchanged protocol stack behind a real asyncio service.

The packages below run the *same* consensus/txn/sharding code that the
discrete-event simulator runs — through the runtime seam
(:mod:`repro.runtime`) — as wall-clock asyncio processes on localhost:

* :mod:`repro.service.frames` — length-prefixed frames over TCP, encoded
  by the wire codec (:mod:`repro.codec`) and decoded without resolving any
  global.
* :mod:`repro.service.socketnet` — :class:`SocketNetwork`, the wall-clock
  transport implementing the existing ``Network`` send surface.
* :mod:`repro.service.shardnode` — one process per shard: the engine's own
  shard partition, with its 2PC home coordinator, on an
  :class:`~repro.runtime.wallclock.AsyncioRuntime`.
* :mod:`repro.service.gateway` — the HTTP/JSON gateway (submit, status,
  balance, health): admission and routing to each transaction's home shard.
* :mod:`repro.service.serve` — the ``repro-serve`` console script booting an
  N-shard cluster.
* :mod:`repro.service.client` — a small blocking HTTP client and workload
  replay driver used by tests and ``bench_service``.

Sim mode stays the differential oracle: the same seed + recorded workload
replayed through the gateway must produce the same committed transactions
and final balances as the simulated run (see
``tests/test_service_differential.py``).
"""

__all__ = ["ServiceCluster"]


def __getattr__(name: str):
    # Lazy so ``python -m repro.service.serve`` does not import serve twice
    # (once as a submodule here, once as __main__).
    if name == "ServiceCluster":
        from repro.service.serve import ServiceCluster
        return ServiceCluster
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
