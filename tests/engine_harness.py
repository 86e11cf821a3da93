"""Helpers shared by the engine tests: a size-independent latency model,
and a look inside an inline :class:`ShardedBlockchain`."""

from __future__ import annotations

from repro.sim.latency import LanLatencyModel


def uniform_latency(latency: float, jitter_fraction: float = 0.0) -> LanLatencyModel:
    """The same one-way ``latency`` for every message, whatever its size:
    a LAN model over an infinitely fast link."""
    return LanLatencyModel(base_latency=latency, bandwidth_bps=float("inf"),
                           jitter_fraction=jitter_fraction)


def tx_records(system):
    """Every retained 2PC record of an inline system, homes in shard order.

    The records live with the home coordinators inside the partitions, so
    this is the whole deployment's view of what ``coordination_stats()``
    only counts.
    """
    return [record for _, partition in sorted(system.partitions.items())
            if partition.home is not None
            for record in partition.home.driver.records.values()]
