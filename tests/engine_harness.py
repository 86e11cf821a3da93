"""Helpers for tests that look inside an inline :class:`ShardedBlockchain`."""

from __future__ import annotations


def tx_records(system):
    """Every retained 2PC record of an inline system, homes in shard order.

    The records live with the home coordinators inside the partitions, so
    this is the whole deployment's view of what ``coordination_stats()``
    only counts.
    """
    return [record for _, partition in sorted(system.partitions.items())
            if partition.home is not None
            for record in partition.home.coordinator.records.values()]
