"""Node-to-committee assignment (Section 5.1).

Given the epoch randomness ``rnd``, every node computes the same random
permutation of ``[1 : N]`` seeded by ``rnd`` and splits it into approximately
equally sized chunks; chunk ``i`` is the membership of committee ``i``.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.errors import ShardingError
from repro.sharding.committee import Committee, CommitteeAssignment


def permutation_from_seed(node_ids: Sequence[int], seed: int) -> List[int]:
    """The deterministic random permutation of ``node_ids`` seeded by ``seed``."""
    permutation = list(node_ids)
    random.Random(seed).shuffle(permutation)
    return permutation


def assign_committees(node_ids: Sequence[int], num_shards: int, seed: int,
                      epoch: int = 0) -> CommitteeAssignment:
    """Split the seeded permutation into ``num_shards`` committees.

    Committees differ in size by at most one node (the paper's "approximately
    equally-sized chunks").
    """
    if num_shards < 1:
        raise ShardingError("num_shards must be at least 1")
    if len(node_ids) < num_shards:
        raise ShardingError(
            f"cannot form {num_shards} committees from {len(node_ids)} nodes"
        )
    permutation = permutation_from_seed(node_ids, seed)
    base = len(permutation) // num_shards
    remainder = len(permutation) % num_shards
    committees: List[Committee] = []
    cursor = 0
    for shard_id in range(num_shards):
        size = base + (1 if shard_id < remainder else 0)
        members = tuple(permutation[cursor:cursor + size])
        committees.append(Committee(shard_id=shard_id, members=members))
        cursor += size
    return CommitteeAssignment(epoch=epoch, seed=seed, committees=committees)
