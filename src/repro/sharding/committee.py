"""Committee bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ShardingError


@dataclass(frozen=True)
class Committee:
    """A committee: an ordered set of node identifiers responsible for one shard."""

    shard_id: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def fault_tolerance(self, resilience: float = 0.5) -> int:
        """Number of Byzantine members tolerated under the given resilience."""
        return int((self.size - 1) * resilience)

    def contains(self, node_id: int) -> bool:
        return node_id in self.members

    def leader(self, view: int = 0) -> int:
        if not self.members:
            raise ShardingError("committee has no members")
        return self.members[view % self.size]


@dataclass
class CommitteeAssignment:
    """A full node-to-committee assignment for one epoch."""

    epoch: int
    seed: int
    committees: List[Committee] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.committees)

    def committee_of(self, node_id: int) -> Committee:
        for committee in self.committees:
            if committee.contains(node_id):
                return committee
        raise ShardingError(f"node {node_id} is not assigned to any committee")

    def shard_of(self, node_id: int) -> int:
        return self.committee_of(node_id).shard_id

    def membership_map(self) -> Dict[int, int]:
        """node id -> shard id."""
        return {node: committee.shard_id
                for committee in self.committees for node in committee.members}

    def transitioning_nodes(self, previous: "CommitteeAssignment") -> List[int]:
        """Nodes whose shard changes from ``previous`` to this assignment."""
        old = previous.membership_map()
        new = self.membership_map()
        return sorted(node for node in new if node in old and old[node] != new[node])
