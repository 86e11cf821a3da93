"""Shard reconfiguration (Section 5.3, Figure 12).

At every epoch boundary nodes whose committee assignment changed
("transitioning nodes") must leave their old committee, fetch the state of
their new shard, and only then start processing its transactions.  Migrating
everyone at once makes the whole system unavailable for the duration of the
state transfer; the paper instead swaps at most ``B = log(n)`` nodes per
committee at a time, which keeps every committee above its quorum threshold
throughout the transition.

This module computes the migration plan (which nodes move in which batch) and
the safety/liveness trade-off of the batch size.  The plan is not merely
analytical: :meth:`repro.core.system.ShardedBlockchain.perform_reconfiguration`
(and the automatic epoch loop behind ``auto_reconfigure``) *executes* it as
real membership changes — each :class:`MigrationStep`'s nodes leave their old
committee, pay a state-transfer delay derived from the destination shard's
actual state size via :func:`state_transfer_seconds`, and then join and serve
in their new committee.  The throughput-over-time behaviour of the two
strategies is reproduced by the Figure-12 experiment on top of that live
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ShardingError
from repro.sharding.committee import CommitteeAssignment

#: The reconfiguration strategies understood by ``plan_reconfiguration`` and
#: the live epoch machinery (one shared definition, validated in one place).
STRATEGIES = ("swap-all", "swap-batch")


def swap_batch_size(committee_size: int) -> int:
    """The paper's default batch size ``B = log(n)`` (at least 1)."""
    if committee_size < 1:
        raise ShardingError("committee size must be positive")
    return max(1, int(round(math.log(committee_size, 2))))


@dataclass
class MigrationStep:
    """One batch of node moves for one shard."""

    shard_id: int
    batch_index: int
    nodes: List[int]


@dataclass
class ReconfigurationPlan:
    """A full epoch-transition plan.

    ``strategy`` is either ``"swap-all"`` (the naive approach: every
    transitioning node moves at once) or ``"swap-batch"`` (the paper's
    approach: at most ``batch_size`` nodes per committee per step).
    """

    old_assignment: CommitteeAssignment
    new_assignment: CommitteeAssignment
    strategy: str
    batch_size: int
    steps: List[MigrationStep] = field(default_factory=list)

    @property
    def transitioning_nodes(self) -> List[int]:
        return self.new_assignment.transitioning_nodes(self.old_assignment)

    @property
    def num_steps(self) -> int:
        if not self.steps:
            return 0
        return max(step.batch_index for step in self.steps) + 1

    def nodes_in_step(self, batch_index: int) -> List[int]:
        nodes: List[int] = []
        for step in self.steps:
            if step.batch_index == batch_index:
                nodes.extend(step.nodes)
        return nodes

    def max_concurrent_departures(self) -> Dict[int, int]:
        """Per old shard, the largest number of members absent in any step."""
        result: Dict[int, int] = {}
        old_map = self.old_assignment.membership_map()
        for batch_index in range(self.num_steps):
            per_shard: Dict[int, int] = {}
            for node in self.nodes_in_step(batch_index):
                shard = old_map.get(node)
                if shard is not None:
                    per_shard[shard] = per_shard.get(shard, 0) + 1
            for shard, count in per_shard.items():
                result[shard] = max(result.get(shard, 0), count)
        return result

    def preserves_liveness(self, resilience: float = 0.5) -> bool:
        """True if no committee ever loses more members than its fault tolerance.

        If more than ``f`` members of a committee are away at once, the
        remaining nodes cannot form a quorum and the shard stalls
        (the liveness analysis of Section 5.3).
        """
        departures = self.max_concurrent_departures()
        for committee in self.old_assignment.committees:
            if departures.get(committee.shard_id, 0) > committee.fault_tolerance(resilience):
                return False
        return True


def plan_reconfiguration(old_assignment: CommitteeAssignment,
                         new_assignment: CommitteeAssignment,
                         strategy: str = "swap-batch",
                         batch_size: int | None = None) -> ReconfigurationPlan:
    """Build the migration plan from the old to the new assignment."""
    if strategy not in STRATEGIES:
        raise ShardingError(f"unknown reconfiguration strategy {strategy!r}")
    transitioning = new_assignment.transitioning_nodes(old_assignment)
    old_map = old_assignment.membership_map()
    per_shard: Dict[int, List[int]] = {}
    for node in transitioning:
        per_shard.setdefault(old_map[node], []).append(node)

    if batch_size is None:
        committee_size = max((c.size for c in old_assignment.committees), default=1)
        batch_size = swap_batch_size(committee_size)

    steps: List[MigrationStep] = []
    if strategy == "swap-all":
        for shard_id, nodes in per_shard.items():
            steps.append(MigrationStep(shard_id=shard_id, batch_index=0, nodes=list(nodes)))
    else:
        for shard_id, nodes in per_shard.items():
            for index in range(0, len(nodes), batch_size):
                steps.append(MigrationStep(
                    shard_id=shard_id,
                    batch_index=index // batch_size,
                    nodes=nodes[index:index + batch_size],
                ))
    return ReconfigurationPlan(
        old_assignment=old_assignment,
        new_assignment=new_assignment,
        strategy=strategy,
        batch_size=batch_size,
        steps=steps,
    )


def state_transfer_seconds(state_bytes: int, bandwidth_bps: float = 1e9,
                           verification_seconds_per_mb: float = 0.01) -> float:
    """Time for a transitioning node to fetch and verify its new shard's state."""
    if state_bytes < 0 or bandwidth_bps <= 0:
        raise ShardingError("invalid state transfer parameters")
    transfer = state_bytes * 8 / bandwidth_bps
    verification = (state_bytes / (1024 * 1024)) * verification_seconds_per_mb
    return transfer + verification
