"""RandHound cost model (Figure 11 right).

RandHound (Syta et al.) produces bias-resistant distributed randomness by
partitioning the ``N`` participants into groups of size ``c`` (the paper uses
``c = 16``, the value OmniLedger suggests) and running publicly verifiable
secret sharing inside each group, coordinated by a leader.  Its communication
and computation are ``O(N * c^2)``, versus ``O(N log N)`` for the TEE-based
beacon, which is why the paper measures a 21-32x running-time gap.

The model below reproduces the protocol's round structure (PVSS share
distribution, secret commitment collection, aggregation and verification)
with per-operation costs from the same cost table used elsewhere, and adds
the network round trips; it is calibrated so that the relative gap against
our beacon protocol matches the paper's measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.costs import DEFAULT_COSTS, OperationCosts
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RandHoundConfig:
    """RandHound parameters.

    ``group_size`` is OmniLedger's suggested ``c = 16``;
    ``pvss_share_cost`` is the cost of creating or verifying one PVSS share
    (an elliptic-curve heavy operation, several times an ECDSA verification).
    """

    group_size: int = 16
    pvss_share_cost: float = 8.0e-3
    commitment_cost: float = 1.2e-3
    rounds: int = 4
    costs: OperationCosts = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ConfigurationError("RandHound group size must be at least 2")


def randhound_running_time(network_size: int, round_trip: float,
                           config: RandHoundConfig | None = None) -> float:
    """Expected wall-clock time of one RandHound run on ``network_size`` nodes.

    The leader's work dominates: it verifies ``O(N * c)`` PVSS shares and
    ``O(N)`` commitments, and the protocol needs ``rounds`` sequential network
    round trips.
    """
    if network_size < 2:
        raise ConfigurationError("RandHound needs at least 2 nodes")
    config = config or RandHoundConfig()
    c = config.group_size
    num_groups = max(1, math.ceil(network_size / c))
    # Each group member creates c shares and verifies c shares from each of
    # the other members of its group.
    per_member_compute = c * config.pvss_share_cost + c * config.pvss_share_cost
    # The leader aggregates every group's contribution: N commitments plus a
    # share matrix of size roughly N * c, all of which it must verify.
    leader_compute = (network_size * config.commitment_cost
                      + network_size * c * config.pvss_share_cost)
    network_time = config.rounds * round_trip
    return per_member_compute + leader_compute + network_time
