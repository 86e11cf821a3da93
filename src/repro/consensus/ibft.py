"""Istanbul BFT (IBFT), as integrated in Quorum (Figure 2 baseline).

IBFT is also a PBFT variant with round-robin proposer rotation and lockstep
block finalisation.  The paper additionally observes that Quorum's IBFT can
deadlock because prepare locks are not released properly; we model that as a
configurable probability that a height stalls until its round-change timer
fires, which costs a full timeout.

Determinism note: detlint-verified clean — the stall draw uses a dedicated
seeded ``random.Random`` stream and rotation/fan-out is index-based; the
seed-sweep differential suite pins the fingerprints.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.consensus.base import ConsensusConfig
from repro.consensus.tendermint import RotatingLeaderReplica
from repro.ledger.chaincode import ChaincodeRegistry
from repro.sim.monitor import Monitor
from repro.runtime.base import Runtime
from repro.sim.network import Network


def ibft_config(**overrides) -> ConsensusConfig:
    """Configuration preset for Quorum's IBFT: PBFT quorums, lockstep, rotation.

    Quorum executes every transaction in the EVM and updates several Merkle
    trees (Appendix C.2), so the per-transaction execution cost is an order
    of magnitude higher than Hyperledger's key-value chaincode.
    """
    from repro.crypto.costs import DEFAULT_COSTS

    defaults = dict(
        protocol="ibft",
        use_attested_log=False,
        separate_queues=False,
        broadcast_requests=True,
        leader_aggregation=False,
        pipeline_depth=1,
        batch_size=500,
        min_block_interval=1.0,
        costs=DEFAULT_COSTS.with_overrides(tx_execution=1.0e-3, chaincode_overhead=0.1e-3),
    )
    defaults.update(overrides)
    return ConsensusConfig(**defaults)


class IbftReplica(RotatingLeaderReplica):
    """An IBFT validator.

    Parameters
    ----------
    stall_probability:
        Probability that the proposer of a height holds its proposal until a
        round change (models the lock-release bug the paper observed in
        Quorum's IBFT).  The stall costs one view-change timeout.
    """

    PROTOCOL_NAME = "IBFT"

    def __init__(self, node_id: int, sim: Runtime, network: Network,
                 committee: Sequence[int], config: ConsensusConfig,
                 registry: Optional[ChaincodeRegistry] = None,
                 monitor: Optional[Monitor] = None,
                 region: str = "local", shard_id: int = 0,
                 byzantine: Optional[Any] = None,
                 stall_probability: float = 0.05) -> None:
        super().__init__(node_id, sim, network, committee, config, registry,
                         monitor, region, shard_id, byzantine)
        self.stall_probability = stall_probability
        self._stall_rng = sim.fork_rng(f"ibft-stall-{node_id}")

    def _propose_block(self, batch) -> None:
        if self.stall_probability > 0 and self._stall_rng.random() < self.stall_probability:
            # The proposal is delayed by a full round-change timeout before it
            # goes out (transactions return to the queue and a later call
            # re-proposes them).
            for tx in batch:
                self.pending_txs.append(tx)
            self.runtime.schedule(self.config.view_change_timeout, self._maybe_propose)
            return
        super()._propose_block(batch)
