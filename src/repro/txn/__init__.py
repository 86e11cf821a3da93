"""Distributed (cross-shard) transactions (Section 6).

* :mod:`repro.txn.locks` — the in-memory lock-admission table a shard puts
  in front of its committee under the ``wait`` / ``wound-wait`` policies.
  (The paper's on-chain ``"L_"`` lock tuples, Section 6.3, are written by
  the chaincodes in :mod:`repro.workloads` themselves.)
* :mod:`repro.txn.faults` — deterministic fault-injection scenarios for the
  coordination protocol (shard stalls, vote drops, stale replays,
  coordinator crash/recovery).
* :mod:`repro.txn.reference_committee` — the 2PC state machine (Figure 6) as
  the chaincode the BFT reference committee executes on its chain.
* :mod:`repro.txn.coordinator` — the lifecycle of one distributed transaction
  under our protocol (Figure 5): the 2PC driver, which holds the records and
  tallies the votes, run either through the reference committee (the tally
  checked against R's chain) or as the trusted coordinator of the "without
  reference committee" experiments (the tally alone decides).
* :mod:`repro.txn.omniledger` — OmniLedger's client-driven lock/unlock
  protocol, including the malicious-client blocking behaviour (Figure 3b).
* :mod:`repro.txn.rapidchain` — RapidChain's UTXO transaction splitting,
  including the atomicity/isolation violations on the account model
  (Figures 3a and 4).
* :mod:`repro.txn.utxo` — the UTXO data model those baselines operate on.
"""

from repro.txn.locks import LockAdmissionTable, LockManager
from repro.txn.faults import (
    CoordinatorCrashScenario,
    FaultScenario,
    ShardStallScenario,
    VoteDropScenario,
    VoteReplayScenario,
)
from repro.txn.reference_committee import CoordinatorState, ReferenceCommitteeChaincode
from repro.txn.coordinator import (
    DistributedTxOutcome,
    DistributedTxPhase,
    DistributedTxRecord,
    TwoPhaseCommitDriver,
)
from repro.txn.utxo import UTXO, UTXOSet, UTXOTransaction
from repro.txn.omniledger import OmniLedgerClientProtocol, OmniLedgerShard
from repro.txn.rapidchain import RapidChainProtocol, RapidChainShard

__all__ = [
    "CoordinatorCrashScenario",
    "FaultScenario",
    "LockAdmissionTable",
    "LockManager",
    "ShardStallScenario",
    "VoteDropScenario",
    "VoteReplayScenario",
    "CoordinatorState",
    "ReferenceCommitteeChaincode",
    "DistributedTxOutcome",
    "DistributedTxPhase",
    "DistributedTxRecord",
    "TwoPhaseCommitDriver",
    "UTXO",
    "UTXOSet",
    "UTXOTransaction",
    "OmniLedgerClientProtocol",
    "OmniLedgerShard",
    "RapidChainProtocol",
    "RapidChainShard",
]
