"""repro — reproduction of "Towards Scaling Blockchain Systems via Sharding".

Public API overview
===================

* :class:`repro.core.ShardedBlockchain` / :class:`repro.core.ShardedSystemConfig`
  — the end-to-end sharded blockchain (committees + AHL+ consensus +
  reference-committee 2PC/2PL for cross-shard transactions).
* :class:`repro.consensus.ConsensusCluster` — a single committee running any
  of the evaluated protocols (HL, AHL, AHL+, AHLR, Tendermint, IBFT, Raft).
* :mod:`repro.sharding` — committee sizing, the TEE randomness beacon
  protocol, epoch reconfiguration, cross-shard probability.
* :mod:`repro.txn` — the reference-committee 2PC state machine and the
  OmniLedger / RapidChain baselines.
* :mod:`repro.workloads` — the KVStore and Smallbank benchmarks.
* :mod:`repro.experiments` — one module per table/figure of the paper's
  evaluation; each returns structured rows that the benchmark harness prints.
"""

from repro.core.config import ShardedSystemConfig
from repro.core.system import ShardedBlockchain, ShardedRunResult
from repro.core.client_api import ShardedClient, attach_clients
from repro.core.driver import OpenLoopDriver
from repro.consensus.cluster import ConsensusCluster, build_cluster, PROTOCOLS
from repro.sim.simulator import Simulator
from repro.sim.network import Network

__version__ = "1.0.0"

__all__ = [
    "ShardedSystemConfig",
    "ShardedBlockchain",
    "ShardedRunResult",
    "ShardedClient",
    "attach_clients",
    "OpenLoopDriver",
    "ConsensusCluster",
    "build_cluster",
    "PROTOCOLS",
    "Simulator",
    "Network",
    "__version__",
]
