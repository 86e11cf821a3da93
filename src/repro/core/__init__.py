"""The sharded blockchain system (the paper's headline artifact).

:class:`~repro.core.system.ShardedBlockchain` composes the pieces built in
the other packages: it forms committees (Section 5), runs an AHL+ (or any
other) consensus cluster per shard (Section 4), deploys the benchmark
chaincodes, and executes cross-shard transactions through the
reference-committee 2PC/2PL protocol (Section 6) — all in simulated time, one
sub-simulation per committee drained inline or by worker processes, so
throughput, abort rates and reconfiguration behaviour can be measured end to
end.
"""

from repro.core.adversary import AdversaryConfig, AdversaryState
from repro.core.config import ShardedSystemConfig
from repro.core.system import (
    EpochTransitionStats,
    ShardedBlockchain,
    ShardedRunResult,
    build_system,
)
from repro.core.client_api import ShardedClient
from repro.core.driver import DriverStats, OpenLoopDriver
from repro.core.splitters import SmallbankSplitter, KVStoreSplitter, TransactionSplitter

__all__ = [
    "AdversaryConfig",
    "AdversaryState",
    "ShardedSystemConfig",
    "ShardedBlockchain",
    "build_system",
    "ShardedRunResult",
    "EpochTransitionStats",
    "ShardedClient",
    "OpenLoopDriver",
    "DriverStats",
    "TransactionSplitter",
    "SmallbankSplitter",
    "KVStoreSplitter",
]
