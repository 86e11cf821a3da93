"""Configuration of the end-to-end sharded blockchain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sharding.reconfiguration import STRATEGIES as RECONFIGURATION_STRATEGIES
from repro.sharding.sizing import minimum_committee_size


@dataclass
class ShardedSystemConfig:
    """Parameters of a sharded deployment.

    The defaults correspond to the paper's local-cluster Smallbank setup:
    AHL+ inside every shard, a reference committee for cross-shard 2PC, and
    hash partitioning of the key space.
    """

    num_shards: int = 2
    committee_size: int = 4
    protocol: str = "AHL+"
    use_reference_committee: bool = True
    benchmark: str = "smallbank"
    num_keys: int = 2_000
    zipf_coefficient: float = 0.0
    consensus_overrides: Dict[str, Any] = field(default_factory=dict)
    regions: Optional[Sequence[str]] = None
    latency_model: Any = None
    #: One-way delay charged when the client/coordinator relays a message
    #: between the reference committee and a transaction committee.  Every
    #: cross-partition hop pays it, so it is also the engine's lookahead and
    #: barrier window length (:mod:`repro.core.scaleout`).
    relay_delay: float = 0.002
    #: When False, completed transactions' coordinator records are discarded
    #: immediately, bounding memory on long (100k+ transaction) runs.
    retain_tx_records: bool = True
    #: How conflicting cross-shard lock acquisitions are scheduled:
    #: "abort" (seed-faithful first-conflict abort), "wait" (FIFO queues with
    #: timeout aborts and waits-for-graph deadlock detection) or "wound-wait"
    #: (older transactions wound younger lock holders; deadlock-free).
    conflict_policy: str = "abort"
    #: How long a queued PrepareTx may wait for its locks before the shard
    #: votes PrepareNotOK ("wait timeout").  Only used by the queueing
    #: policies.
    wait_timeout: float = 5.0
    #: When set, transactions whose prepare votes are still missing after
    #: this many seconds get their prepares re-driven (recovering from
    #: dropped votes / lost prepares).  None — the seed default — disables
    #: the deadline machinery entirely.
    prepare_timeout: Optional[float] = None
    #: Fault-injection scenario (a :class:`repro.txn.faults.FaultScenario`)
    #: consulted at the coordination protocol's decision points.  None — the
    #: default — keeps the message flow bit-identical to the seed.
    fault_scenario: Any = None
    #: Byzantine adversary (a :class:`repro.core.adversary.AdversaryConfig`)
    #: placing seed-deterministic corruptions per committee — at most each
    #: committee's ``f`` — and optionally scheduling a mid-run TEE rollback
    #: attack.  Composes with ``fault_scenario`` and the epoch lifecycle
    #: (corruption follows logical nodes across migrations).  None — the
    #: default — places nothing and leaves the run bit-identical to the
    #: honest path.
    adversary: Any = None
    #: When set, every monitor series/tracker switches to bounded storage
    #: (running count/sum + N-sample reservoir) instead of keeping one entry
    #: per commit — pair with retain_tx_records=False and a "headers" ledger
    #: retention override for fully bounded 1M-transaction runs.
    max_series_samples: Optional[int] = None
    #: Length of an epoch in simulated seconds (Section 5.1).  ``None`` — the
    #: seed default — leaves the deployment in its initial epoch forever;
    #: explicit reconfigurations via ``perform_reconfiguration`` still work.
    epoch_duration: Optional[float] = None
    #: When True the system runs the full epoch lifecycle on its own: at
    #: every ``epoch_duration`` boundary it derives fresh randomness from the
    #: beacon protocol, re-assigns committees and executes the migration with
    #: ``reconfiguration_strategy``.  Requires ``epoch_duration``.  The event
    #: flow of a run whose first boundary lies beyond the horizon is
    #: identical to the seed's (one pending-but-unfired timer aside).
    auto_reconfigure: bool = False
    #: Migration strategy used by automatic epoch transitions: "swap-batch"
    #: (the paper's B = log n batched swap) or "swap-all" (the naive
    #: everyone-at-once baseline).
    reconfiguration_strategy: str = "swap-batch"
    #: Bandwidth assumed for shard state transfer; together with the
    #: destination shard's actual ``StateStore.size_bytes()`` it determines
    #: how long a transitioning node is absent (``state_transfer_seconds``).
    state_bandwidth_bps: float = 1e9
    #: Spacing between consecutive swap batches of one transition (a batch
    #: never starts before the previous one's transfers finished, so this is
    #: a floor, not an exact cadence).
    swap_batch_interval: float = 10.0
    #: Where the deployment's partitions (one per committee, see
    #: :mod:`repro.core.scaleout`) are drained.  ``None`` — the default —
    #: and ``1`` drain them inline in the caller's process, which keeps
    #: the replicas reachable (``system.shards``, the safety auditor); an
    #: integer ``N > 1`` spreads them over N worker processes.  Outcomes —
    #: commit/abort/view-change fingerprints — are bit-identical for every
    #: value of the same seed+config.
    workers: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if self.committee_size < 1:
            raise ConfigurationError("committee_size must be at least 1")
        from repro.core.splitters import BENCHMARKS

        if self.benchmark not in BENCHMARKS:
            raise ConfigurationError(
                f"benchmark must be one of {sorted(BENCHMARKS)}")
        if self.conflict_policy not in ("abort", "wait", "wound-wait"):
            raise ConfigurationError(
                "conflict_policy must be 'abort', 'wait' or 'wound-wait'")
        if self.wait_timeout <= 0:
            raise ConfigurationError("wait_timeout must be positive")
        if self.prepare_timeout is not None and self.prepare_timeout <= 0:
            raise ConfigurationError("prepare_timeout must be positive when set")
        if self.epoch_duration is not None and self.epoch_duration <= 0:
            raise ConfigurationError("epoch_duration must be positive when set")
        if self.auto_reconfigure and self.epoch_duration is None:
            raise ConfigurationError("auto_reconfigure requires epoch_duration")
        if self.reconfiguration_strategy not in RECONFIGURATION_STRATEGIES:
            raise ConfigurationError(
                f"reconfiguration_strategy must be one of {RECONFIGURATION_STRATEGIES}")
        if self.state_bandwidth_bps <= 0:
            raise ConfigurationError("state_bandwidth_bps must be positive")
        if self.swap_batch_interval < 0:
            raise ConfigurationError("swap_batch_interval must be non-negative")
        if self.adversary is not None:
            from repro.core.adversary import AdversaryConfig

            if not isinstance(self.adversary, AdversaryConfig):
                raise ConfigurationError(
                    "adversary must be an AdversaryConfig (or None)")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("workers must be at least 1 when set")

    @property
    def total_nodes(self) -> int:
        """Consensus nodes in the deployment (excluding the reference committee)."""
        return self.num_shards * self.committee_size

    @staticmethod
    def for_adversary(network_size: int, byzantine_fraction: float,
                      protocol: str = "AHL+", **kwargs: Any) -> "ShardedSystemConfig":
        """Derive shard count and committee size from the adversarial power.

        This mirrors the Figure-14 configurations: the committee size is the
        minimum that keeps the faulty-committee probability below 2^-20, and
        the number of shards is however many such committees the network can
        sustain.
        """
        resilience = 0.5 if protocol.upper().startswith("AHL") else 1.0 / 3.0
        committee = minimum_committee_size(network_size, byzantine_fraction,
                                           resilience=resilience)
        num_shards = max(1, network_size // committee)
        return ShardedSystemConfig(num_shards=num_shards, committee_size=committee,
                                   protocol=protocol, **kwargs)
