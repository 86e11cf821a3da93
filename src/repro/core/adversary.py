"""System-wide adversary engine for live :class:`ShardedBlockchain` runs.

The paper's headline claims are *safety under attack*: the attested log
blocks per-recipient equivocation (Section 4.1), and the Appendix-A rollback
defence survives enclave restarts fed stale sealed state.  The consensus
layer has carried :mod:`repro.consensus.byzantine` strategies since the
single-cluster experiments, but they only ever ran against one committee in
isolation.  This module turns them into a deployment-wide adversary:

* :class:`AdversaryConfig` is the declarative knob on
  :class:`~repro.core.config.ShardedSystemConfig`.  It names a strategy from
  :data:`repro.consensus.byzantine.STRATEGIES`, how many members to corrupt
  per shard (never more than each committee's ``f``), whether the reference
  committee is also infiltrated, and an optional mid-run TEE rollback attack.
* :class:`AdversaryState` is the runtime: it places corruptions
  **seed-deterministically** (same seed, same corrupted members, same attack
  trace), hands each cluster its shard's strategy object, follows corrupted
  *logical* nodes across epoch migrations — a compromised machine stays
  compromised when the beacon reassigns it to another committee — while
  keeping every committee inside its fault budget, and schedules the TEE
  rollback (enclave restart + stale seal replay + Appendix-A recovery)
  against a live replica.

The adversary composes with the PR3 fault scenarios (coordination-layer
faults) and the PR4 epoch lifecycle (corrupted members depart and join at
boundaries); the default ``adversary=None`` schedules nothing and leaves the
run bit-identical to the honest path.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.consensus.byzantine import STRATEGIES, ByzantineStrategy, EquivocatingAttacker
from repro.consensus.cluster import PROTOCOLS, ConsensusCluster, member_node_id
from repro.errors import ConfigurationError


@dataclass
class AdversaryConfig:
    """Declarative description of the adversary attacking a sharded run.

    Parameters
    ----------
    strategy:
        Name from :data:`repro.consensus.byzantine.STRATEGIES`
        (``"equivocate"``, ``"silent-leader"``, ``"crash"``, ``"honest"``).
    corrupted_per_shard:
        Corrupted members per targeted committee.  ``None`` corrupts each
        committee's full fault tolerance ``f``; values above ``f`` are
        clamped (with a warning) — the paper's guarantees are conditioned on
        at most ``f`` corruptions per committee, and the knob models the
        threat model, not its violation.
    shard_ids:
        Committees to infiltrate (``None`` = every shard).
    include_reference:
        Also corrupt up to ``f`` members of the reference committee, putting
        the 2PC state machine itself under attack.
    follow_migrations:
        Corruption follows *logical* nodes across epoch reconfigurations: a
        corrupted node that migrates misbehaves in its destination committee
        too — unless that committee already holds ``f`` corrupted members,
        in which case the joiner behaves honestly (budget kept; counted in
        ``AdversaryState.suppressed_corruptions``).
    also_silent_leader:
        For the ``equivocate`` strategy: whether corrupted leaders also
        withhold proposals (the paper's combined Figure-8 attack).
    tee_rollback_at:
        When set, at this simulated time an honest AHL-family replica's
        enclave is restarted and fed the stale seal captured at
        ``tee_rollback_stale_seal_at`` (default: half of ``tee_rollback_at``),
        then runs the Appendix-A recovery procedure.  Requires a protocol
        with an attested log.
    tee_rollback_shard:
        Shard whose committee hosts the rollback victim.
    salt:
        Extra entropy label mixed into the placement RNG, so several
        adversarial runs of one seed can draw independent placements.
    """

    strategy: str = "equivocate"
    corrupted_per_shard: Optional[int] = None
    shard_ids: Optional[Sequence[int]] = None
    include_reference: bool = False
    follow_migrations: bool = True
    also_silent_leader: bool = True
    tee_rollback_at: Optional[float] = None
    tee_rollback_shard: int = 0
    tee_rollback_stale_seal_at: Optional[float] = None
    salt: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown adversary strategy {self.strategy!r}; "
                f"available: {sorted(STRATEGIES)}")
        if self.corrupted_per_shard is not None and self.corrupted_per_shard < 0:
            raise ConfigurationError("corrupted_per_shard must be non-negative")
        if self.tee_rollback_at is not None and self.tee_rollback_at <= 0:
            raise ConfigurationError("tee_rollback_at must be positive when set")
        if self.tee_rollback_stale_seal_at is not None:
            if self.tee_rollback_at is None:
                raise ConfigurationError(
                    "tee_rollback_stale_seal_at requires tee_rollback_at")
            if not 0 < self.tee_rollback_stale_seal_at < self.tee_rollback_at:
                raise ConfigurationError(
                    "tee_rollback_stale_seal_at must fall before tee_rollback_at")


@dataclass
class RollbackEvent:
    """Bookkeeping of one executed TEE rollback attack."""

    victim: int
    shard_id: int
    sealed_at: float
    restarted_at: float
    recovery_floor: Optional[int] = None
    #: Filled by :meth:`AdversaryState.rollback_status` polling once the
    #: enclave thaws; None while recovery is still in progress.
    completed: bool = False


class AdversaryState:
    """Runtime of an armed adversary: placements, strategies, attack events."""

    def __init__(self, adversary: AdversaryConfig, system_config: Any) -> None:
        self.config = adversary
        self.system_config = system_config
        #: Per-shard strategy objects handed to the clusters (one instance
        #: per committee — strategies may keep per-committee attack state).
        self.strategies: Dict[int, ByzantineStrategy] = {}
        self.reference_strategy: Optional[ByzantineStrategy] = None
        #: Logical node ids (as used in committee assignments) the adversary
        #: controls; membership is decided once at placement and then follows
        #: the nodes through epoch migrations.
        self.corrupted_logical: Set[int] = set()
        #: At most this many corrupted members per committee (min of the
        #: requested count and each committee's fault tolerance ``f``).
        self.fault_budget = 0
        self.migrated_corruptions = 0
        self.suppressed_corruptions = 0
        self.rollback_events: List[RollbackEvent] = []
        self._stale_seal = None
        self._rollback_victim = None
        self._seal_time = 0.0

    # ------------------------------------------------------------- placement
    @staticmethod
    def place(system_config: Any, assignment: Any) -> "AdversaryState":
        """Choose corrupted members seed-deterministically and build strategies.

        ``assignment`` is the construction-time
        :class:`~repro.sharding.committee.CommitteeAssignment`; the adversary
        corrupts committee *slots* (logical nodes), drawn per shard from an
        RNG keyed ``(seed, salt, shard)`` so the placement is a pure function
        of the configuration — same seed, same corrupted members.  Each
        committee loses at most its fault tolerance ``f``.
        """
        adversary: AdversaryConfig = system_config.adversary
        state = AdversaryState(adversary, system_config)
        _, config_factory = PROTOCOLS[system_config.protocol]
        consensus_config = config_factory(**dict(system_config.consensus_overrides))
        if adversary.tee_rollback_at is not None:
            if not consensus_config.use_attested_log:
                raise ConfigurationError(
                    f"tee_rollback_at requires an attested-log protocol; "
                    f"{system_config.protocol!r} has none to roll back")
            if not 0 <= adversary.tee_rollback_shard < system_config.num_shards:
                raise ConfigurationError(
                    f"tee_rollback_shard {adversary.tee_rollback_shard} does not exist")
        n = system_config.committee_size
        f = consensus_config.fault_tolerance(n)
        budget = f if adversary.corrupted_per_shard is None else adversary.corrupted_per_shard
        if budget > f:
            warnings.warn(
                f"corrupted_per_shard {budget} exceeds the committee fault "
                f"tolerance f={f}; clamped — the adversary models the threat "
                "model, not its violation", RuntimeWarning, stacklevel=2)
            budget = f
        state.fault_budget = budget
        targeted = (set(adversary.shard_ids) if adversary.shard_ids is not None
                    else set(range(system_config.num_shards)))
        unknown = targeted - set(range(system_config.num_shards))
        if unknown:
            raise ConfigurationError(f"adversary targets unknown shards {sorted(unknown)}")
        committees = {committee.shard_id: committee for committee in assignment.committees}
        for shard_id in range(system_config.num_shards):
            indices: List[int] = []
            if shard_id in targeted and budget > 0:
                rng = random.Random(
                    f"adversary:{system_config.seed}:{adversary.salt}:{shard_id}")
                indices = sorted(rng.sample(range(n), budget))
            physical = [member_node_id(shard_id, index) for index in indices]
            state.strategies[shard_id] = state._new_strategy(physical)
            members = committees[shard_id].members
            state.corrupted_logical.update(members[index] for index in indices)
        if adversary.include_reference:
            from repro.core.splitters import REFERENCE_SHARD_ID

            rng = random.Random(
                f"adversary:{system_config.seed}:{adversary.salt}:reference")
            indices = sorted(rng.sample(range(n), budget)) if budget > 0 else []
            state.reference_strategy = state._new_strategy(
                [member_node_id(REFERENCE_SHARD_ID, index) for index in indices])
        return state

    def _new_strategy(self, corrupted: Sequence[int]) -> ByzantineStrategy:
        cls = STRATEGIES[self.config.strategy]
        if cls is EquivocatingAttacker:
            return cls(corrupted, also_silent_leader=self.config.also_silent_leader)
        return cls(corrupted)

    def strategy_for(self, shard_id: int) -> Optional[ByzantineStrategy]:
        """The strategy object the given shard's cluster should carry."""
        return self.strategies.get(shard_id)

    # ------------------------------------------------------------ migrations
    def retire_physical(self, source_cluster: ConsensusCluster,
                        old_physical: int) -> None:
        """The departing physical id stops misbehaving in its old committee.

        The source half of a migration (the destination half is
        :meth:`corrupt_joiner_if_budget`); it only touches the source
        cluster, so it runs on the partition that owns the source shard.
        """
        source_strategy = self.strategies.get(source_cluster.shard_id)
        if source_strategy is not None:
            source_strategy.corrupted.discard(old_physical)

    def corrupt_joiner_if_budget(self, logical: int,
                                 dest_cluster: ConsensusCluster) -> bool:
        """Corrupt the next joiner of ``dest_cluster`` if the budget allows.

        Called *before* ``admit_member`` constructs the joiner, because each
        replica snapshots its strategy once at construction.  If the logical
        node is adversary-controlled, the destination committee's strategy
        gains the joiner's id — unless that committee already holds its full
        fault budget of corrupted members, in which case the node lies low
        (``suppressed_corruptions``), keeping every committee inside the
        threat model the paper's analysis assumes.  The decision depends
        only on the logical node's placement-time corruption (a pure
        function of the config) and the destination cluster's current
        replicas, so it runs on the partition that owns the destination
        shard.  Returns whether the joiner will misbehave.
        """
        if not self.config.follow_migrations:
            return False
        if logical not in self.corrupted_logical:
            return False
        dest_strategy = self.strategies.get(dest_cluster.shard_id)
        if dest_strategy is None:
            return False
        already = sum(1 for replica in dest_cluster.replicas
                      if replica.byzantine is not None and not replica.crashed)
        if already >= self.fault_budget:
            self.suppressed_corruptions += 1
            return False
        dest_strategy.corrupted.add(dest_cluster.next_member_id())
        self.migrated_corruptions += 1
        return True

    # ---------------------------------------------------------- TEE rollback
    def arm_cluster(self, sim: Any, cluster: ConsensusCluster) -> None:
        """Schedule the rollback against one cluster on its own simulator.

        Both attack events fire at *absolute* configured times and touch only
        the victim cluster, so the partition that owns ``tee_rollback_shard``
        arms its own copy.
        """
        adversary = self.config
        if adversary.tee_rollback_at is None:
            return
        seal_at = (adversary.tee_rollback_stale_seal_at
                   if adversary.tee_rollback_stale_seal_at is not None
                   else adversary.tee_rollback_at / 2.0)
        sim.schedule_at(seal_at, self._capture_stale_seal, sim, cluster)
        sim.schedule_at(adversary.tee_rollback_at, self._execute_rollback, sim, cluster)

    def _pick_rollback_victim(self, cluster: ConsensusCluster):
        """Deterministically choose the honest replica whose host is attacked.

        The *last* honest, attested member in committee order: honest because
        Appendix A defends correct nodes whose untrusted host storage serves
        stale seals, and last because the initial leader sits at the front of
        the rotation — attacking a non-leader isolates the rollback defence
        from leader-replacement effects.
        """
        honest = [replica for replica in cluster.replicas
                  if replica.byzantine is None and not replica.crashed
                  and hasattr(replica, "attested_log")]
        return honest[-1] if honest else None

    def _capture_stale_seal(self, sim: Any, cluster: ConsensusCluster) -> None:
        victim = self._pick_rollback_victim(cluster)
        if victim is None:
            return
        self._rollback_victim = victim
        self._stale_seal = victim.attested_log.seal_logs()
        self._seal_time = sim.now

    def _execute_rollback(self, sim: Any, cluster: ConsensusCluster) -> None:
        victim = self._rollback_victim
        if victim is None or victim.crashed:
            return  # victim never sealed, or left/crashed meanwhile
        victim.restart_attested_log(self._stale_seal)
        floor = victim.begin_log_recovery()
        self.rollback_events.append(RollbackEvent(
            victim=victim.node_id, shard_id=self.config.tee_rollback_shard,
            sealed_at=self._seal_time, restarted_at=sim.now,
            recovery_floor=floor,
        ))

    def rollback_status(self) -> List[RollbackEvent]:
        """Refresh and return the rollback bookkeeping (completion flags)."""
        victim = self._rollback_victim
        for event in self.rollback_events:
            if victim is not None and victim.node_id == event.victim:
                event.completed = not victim.attested_log.recovering
        return self.rollback_events
