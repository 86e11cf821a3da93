"""Fault-injection scenarios for the cross-shard transaction engine.

The consensus layer already has a strategy pattern for Byzantine *replicas*
(:mod:`repro.consensus.byzantine`); this module lifts the same idea one layer
up, to the coordination protocol of Figure 5: a :class:`FaultScenario` object
is attached to a :class:`~repro.core.system.ShardedBlockchain` (via
``ShardedSystemConfig.fault_scenario``; every home coordinator consults its
own deep copy) and is consulted at the decision
points of the transaction lifecycle — sending prepares, relaying votes,
sending the commit/abort decision, and acknowledging it.

Every scenario is **deterministic**: the hooks are driven by counters and
explicit budgets rather than random draws, so a faulty run is exactly
reproducible from its seed and the default (``None``) scenario leaves the
message flow bit-identical to the seed implementation.

Available scenarios:

* :class:`ShardStallScenario` — a shard's prepare/decision deliveries are
  delayed by a fixed amount for a window of transactions (a slow or
  recovering committee);
* :class:`VoteDropScenario` — the first ``max_drops`` prepare votes (or the
  votes of selected shards) never reach the coordinator; liveness then
  relies on the coordinator's prepare-deadline re-drive;
* :class:`VoteReplayScenario` — every vote and ack is re-delivered
  ``duplicates`` extra times after ``stale_delay`` seconds, exercising the
  coordinator's idempotent-or-rejected revote handling (including stale
  deliveries to already-pruned records when ``retain_records=False``);
* :class:`CoordinatorCrashScenario` — the coordinator crashes at a chosen
  phase of the ``at_tx``-th cross-shard transaction and recovers after
  ``recover_after`` seconds; decided-but-unacked transactions are re-driven
  from the (durable) reference-committee state.

Scenarios can be combined with :class:`ComposedScenario`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set


class FaultScenario:
    """Base (benign) scenario: every hook returns the honest default.

    Subclasses override whichever decision points they attack.  The hooks
    receive the transaction's
    :class:`~repro.txn.coordinator.DistributedTxRecord` so they can target
    specific transactions, shards or phases.
    """

    # ------------------------------------------------------------ prepare phase
    def prepare_delay(self, record, shard_id: int) -> float:
        """Extra relay delay for this shard's PrepareTx (0 = on time)."""
        return 0.0

    def drop_prepare(self, record, shard_id: int) -> bool:
        """Whether this shard's PrepareTx is lost entirely."""
        return False

    # --------------------------------------------------------------- vote phase
    def drop_vote(self, record, shard_id: int, ok: bool) -> bool:
        """Whether this shard's prepare vote is lost before reaching R."""
        return False

    def duplicate_votes(self, record, shard_id: int, ok: bool) -> int:
        """How many *extra* (stale) copies of this vote are delivered later."""
        return 0

    # ----------------------------------------------------------- decision phase
    def decision_delay(self, record, shard_id: int) -> float:
        """Extra relay delay for this shard's CommitTx/AbortTx."""
        return 0.0

    def crash_coordinator(self, record, phase: str) -> bool:
        """Whether the coordinator crashes now (``phase``: "prepare"/"decide")."""
        return False

    def recovery_delay(self) -> float:
        """Seconds the coordinator stays down after a crash."""
        return 1.0

    # --------------------------------------------------------------- ack phase
    def duplicate_acks(self, record, shard_id: int) -> int:
        """How many *extra* (stale) copies of this commit ack are delivered."""
        return 0

    def stale_delay(self) -> float:
        """How much later stale duplicate votes/acks are re-delivered."""
        return 0.5


class ShardStallScenario(FaultScenario):
    """One shard is slow: its prepares and decisions are delayed.

    ``first_n`` bounds the attack to the first N transactions touching the
    shard (None = the whole run), so liveness is preserved by construction:
    stalled messages are late, never lost.
    """

    def __init__(self, shard_ids: Iterable[int] = (0,), delay: float = 0.5,
                 first_n: Optional[int] = None) -> None:
        self.shard_ids: Set[int] = set(shard_ids)
        self.delay = delay
        self.first_n = first_n
        self._stalled_txs: Set[str] = set()

    def _stall(self, record, shard_id: int) -> float:
        if shard_id not in self.shard_ids:
            return 0.0
        if self.first_n is not None:
            # The budget counts *transactions*: every message of a stalled
            # transaction is stalled, so the slow-committee window is
            # consistent across a transaction's prepare and decision.
            if record.tx_id not in self._stalled_txs:
                if len(self._stalled_txs) >= self.first_n:
                    return 0.0
                self._stalled_txs.add(record.tx_id)
        return self.delay

    def prepare_delay(self, record, shard_id: int) -> float:
        return self._stall(record, shard_id)

    def decision_delay(self, record, shard_id: int) -> float:
        return self._stall(record, shard_id)


class VoteDropScenario(FaultScenario):
    """The first ``max_drops`` prepare votes never reach the coordinator.

    The budget makes the attack finite, so a configured ``prepare_timeout``
    (which re-drives the prepares, producing fresh votes) restores liveness.
    """

    def __init__(self, max_drops: int = 3,
                 shard_ids: Optional[Iterable[int]] = None) -> None:
        self.max_drops = max_drops
        self.shard_ids = set(shard_ids) if shard_ids is not None else None
        self.dropped = 0

    def drop_vote(self, record, shard_id: int, ok: bool) -> bool:
        if self.shard_ids is not None and shard_id not in self.shard_ids:
            return False
        if self.dropped >= self.max_drops:
            return False
        self.dropped += 1
        return True


class VoteReplayScenario(FaultScenario):
    """Every vote and ack is re-delivered ``duplicates`` extra times, late.

    With ``retain_records=False`` the stale copies routinely arrive after
    the record has been pruned — the coordinator must ignore them without
    miscounting (its ``stale_messages`` statistic tracks how many it saw).
    """

    def __init__(self, duplicates: int = 1, delay: float = 0.5,
                 max_replays: Optional[int] = None) -> None:
        self.duplicates = duplicates
        self.delay = delay
        self.max_replays = max_replays
        self.replayed = 0

    def _budgeted(self, count: int) -> int:
        if self.max_replays is not None:
            count = min(count, self.max_replays - self.replayed)
            if count <= 0:
                return 0
        self.replayed += count
        return count

    def duplicate_votes(self, record, shard_id: int, ok: bool) -> int:
        return self._budgeted(self.duplicates)

    def duplicate_acks(self, record, shard_id: int) -> int:
        return self._budgeted(self.duplicates)

    def stale_delay(self) -> float:
        return self.delay


class CoordinatorCrashScenario(FaultScenario):
    """The coordinator crashes at a chosen phase and later recovers.

    ``phase`` is ``"prepare"`` (crash after BeginTx, before any PrepareTx
    goes out) or ``"decide"`` (crash after the commit/abort decision is
    reached, before the decision is sent — the classic decided-but-unacked
    window).  The crash fires on the ``at_tx``-th cross-shard transaction
    reaching that phase, ``times`` times in total.
    """

    def __init__(self, phase: str = "decide", at_tx: int = 1,
                 recover_after: float = 2.0, times: int = 1) -> None:
        if phase not in ("prepare", "decide"):
            raise ValueError(f"unknown crash phase {phase!r}")
        self.phase = phase
        self.at_tx = at_tx
        self.recover_after = recover_after
        self.times = times
        self._seen = 0
        self.crashes = 0

    def crash_coordinator(self, record, phase: str) -> bool:
        if phase != self.phase or self.crashes >= self.times:
            return False
        self._seen += 1
        if self._seen < self.at_tx:
            return False
        self.crashes += 1
        return True

    def recovery_delay(self) -> float:
        return self.recover_after


class ComposedScenario(FaultScenario):
    """Combine several scenarios; delays add up, drops/crashes OR together."""

    def __init__(self, *scenarios: FaultScenario) -> None:
        self.scenarios = scenarios

    def prepare_delay(self, record, shard_id: int) -> float:
        return sum(s.prepare_delay(record, shard_id) for s in self.scenarios)

    def drop_prepare(self, record, shard_id: int) -> bool:
        return any(s.drop_prepare(record, shard_id) for s in self.scenarios)

    def drop_vote(self, record, shard_id: int, ok: bool) -> bool:
        return any(s.drop_vote(record, shard_id, ok) for s in self.scenarios)

    def duplicate_votes(self, record, shard_id: int, ok: bool) -> int:
        return sum(s.duplicate_votes(record, shard_id, ok) for s in self.scenarios)

    def decision_delay(self, record, shard_id: int) -> float:
        return sum(s.decision_delay(record, shard_id) for s in self.scenarios)

    def crash_coordinator(self, record, phase: str) -> bool:
        return any(s.crash_coordinator(record, phase) for s in self.scenarios)

    def recovery_delay(self) -> float:
        delays = [s.recovery_delay() for s in self.scenarios]
        return max(delays) if delays else 1.0

    def duplicate_acks(self, record, shard_id: int) -> int:
        return sum(s.duplicate_acks(record, shard_id) for s in self.scenarios)

    def stale_delay(self) -> float:
        delays = [s.stale_delay() for s in self.scenarios]
        return max(delays) if delays else 0.5
