"""Differential tests of where the engine's partitions run (core/scaleout.py).

The engine's contract: for a given seed+config, the commit/abort/view-change
fingerprint is **bit-identical** whether the partitions are drained inline
(``workers=None`` or ``1``) or spread over worker processes (``workers=N``),
and invariant under the barrier interval.  These tests
compare fingerprints across worker counts over the composed scenario
matrix — conflict policies, fault injection, prepare re-drives, epoch
reconfigurations and the Byzantine/TEE adversary — and sweep the barrier
interval as a property test.
"""

from __future__ import annotations

import pytest

from repro.audit.auditor import SafetyAuditor
from repro.core import (
    AdversaryConfig,
    OpenLoopDriver,
    ShardedBlockchain,
    ShardedSystemConfig,
    build_system,
)
from repro.errors import ConfigurationError
from repro.ledger.transaction import rebase_tx_counter
from repro.txn.faults import (
    CoordinatorCrashScenario,
    ShardStallScenario,
    VoteDropScenario,
    VoteReplayScenario,
)

TXS = 150
RATE = 400.0


def _base_config(**overrides) -> dict:
    config = dict(num_shards=3, committee_size=4, num_keys=400, seed=13)
    config.update(overrides)
    return config


#: name -> (config overrides factory, explicit reconfiguration or None).
#: Factories (not instances) because fault scenarios hold per-run state.
SCENARIOS = {
    "plain": (lambda: _base_config(), None),
    "no-reference": (lambda: _base_config(use_reference_committee=False), None),
    "wound-wait": (lambda: _base_config(conflict_policy="wound-wait"), None),
    "wait-policy": (lambda: _base_config(conflict_policy="wait",
                                         wait_timeout=0.5), None),
    "faults-redrive": (lambda: _base_config(
        fault_scenario=ShardStallScenario(shard_ids=(0, 1), delay=0.3,
                                          first_n=20),
        prepare_timeout=2.0), None),
    "vote-drop": (lambda: _base_config(fault_scenario=VoteDropScenario(max_drops=4),
                                       prepare_timeout=2.0), None),
    "vote-replay": (lambda: _base_config(
        fault_scenario=VoteReplayScenario(duplicates=1, delay=0.3),
        prepare_timeout=2.0), None),
    "coordinator-crash": (lambda: _base_config(
        fault_scenario=CoordinatorCrashScenario(phase="decide", at_tx=3,
                                                recover_after=1.0),
        prepare_timeout=2.0), None),
    "epoch-swap-all": (lambda: _base_config(prepare_timeout=2.0), "swap-all"),
    "epoch-swap-batch": (lambda: _base_config(swap_batch_interval=0.5), "swap-batch"),
    "epoch-auto": (lambda: _base_config(epoch_duration=0.4), None),
    "adversary-tee": (lambda: _base_config(
        adversary=AdversaryConfig(strategy="equivocate", corrupted_per_shard=1,
                                  follow_migrations=True,
                                  tee_rollback_at=0.3, tee_rollback_shard=1),
        prepare_timeout=2.0), "swap-batch"),
    "kvstore": (lambda: _base_config(benchmark="kvstore"), None),
}


def _run(workers, overrides, reconfigure, extra_horizon=10.0):
    """One full run; returns the system fingerprint (plus transition stats)."""
    # Pin the process-global transaction id counter so the two runs of a
    # comparison generate identical transaction ids (ids feed state sizes).
    rebase_tx_counter(0)
    config = ShardedSystemConfig(workers=workers, **overrides)
    system = ShardedBlockchain(config)
    if reconfigure is not None:
        system.perform_reconfiguration(reconfigure, at_time=0.3)
    driver = OpenLoopDriver(system, rate_tps=RATE, max_transactions=TXS)
    driver.run_to_completion()
    # Run past the drain so in-flight epoch transitions (batches spaced by
    # swap_batch_interval) finish and their migrations enter the fingerprint.
    system.advance(system.sim.now + extra_horizon)
    fingerprint = system.fingerprint()
    fingerprint["reconfigurations"] = system.reconfigurations_completed
    fingerprint["nodes_moved"] = sum(stats.nodes_moved
                                     for stats in system.epoch_transitions)
    fingerprint["driver"] = (driver.stats.committed, driver.stats.aborted)
    fingerprint["abort_reasons"] = dict(sorted(driver.stats.abort_reasons.items()))
    # Participant-side lock admission, per shard: (wounded, deadlocks, wait_timeouts).
    fingerprint["locks"] = {
        shard_id: (summary.get("wounded", 0), summary.get("deadlocks", 0),
                   summary.get("wait_timeouts", 0))
        for shard_id, summary in sorted(system.shard_summaries().items())}
    system.close()
    return fingerprint


#: The scenario also run at workers=3, where the parent drains one of the
#: four partitions' groups beside two workers while the adversary and a
#: swap-batch reconfiguration cross group boundaries.
THREE_WORKER_SCENARIO = "adversary-tee"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workers_do_not_change_outcomes(name):
    """workers=None, 1 and 2 (and 3 on one scenario) produce bit-identical
    fingerprints."""
    factory, reconfigure = SCENARIOS[name]
    counts = (None, 1, 2, 3) if name == THREE_WORKER_SCENARIO else (None, 1, 2)
    fingerprints = [_run(workers, factory(), reconfigure) for workers in counts]
    assert all(fp == fingerprints[0] for fp in fingerprints), (
        f"scenario {name} diverged across worker counts {counts}")


def _golden(committed, aborted, per_shard, abort_reasons, locks):
    return {
        "committed": committed, "aborted": aborted, "started": TXS,
        "per_shard_committed": dict(enumerate(per_shard)),
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (committed, aborted),
        "abort_reasons": abort_reasons,
        "locks": dict(enumerate(locks)),
    }


#: workers=1 fingerprints captured at the commit before the participant-side
#: admission tables and the per-engine shard builders were merged into their
#: single copies.  workers=1 == workers=N alone cannot catch a drift there —
#: both sides would move together — so these pin the absolute values.
#: name -> (scenario, extra config overrides, expected fingerprint).
PARTITIONED_GOLDENS = {
    "wound-wait": ("wound-wait", {}, _golden(
        150, 0, (153, 166, 140), {}, [(0, 0, 0)] * 3)),
    "wound-wait-contended": (
        "wound-wait", dict(num_keys=40, zipf_coefficient=0.9), _golden(
            95, 55, (136, 150, 129), {"wait-timeout": 53, "wounded": 2},
            [(0, 0, 25), (0, 0, 35), (2, 0, 22)])),
    "wait-policy": ("wait-policy", {}, _golden(
        118, 32, (139, 153, 131), {"wait-timeout": 32},
        [(0, 0, 14), (0, 0, 13), (0, 0, 9)])),
    "kvstore": ("kvstore", {}, _golden(
        70, 80, (167, 213, 194), {"lock-conflict": 80}, [(0, 0, 0)] * 3)),
}


@pytest.mark.parametrize("name", sorted(PARTITIONED_GOLDENS))
def test_partitioned_engine_goldens(name):
    scenario, extra, expected = PARTITIONED_GOLDENS[name]
    factory, reconfigure = SCENARIOS[scenario]
    assert _run(1, {**factory(), **extra}, reconfigure) == expected


def test_worker_count_sweep_plain():
    """More workers than shards, odd counts — all identical."""
    factory, reconfigure = SCENARIOS["plain"]
    reference = _run(1, factory(), reconfigure)
    for workers in (3, 5):
        assert _run(workers, factory(), reconfigure) == reference


def test_workers_validation():
    with pytest.raises(ConfigurationError):
        ShardedSystemConfig(workers=0)


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_build_system_is_the_one_engine(workers):
    """``build_system(c)`` and ``ShardedBlockchain(c)`` are the same engine,
    for every ``workers``: same type, same fingerprint."""
    fingerprints = []
    for build in (ShardedBlockchain, build_system):
        rebase_tx_counter(0)
        system = build(ShardedSystemConfig(**_base_config(), workers=workers))
        assert type(system) is ShardedBlockchain
        OpenLoopDriver(system, rate_tps=RATE,
                       max_transactions=40).run_to_completion()
        fingerprints.append(system.fingerprint())
        system.close()
    assert fingerprints[0] == fingerprints[1]
    assert not ShardedBlockchain.__subclasses__()


def test_inline_scaleout_run_is_auditor_green():
    """The safety auditor attaches to inline partitions and passes."""
    rebase_tx_counter(0)
    system = ShardedBlockchain(ShardedSystemConfig(**_base_config(), workers=1))
    auditor = SafetyAuditor(system)
    driver = OpenLoopDriver(system, rate_tps=RATE, max_transactions=TXS)
    driver.run_to_completion()
    assert auditor.settle()
    report = auditor.check()
    assert report.ok, report.summary()
    assert report.blocks_audited > 0
    system.close()


def test_process_mode_refuses_audit():
    """workers>1 replicas live in other processes; the auditor must refuse."""
    system = ShardedBlockchain(ShardedSystemConfig(**_base_config(), workers=2))
    with pytest.raises(ConfigurationError):
        system.audit_clusters()
    system.close()


def test_direct_shard_submit_is_a_protocol_bug():
    """Process mode has no reachable clusters: touching one — to submit
    around the coordination layer, or just to look at its replicas — says
    how to get them (workers=None)."""
    from repro.workloads.generator import WorkloadGenerator

    system = ShardedBlockchain(ShardedSystemConfig(**_base_config(), workers=2))
    tx = WorkloadGenerator(benchmark="smallbank", num_shards=3,
                           num_keys=400, seed=1).next_transaction("c", 0.0)
    with pytest.raises(ConfigurationError, match="workers=None"):
        system.shards[0].submit([tx])
    with pytest.raises(ConfigurationError, match="workers=None"):
        system.shards[0].replicas
    with pytest.raises(ConfigurationError, match="workers=None"):
        system.partitions
    assert system.reference is None
    system.close()
