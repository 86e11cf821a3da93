"""Adversary engine + safety auditor tests.

Covers the PR's satellite regressions — per-recipient equivocation on both
vote phases (AHL rejects it, PBFT must eat it), live Appendix-A rollback
recovery, attested-log verify-memo scoping, the honest-observer degraded
fallback — plus the system-wide pieces: seed-deterministic corruption
placement respecting each committee's ``f``, corruption following logical
nodes across epoch transitions, auditor-clean runs across the strategy ×
fault × epoch matrix, the auditor self-test (deliberately injected
violations are flagged), and same-seed adversarial determinism.
"""

from __future__ import annotations

import dataclasses
import warnings
from types import SimpleNamespace

import pytest

from repro.audit import SafetyAuditor
from repro.consensus import messages as m
from repro.consensus.byzantine import EquivocatingAttacker, SilentLeader
from repro.consensus.cluster import ConsensusCluster, NoopChaincode
from repro.core import (
    AdversaryConfig,
    OpenLoopDriver,
    ShardedBlockchain,
    ShardedSystemConfig,
)
from repro.errors import ConfigurationError, EnclaveError
from repro.ledger.state import StateStore
from repro.sim.simulator import Simulator
from repro.crypto.signatures import registry_generation
from repro.tee.attested_log import AttestedAppendOnlyLog
from repro.workloads.smallbank import SmallbankChaincode, account_key, initial_balances

FAST = {"batch_size": 20, "view_change_timeout": 3.0, "pipeline_depth": 4,
        "checkpoint_interval": 2}


def build_cluster(protocol="AHL+", n=4, byzantine=None, seed=1, **extra):
    overrides = dict(FAST)
    overrides.update(extra)
    return ConsensusCluster(protocol=protocol, n=n, config_overrides=overrides,
                            byzantine=byzantine, seed=seed)


def make_txs(count, tag=""):
    chaincode = NoopChaincode()
    return [chaincode.new_transaction("write", {"keys": (f"k{tag}{i}",), "value": i})
            for i in range(count)]


def build_system(adversary=None, seed=7, num_shards=2, committee_size=5,
                 use_reference_committee=True, **extra) -> ShardedBlockchain:
    config = ShardedSystemConfig(
        num_shards=num_shards, committee_size=committee_size, num_keys=100,
        seed=seed, prepare_timeout=2.0,
        use_reference_committee=use_reference_committee,
        consensus_overrides=dict(FAST), adversary=adversary, **extra)
    return ShardedBlockchain(config)


def drive(system: ShardedBlockchain, txns=40, rate=60.0) -> OpenLoopDriver:
    driver = OpenLoopDriver(system, rate_tps=rate, max_transactions=txns,
                            batch_size=2)
    driver.run_to_completion(drain_timeout=120.0)
    return driver


class RecordingEquivocator(EquivocatingAttacker):
    """EquivocatingAttacker that logs every (phase, recipient, digest) claim."""

    def __init__(self, corrupted, **kwargs):
        super().__init__(corrupted, **kwargs)
        self.claims = []

    def vote_digest_for(self, replica, phase, recipient, digest):
        claimed = super().vote_digest_for(replica, phase, recipient, digest)
        if digest is not None:
            self.claims.append((phase, recipient, claimed, claimed != digest))
        return claimed


class TestPerRecipientEquivocation:
    """Satellite 1: equivocation is per-recipient and reaches commit votes."""

    def test_pbft_receives_conflicting_digests_but_stays_safe(self):
        attacker = RecordingEquivocator([3], also_silent_leader=False)
        cluster = build_cluster("HL", n=4, byzantine=attacker)
        cluster.submit(make_txs(20))
        cluster.run(10.0)
        # The strategy was consulted per destination and actually claimed two
        # different digests for the same vote, on both phases.
        for phase in ("prepare", "commit"):
            phase_claims = [claim for claim in attacker.claims if claim[0] == phase]
            assert phase_claims, f"no {phase} votes sent by the attacker"
            assert {claim[3] for claim in phase_claims} == {True, False}, (
                f"{phase} votes were uniform; equivocation must differ per recipient")
        # PBFT has no attestation gate: the conflicting votes were signed,
        # delivered and verified — and then discarded — so the honest
        # committee still commits everything and agrees.
        honest = [r for r in cluster.replicas if r.byzantine is None]
        assert cluster.honest_observer().committed_transactions() == 20
        reference = max(honest, key=lambda r: r.blockchain.height)
        for replica in honest:
            for height in range(1, replica.blockchain.height + 1):
                assert (replica.blockchain.header_at(height).merkle_root
                        == reference.blockchain.header_at(height).merkle_root)

    def test_ahl_enclave_refuses_the_second_digest(self):
        attacker = RecordingEquivocator([4], also_silent_leader=False)
        cluster = build_cluster("AHL", n=5, byzantine=attacker)
        cluster.submit(make_txs(20))
        cluster.run(10.0)
        byzantine = cluster.replica_by_id(cluster.committee[4])
        # The attacker attempted per-recipient conflicts...
        assert any(conflicting for _, _, _, conflicting in attacker.claims)
        # ...but its enclave bound each slot to one digest and refused the rest.
        assert byzantine.attested_log.rejected_appends > 0
        for log_name in ("prepare", "commit"):
            for position in range(1, byzantine.attested_log.highest_position(log_name) + 1):
                digest = byzantine.attested_log.lookup(log_name, position)
                assert digest is None or isinstance(digest, str)  # single binding
        assert cluster.honest_observer().committed_transactions() == 20

    def test_ahl_rejects_votes_without_attestation(self):
        """The fixed receiver refuses what an equivocating host must send."""
        cluster = build_cluster("AHL", n=4)
        replica = cluster.replicas[1]
        instance = replica._get_instance(1)
        instance.block_digest = "d" * 64
        instance.pre_prepared = True
        peer = cluster.committee[2]
        unattested = m.Prepare(view=0, seq=1, block_digest="d" * 64,
                               replica=peer, attestation=None)
        replica._handle_prepare(unattested)
        assert peer not in instance.prepares
        # The same vote carrying a valid enclave proof is counted.
        enclave = AttestedAppendOnlyLog("a2m-test")
        attestation = enclave.append("prepare", 1, "d" * 64)
        attested = m.Prepare(view=0, seq=1, block_digest="d" * 64,
                             replica=peer, attestation=attestation)
        replica._handle_prepare(attested)
        assert peer in instance.prepares

    def test_early_conflicting_vote_cannot_stand_in_for_the_real_block(self):
        """A wrong-digest vote arriving before the pre-prepare is discarded
        when the slot's digest is fixed (the seed counted it blindly)."""
        cluster = build_cluster("HL", n=4)
        replica = cluster.replicas[1]
        leader = cluster.committee[0]
        byzantine_peer = cluster.committee[3]
        early = m.Prepare(view=0, seq=1, block_digest="f" * 64,
                          replica=byzantine_peer, attestation=None)
        replica._handle_prepare(early)
        assert byzantine_peer not in replica._get_instance(1).prepares
        from repro.ledger.block import build_block

        block = build_block(height=1, prev_hash="pending",
                            transactions=tuple(make_txs(1, tag="early")),
                            proposer=leader, view=0, timestamp=0.0, shard_id=0)
        replica._handle_pre_prepare(m.PrePrepare(view=0, seq=1, block=block,
                                                 leader=leader))
        instance = replica._get_instance(1)
        assert byzantine_peer not in instance.prepares
        # An early vote for the *right* digest is absorbed.
        other = cluster.committee[2]
        replica._handle_prepare(m.Prepare(view=0, seq=2,
                                          block_digest="ignored", replica=other,
                                          attestation=None))
        block2 = build_block(height=2, prev_hash="pending",
                             transactions=tuple(make_txs(1, tag="early2")),
                             proposer=leader, view=0, timestamp=0.0, shard_id=0)
        early_ok = m.Prepare(view=0, seq=3, block_digest=block2.header.merkle_root,
                             replica=other, attestation=None)
        replica._handle_prepare(early_ok)
        replica._handle_pre_prepare(m.PrePrepare(view=0, seq=3, block=block2,
                                                 leader=leader))
        assert other in replica._get_instance(3).prepares


class TestHonestObserverFallback:
    """Satellite 2: no silent fallback to a crashed/Byzantine replicas[0]."""

    def test_prefers_live_honest_member(self):
        cluster = build_cluster("AHL+", n=4, byzantine=SilentLeader([0]))
        observer = cluster.honest_observer()
        assert observer.byzantine is None
        assert cluster.degraded_observer_reads == 0

    def test_degraded_read_is_counted_and_avoids_crashed_members(self):
        cluster = build_cluster("AHL+", n=4, byzantine=SilentLeader([0]))
        for replica in cluster.replicas:
            if replica.byzantine is None:
                replica.crash()
        observer = cluster.honest_observer()
        assert not observer.crashed  # replicas[0] is Byzantine but alive
        assert cluster.degraded_observer_reads == 1

    def test_all_crashed_still_returns_deterministically(self):
        cluster = build_cluster("AHL+", n=3)
        for replica in cluster.replicas:
            replica.crash()
        first = cluster.honest_observer()
        second = cluster.honest_observer()
        assert first is second
        assert cluster.degraded_observer_reads == 2


class TestVerdictScoping:
    """Satellite 3: a cached attestation verdict never outlives its key material."""

    def test_new_run_with_other_key_material_rechecks_the_verdict(self):
        Simulator(seed=122)
        log = AttestedAppendOnlyLog("verdict-scope")
        attestation = log.append("prepare", 1, "v")
        assert attestation.verify()
        # A fresh run builds an enclave of the same id from another code
        # identity: the same owner under other key material.  The verdict
        # cached by the first run must not be served; the signature no
        # longer checks against the registered key.
        Simulator(seed=123)
        AttestedAppendOnlyLog("verdict-scope", code_identity="other-build/v2")
        assert attestation.verify() is False

    def test_registry_generation_change_discards_stale_verdicts(self):
        log = AttestedAppendOnlyLog("memo-gen")
        attestation = log.append("prepare", 1, "v")
        assert attestation.verify()
        # Poison the cached verdict, then register fresh key material: the
        # generation bump must force recomputation instead of serving the lie.
        attestation.__dict__["_verdict"] = (registry_generation(), False)
        assert attestation.verify() is False
        AttestedAppendOnlyLog("memo-gen-2")  # registers a new keypair
        assert attestation.verify() is True


class TestLiveRollbackRecovery:
    """Satellite 4: mid-run restart with stale sealed state (Appendix A)."""

    def test_recovery_freezes_appends_until_checkpoint_reaches_floor(self):
        cluster = build_cluster("AHL", n=4)
        cluster.submit(make_txs(30, tag="a"))
        cluster.run(5.0)
        victim = cluster.replicas[-1]
        assert victim.committed_transactions() > 0
        stale = victim.attested_log.seal_logs()
        cluster.submit(make_txs(30, tag="b"))
        cluster.run(5.0)
        # The host restarts the enclave and replays the stale seal.
        victim.restart_attested_log(stale)
        assert victim.attested_log.recovering
        with pytest.raises(EnclaveError):
            victim.attested_log.append("prepare", 10_000, "post-restart")
        assert victim._attest("prepare", 10_001, "post-restart") is None
        floor = victim.begin_log_recovery()
        assert floor > victim.stable_checkpoint or not victim.attested_log.recovering
        # New work drives checkpoints past H_M (= ckp_M + pipeline depth +
        # checkpoint interval, so several more blocks); the enclave thaws on
        # its own once the victim's own stable checkpoint crosses the floor.
        cluster.submit(make_txs(240, tag="c"))
        cluster.run(60.0)
        assert not victim.attested_log.recovering
        assert victim.stable_checkpoint >= floor
        # The run stayed fork-free and the victim participates again.
        honest = [r for r in cluster.replicas if not r.crashed]
        reference = max(honest, key=lambda r: r.blockchain.height)
        for replica in honest:
            for height in range(1, replica.blockchain.height + 1):
                assert (replica.blockchain.header_at(height).merkle_root
                        == reference.blockchain.header_at(height).merkle_root)
        assert cluster.honest_observer().committed_transactions() == 300

    def test_system_level_rollback_attack_recovers_and_audits_clean(self):
        adversary = AdversaryConfig(strategy="honest", corrupted_per_shard=0,
                                    tee_rollback_at=4.0)
        system = build_system(adversary=adversary, num_shards=1,
                              use_reference_committee=False)
        auditor = SafetyAuditor(system)
        driver = OpenLoopDriver(system, rate_tps=60.0, batch_size=2)
        driver.start()
        system.run(25.0)
        # The live adversary is the copy of the partition it attacks.
        events = system.partitions[0].adversary.rollback_status()
        assert len(events) == 1 and events[0].completed
        assert events[0].recovery_floor is not None
        report = auditor.check()
        assert report.ok, report.summary()

    def test_rollback_requires_attested_protocol(self):
        with pytest.raises(ConfigurationError):
            build_system(adversary=AdversaryConfig(tee_rollback_at=5.0),
                         protocol="HL")


class TestAdversaryPlacement:
    def test_placement_is_seed_deterministic_and_respects_f(self):
        systems = [build_system(adversary=AdversaryConfig(strategy="equivocate"),
                                seed=13) for _ in range(2)]
        placements = []
        for system in systems:
            per_shard = {shard: sorted(system.adversary.strategy_for(shard).corrupted)
                         for shard in system.shards}
            placements.append(per_shard)
            for shard, cluster in system.shards.items():
                corrupted = [r for r in cluster.replicas if r.byzantine is not None]
                assert len(corrupted) <= cluster.replicas[0].f
        assert placements[0] == placements[1]

    def test_different_seeds_draw_different_placements(self):
        drawn = {
            tuple(sorted(build_system(
                adversary=AdversaryConfig(strategy="crash"), seed=seed,
            ).adversary.strategy_for(0).corrupted))
            for seed in range(8)
        }
        assert len(drawn) > 1

    def test_shard_targeting_and_reference_committee(self):
        adversary = AdversaryConfig(strategy="silent-leader", shard_ids=(1,),
                                    include_reference=True)
        system = build_system(adversary=adversary)
        assert not system.adversary.strategy_for(0).corrupted
        assert system.adversary.strategy_for(1).corrupted
        reference_corrupted = [r for r in system.reference.replicas
                               if r.byzantine is not None]
        assert reference_corrupted

    def test_budget_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            system = build_system(
                adversary=AdversaryConfig(strategy="crash", corrupted_per_shard=99))
        for cluster in system.shards.values():
            corrupted = [r for r in cluster.replicas if r.byzantine is not None]
            assert len(corrupted) == cluster.replicas[0].f

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryConfig(strategy="nope")

    def test_adversary_must_be_adversary_config(self):
        with pytest.raises(ConfigurationError):
            ShardedSystemConfig(adversary={"strategy": "crash"})

    def test_corruption_follows_logical_nodes_across_epochs(self):
        system = build_system(adversary=AdversaryConfig(strategy="equivocate"),
                              seed=11, use_reference_committee=False)
        auditor = SafetyAuditor(system)
        driver = OpenLoopDriver(system, rate_tps=40.0, batch_size=2)
        driver.start()
        system.perform_reconfiguration("swap-batch", at_time=6.0, batch_interval=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system.run(30.0)
        assert system.reconfigurations_completed == 1
        # Each destination partition's adversary copy counts its own joiners.
        assert sum(summary["migrated_corruptions"] + summary["suppressed_corruptions"]
                   for summary in system.shard_summaries().values()) > 0
        # The budget holds in every committee after the transition too.
        for cluster in system.shards.values():
            corrupted = [r for r in cluster.replicas
                         if r.byzantine is not None and not r.crashed]
            assert len(corrupted) <= system.adversary.fault_budget
        assert auditor.check().ok


ADVERSARIES = {
    "clean": lambda: None,
    "equivocate": lambda: AdversaryConfig(strategy="equivocate"),
    "silent-leader": lambda: AdversaryConfig(strategy="silent-leader"),
    "crash": lambda: AdversaryConfig(strategy="crash"),
    "equivocate-ref": lambda: AdversaryConfig(strategy="equivocate",
                                              include_reference=True),
}


class TestAuditorCleanRuns:
    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_zero_violations_across_the_adversary_matrix(self, name):
        system = build_system(adversary=ADVERSARIES[name]())
        auditor = SafetyAuditor(system)
        driver = drive(system)
        assert auditor.settle(), f"{name}: run never quiesced"
        report = auditor.check()
        assert report.ok, f"{name}: {report.summary()}"
        assert driver.stats.committed > 0
        assert report.transactions_audited > 0
        if name in ("equivocate", "equivocate-ref"):
            assert report.equivocation_refusals > 0
        assert "money-conservation" not in report.skipped

    def test_composes_with_fault_scenarios(self):
        from repro.txn.faults import VoteDropScenario

        system = build_system(adversary=AdversaryConfig(strategy="equivocate"),
                              fault_scenario=VoteDropScenario(max_drops=3))
        auditor = SafetyAuditor(system)
        drive(system)
        assert auditor.settle()
        report = auditor.check()
        assert report.ok, report.summary()

    def test_adversarial_runs_are_seed_deterministic(self):
        def fingerprint():
            system = build_system(adversary=AdversaryConfig(strategy="equivocate"),
                                  seed=21)
            auditor = SafetyAuditor(system)
            driver = drive(system)
            auditor.settle()
            report = auditor.check()
            assert report.ok
            return (driver.stats.committed, driver.stats.aborted,
                    system.events_processed, report.equivocation_refusals)

        assert fingerprint() == fingerprint()


def _stub_replica(node_id=9_999, offset=0):
    return SimpleNamespace(node_id=node_id, byzantine=None,
                           _committed_before_join=offset)


def _stub_event(transactions, receipts=()):
    return SimpleNamespace(block=SimpleNamespace(transactions=tuple(transactions)),
                           receipts=list(receipts))


def _stub_tx(tx_id, function="write", args=None):
    return SimpleNamespace(tx_id=tx_id, function=function, args=args or {})


class TestAuditorSelfTest:
    """Deliberately injected violations must be flagged (auditor self-test)."""

    @pytest.fixture()
    def audited(self):
        system = build_system(num_shards=1, use_reference_committee=False)
        auditor = SafetyAuditor(system)
        drive(system, txns=20)
        auditor.settle()
        assert auditor.check().ok
        return system, auditor

    def test_flags_committed_prefix_fork(self, audited):
        _, auditor = audited
        auditor.observe_commit(0, _stub_replica(node_id=9_991, offset=0),
                               _stub_event([_stub_tx("fork-A")]))
        auditor.observe_commit(0, _stub_replica(node_id=9_992, offset=0),
                               _stub_event([_stub_tx("fork-B")]))
        report = auditor.check()
        assert any(v.check == "committed-prefix" and "fork" in v.detail
                   for v in report.violations)

    def test_flags_cross_shard_atomicity_split(self, audited):
        _, auditor = audited
        commit_tx = _stub_tx("d1", "commitPayment", {"tx_id": "origin-1"})
        abort_tx = _stub_tx("d2", "abortPayment", {"tx_id": "origin-1"})
        auditor._record_decisions(0, _stub_event(
            [commit_tx], [SimpleNamespace(tx_id="d1", ok=True)]))
        auditor._record_decisions(1, _stub_event(
            [abort_tx], [SimpleNamespace(tx_id="d2", ok=True)]))
        report = auditor.check()
        assert any(v.check == "cross-shard-atomicity" for v in report.violations)

    @pytest.mark.parametrize("position, digest, flagged, slots", [
        (7, "digest-two", True, 1),    # the same slot re-bound
        (7, "digest-one", False, 1),   # the same digest again
        (8, "digest-two", False, 2),   # another slot binds its own digest
    ])
    def test_flags_attested_slot_rebinding(self, audited, position, digest,
                                           flagged, slots):
        _, auditor = audited
        recorded = auditor.check().attestations_recorded
        auditor.observe_append("enclave-x", "prepare", 7, "digest-one")
        auditor.observe_append("enclave-x", "prepare", position, digest)
        report = auditor.check()
        assert any(v.check == "attested-slot-uniqueness"
                   for v in report.violations) == flagged
        assert report.attestations_recorded == recorded + slots

    @pytest.mark.parametrize("full_reverify", [False, True])
    def test_flags_money_creation(self, audited, full_reverify):
        system, auditor = audited
        observer = system.shards[0].honest_observer()
        key = account_key("0")
        # Tampering *behind* consensus leaves no committed receipt; the
        # balance scan sees it in either mode.
        observer.state.put(key, observer.state.get(key, 0) + 1)
        report = auditor.check(full_reverify=full_reverify)
        assert any(v.check == "money-conservation" and "+1" in v.detail
                   for v in report.violations)

    def test_flags_money_destruction(self, audited):
        system, auditor = audited
        observer = system.shards[0].honest_observer()
        key = account_key("1")
        observer.state.put(key, observer.state.get(key, 0) - 5)
        report = auditor.check()
        expected = sum(initial_balances(system.config.num_keys).values())
        assert [v.detail for v in report.violations
                if v.check == "money-conservation"] == [
            f"balances sum to {expected - 5}, expected {expected} "
            "(drift -5) at quiescence"]

    def test_flags_a_broken_chain_on_every_check(self, audited):
        system, auditor = audited
        chain = system.shards[0].honest_observer().blockchain
        tip = chain.header_at(chain.height)
        chain._headers[-1] = dataclasses.replace(tip, prev_hash="0" * 64)
        for _ in range(2):  # a failed verify never advances the marker
            report = auditor.check()
            assert any(v.check == "committed-prefix"
                       and "fails hash verification" in v.detail
                       for v in report.violations)

    def test_flags_negative_quorum_margin(self, audited):
        system, auditor = audited
        from repro.core.system import EpochTransitionStats

        system.epoch_transitions.append(EpochTransitionStats(
            epoch=99, strategy="swap-batch", started_at=0.0, randomness=1,
            beacon_rounds=1, beacon_seconds=0.0, nodes_to_move=1, plan=None,
            min_active_margin={0: -1}))
        report = auditor.check()
        assert any(v.check == "epoch-quorum-margin" for v in report.violations)

    def test_money_check_skipped_while_in_flight(self):
        system = build_system(num_shards=1, use_reference_committee=False)
        auditor = SafetyAuditor(system)
        driver = OpenLoopDriver(system, rate_tps=40.0, batch_size=2)
        driver.start()
        system.run(0.5)  # mid-flight cut
        report = auditor.check()
        assert not report.quiescent
        assert "money-conservation" in report.skipped


#: Audited live runs: 3 shards of 4, each must settle and audit clean.
#: "epoch-swap-batch" also reconfigures over an idle window mid-run.
AUDITED_SCENARIOS = {
    "smallbank": dict(),
    "kvstore": dict(benchmark="kvstore"),
    "epoch-swap-batch": dict(use_reference_committee=False,
                             swap_batch_interval=0.5),
}


class TestAuditedScenarios:
    """Live runs audited end to end, and the incremental checks' cost."""

    @pytest.mark.parametrize("name", sorted(AUDITED_SCENARIOS))
    def test_scenario_settles_and_audits_clean(self, name):
        system = ShardedBlockchain(ShardedSystemConfig(
            num_shards=3, committee_size=4, num_keys=400, seed=13,
            prepare_timeout=2.0, consensus_overrides=dict(FAST),
            **AUDITED_SCENARIOS[name]))
        auditor = SafetyAuditor(system)
        if name == "epoch-swap-batch":
            drive(system, txns=60)
            system.perform_reconfiguration("swap-batch",
                                           at_time=system.sim.now + 1.0)
            system.run(20.0)  # an idle window: the transition completes in it
            transition, = system.epoch_transitions
            assert transition.completed_at is not None
            # Some committee turned over completely: its observer is a
            # joiner whose chain is rooted in an installed state snapshot.
            assert any(cluster.honest_observer()._committed_before_join > 0
                       for cluster in system.shards.values())
        driver = drive(system, txns=120)
        assert auditor.settle(), f"{name}: run never quiesced"
        report = auditor.check()
        assert report.ok, f"{name}: {report.summary()}"
        assert driver.stats.committed > 0
        assert ("money-conservation" in report.skipped) == (name == "kvstore")

    def test_chain_check_verifies_only_the_new_suffix(self):
        system = build_system(num_shards=1, use_reference_committee=False)
        auditor = SafetyAuditor(system)
        drive(system, txns=20)
        auditor.settle()
        chain = system.shards[0].honest_observer().blockchain
        calls = []
        original = chain.verify_suffix
        chain.verify_suffix = lambda fh: (calls.append(fh), original(fh))[1]
        assert auditor.check().ok
        first_height = chain.height
        assert calls == [0]  # no marker yet: one full pass
        drive(system, txns=10)
        auditor.settle()
        assert auditor.check().ok
        assert calls[1] == first_height  # only the new suffix
        assert auditor.check(full_reverify=True).ok
        assert calls[2] == 0  # explicit full re-verify starts over

    def test_observer_switch_forces_full_reverify(self):
        system = build_system(num_shards=1, use_reference_committee=False)
        auditor = SafetyAuditor(system)
        drive(system, txns=20)
        auditor.settle()
        assert auditor.check().ok
        node_id, height, block_hash = auditor._verified[0]
        # Pretend the marker came from a different replica: untrusted.
        auditor._verified[0] = (node_id + 1, height, block_hash)
        chain = system.shards[0].honest_observer().blockchain
        calls = []
        original = chain.verify_suffix
        chain.verify_suffix = lambda fh: (calls.append(fh), original(fh))[1]
        assert auditor.check().ok
        assert calls == [0]
        assert auditor._verified[0][0] == node_id

    def test_margin_violations_persist_across_checks(self):
        from repro.core.system import EpochTransitionStats

        system = build_system(num_shards=1, use_reference_committee=False)
        auditor = SafetyAuditor(system)
        drive(system, txns=10)
        auditor.settle()
        system.epoch_transitions.append(EpochTransitionStats(
            epoch=7, strategy="swap-batch", started_at=0.0, randomness=1,
            beacon_rounds=1, beacon_seconds=0.0, nodes_to_move=1, plan=None,
            min_active_margin={0: -2}, completed_at=1.0))
        first = auditor.check()
        second = auditor.check()  # transition consumed once, violation persists
        for report in (first, second):
            assert sum(1 for v in report.violations
                       if v.check == "epoch-quorum-margin") == 1
        assert auditor._margins_consumed == 1


class TestDecisionIdempotence:
    """Re-driven decisions must not double-apply (flushed out by the audit)."""

    def test_duplicate_commit_payment_applies_deltas_once(self):
        chaincode = SmallbankChaincode()
        state = StateStore()
        for account in ("1", "2"):
            state.put(account_key(account), 1_000)
        chaincode.invoke(state, "preparePayment",
                         {"tx_id": "t1", "accounts": ["1", "2"], "amount": 100,
                          "debit": "1"})
        args = {"tx_id": "t1", "deltas": [("1", -100), ("2", 100)]}
        chaincode.invoke(state, "commitPayment", dict(args))
        chaincode.invoke(state, "commitPayment", dict(args))  # re-delivered
        assert state.get(account_key("1")) == 900
        assert state.get(account_key("2")) == 1_100

    def test_commit_without_prepare_is_a_no_op(self):
        chaincode = SmallbankChaincode()
        state = StateStore()
        state.put(account_key("1"), 1_000)
        result = chaincode.invoke(state, "commitPayment",
                                  {"tx_id": "ghost", "deltas": [("1", -100)]})
        assert result["committed"] == []
        assert state.get(account_key("1")) == 1_000

    def test_duplicate_kvstore_commit_does_not_clobber_later_transaction(self):
        from repro.workloads.kvstore import KVStoreChaincode

        chaincode = KVStoreChaincode()
        state = StateStore()
        chaincode.invoke(state, "prepare_multi_put",
                         {"tx_id": "t1", "writes": [("k", "old")]})
        chaincode.invoke(state, "commit_multi_put",
                         {"tx_id": "t1", "writes": [("k", "old")]})
        # A later transaction prepares the same key; the re-delivered t1
        # commit must neither resurrect the stale value nor strip t2's lock.
        chaincode.invoke(state, "prepare_multi_put",
                         {"tx_id": "t2", "writes": [("k", "new")]})
        duplicate = chaincode.invoke(state, "commit_multi_put",
                                     {"tx_id": "t1", "writes": [("k", "old")]})
        assert duplicate["committed"] == []
        assert state.get("L_k") == "t2"
        chaincode.invoke(state, "commit_multi_put",
                         {"tx_id": "t2", "writes": [("k", "new")]})
        assert state.get("k") == "new"
