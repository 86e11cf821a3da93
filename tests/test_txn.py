"""Tests for the distributed transaction layer and the baselines it improves on."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransactionAbortedError
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.txn.coordinator import (
    DistributedTxOutcome,
    DistributedTxPhase,
    TwoPhaseCommitCoordinator,
)
from repro.txn.omniledger import OmniLedgerClientProtocol, OmniLedgerShard, OmniLedgerTxState
from repro.txn.rapidchain import RapidChainProtocol, RapidChainShard
from repro.txn.reference_committee import CoordinatorState, ReferenceCommitteeChaincode
from repro.txn.utxo import UTXO, UTXOSet, UTXOTransaction
from repro.errors import InvalidTransactionError, CoordinatorFailureError


def make_tx(keys=("a", "b")):
    return Transaction.create("smallbank", "sendPayment",
                              {"from": "a", "to": "b", "amount": 1}, keys=keys)


def r_begin(committees):
    """R's chaincode with transaction ``t`` begun over ``committees``."""
    chaincode, state = ReferenceCommitteeChaincode(), StateStore()
    chaincode.invoke(state, "beginTx", {"tx_id": "t", "num_committees": committees})
    return chaincode, state


def r_vote(chaincode, state, shard, ok):
    """Execute one vote for ``t`` on R's chaincode; returns the state it reports."""
    result = chaincode.invoke(state, "prepareOK" if ok else "prepareNotOK",
                              {"tx_id": "t", "shard_id": shard})
    return result["state"]


class TestReferenceCommitteeChaincode:
    def test_chaincode_figure6_happy_path(self):
        chaincode, state = r_begin(2)
        assert r_vote(chaincode, state, 0, True) == CoordinatorState.PREPARING.value
        assert r_vote(chaincode, state, 1, True) == CoordinatorState.COMMITTED.value

    def test_chaincode_abort_path_and_status(self):
        chaincode, state = r_begin(2)
        r_vote(chaincode, state, 1, False)
        status = chaincode.invoke(state, "status", {"tx_id": "t"})
        assert status["state"] == CoordinatorState.ABORTED.value

    def test_vote_without_begin_fails(self):
        chaincode = ReferenceCommitteeChaincode()
        with pytest.raises(Exception):
            chaincode.invoke(StateStore(), "prepareOK", {"tx_id": "x", "shard_id": 0})

    def test_single_committee_commits_immediately(self):
        chaincode, state = r_begin(1)
        assert r_vote(chaincode, state, 0, True) == CoordinatorState.COMMITTED.value

    def test_late_ok_cannot_resurrect_an_abort(self):
        chaincode, state = r_begin(3)
        r_vote(chaincode, state, 0, True)
        assert r_vote(chaincode, state, 1, False) == CoordinatorState.ABORTED.value
        assert r_vote(chaincode, state, 2, True) == CoordinatorState.ABORTED.value

    def test_committed_is_final(self):
        chaincode, state = r_begin(1)
        r_vote(chaincode, state, 0, True)
        assert r_vote(chaincode, state, 0, False) == CoordinatorState.COMMITTED.value

    def test_duplicate_ok_is_not_double_counted(self):
        chaincode, state = r_begin(2)
        r_vote(chaincode, state, 0, True)
        assert r_vote(chaincode, state, 0, True) == CoordinatorState.PREPARING.value

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_never_commits_unless_every_committee_voted_ok(self, committees, data):
        """2PC safety: Committed requires an OK quorum from every participant."""
        chaincode, state = r_begin(committees)
        votes = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=committees - 1), st.booleans()),
            min_size=1, max_size=committees * 2))
        ok_shards = set()
        for shard, ok in votes:
            final = r_vote(chaincode, state, shard, ok)
            if ok:
                ok_shards.add(shard)
        if final == CoordinatorState.COMMITTED.value:
            assert ok_shards == set(range(committees))


class TestTwoPhaseCommitCoordinator:
    def test_cross_shard_commit_lifecycle(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = coordinator.begin(make_tx(), shards=[0, 1], now=0.0)
        assert record.is_cross_shard
        coordinator.mark_begin_executed(record.tx_id)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=2.0)
        assert record.outcome is DistributedTxOutcome.COMMITTED
        coordinator.record_commit_ack(record.tx_id, 0, now=3.0)
        coordinator.record_commit_ack(record.tx_id, 1, now=4.0)
        assert record.phase is DistributedTxPhase.DONE
        assert record.latency == pytest.approx(4.0)
        assert coordinator.stats.committed == 1

    def test_abort_on_any_negative_vote(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = coordinator.begin(make_tx(), shards=[0, 1], now=0.0)
        coordinator.mark_begin_executed(record.tx_id)
        coordinator.record_prepare_vote(record.tx_id, 0, False, now=1.0, reason="locked")
        assert record.outcome is DistributedTxOutcome.ABORTED
        coordinator.record_commit_ack(record.tx_id, 0, now=2.0)
        coordinator.record_commit_ack(record.tx_id, 1, now=2.0)
        assert coordinator.stats.aborted == 1
        assert coordinator.stats.abort_rate == 1.0
        assert record.abort_reason == "locked"

    def test_commits_once_every_participant_voted_ok(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = coordinator.begin(make_tx(), shards=[0, 1])
        coordinator.mark_begin_executed(record.tx_id)
        coordinator.record_prepare_vote(record.tx_id, 0, True)
        assert record.outcome is DistributedTxOutcome.PENDING
        coordinator.record_prepare_vote(record.tx_id, 1, True)
        assert record.outcome is DistributedTxOutcome.COMMITTED

    def test_vote_from_non_participant_rejected(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = coordinator.begin(make_tx(), shards=[0, 1])
        with pytest.raises(TransactionAbortedError):
            coordinator.record_prepare_vote(record.tx_id, 5, True)

    def test_unknown_transaction_rejected(self):
        coordinator = TwoPhaseCommitCoordinator()
        with pytest.raises(TransactionAbortedError):
            coordinator.record_commit_ack("ghost", 0)


class TestCoordinatorRevotes:
    """Regression tests for the revote fix: the seed silently overwrote
    ``prepare_votes[shard_id]`` on a revote, so an ``ok=True`` after an
    ``ok=False`` rewrote history.  Revotes are now idempotent-or-rejected."""

    def _begin(self, coordinator, shards=(0, 1)):
        record = coordinator.begin(make_tx(), shards=list(shards), now=0.0)
        coordinator.mark_begin_executed(record.tx_id)
        return record

    def test_duplicate_identical_vote_is_counted_noop(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=2.0)
        assert coordinator.stats.duplicate_votes == 1
        assert record.outcome is DistributedTxOutcome.PENDING  # still one vote short
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=3.0)
        assert record.outcome is DistributedTxOutcome.COMMITTED

    def test_ok_after_not_ok_cannot_resurrect(self):
        """The exact seed bug: an ok=True revote overwrote the recorded
        ok=False.  It must be rejected and the first vote preserved."""
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        coordinator.record_prepare_vote(record.tx_id, 0, False, now=1.0, reason="locked")
        assert record.outcome is DistributedTxOutcome.ABORTED
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=2.0)
        assert record.prepare_votes[0] is False           # first vote preserved
        assert record.outcome is DistributedTxOutcome.ABORTED
        assert coordinator.stats.stale_messages == 1      # late OK = stale
        assert coordinator.stats.equivocations == 0

    def test_equivocating_not_ok_after_ok_aborts_like_the_chaincode(self):
        """A NotOK revote from a shard that voted OK aborts an undecided
        transaction — matching what R's chaincode does with the same votes —
        so the tally and R's chain cannot diverge."""
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator, shards=(0, 1, 2))
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 0, False, now=2.0, reason="equivocated")
        assert record.outcome is DistributedTxOutcome.ABORTED
        assert record.prepare_votes[0] is True            # first vote preserved
        assert coordinator.stats.equivocations == 1
        chaincode, state = r_begin(3)
        r_vote(chaincode, state, 0, True)
        assert r_vote(chaincode, state, 0, False) == CoordinatorState.ABORTED.value

    def test_equivocation_after_commit_is_rejected(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=2.0)
        assert record.outcome is DistributedTxOutcome.COMMITTED
        coordinator.record_prepare_vote(record.tx_id, 0, False, now=3.0)
        assert record.outcome is DistributedTxOutcome.COMMITTED  # 2PC safety
        assert coordinator.stats.equivocations == 1

    def test_ok_after_not_ok_rejected_once_every_shard_voted(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        coordinator.record_prepare_vote(record.tx_id, 0, False, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=2.0)
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=3.0)
        assert record.outcome is DistributedTxOutcome.ABORTED
        assert record.prepare_votes[0] is False

    def test_late_vote_does_not_regress_phase(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        coordinator.record_prepare_vote(record.tx_id, 0, False, now=1.0)
        coordinator.record_commit_ack(record.tx_id, 0, now=2.0)
        coordinator.record_commit_ack(record.tx_id, 1, now=2.0)
        assert record.phase is DistributedTxPhase.DONE
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=3.0)  # stale
        assert record.phase is DistributedTxPhase.DONE

    def test_duplicate_ack_is_counted_noop(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=1.0)
        coordinator.record_commit_ack(record.tx_id, 0, now=2.0)
        coordinator.record_commit_ack(record.tx_id, 0, now=3.0)
        assert coordinator.stats.duplicate_acks == 1
        assert record.phase is not DistributedTxPhase.DONE  # still missing shard 1

    def test_ack_from_non_participant_rejected(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._begin(coordinator)
        with pytest.raises(TransactionAbortedError):
            coordinator.record_commit_ack(record.tx_id, 7)


class TestCoordinatorCrashRecovery:
    def _committed_tx(self, coordinator):
        record = coordinator.begin(make_tx(), shards=[0, 1], now=0.0)
        coordinator.mark_begin_executed(record.tx_id)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.record_prepare_vote(record.tx_id, 1, True, now=1.0)
        return record

    def test_crash_buffers_messages_and_recovery_replays_them(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._committed_tx(coordinator)
        coordinator.crash()
        assert coordinator.record_commit_ack(record.tx_id, 0, now=2.0) is None
        assert coordinator.record_commit_ack(record.tx_id, 1, now=2.5) is None
        assert record.commit_acks == {}          # nothing applied while down
        report = coordinator.recover(now=3.0)
        assert report.replayed == 2
        assert [r.tx_id for r in report.completed] == [record.tx_id]
        assert record.phase is DistributedTxPhase.DONE
        assert coordinator.stats.committed == 1
        assert coordinator.stats.coordinator_crashes == 1

    def test_recovery_reports_decided_but_unacked_for_redrive(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = self._committed_tx(coordinator)   # decided, no acks yet
        coordinator.crash()
        report = coordinator.recover(now=2.0)
        assert [r.tx_id for r in report.redrive] == [record.tx_id]
        # Merely being listed is not a re-drive; the scheduler counts the
        # transactions it actually re-sends.
        assert record.redrives == 0
        assert coordinator.stats.redriven_transactions == 0
        coordinator.mark_redriven(record)
        assert record.redrives == 1
        assert coordinator.stats.redriven_transactions == 1

    def test_recovery_reports_undecided_for_restart(self):
        coordinator = TwoPhaseCommitCoordinator()
        record = coordinator.begin(make_tx(), shards=[0, 1], now=0.0)
        coordinator.mark_begin_executed(record.tx_id)
        coordinator.record_prepare_vote(record.tx_id, 0, True, now=1.0)
        coordinator.crash()
        report = coordinator.recover(now=2.0)
        assert [r.tx_id for r in report.restart] == [record.tx_id]
        assert record.outcome is DistributedTxOutcome.PENDING

    def test_recover_without_crash_raises(self):
        coordinator = TwoPhaseCommitCoordinator()
        with pytest.raises(CoordinatorFailureError):
            coordinator.recover()

    def test_prepare_deadline_stamped_and_expired(self):
        coordinator = TwoPhaseCommitCoordinator(prepare_timeout=2.0)
        record = coordinator.begin(make_tx(), shards=[0, 1], now=0.0)
        coordinator.mark_begin_executed(record.tx_id, now=1.0)
        assert record.prepare_deadline == 3.0


class TestUTXO:
    def test_spend_and_double_spend(self):
        utxos = UTXOSet()
        coin = UTXO.create("alice", 10)
        utxos.add(coin)
        utxos.spend(coin.utxo_id, "tx1")
        with pytest.raises(InvalidTransactionError):
            utxos.spend(coin.utxo_id, "tx2")

    def test_unspend_restores(self):
        utxos = UTXOSet()
        coin = UTXO.create("alice", 10)
        utxos.add(coin)
        spent = utxos.spend(coin.utxo_id, "tx1")
        utxos.unspend(spent)
        assert utxos.get(coin.utxo_id) is coin
        assert utxos.balance("alice") == 10

    def test_balance_per_owner(self):
        utxos = UTXOSet()
        utxos.add(UTXO.create("alice", 5))
        utxos.add(UTXO.create("alice", 7))
        utxos.add(UTXO.create("bob", 3))
        assert utxos.balance("alice") == 12
        assert utxos.balance("bob") == 3


class TestOmniLedgerBaseline:
    def _setup(self):
        shards = {0: OmniLedgerShard(0), 1: OmniLedgerShard(1), 2: OmniLedgerShard(2)}
        coin_a = UTXO.create("alice", 5)
        coin_b = UTXO.create("alice", 7)
        shards[0].fund(coin_a)
        shards[1].fund(coin_b)
        tx = UTXOTransaction.create([coin_a.utxo_id, coin_b.utxo_id],
                                    [UTXO.create("bob", 12)])
        input_shards = {coin_a.utxo_id: 0, coin_b.utxo_id: 1}
        return shards, tx, input_shards

    def test_honest_client_commits_atomically(self):
        shards, tx, input_shards = self._setup()
        protocol = OmniLedgerClientProtocol(shards=shards)
        state = protocol.execute(tx, input_shards, output_shard=2)
        assert state is OmniLedgerTxState.COMMITTED
        assert shards[2].utxos.balance("bob") == 12
        assert not protocol.blocked_inputs()

    def test_malicious_client_blocks_funds_forever(self):
        """Section 6.1: the client-driven protocol loses liveness under a bad client."""
        shards, tx, input_shards = self._setup()
        protocol = OmniLedgerClientProtocol(shards=shards, crash_after_lock=True)
        state = protocol.execute(tx, input_shards, output_shard=2)
        assert state is OmniLedgerTxState.BLOCKED
        assert len(protocol.blocked_inputs()) == 2
        assert shards[2].utxos.balance("bob") == 0  # output never created


class TestRapidChainBaseline:
    def test_utxo_split_succeeds_when_all_inputs_available(self):
        shards = {i: RapidChainShard(i) for i in range(3)}
        coin_a, coin_b = UTXO.create("alice", 5), UTXO.create("alice", 7)
        shards[0].fund(coin_a)
        shards[1].fund(coin_b)
        tx = UTXOTransaction.create([coin_a.utxo_id, coin_b.utxo_id], [UTXO.create("bob", 12)])
        protocol = RapidChainProtocol(shards)
        result = protocol.execute_utxo(tx, {coin_a.utxo_id: 0, coin_b.utxo_id: 1}, output_shard=2)
        assert result.fully_applied
        assert shards[2].utxos.balance("bob") == 12

    def test_account_model_atomicity_violation(self):
        """Figure 4: the debit succeeds, the matching credit never happens."""
        shards = {1: RapidChainShard(1), 2: RapidChainShard(2)}
        shards[1].accounts.put("acc1", 100)
        shards[2].accounts.put("acc3", 0)     # insufficient funds for its debit
        shards[1].accounts.put("acc2", 0)
        protocol = RapidChainProtocol(shards)
        result = protocol.execute_account_transfer(
            "tx1",
            debits=[(1, "acc1", 50), (2, "acc3", 50)],
            credits=[(1, "acc2", 100)],
        )
        assert result.partially_applied
        # acc1 was debited but acc2 never credited: money disappeared.
        assert shards[1].balance("acc1") == 50
        assert shards[1].balance("acc2") == 0
        total = protocol.total_balance([(1, "acc1"), (1, "acc2"), (2, "acc3")])
        assert total < 100  # conservation violated

    def test_account_model_isolation_violation(self):
        """Figure 4: an interleaved transaction observes the half-applied state."""
        shards = {1: RapidChainShard(1), 2: RapidChainShard(2)}
        shards[1].accounts.put("acc1", 100)
        shards[2].accounts.put("acc3", 30)
        shards[1].accounts.put("acc2", 0)
        shards[2].accounts.put("acc4", 0)
        protocol = RapidChainProtocol(shards)
        # tx1 debits acc1 and acc3 (needs 40 from acc3), credit acc2 later.
        protocol.execute_account_transfer(
            "tx1-partial", debits=[(1, "acc1", 40)], credits=[])
        # tx2 runs in between and drains acc3.
        protocol.execute_account_transfer(
            "tx2", debits=[(2, "acc3", 30)], credits=[(2, "acc4", 30)])
        # tx1's second debit now fails -> tx1 can never complete atomically,
        # yet tx2 already observed and consumed state concurrent with tx1.
        result = protocol.execute_account_transfer(
            "tx1-rest", debits=[(2, "acc3", 40)], credits=[(1, "acc2", 80)])
        assert not result.fully_applied
        assert shards[1].balance("acc1") == 60  # tx1's first half persists

    def test_2pc_with_locks_prevents_the_same_anomaly(self):
        """Contrast: 2PL + 2PC either commits both halves or rolls back cleanly."""
        from repro.workloads.smallbank import SmallbankChaincode, account_key

        chaincode = SmallbankChaincode()
        state = StateStore()
        state.put(account_key("acc1"), 100)
        state.put(account_key("acc3"), 0)
        state.put(account_key("acc2"), 0)
        # Prepare fails on the shard owning acc3 (insufficient funds), so the
        # coordinator aborts and acc1's lock is released without any debit.
        ok = chaincode.invoke(state, "preparePayment",
                              {"tx_id": "t", "accounts": ["acc1"], "amount": 50,
                               "debit": "acc1"})
        assert ok["prepared"] == ["acc1"]
        with pytest.raises(Exception):
            chaincode.invoke(state, "preparePayment",
                             {"tx_id": "t", "accounts": ["acc3"], "amount": 150,
                              "debit": "acc3"})
        chaincode.invoke(state, "abortPayment", {"tx_id": "t", "accounts": ["acc1"]})
        assert state.get(account_key("acc1")) == 100  # untouched
        assert state.get(f"L_{account_key('acc1')}") is None
