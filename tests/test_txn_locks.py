"""Property and unit tests for the lock-admission lock table (txn/locks.py).

Invariants locked down here, under both queueing policies:

* a finished transaction holds no locks, sits in no queue and leaves no
  priority or wound behind;
* wound-wait never deadlocks, even on randomly generated cycle-heavy key
  sets, and always makes progress once wounded victims are aborted;
* the wait policy refuses the acquire that would close a waits-for cycle,
  leaving no queue entry behind.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.txn.locks import LockManager

POLICIES = ["wait", "wound-wait"]

KEYS = ["a", "b", "c", "d", "e", "f"]


class Recorder:
    """A lock manager plus everything its callbacks reported."""

    def __init__(self, policy: str) -> None:
        self.grants = []
        self.wounded = []
        self.manager = LockManager(
            policy, on_grant=lambda tx, key: self.grants.append((tx, key)),
            on_wound=self.wounded.append)


def _manager(policy: str) -> LockManager:
    return Recorder(policy).manager


def _has_cycle(manager: LockManager, wounded) -> bool:
    """Waits-for cycle among live transactions: waiter -> holder edges over
    every key (a wounded holder is already marked for abort, so a wait on
    it always clears)."""
    edges = {}
    for key in KEYS:
        holder = manager.holder(key)
        if holder is None or holder in wounded:
            continue
        for waiter in manager.waiters(key):
            edges.setdefault(waiter, set()).add(holder)
    done, on_path = set(), set()

    def visit(tx) -> bool:
        if tx in on_path:
            return True
        if tx in done:
            return False
        on_path.add(tx)
        found = any(visit(blocker) for blocker in sorted(edges.get(tx, ())))
        on_path.discard(tx)
        done.add(tx)
        return found

    return any(visit(tx) for tx in sorted(edges))


def test_only_the_queueing_policies_have_a_table():
    with pytest.raises(ConfigurationError):
        _manager("abort")


# ---------------------------------------------------------------------------
# Invariant: no lock (or queue entry) outlives a finished transaction.
# ---------------------------------------------------------------------------
@given(st.sampled_from(POLICIES),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_finish_leaves_no_trace(policy, seed):
    rng = random.Random(seed)
    manager = _manager(policy)
    txs = [f"tx{i}" for i in range(5)]
    for _ in range(rng.randrange(5, 40)):
        tx = rng.choice(txs)
        manager.acquire(rng.choice(KEYS), tx, float(txs.index(tx)))
    for tx in txs:
        manager.finish(tx)
        assert manager.held_by(tx) == []
        for key in KEYS:
            assert manager.holder(key) != tx
            assert tx not in manager.waiters(key)
    # After finishing everyone, the table must be completely empty.
    for key in KEYS:
        assert manager.holder(key) is None
        assert manager.waiters(key) == []
    assert not (manager._waiting or manager._held or manager._priority
                or manager._wounded)


# ---------------------------------------------------------------------------
# Invariant: wound-wait never deadlocks on cycle-heavy key sets.
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=80, deadline=None)
def test_wound_wait_never_deadlocks_on_cycle_heavy_keysets(seed, num_txs):
    """Random permutations of overlapping key sets are the classic deadlock
    generator; under wound-wait the waits-for graph must stay acyclic and a
    simple scheduler (grant + abort-wounded) must always finish every
    transaction."""
    rng = random.Random(seed)
    recorder = Recorder("wound-wait")
    manager = recorder.manager
    # Every transaction wants an overlapping subset of keys, acquired in a
    # random (cycle-friendly) order; age priority is randomised too.
    wants = {}
    ages = {}
    tx_ids = [f"tx{i}" for i in range(num_txs)]
    priorities = rng.sample(range(100), num_txs)
    for tx, priority in zip(tx_ids, priorities):
        keys = rng.sample(KEYS, rng.randrange(2, len(KEYS)))
        rng.shuffle(keys)
        wants[tx] = keys
        ages[tx] = float(priority)

    finished: set = set()
    for tx in tx_ids:
        for key in wants[tx]:
            assert manager.acquire(key, tx, ages[tx]) in ("granted", "waiting")
        # The waits-for graph must never contain a cycle under wound-wait.
        assert not _has_cycle(manager, recorder.wounded)
    assert len(recorder.wounded) == len(set(recorder.wounded))

    def holds_all(tx):
        return all(manager.holder(key) == tx for key in wants[tx])

    # Scheduler loop: abort wounded transactions, finish complete ones.
    for _ in range(10 * num_txs):
        progress = False
        for tx in tx_ids:
            if tx in finished:
                continue
            if tx in recorder.wounded or holds_all(tx):
                manager.finish(tx)     # abort or commit: release, granting waiters
                finished.add(tx)
                progress = True
        assert not _has_cycle(manager, recorder.wounded)
        if len(finished) == num_txs:
            break
        assert progress, "wound-wait scheduler stalled (deadlock?)"
    assert finished == set(tx_ids)
    for key in KEYS:
        assert manager.holder(key) is None


# ---------------------------------------------------------------------------
# Wait policy: FIFO grants and cycle refusal.
# ---------------------------------------------------------------------------
def test_wait_policy_queues_fifo_and_grants_on_release():
    recorder = Recorder("wait")
    manager = recorder.manager
    assert manager.acquire("k", "tx1", 1) == "granted"
    assert manager.acquire("k", "tx2", 2) == "waiting"
    assert manager.acquire("k", "tx3", 0) == "waiting"  # age does not matter
    assert manager.waiters("k") == ["tx2", "tx3"]
    manager.release("k", "tx1")
    assert manager.holder("k") == "tx2"
    assert recorder.grants == [("tx2", "k")]
    manager.release("k", "tx2")
    assert manager.holder("k") == "tx3"
    assert recorder.grants == [("tx2", "k"), ("tx3", "k")]


def test_wait_policy_refuses_two_party_cycle():
    manager = _manager("wait")
    manager.acquire("a", "tx1", 1)
    manager.acquire("b", "tx2", 2)
    assert manager.acquire("b", "tx1", 1) == "waiting"
    assert manager.acquire("a", "tx2", 2) == "deadlock"
    # The refused acquire left no queue entry behind.
    assert manager.waiters("a") == []
    assert manager.waiters("b") == ["tx1"]


def test_wait_policy_refuses_three_party_cycle():
    manager = _manager("wait")
    manager.acquire("a", "tx1", 1)
    manager.acquire("b", "tx2", 2)
    manager.acquire("c", "tx3", 3)
    assert manager.acquire("b", "tx1", 1) == "waiting"
    assert manager.acquire("c", "tx2", 2) == "waiting"
    assert manager.acquire("a", "tx3", 3) == "deadlock"
    assert manager.waiters("a") == []


def test_wait_policy_cancel_wait_withdraws_queued_acquires():
    manager = _manager("wait")
    manager.acquire("k", "tx1", 1)
    manager.acquire("k", "tx2", 2)
    manager.cancel_wait("tx2")
    assert manager.waiters("k") == []
    manager.release("k", "tx1")
    assert manager.holder("k") is None  # nothing granted to the cancelled waiter


# ---------------------------------------------------------------------------
# Wound-wait specifics.
# ---------------------------------------------------------------------------
def test_wound_wait_older_wounds_younger_holder_once():
    recorder = Recorder("wound-wait")
    manager = recorder.manager
    assert manager.acquire("k", "young", 5.0) == "granted"
    assert manager.acquire("k", "old", 1.0) == "waiting"
    assert recorder.wounded == ["young"]
    assert manager.acquire("k", "older", 0.5) == "waiting"
    assert recorder.wounded == ["young"]  # a holder is wounded once
    # Aborting the victim hands the lock to the oldest waiter.
    manager.finish("young")
    assert manager.holder("k") == "older"
    assert recorder.grants == [("older", "k")]


def test_wound_wait_younger_requester_waits():
    recorder = Recorder("wound-wait")
    manager = recorder.manager
    manager.acquire("k", "old", 1.0)
    assert manager.acquire("k", "young", 5.0) == "waiting"
    assert recorder.wounded == []
    assert manager.waiters("k") == ["young"]


def test_wound_wait_queue_is_priority_ordered():
    manager = _manager("wound-wait")
    manager.acquire("k", "t1", 1.0)
    manager.acquire("k", "t9", 9.0)
    manager.acquire("k", "t5", 5.0)
    manager.acquire("k", "t5b", 5.0)
    assert manager.waiters("k") == ["t5", "t5b", "t9"]  # older first, FIFO among equals


def test_wound_wait_skips_wounded_waiters_on_release():
    recorder = Recorder("wound-wait")
    manager = recorder.manager
    manager.acquire("a", "mid", 5.0)
    manager.acquire("b", "young", 9.0)
    assert manager.acquire("a", "young", 9.0) == "waiting"
    assert manager.acquire("b", "old", 1.0) == "waiting"  # wounds "young"
    assert recorder.wounded == ["young"]
    manager.release("a", "mid")
    assert manager.holder("a") is None and manager.waiters("a") == []


def test_wound_wait_priority_sticks_until_finish():
    recorder = Recorder("wound-wait")
    manager = recorder.manager
    manager.acquire("a", "t", 5.0)
    manager.acquire("k", "h", 3.0)
    # The first priority given sticks: a later, older-looking one is ignored.
    assert manager.acquire("k", "t", 1.0) == "waiting"
    assert recorder.wounded == []
    manager.finish("t")
    # A finished transaction is forgotten, so its next priority counts.
    assert manager.acquire("k", "t", 1.0) == "waiting"
    assert recorder.wounded == ["h"]


# ---------------------------------------------------------------------------
# Both policies.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_acquire_release_cycle(policy):
    manager = _manager(policy)
    assert manager.acquire("k", "tx1", 1) == "granted"
    assert manager.holder("k") == "tx1"
    assert manager.release("k", "tx1")
    assert manager.holder("k") is None and manager.held_by("tx1") == []
    assert manager.acquire("k", "tx2", 2) == "granted"  # free again


@pytest.mark.parametrize("policy", POLICIES)
def test_held_by_and_finish_follow_grant_order(policy):
    recorder = Recorder(policy)
    manager = recorder.manager
    manager.acquire("b", "tx1", 1)
    manager.acquire("a", "tx1", 1)
    assert manager.held_by("tx1") == ["b", "a"]
    manager.acquire("a", "tx2", 2)
    manager.acquire("b", "tx3", 3)
    manager.finish("tx1")
    assert recorder.grants == [("tx3", "b"), ("tx2", "a")]


@pytest.mark.parametrize("policy", POLICIES)
def test_waiter_re_acquire_keeps_one_queue_entry(policy):
    manager = _manager(policy)
    manager.acquire("k", "tx1", 1)
    assert manager.acquire("k", "tx2", 2) == "waiting"
    assert manager.acquire("k", "tx2", 2) == "waiting"
    assert manager.waiters("k") == ["tx2"]
    manager.release("k", "tx1")
    assert manager.holder("k") == "tx2" and manager.waiters("k") == []


@pytest.mark.parametrize("policy", POLICIES)
def test_reentrant_acquire_is_granted(policy):
    manager = _manager(policy)
    assert manager.acquire("k", "tx1", 1) == "granted"
    assert manager.acquire("k", "tx1", 1) == "granted"
    assert manager.held_by("tx1") == ["k"]


@pytest.mark.parametrize("policy", POLICIES)
def test_release_by_non_holder_is_noop(policy):
    recorder = Recorder(policy)
    manager = recorder.manager
    manager.acquire("k", "tx1", 1)
    manager.acquire("k", "tx2", 2)
    assert not manager.release("k", "tx2")
    assert not manager.release("free", "tx1")
    assert manager.holder("k") == "tx1" and manager.waiters("k") == ["tx2"]
    assert recorder.grants == []
    assert manager.release("k", "tx1")
    assert manager.holder("k") == "tx2" and manager.held_by("tx1") == []
