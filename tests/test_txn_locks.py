"""Property tests for the policy-aware lock manager (txn/locks.py).

Invariants locked down here, across all three conflict policies:

* a finished transaction holds no locks and sits in no queue;
* ``acquire_all`` is all-or-nothing under the abort policy, even when a
  conflict is injected mid-batch;
* wound-wait never deadlocks, even on randomly generated cycle-heavy key
  sets, and always makes progress once wounded victims are aborted;
* the wait policy detects waits-for cycles and refuses the acquire that
  would close one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ledger.state import StateStore
from repro.txn.locks import (
    LOCK_PREFIX,
    AcquireStatus,
    ConflictPolicy,
    DeadlockDetected,
    LockConflict,
    LockManager,
)

POLICIES = [ConflictPolicy.ABORT, ConflictPolicy.WAIT, ConflictPolicy.WOUND_WAIT]

KEYS = ["a", "b", "c", "d", "e", "f"]


def _manager(policy, **kwargs) -> LockManager:
    return LockManager(StateStore(), policy=policy, **kwargs)


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
        key = rng.choice(KEYS)
        try:
            manager.acquire(key, tx, now=0.0, timestamp=float(txs.index(tx)))
        except LockConflict:
            pass
    for tx in txs:
        manager.finish(tx)
        assert manager.held_by(tx) == []
        assert manager.waiting_keys(tx) == set()
        assert not manager.is_wounded(tx)
        assert manager.timestamp_of(tx) is None
        for key in KEYS:
            assert tx not in manager.waiters(key)
    # After finishing everyone, the table must be completely empty.
    for key in KEYS:
        assert manager.holder(key) is None
        assert manager.waiters(key) == []


# ---------------------------------------------------------------------------
# Invariant: abort-policy acquire_all is atomic under mid-batch conflicts.
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=120, deadline=None)
def test_acquire_all_is_all_or_nothing_under_injected_conflicts(seed, blocked):
    rng = random.Random(seed)
    manager = _manager(ConflictPolicy.ABORT)
    wanted = rng.sample(KEYS, rng.randrange(2, len(KEYS) + 1))
    # Inject a conflict mid-batch: another transaction owns one of the keys
    # (possibly not the first, so some acquires succeed before the failure).
    victim_key = wanted[min(blocked, len(wanted) - 1)]
    manager.acquire(victim_key, "other")
    before = dict(manager.state.items())
    with pytest.raises(LockConflict):
        manager.acquire_all(wanted, "tx1")
    assert manager.held_by("tx1") == []
    assert dict(manager.state.items()) == before  # nothing kept, nothing lost


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
    granted: dict = {}
    manager = _manager(
        ConflictPolicy.WOUND_WAIT,
        on_grant=lambda tx, key: granted.setdefault(tx, set()).add(key))
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

    wounded: set = set()
    finished: set = set()
    for tx in tx_ids:
        for key in wants[tx]:
            result = manager.acquire(key, tx, timestamp=ages[tx])
            for victim in result.wounded:
                wounded.add(victim)
        # The waits-for graph must never contain a cycle under wound-wait.
        assert not manager.graph.has_cycle()

    def holds_all(tx):
        return all(manager.holder(key) == tx for key in wants[tx])

    # Scheduler loop: abort wounded transactions, finish complete ones.
    for _ in range(10 * num_txs):
        progress = False
        for tx in tx_ids:
            if tx in finished:
                continue
            if tx in wounded or manager.is_wounded(tx):
                manager.finish(tx)     # abort: release everything it held
                finished.add(tx)
                progress = True
            elif holds_all(tx):
                manager.finish(tx)     # commit: release, granting waiters
                finished.add(tx)
                progress = True
        assert not manager.graph.has_cycle()
        if len(finished) == num_txs:
            break
        assert progress, "wound-wait scheduler stalled (deadlock?)"
    assert finished == set(tx_ids)
    for key in KEYS:
        assert manager.holder(key) is None


# ---------------------------------------------------------------------------
# Wait policy: FIFO grants, deadlock detection, wait timestamps.
# ---------------------------------------------------------------------------
def test_wait_policy_queues_fifo_and_grants_on_release():
    grants = []
    manager = _manager(ConflictPolicy.WAIT,
                       on_grant=lambda tx, key: grants.append((tx, key)))
    assert manager.acquire("k", "tx1").granted
    assert manager.acquire("k", "tx2", now=1.0).status is AcquireStatus.WAITING
    assert manager.acquire("k", "tx3", now=2.0).status is AcquireStatus.WAITING
    assert manager.waiters("k") == ["tx2", "tx3"]
    assert manager.waiting_since("tx2") == 1.0
    manager.release("k", "tx1")
    assert manager.holder("k") == "tx2"
    assert grants == [("tx2", "k")]
    manager.release("k", "tx2")
    assert manager.holder("k") == "tx3"
    assert grants == [("tx2", "k"), ("tx3", "k")]


def test_wait_policy_detects_two_party_deadlock():
    manager = _manager(ConflictPolicy.WAIT)
    manager.acquire("a", "tx1")
    manager.acquire("b", "tx2")
    assert manager.acquire("b", "tx1").status is AcquireStatus.WAITING
    with pytest.raises(DeadlockDetected) as excinfo:
        manager.acquire("a", "tx2")
    assert set(excinfo.value.cycle) >= {"tx1", "tx2"}
    # The refused acquire left no queue entry behind.
    assert "tx2" not in manager.waiters("a")


def test_wait_policy_detects_three_party_cycle():
    manager = _manager(ConflictPolicy.WAIT)
    manager.acquire("a", "tx1")
    manager.acquire("b", "tx2")
    manager.acquire("c", "tx3")
    assert not manager.acquire("b", "tx1").granted
    assert not manager.acquire("c", "tx2").granted
    with pytest.raises(DeadlockDetected):
        manager.acquire("a", "tx3")


def test_wait_policy_detection_can_be_disabled():
    """With detect_deadlocks=False the cycle persists (a scheduler timeout is
    then the only thing that breaks it) instead of being refused."""
    manager = LockManager(StateStore(), policy=ConflictPolicy.WAIT,
                          detect_deadlocks=False)
    manager.acquire("a", "tx1")
    manager.acquire("b", "tx2")
    assert manager.acquire("b", "tx1").status is AcquireStatus.WAITING
    assert manager.acquire("a", "tx2").status is AcquireStatus.WAITING  # no raise
    assert manager.graph.has_cycle()


def test_wait_policy_cancel_wait_withdraws_queued_acquires():
    manager = _manager(ConflictPolicy.WAIT)
    manager.acquire("k", "tx1")
    manager.acquire("k", "tx2")
    manager.cancel_wait("tx2")
    assert manager.waiters("k") == []
    manager.release("k", "tx1")
    assert manager.holder("k") is None  # nothing granted to the cancelled waiter


# ---------------------------------------------------------------------------
# Wound-wait specifics.
# ---------------------------------------------------------------------------
def test_wound_wait_older_wounds_younger_holder():
    manager = _manager(ConflictPolicy.WOUND_WAIT)
    assert manager.acquire("k", "young", timestamp=5.0).granted
    result = manager.acquire("k", "old", timestamp=1.0)
    assert result.status is AcquireStatus.WAITING
    assert result.wounded == ("young",)
    assert manager.is_wounded("young")
    # Aborting the victim hands the lock to the older transaction.
    granted = []
    manager.on_grant = lambda tx, key: granted.append((tx, key))
    manager.finish("young")
    assert manager.holder("k") == "old"
    assert granted == [("old", "k")]


def test_wound_wait_younger_requester_waits():
    manager = _manager(ConflictPolicy.WOUND_WAIT)
    manager.acquire("k", "old", timestamp=1.0)
    result = manager.acquire("k", "young", timestamp=5.0)
    assert result.status is AcquireStatus.WAITING
    assert result.wounded == ()
    assert not manager.is_wounded("old")
    assert manager.waiters("k") == ["young"]


def test_wound_wait_queue_is_priority_ordered():
    manager = _manager(ConflictPolicy.WOUND_WAIT)
    manager.acquire("k", "t1", timestamp=1.0)
    manager.acquire("k", "t9", timestamp=9.0)
    manager.acquire("k", "t5", timestamp=5.0)
    assert manager.waiters("k") == ["t5", "t9"]  # older first, not FIFO


def test_reentrant_acquire_is_granted_under_every_policy():
    for policy in POLICIES:
        manager = _manager(policy)
        assert manager.acquire("k", "tx1").granted
        assert manager.acquire("k", "tx1").granted


# ---------------------------------------------------------------------------
# Invariant: the per-transaction held-key index is the store scan it replaced.
# ---------------------------------------------------------------------------
def _held_by_scan(manager: LockManager, tx_id: str) -> list:
    """``held_by`` as it was: every lock tuple of the store, in dict order."""
    return [key[len(LOCK_PREFIX):] for key, value in manager.state.items()
            if key.startswith(LOCK_PREFIX) and value == tx_id]


_LOCK_OPS = st.lists(
    st.tuples(st.sampled_from(["acquire", "acquire_all", "release", "timeout",
                               "abort_wounded", "finish"]),
              st.integers(min_value=0, max_value=4),
              st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True)),
    max_size=60)


@given(st.sampled_from(POLICIES), _LOCK_OPS)
@settings(max_examples=200, deadline=None)
def test_held_key_index_equals_store_scan(policy, ops):
    """``finish`` releases in ``held_by`` order, and a release grants the next
    waiter — so the index must list exactly the scan's keys in the scan's
    order after any mix of acquires, releases, wounds, timeouts and finishes."""
    manager = _manager(policy)
    txs = [f"tx{i}" for i in range(5)]
    for step, (op, tx_index, keys) in enumerate(ops):
        tx = txs[tx_index]
        try:
            if op == "acquire":
                manager.acquire(keys[0], tx, now=float(step), timestamp=float(tx_index))
            elif op == "acquire_all":
                manager.acquire_all(keys, tx, now=float(step), timestamp=float(tx_index))
            elif op == "release":
                manager.release_all(keys, tx)
            elif op == "timeout":
                manager.cancel_wait(tx, keys[0])
            elif op == "abort_wounded":
                for victim in [victim for victim in txs if manager.is_wounded(victim)]:
                    expected = _held_by_scan(manager, victim)
                    assert manager.finish(victim) == expected
            else:
                expected = _held_by_scan(manager, tx)
                assert manager.finish(tx) == expected
        except LockConflict:
            pass
        for candidate in txs:
            assert manager.held_by(candidate) == _held_by_scan(manager, candidate)
