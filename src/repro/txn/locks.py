"""Two-phase-locking over blockchain state, with pluggable conflict policies.

The paper stores locks as ordinary blockchain state: locking account ``acc``
writes the tuple ``<"L_" + acc, holder>`` and releasing it deletes the tuple
(Section 6.3).  :class:`LockManager` wraps a :class:`~repro.ledger.state.StateStore`
with that convention so both the chaincodes and the protocol baselines share
one locking implementation.

What a conflict *means* is a pluggable :class:`ConflictPolicy`:

* ``abort`` — the seed-faithful default: a conflicting acquire raises
  :class:`LockConflict` immediately (no queues, no bookkeeping beyond the
  lock tuples themselves, byte-identical to the original behaviour);
* ``wait`` — conflicting acquires park in a per-key FIFO queue and are
  granted when the holder releases.  Because waiting transactions keep the
  locks they already hold, cycles are possible; every new wait runs a
  waits-for-graph cycle check and the requester that would close a cycle is
  refused with :class:`DeadlockDetected`.  Waiters also record *when* they
  started waiting so a scheduler can expire them (timeout aborts).
* ``wound-wait`` — priority scheduling by transaction timestamp: an *older*
  requester wounds (marks for abort) a younger holder and queues first in
  line for the lock; a *younger* requester waits behind the older holder.
  Because waits only ever go from younger to older transactions, the
  waits-for graph is acyclic by construction and wound-wait can never
  deadlock.

The manager itself never aborts a transaction — it reports wounded victims
and deadlocks to the caller, which owns the transaction lifecycle.  That
caller is :class:`LockAdmissionTable`: the one admission schedule (request a
PrepareTx's key set, park it, grant it, expire it) that every engine puts in
front of its shards under the queueing policies.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.errors import ReproError
from repro.ledger.state import StateStore
from repro.runtime.base import Runtime

#: Prefix under which lock tuples are stored in the blockchain state.
LOCK_PREFIX = "L_"


class LockConflict(ReproError):
    """Raised when a lock is already held by a different transaction."""


class DeadlockDetected(LockConflict):
    """Raised when a wait would close a cycle in the waits-for graph.

    ``cycle`` lists the transaction ids on the cycle, starting and ending
    with the requester that was refused.
    """

    def __init__(self, cycle: List[str]) -> None:
        super().__init__(f"waits-for cycle {' -> '.join(cycle)}")
        self.cycle = cycle


class ConflictPolicy(str, Enum):
    """How a :class:`LockManager` resolves a conflicting acquire."""

    ABORT = "abort"
    WAIT = "wait"
    WOUND_WAIT = "wound-wait"


class AcquireStatus(str, Enum):
    """Outcome of a single :meth:`LockManager.acquire` call."""

    GRANTED = "granted"
    WAITING = "waiting"


@dataclass
class AcquireResult:
    """What happened to an acquire: its status plus any wounded victims."""

    status: AcquireStatus
    #: Transactions marked for abort by a wound-wait acquire (the caller is
    #: responsible for actually aborting them and releasing their locks).
    wounded: Tuple[str, ...] = ()

    @property
    def granted(self) -> bool:
        return self.status is AcquireStatus.GRANTED


@dataclass
class _Waiter:
    """One queued acquire: who waits, with what priority, since when."""

    tx_id: str
    timestamp: object
    since: float


class WaitsForGraph:
    """Waits-for edges derived from a lock table's queues (cycle detection).

    The graph is not stored — it is recomputed from the queue/holder state on
    demand, so it can never drift out of sync with the lock table.  Edges run
    from each waiter to the current *holder* of every key it is queued on
    (the textbook waits-for graph).  Queued-ahead waiters are not edges:
    under FIFO grants they always make progress once the holder chain does,
    so a deadlock necessarily contains a holder-edge cycle — and holder-only
    edges keep each check O(waiting keys) instead of O(queue length).
    """

    def __init__(self, manager: "LockManager") -> None:
        self._manager = manager

    def blockers_of(self, tx_id: str) -> Set[str]:
        """Transactions that must release or give way before ``tx_id`` runs.

        Wounded transactions never block: they are already marked for abort,
        so an edge onto one is a wait that is guaranteed to clear (this is
        what keeps wound-wait's graph acyclic even while a wound is pending).
        """
        blockers: Set[str] = set()
        for key in self._manager.waiting_keys(tx_id):
            holder = self._manager.holder(key)
            if (holder is not None and holder != tx_id
                    and not self._manager.is_wounded(holder)):
                blockers.add(holder)
        return blockers

    def find_cycle(self, start: str) -> Optional[List[str]]:
        """A waits-for cycle through ``start`` (as a tx-id path), or None."""
        path: List[str] = []
        on_path: Set[str] = set()
        visited: Set[str] = set()

        def visit(tx_id: str) -> Optional[List[str]]:
            path.append(tx_id)
            on_path.add(tx_id)
            for blocker in sorted(self.blockers_of(tx_id)):
                if blocker == start:
                    return path + [start]
                if blocker in on_path or blocker in visited:
                    continue
                cycle = visit(blocker)
                if cycle is not None:
                    return cycle
            on_path.discard(tx_id)
            visited.add(tx_id)
            path.pop()
            return None

        return visit(start)

    def has_cycle(self) -> bool:
        """Whether any waits-for cycle exists among current waiters."""
        return any(
            self.find_cycle(tx_id) is not None
            for tx_id in self._manager.waiting_transactions()
        )


class LockManager:
    """2PL lock table stored in a shard's state store.

    Parameters
    ----------
    state:
        Backing store for the lock tuples (``L_<key> -> holder``).
    policy:
        Conflict resolution policy (default ``abort``, the seed behaviour).
    on_grant:
        Callback ``(tx_id, key)`` fired whenever a *queued* waiter is granted
        a lock during a release.  Immediate grants do not fire it — the
        caller already knows those succeeded.
    detect_deadlocks:
        Under ``wait``, whether a new wait runs the waits-for cycle check
        (and is refused with :class:`DeadlockDetected` when it would close a
        cycle).  Off means cycles persist until something external — e.g. a
        scheduler's wait timeout — breaks them.
    """

    def __init__(self, state: StateStore,
                 policy: ConflictPolicy | str = ConflictPolicy.ABORT,
                 on_grant: Optional[Callable[[str, str], None]] = None,
                 detect_deadlocks: bool = True) -> None:
        self.state = state
        self.policy = ConflictPolicy(policy)
        self.on_grant = on_grant
        self.detect_deadlocks = detect_deadlocks
        self.graph = WaitsForGraph(self)
        self._queues: Dict[str, Deque[_Waiter]] = {}
        self._waiting: Dict[str, Set[str]] = {}        # tx_id -> keys waited on
        self._wait_since: Dict[str, float] = {}        # tx_id -> earliest wait
        self._wounded: Set[str] = set()
        #: tx_id -> keys it holds, in grant order — the order in which the
        #: store's dict yields its lock tuples (a tuple exists exactly while
        #: held, and this manager is the only writer of its ``L_`` tuples).
        self._held: Dict[str, Dict[str, None]] = {}
        self._timestamps: Dict[str, object] = {}
        self._ts_counter = itertools.count()

    # -------------------------------------------------------------- inspection
    def lock_key(self, key: str) -> str:
        return f"{LOCK_PREFIX}{key}"

    def holder(self, key: str) -> Optional[str]:
        """The transaction currently holding the lock on ``key`` (None if free)."""
        return self.state.get(self.lock_key(key))

    def is_locked(self, key: str) -> bool:
        return self.holder(key) is not None

    def waiters(self, key: str) -> List[str]:
        """Transactions queued on ``key``, in grant order."""
        return [waiter.tx_id for waiter in self._queues.get(key, ())]

    def waiting_keys(self, tx_id: str) -> Set[str]:
        """Keys ``tx_id`` is currently queued on."""
        return set(self._waiting.get(tx_id, ()))

    def waiting_transactions(self) -> List[str]:
        """Every transaction with at least one queued acquire."""
        return sorted(self._waiting)

    def waiting_since(self, tx_id: str) -> Optional[float]:
        """When ``tx_id`` first started waiting (None if not waiting)."""
        return self._wait_since.get(tx_id)

    def is_wounded(self, tx_id: str) -> bool:
        return tx_id in self._wounded

    def timestamp_of(self, tx_id: str):
        return self._timestamps.get(tx_id)

    def held_by(self, tx_id: str) -> List[str]:
        """All keys currently locked by ``tx_id``, in grant order."""
        return list(self._held.get(tx_id, ()))

    # ----------------------------------------------------------------- acquire
    def register(self, tx_id: str, timestamp=None):
        """Assign (or look up) a transaction's wound-wait priority timestamp.

        Smaller timestamps are *older* (higher priority); any mutually
        comparable values work (floats, tuples).  Unregistered transactions
        are assigned arrival order on first acquire.
        """
        if timestamp is not None:
            self._timestamps.setdefault(tx_id, timestamp)
        elif tx_id not in self._timestamps:
            self._timestamps[tx_id] = float(next(self._ts_counter))
        return self._timestamps[tx_id]

    def acquire(self, key: str, tx_id: str, now: float = 0.0,
                timestamp=None) -> AcquireResult:
        """Acquire the lock on ``key`` for ``tx_id`` (re-entrant for the same holder).

        Under ``abort`` a conflict raises :class:`LockConflict` (seed
        behaviour).  Under ``wait``/``wound-wait`` a conflict parks the
        requester (returning a ``WAITING`` result) — or raises
        :class:`DeadlockDetected` when the wait would close a cycle.
        """
        if self.policy is not ConflictPolicy.ABORT:
            # Register the priority up front: a conflict-free holder must
            # already carry its timestamp when a later requester compares
            # ages against it.
            self.register(tx_id, timestamp)
        current = self.holder(key)
        if current is None and not self._queues.get(key):
            self._grant(key, tx_id)
            return AcquireResult(AcquireStatus.GRANTED)
        if current == tx_id:
            return AcquireResult(AcquireStatus.GRANTED)
        if self.policy is ConflictPolicy.ABORT:
            raise LockConflict(f"key {key!r} is locked by {current!r}")
        if self.policy is ConflictPolicy.WAIT:
            return self._wait(key, tx_id, now)
        return self._wound_wait(key, tx_id, now, timestamp)

    def _grant(self, key: str, tx_id: str) -> None:
        self.state.put(self.lock_key(key), tx_id)
        self._held.setdefault(tx_id, {})[key] = None

    def _enqueue(self, key: str, tx_id: str, now: float, timestamp,
                 by_priority: bool) -> None:
        queue = self._queues.setdefault(key, deque())
        waiter = _Waiter(tx_id=tx_id, timestamp=timestamp, since=now)
        if by_priority:
            # Wound-wait grants in priority (age) order: insert before the
            # first strictly-younger waiter, keeping FIFO among equals.
            index = len(queue)
            for position, other in enumerate(queue):
                if other.timestamp > timestamp:
                    index = position
                    break
            queue.insert(index, waiter)
        else:
            queue.append(waiter)
        self._waiting.setdefault(tx_id, set()).add(key)
        self._wait_since.setdefault(tx_id, now)

    def _dequeue(self, key: str, tx_id: str) -> None:
        queue = self._queues.get(key)
        if queue is not None:
            remaining = deque(w for w in queue if w.tx_id != tx_id)
            if remaining:
                self._queues[key] = remaining
            else:
                self._queues.pop(key, None)
        keys = self._waiting.get(tx_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                self._waiting.pop(tx_id, None)
                self._wait_since.pop(tx_id, None)

    def _wait(self, key: str, tx_id: str, now: float) -> AcquireResult:
        if tx_id in (w.tx_id for w in self._queues.get(key, ())):
            return AcquireResult(AcquireStatus.WAITING)
        timestamp = self.register(tx_id)
        self._enqueue(key, tx_id, now, timestamp, by_priority=False)
        if self.detect_deadlocks:
            cycle = self.graph.find_cycle(tx_id)
            if cycle is not None:
                self._dequeue(key, tx_id)
                raise DeadlockDetected(cycle)
        return AcquireResult(AcquireStatus.WAITING)

    def _wound_wait(self, key: str, tx_id: str, now: float,
                    timestamp) -> AcquireResult:
        mine = self.register(tx_id, timestamp)
        wounded: List[str] = []
        holder = self.holder(key)
        if holder is not None and holder != tx_id:
            holder_ts = self.register(holder)
            if mine < holder_ts and holder not in self._wounded:
                # Older requester wounds the younger holder; the lock itself
                # is handed over when the caller aborts the victim.
                self._wounded.add(holder)
                wounded.append(holder)
        if tx_id not in (w.tx_id for w in self._queues.get(key, ())):
            self._enqueue(key, tx_id, now, mine, by_priority=True)
        return AcquireResult(AcquireStatus.WAITING, wounded=tuple(wounded))

    def acquire_all(self, keys: Iterable[str], tx_id: str, now: float = 0.0,
                    timestamp=None) -> List[str]:
        """Acquire all locks or none under ``abort`` (releases what it took on
        conflict, seed behaviour); under the queueing policies, grab what is
        free and queue on the rest, returning the keys granted so far."""
        acquired: List[str] = []
        try:
            for key in keys:
                result = self.acquire(key, tx_id, now=now, timestamp=timestamp)
                if result.granted:
                    acquired.append(key)
        except LockConflict:
            if self.policy is ConflictPolicy.ABORT:
                for key in acquired:
                    self.release(key, tx_id)
            raise
        return acquired

    # ----------------------------------------------------------------- release
    def release(self, key: str, tx_id: str) -> bool:
        """Release the lock on ``key`` if held by ``tx_id``; returns True if released.

        Releasing hands the lock to the next eligible queued waiter (skipping
        wounded transactions) and fires :attr:`on_grant` for it.
        """
        if self.holder(key) == tx_id:
            self.state.delete(self.lock_key(key))
            held = self._held[tx_id]
            del held[key]
            if not held:
                del self._held[tx_id]
            self._grant_next(key)
            return True
        return False

    def _grant_next(self, key: str) -> None:
        queue = self._queues.get(key)
        while queue:
            waiter = queue[0]
            if waiter.tx_id in self._wounded:
                self._dequeue(key, waiter.tx_id)
                queue = self._queues.get(key)
                continue
            self._dequeue(key, waiter.tx_id)
            self._grant(key, waiter.tx_id)
            if self.on_grant is not None:
                self.on_grant(waiter.tx_id, key)
            return

    def release_all(self, keys: Iterable[str], tx_id: str) -> int:
        return sum(1 for key in keys if self.release(key, tx_id))

    def cancel_wait(self, tx_id: str, key: Optional[str] = None) -> None:
        """Withdraw queued acquires (all keys, or just ``key``) for ``tx_id``."""
        keys = [key] if key is not None else list(self.waiting_keys(tx_id))
        for waited in keys:
            self._dequeue(waited, tx_id)

    def finish(self, tx_id: str) -> List[str]:
        """A transaction is done (committed or aborted): drop every trace of it.

        Releases all held locks (granting waiters), withdraws queued
        acquires, and clears wound/priority bookkeeping.  Returns the keys
        that were released.
        """
        self.cancel_wait(tx_id)
        released = [key for key in self.held_by(tx_id) if self.release(key, tx_id)]
        self._wounded.discard(tx_id)
        self._timestamps.pop(tx_id, None)
        return released


#: Why a PrepareTx whose admission found a waits-for cycle votes NotOK.
DEADLOCK_REASON = "deadlock detected in the waits-for graph"


@dataclass
class _ParkedRequest:
    """One slot's request waiting for locks: its host payload and missing keys."""

    payload: Any
    outstanding: Set[str]


class LockAdmissionTable:
    """Admission schedule in front of the shards' on-chain lock tables.

    Under the ``wait`` / ``wound-wait`` policies a PrepareTx only reaches its
    committee once an admission :class:`LockManager` holds every lock the
    prepare will take there.  A *slot* is one such request — transaction
    ``tx_id``'s prepare at shard ``shard_id`` — and :meth:`admit` either
    grants it at once, parks it until ``on_admitted(tx_id, shard_id)`` fires
    (the host then takes it with :meth:`claim`), or refuses it: on a
    waits-for cycle by returning ``"deadlock"`` (partial grants stay held
    until :meth:`finish`), after ``wait_timeout`` parked through
    ``on_refused(tx_id, shard_id, payload, reason)``.  Wound-wait victims
    are reported through ``on_wound(victim_tx_id)``.  The host owns what
    those outcomes mean (relay, vote, abort); the table owns the schedule
    and its three counters.

    Hosts: every ``HomeCoordinator`` (and every live shard node) keeps one
    for the prepares arriving at its own shard.
    """

    def __init__(self, runtime: Runtime, policy: ConflictPolicy | str,
                 wait_timeout: float,
                 on_admitted: Callable[[str, int], None],
                 on_refused: Callable[[str, int, Any, str], None],
                 on_wound: Callable[[str], None]) -> None:
        self.runtime = runtime
        self.wait_timeout = wait_timeout
        self.manager = LockManager(StateStore(), policy=policy,
                                   on_grant=self._on_grant)
        self._on_admitted = on_admitted
        self._on_refused = on_refused
        self._on_wound = on_wound
        #: tx -> shard -> keys requested (held or queued) until :meth:`finish`.
        self._keys: Dict[str, Dict[int, List[str]]] = {}
        #: tx -> shard -> parked request, in park order: a grant touches only
        #: its own transaction's slots and dispatches them in that order.
        self._parked: Dict[str, Dict[int, _ParkedRequest]] = {}
        self.wounded_transactions = 0
        self.deadlocks_detected = 0
        self.wait_timeouts = 0

    def admit(self, tx_id: str, shard_id: int, keys: Sequence[str],
              priority: Tuple, payload: Any) -> str:
        """Try to admit a slot: ``"granted"``, ``"waiting"`` or ``"deadlock"``.

        ``priority`` is the wound-wait age (smaller = older).  Re-admitting
        a parked slot is a no-op (``"waiting"``); otherwise the keys are
        (re-)acquired re-entrantly.
        """
        if shard_id in self._parked.get(tx_id, ()):
            return "waiting"
        keys = list(keys)
        self._keys.setdefault(tx_id, {})[shard_id] = keys
        now = self.runtime.now
        outstanding: Set[str] = set()
        wounded: List[str] = []
        try:
            for key in keys:
                result = self.manager.acquire(key, tx_id, now=now,
                                              timestamp=priority)
                wounded.extend(result.wounded)
                if not result.granted:
                    outstanding.add(key)
        except DeadlockDetected:
            self.deadlocks_detected += 1
            self.manager.cancel_wait(tx_id)
            self._wound(wounded)
            return "deadlock"
        self._wound(wounded)
        if not outstanding:
            return "granted"
        self._parked.setdefault(tx_id, {})[shard_id] = _ParkedRequest(
            payload, outstanding)
        self.runtime.schedule(self.wait_timeout, self._expire, tx_id, shard_id)
        return "waiting"

    def _wound(self, victims: List[str]) -> None:
        for victim in victims:
            self.wounded_transactions += 1
            self._on_wound(victim)

    def _on_grant(self, tx_id: str, key: str) -> None:
        for shard_id, parked in list(self._parked.get(tx_id, {}).items()):
            if key in parked.outstanding:
                parked.outstanding.discard(key)
                if not parked.outstanding:
                    self._on_admitted(tx_id, shard_id)

    def _expire(self, tx_id: str, shard_id: int) -> None:
        parked = self._parked.get(tx_id, {}).get(shard_id)
        if parked is None or not parked.outstanding:
            return  # admitted, claimed or cancelled meanwhile
        self.cancel(tx_id, shard_id)
        self.wait_timeouts += 1
        self._on_refused(tx_id, shard_id, parked.payload,
                         f"lock wait timed out after {self.wait_timeout}s")

    def waiting_shards(self, tx_id: str) -> List[int]:
        """Shards whose PrepareTx for ``tx_id`` is parked: waiting for locks,
        or admitted and not yet claimed."""
        return list(self._parked.get(tx_id, ()))

    def _unpark(self, tx_id: str, shard_id: int) -> Optional[_ParkedRequest]:
        slots = self._parked.get(tx_id)
        if not slots or shard_id not in slots:
            return None
        parked = slots.pop(shard_id)
        if not slots:
            del self._parked[tx_id]
        return parked

    def claim(self, tx_id: str, shard_id: int) -> Any:
        """Take an admitted slot out of the table: its payload, or None when
        it was cancelled (or the transaction finished) since the grant."""
        parked = self._unpark(tx_id, shard_id)
        return parked.payload if parked is not None else None

    def cancel(self, tx_id: str, shard_id: int) -> None:
        """Unpark a slot, withdrawing the waits it still has queued."""
        parked = self._unpark(tx_id, shard_id)
        if parked is not None:
            for key in parked.outstanding:
                self.manager.cancel_wait(tx_id, key)

    def release_shard(self, tx_id: str, shard_id: int) -> None:
        """The shard executed the decision: hand its locks to the next waiters."""
        for key in self._keys.get(tx_id, {}).get(shard_id, ()):
            self.manager.release(key, tx_id)

    def finish(self, tx_id: str) -> None:
        """The transaction is done everywhere: drop every trace of it."""
        self._parked.pop(tx_id, None)
        self.manager.finish(tx_id)
        self._keys.pop(tx_id, None)
