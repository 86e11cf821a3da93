"""Lock admission in front of a shard: 2PL schedules for the queueing policies.

The paper's locks are blockchain state the chaincodes write themselves
(``L_<key>`` tuples, Section 6.3); under the default ``abort`` policy that
on-chain check is all there is.  The Appendix-B contention study adds two
policies that admit each PrepareTx against an in-memory table first:

* ``wait`` — conflicting acquires park in a per-key FIFO queue.  Waiters
  keep the locks they hold, so cycles are possible: the acquire whose wait
  would close a waits-for cycle is refused.
* ``wound-wait`` — an *older* requester wounds (marks for abort) a younger
  holder and queues ahead of younger waiters; a *younger* one waits.  Waits
  only go from younger to older, so wound-wait never deadlocks.

:class:`LockManager` is one shard's table and reports grants and wounds
through callbacks; its one caller is :class:`LockAdmissionTable`, the
schedule (park, grant, expire) each ``HomeCoordinator`` runs for its shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.runtime.base import Runtime

#: Why a PrepareTx whose admission found a waits-for cycle votes NotOK.
DEADLOCK_REASON = "deadlock detected in the waits-for graph"


class LockManager:
    """One shard's in-memory lock holders and wait queues.

    Parameters
    ----------
    policy:
        ``"wait"`` (FIFO queues, cycle refusal) or ``"wound-wait"``
        (priority queues, older requesters wound younger holders).
    on_grant:
        Callback ``(tx_id, key)`` fired whenever a *queued* waiter is granted
        a lock during a release.  Immediate grants do not fire it — the
        caller already knows those succeeded.
    on_wound:
        Callback ``(victim_tx_id)`` fired when a wound-wait acquire marks a
        younger holder for abort; the caller aborts it (and :meth:`finish`
        then hands its locks on).  Each holder is wounded at most once.
    """

    def __init__(self, policy: str, on_grant: Callable[[str, str], None],
                 on_wound: Callable[[str], None]) -> None:
        if policy not in ("wait", "wound-wait"):
            raise ConfigurationError(
                f"a lock table schedules 'wait' or 'wound-wait', not {policy!r}")
        self.wound_wait = policy == "wound-wait"
        self.on_grant = on_grant
        self.on_wound = on_wound
        self._holders: Dict[str, str] = {}          # key -> holder
        self._queues: Dict[str, List[str]] = {}     # key -> waiters, grant order
        self._waiting: Dict[str, Set[str]] = {}     # tx_id -> keys queued on
        #: tx_id -> keys it holds, in grant order (``finish`` releases in it).
        self._held: Dict[str, Dict[str, None]] = {}
        self._priority: Dict[str, Any] = {}
        self._wounded: Set[str] = set()

    def holder(self, key: str) -> Optional[str]:
        """The transaction currently holding the lock on ``key`` (None if free)."""
        return self._holders.get(key)

    # detlint: disable=DEAD001 -- oracle: lock tests check grant order against it
    def waiters(self, key: str) -> List[str]:
        """Transactions queued on ``key``, in grant order."""
        return list(self._queues.get(key, ()))

    def held_by(self, tx_id: str) -> List[str]:
        """All keys currently locked by ``tx_id``, in grant order."""
        return list(self._held.get(tx_id, ()))

    def acquire(self, key: str, tx_id: str, priority: Any) -> str:
        """Take ``key`` for ``tx_id`` (re-entrant) or queue for it.

        ``priority`` is the transaction's age (smaller = older; the first one
        given sticks until :meth:`finish`).  Returns ``"granted"``,
        ``"waiting"`` or — under ``wait``, when the new wait would close a
        waits-for cycle — ``"deadlock"``, leaving no queue entry behind.
        """
        mine = self._priority.setdefault(tx_id, priority)
        holder = self._holders.get(key)
        queue = self._queues.get(key, ())
        if holder is None and not queue:
            self._holders[key] = tx_id
            self._held.setdefault(tx_id, {})[key] = None
            return "granted"
        if holder == tx_id:
            return "granted"
        if self.wound_wait:
            if (holder is not None and mine < self._priority[holder]
                    and holder not in self._wounded):
                # The lock itself is handed over when the caller aborts the
                # victim.
                self._wounded.add(holder)
                self.on_wound(holder)
            if tx_id not in queue:
                self._enqueue(key, tx_id, mine)
            return "waiting"
        if tx_id in queue:
            return "waiting"
        self._enqueue(key, tx_id, mine)
        if self._closes_cycle(tx_id):
            self._dequeue(key, tx_id)
            return "deadlock"
        return "waiting"

    def _enqueue(self, key: str, tx_id: str, mine: Any) -> None:
        queue = self._queues.setdefault(key, [])
        index = len(queue)
        if self.wound_wait:
            # Grant in age order: before the first strictly-younger waiter,
            # FIFO among equals.
            priority = self._priority
            index = next((position for position, other in enumerate(queue)
                          if priority[other] > mine), index)
        queue.insert(index, tx_id)
        self._waiting.setdefault(tx_id, set()).add(key)

    def _dequeue(self, key: str, tx_id: str) -> None:
        queue = self._queues.get(key)
        if queue is not None and tx_id in queue:
            queue.remove(tx_id)
            if not queue:
                del self._queues[key]
        keys = self._waiting.get(tx_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._waiting[tx_id]

    def _closes_cycle(self, tx_id: str) -> bool:
        """Whether ``tx_id`` now waits, through a chain of holders, on itself.

        Edges run from a waiter to the holder of each key it is queued on.
        Queued-ahead waiters are not edges: under FIFO grants they make
        progress once the holder chain does, so a deadlock always contains a
        holder-edge cycle.
        """
        seen: Set[str] = set()
        stack = [tx_id]
        while stack:
            for key in self._waiting.get(stack.pop(), ()):
                holder = self._holders.get(key)
                if holder == tx_id:
                    return True
                if holder is not None and holder not in seen:
                    seen.add(holder)
                    stack.append(holder)
        return False

    def release(self, key: str, tx_id: str) -> bool:
        """Release ``key`` if ``tx_id`` holds it, granting the next live waiter
        (wounded ones are skipped) and firing :attr:`on_grant` for it."""
        if self._holders.get(key) != tx_id:
            return False
        del self._holders[key]
        held = self._held[tx_id]
        del held[key]
        if not held:
            del self._held[tx_id]
        queue = self._queues.get(key)
        while queue:
            waiter = queue[0]
            self._dequeue(key, waiter)
            if waiter not in self._wounded:
                self._holders[key] = waiter
                self._held.setdefault(waiter, {})[key] = None
                self.on_grant(waiter, key)
                break
        return True

    def cancel_wait(self, tx_id: str) -> None:
        """Withdraw every queued acquire of ``tx_id``."""
        for key in list(self._waiting.get(tx_id, ())):
            self._dequeue(key, tx_id)

    def finish(self, tx_id: str) -> None:
        """A transaction is done (committed or aborted): drop every trace of it.

        Withdraws its queued acquires, releases its locks in grant order
        (granting waiters) and forgets its priority and wound.
        """
        self.cancel_wait(tx_id)
        for key in self.held_by(tx_id):
            self.release(key, tx_id)
        self._wounded.discard(tx_id)
        self._priority.pop(tx_id, None)


@dataclass
class _ParkedRequest:
    """A request waiting for locks: its host payload and missing keys."""

    payload: Any
    outstanding: Set[str]


class LockAdmissionTable:
    """Admission schedule in front of one shard under ``wait`` / ``wound-wait``.

    A PrepareTx reaches the shard's committee only once the table's
    :class:`LockManager` holds every lock the prepare will take there.  Each
    transaction has at most one request here, and :meth:`admit` either
    grants it at once, parks it until ``on_admitted(tx_id)`` fires (the host
    then takes it with :meth:`claim`), or refuses it: on a waits-for cycle
    by returning ``"deadlock"`` (partial grants stay held until
    :meth:`finish`), after ``wait_timeout`` parked through
    ``on_refused(tx_id, payload, reason)``.  Wound-wait victims are reported
    through ``on_wound(victim_tx_id)``.  The host owns what those outcomes
    mean (relay, vote, abort); the table owns the schedule and its three
    counters.

    Host: every ``HomeCoordinator`` keeps one for the prepares arriving at
    its own shard (the ``abort`` policy has none).
    """

    def __init__(self, runtime: Runtime, policy: str, wait_timeout: float,
                 on_admitted: Callable[[str], None],
                 on_refused: Callable[[str, Any, str], None],
                 on_wound: Callable[[str], None]) -> None:
        self.runtime = runtime
        self.wait_timeout = wait_timeout
        self.manager = LockManager(policy, on_grant=self._on_grant,
                                   on_wound=self._wound)
        self._on_admitted = on_admitted
        self._on_refused = on_refused
        self._on_wound = on_wound
        self._parked: Dict[str, _ParkedRequest] = {}
        self.wounded_transactions = 0
        self.deadlocks_detected = 0
        self.wait_timeouts = 0

    def admit(self, tx_id: str, keys: Sequence[str], priority: Any,
              payload: Any) -> str:
        """Try to admit a request: ``"granted"``, ``"waiting"`` or ``"deadlock"``.

        ``priority`` is the wound-wait age (smaller = older).  Re-admitting
        a parked request is a no-op (``"waiting"``); otherwise the keys are
        (re-)acquired re-entrantly.
        """
        if tx_id in self._parked:
            return "waiting"
        outstanding: Set[str] = set()
        for key in keys:
            status = self.manager.acquire(key, tx_id, priority)
            if status == "deadlock":
                self.deadlocks_detected += 1
                self.manager.cancel_wait(tx_id)
                return "deadlock"
            if status == "waiting":
                outstanding.add(key)
        if not outstanding:
            return "granted"
        self._parked[tx_id] = _ParkedRequest(payload, outstanding)
        self.runtime.schedule(self.wait_timeout, self._expire, tx_id)
        return "waiting"

    def _wound(self, victim: str) -> None:
        self.wounded_transactions += 1
        self._on_wound(victim)

    def _on_grant(self, tx_id: str, key: str) -> None:
        parked = self._parked.get(tx_id)
        if parked is not None and key in parked.outstanding:
            parked.outstanding.discard(key)
            if not parked.outstanding:
                self._on_admitted(tx_id)

    def _expire(self, tx_id: str) -> None:
        parked = self._parked.get(tx_id)
        if parked is None or not parked.outstanding:
            return  # admitted, claimed or cancelled meanwhile
        self.cancel(tx_id)
        self.wait_timeouts += 1
        self._on_refused(tx_id, parked.payload,
                         f"lock wait timed out after {self.wait_timeout}s")

    def claim(self, tx_id: str) -> Any:
        """Take an admitted request out of the table: its payload, or None
        when it was cancelled (or the transaction finished) since the grant."""
        parked = self._parked.pop(tx_id, None)
        return parked.payload if parked is not None else None

    def cancel(self, tx_id: str) -> None:
        """Unpark a request, withdrawing the waits it still has queued."""
        if self._parked.pop(tx_id, None) is not None:
            self.manager.cancel_wait(tx_id)

    def finish(self, tx_id: str) -> None:
        """The transaction is done: release its locks and drop every trace of it."""
        self._parked.pop(tx_id, None)
        self.manager.finish(tx_id)
