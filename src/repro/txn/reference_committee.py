"""The reference committee's 2PC state machine (Figure 6).

The reference committee ``R`` is a BFT committee that runs a simple state
machine for each distributed transaction:

* ``BeginTx`` moves the transaction into **Started** and initialises a
  counter ``c`` with the number of involved transaction committees;
* every quorum of ``PrepareOK`` responses decrements ``c`` (state
  **Preparing**) and the transaction moves to **Committed** once ``c = 0``;
* a quorum of ``PrepareNotOK`` moves it to **Aborted** immediately.

:class:`ReferenceCommitteeChaincode` is that state machine as a chaincode,
deployed on R's :class:`~repro.consensus.cluster.ConsensusCluster` exactly as
Section 6.3 describes: the per-transaction state lives on R's chain.  The
vote tally of the 2PC driver
(:class:`~repro.txn.coordinator.TwoPhaseCommitDriver`) is the only other
copy of the rule; the driver checks R's receipts against it.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict

from repro.errors import ChaincodeError
from repro.ledger.chaincode import Chaincode
from repro.ledger.state import StateStore


class CoordinatorState(str, Enum):
    """States of the reference committee's per-transaction state machine."""

    STARTED = "started"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class ReferenceCommitteeChaincode(Chaincode):
    """The reference committee's state machine, executed on R's chain.

    The per-transaction state lives in the blockchain state of the reference
    committee's shard (keys ``2pc_state_<tx>`` and ``2pc_pending_<tx>``), so
    the paper's observation holds: no separate coordinator log is needed for
    recovery because the coordinator's state *is* on the blockchain.
    """

    name = "refcommittee"

    @staticmethod
    def _state_key(tx_id: str) -> str:
        return f"2pc_state_{tx_id}"

    @staticmethod
    def _pending_key(tx_id: str) -> str:
        return f"2pc_pending_{tx_id}"

    @staticmethod
    def _responded_key(tx_id: str, shard_id: int) -> str:
        return f"2pc_resp_{tx_id}_{shard_id}"

    def invoke(self, state: StateStore, function: str, args: Dict[str, Any]) -> Any:
        tx_id = str(args.get("tx_id", ""))
        if not tx_id:
            raise ChaincodeError("missing tx_id")
        if function == "beginTx":
            return self._begin(state, tx_id, int(args.get("num_committees", 0)))
        if function == "prepareOK":
            return self._vote(state, tx_id, int(args.get("shard_id", -1)), ok=True)
        if function == "prepareNotOK":
            return self._vote(state, tx_id, int(args.get("shard_id", -1)), ok=False)
        if function == "status":
            return {"tx_id": tx_id, "state": state.get(self._state_key(tx_id))}
        raise ChaincodeError(f"refcommittee has no function {function!r}")

    def _begin(self, state: StateStore, tx_id: str, num_committees: int) -> Dict[str, Any]:
        if num_committees < 1:
            raise ChaincodeError("num_committees must be at least 1")
        if state.exists(self._state_key(tx_id)):
            return {"tx_id": tx_id, "state": state.get(self._state_key(tx_id))}
        state.put(self._state_key(tx_id), CoordinatorState.STARTED.value)
        state.put(self._pending_key(tx_id), num_committees)
        return {"tx_id": tx_id, "state": CoordinatorState.STARTED.value}

    def _vote(self, state: StateStore, tx_id: str, shard_id: int, ok: bool) -> Dict[str, Any]:
        current = state.get(self._state_key(tx_id))
        if current is None:
            raise ChaincodeError(f"BeginTx has not been executed for {tx_id!r}")
        if current == CoordinatorState.COMMITTED.value:
            return {"tx_id": tx_id, "state": current}
        if not ok:
            state.put(self._state_key(tx_id), CoordinatorState.ABORTED.value)
            return {"tx_id": tx_id, "state": CoordinatorState.ABORTED.value}
        if current == CoordinatorState.ABORTED.value:
            return {"tx_id": tx_id, "state": current}
        responded_key = self._responded_key(tx_id, shard_id)
        if state.exists(responded_key):
            return {"tx_id": tx_id, "state": current}
        state.put(responded_key, True)
        pending = int(state.get(self._pending_key(tx_id), 0)) - 1
        state.put(self._pending_key(tx_id), pending)
        new_state = CoordinatorState.COMMITTED if pending <= 0 else CoordinatorState.PREPARING
        state.put(self._state_key(tx_id), new_state.value)
        return {"tx_id": tx_id, "state": new_state.value}

    def keys_touched(self, function: str, args: Dict[str, Any]) -> tuple:
        tx_id = str(args.get("tx_id", ""))
        return (self._state_key(tx_id),)
