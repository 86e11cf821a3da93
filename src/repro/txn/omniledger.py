"""OmniLedger's client-driven cross-shard commit (Figure 3b, Section 6.1).

OmniLedger achieves atomicity for UTXO transactions by making the **client**
the coordinator of a lock/unlock protocol: the client first obtains proofs
from the input shards that the inputs are locked (marked spent), then
instructs the output shard to commit.  If the client crashes — or maliciously
pretends to crash — after the inputs are locked, nothing ever unlocks them:
the protocol blocks indefinitely and the owner's funds stay frozen.  That
liveness failure is exactly what our reference-committee protocol removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence

from repro.errors import CoordinatorFailureError, InvalidTransactionError
from repro.txn.utxo import UTXO, UTXOSet, UTXOTransaction


class OmniLedgerTxState(str, Enum):
    """Client-side view of a cross-shard UTXO transaction."""

    PENDING = "pending"
    INPUTS_LOCKED = "inputs-locked"
    COMMITTED = "committed"
    ABORTED = "aborted"
    BLOCKED = "blocked"


@dataclass
class LockProof:
    """Proof-of-acceptance returned by an input shard after locking an input."""

    shard_id: int
    utxo_id: str
    tx_id: str


class OmniLedgerShard:
    """One shard of the OmniLedger baseline: holds a UTXO partition."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.utxos = UTXOSet(shard_id)
        self.locked: Dict[str, str] = {}  # utxo id -> tx id holding the lock

    def fund(self, utxo: UTXO) -> None:
        self.utxos.add(utxo)

    def lock_input(self, utxo_id: str, tx_id: str) -> LockProof:
        """Mark an input as spent on behalf of ``tx_id`` and return the proof."""
        if utxo_id in self.locked:
            holder = self.locked[utxo_id]
            if holder != tx_id:
                raise InvalidTransactionError(
                    f"input {utxo_id!r} is already locked by {holder!r}"
                )
            return LockProof(self.shard_id, utxo_id, tx_id)
        self.utxos.spend(utxo_id, tx_id)
        self.locked[utxo_id] = tx_id
        return LockProof(self.shard_id, utxo_id, tx_id)

    def unlock_input(self, utxo: UTXO, tx_id: str) -> None:
        """Roll back a lock (requires the client to come back and ask)."""
        if self.locked.get(utxo.utxo_id) == tx_id:
            del self.locked[utxo.utxo_id]
            self.utxos.unspend(utxo)

    def commit_outputs(self, outputs: Sequence[UTXO], proofs: Sequence[LockProof],
                       expected_inputs: int) -> None:
        """Create the outputs once proofs for every input are presented."""
        if len(proofs) < expected_inputs:
            raise InvalidTransactionError("missing lock proofs for some inputs")
        for output in outputs:
            self.utxos.add(output)


@dataclass
class OmniLedgerClientProtocol:
    """The client-driven coordinator.

    ``crash_after_lock`` models the malicious (or simply failed) client of
    Section 6.1: it obtains the input locks and then disappears, leaving the
    inputs frozen forever.
    """

    shards: Dict[int, OmniLedgerShard]
    crash_after_lock: bool = False
    transactions: Dict[str, OmniLedgerTxState] = field(default_factory=dict)

    def execute(self, tx: UTXOTransaction, input_shards: Dict[str, int],
                output_shard: int) -> OmniLedgerTxState:
        """Run the lock/unlock protocol for ``tx``.

        ``input_shards`` maps each input UTXO id to the shard that owns it.
        """
        state = OmniLedgerTxState.PENDING
        proofs: List[LockProof] = []
        locked: List[tuple[int, str]] = []
        # Phase 1: lock every input at its shard.
        try:
            for utxo_id in tx.inputs:
                shard = self.shards[input_shards[utxo_id]]
                proofs.append(shard.lock_input(utxo_id, tx.tx_id))
                locked.append((shard.shard_id, utxo_id))
        except InvalidTransactionError:
            # An input was unavailable: an honest client unlocks what it took.
            self._unlock(tx, locked)
            state = OmniLedgerTxState.ABORTED
            self.transactions[tx.tx_id] = state
            return state
        state = OmniLedgerTxState.INPUTS_LOCKED

        if self.crash_after_lock:
            # The malicious client stops here.  Nobody else can drive the
            # protocol forward, so the inputs stay locked indefinitely.
            state = OmniLedgerTxState.BLOCKED
            self.transactions[tx.tx_id] = state
            return state

        # Phase 2: present the proofs to the output shard.
        self.shards[output_shard].commit_outputs(tx.outputs, proofs, len(tx.inputs))
        state = OmniLedgerTxState.COMMITTED
        self.transactions[tx.tx_id] = state
        return state

    def _unlock(self, tx: UTXOTransaction, locked: Sequence[tuple[int, str]]) -> None:
        for shard_id, utxo_id in locked:
            shard = self.shards[shard_id]
            spent = shard.utxos._spent.get(utxo_id)  # internal: rebuild the UTXO to restore
            if spent is None:
                continue
            # The shard still knows the lock holder; restore via the recorded lock.
            # (In the real system the unlock carries a proof-of-rejection.)
            original = UTXO(utxo_id=utxo_id, owner="unknown", amount=1)
            shard.unlock_input(original, tx.tx_id)

    def blocked_inputs(self) -> List[str]:
        """Inputs that are locked by transactions that will never finish."""
        blocked: List[str] = []
        for shard in self.shards.values():
            for utxo_id, tx_id in shard.locked.items():
                if self.transactions.get(tx_id) == OmniLedgerTxState.BLOCKED:
                    blocked.append(utxo_id)
        return blocked

    def assert_live(self) -> None:
        """Raise if any funds are frozen by a blocked coordinator."""
        blocked = self.blocked_inputs()
        if blocked:
            raise CoordinatorFailureError(
                f"{len(blocked)} inputs are locked forever by a failed client coordinator"
            )
