"""The UTXO data model used by the RapidChain / OmniLedger baselines.

Bitcoin-style transactions consume previously unspent outputs and create new
ones; the sharded baselines split the UTXO set across shards by output
identifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.crypto.hashing import digest_of
from repro.errors import InvalidTransactionError

_UTXO_COUNTER = itertools.count()


@dataclass(frozen=True)
class UTXO:
    """An unspent transaction output."""

    utxo_id: str
    owner: str
    amount: int

    @staticmethod
    def create(owner: str, amount: int) -> "UTXO":
        if amount <= 0:
            raise InvalidTransactionError("UTXO amounts must be positive")
        seq = next(_UTXO_COUNTER)
        return UTXO(utxo_id=f"utxo-{seq}-{digest_of((owner, amount, seq))[:8]}",
                    owner=owner, amount=amount)


@dataclass(frozen=True)
class UTXOTransaction:
    """A UTXO transaction: spends ``inputs`` and creates ``outputs``."""

    tx_id: str
    inputs: Tuple[str, ...]
    outputs: Tuple[UTXO, ...]

    @staticmethod
    def create(inputs: Iterable[str], outputs: Iterable[UTXO]) -> "UTXOTransaction":
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        seq = next(_UTXO_COUNTER)
        return UTXOTransaction(
            tx_id=f"utx-{seq}-{digest_of((inputs, tuple(o.utxo_id for o in outputs)))[:8]}",
            inputs=inputs, outputs=outputs,
        )


class UTXOSet:
    """A shard's partition of the UTXO set."""

    def __init__(self, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        self._unspent: Dict[str, UTXO] = {}
        self._spent: Dict[str, str] = {}  # utxo id -> tx id that spent it

    def add(self, utxo: UTXO) -> None:
        if utxo.utxo_id in self._unspent or utxo.utxo_id in self._spent:
            raise InvalidTransactionError(f"duplicate UTXO {utxo.utxo_id!r}")
        self._unspent[utxo.utxo_id] = utxo

    def get(self, utxo_id: str) -> Optional[UTXO]:
        return self._unspent.get(utxo_id)

    def spend(self, utxo_id: str, tx_id: str) -> UTXO:
        """Mark a UTXO as spent by ``tx_id``; double spends raise."""
        utxo = self._unspent.pop(utxo_id, None)
        if utxo is None:
            spender = self._spent.get(utxo_id)
            if spender is not None:
                raise InvalidTransactionError(
                    f"double spend: {utxo_id!r} already spent by {spender!r}"
                )
            raise InvalidTransactionError(f"unknown UTXO {utxo_id!r}")
        self._spent[utxo_id] = tx_id
        return utxo

    def unspend(self, utxo: UTXO) -> None:
        """Roll back a spend (used by abort paths)."""
        self._spent.pop(utxo.utxo_id, None)
        self._unspent[utxo.utxo_id] = utxo

    def balance(self, owner: str) -> int:
        return sum(utxo.amount for utxo in self._unspent.values() if utxo.owner == owner)

    def __len__(self) -> int:
        return len(self._unspent)
