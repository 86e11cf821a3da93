"""Transactions and receipts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.crypto.hashing import canonical_json, digest_of, json_string, sha256_hex

_TX_COUNTER = itertools.count()


def rebase_tx_counter(start: int = 0) -> None:
    """Rebase the process-global transaction-id counter (harness use only).

    Transaction ids embed the counter, and the id's *length* can leak into
    modelled quantities (a 2PL lock entry stores the holder's tx id in shard
    state, so ``StateStore.size_bytes`` — and any state-transfer delay
    derived from it — varies with the digit count).  Benchmarks that compare
    runs executed at different points of one process pin the counter before
    each run so "same seed" means "same run" exactly.
    """
    global _TX_COUNTER
    _TX_COUNTER = itertools.count(start)


def swap_tx_counter(counter: "itertools.count") -> "itertools.count":
    """Swap the process-global id counter for ``counter``; returns the old one.

    The engine gives every partition its own disjoint id stream
    (see ``repro.core.homecoord.partition_tx_counter``): the partition swaps
    its counter in around each barrier window so transactions it creates —
    driver arrivals, splitter prepares/decisions, reference-committee votes —
    get ids that depend only on the partition's own history, never on how
    partitions were grouped onto worker processes.  The previous counter is
    restored (by swapping back) when the window ends.
    """
    global _TX_COUNTER
    previous = _TX_COUNTER
    _TX_COUNTER = counter
    return previous


def burn_tx_id() -> None:
    """Consume the id :func:`Transaction.create` would have used next.

    For a drawn invocation that is discarded before materialisation, so the
    stream's later ids do not depend on whether discards are materialised.
    """
    next(_TX_COUNTER)


class TxStatus(str, Enum):
    """Lifecycle status of a transaction."""

    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"
    FAILED = "failed"


@dataclass(frozen=True)
class Transaction:
    """A chaincode invocation.

    Attributes
    ----------
    tx_id:
        Unique identifier (assigned by :func:`Transaction.create`).
    chaincode / function / args:
        The chaincode name, function name and argument mapping.
    client_id:
        Identifier of the submitting client.
    keys:
        State keys the transaction touches; used for shard routing, lock
        acquisition and the cross-shard probability analysis.
    """

    tx_id: str
    chaincode: str
    function: str
    args: Dict[str, Any] = field(default_factory=dict)
    client_id: str = "client"
    keys: Tuple[str, ...] = ()
    submitted_at: float = 0.0

    @staticmethod
    def create(chaincode: str, function: str, args: Optional[Dict[str, Any]] = None,
               client_id: str = "client", keys: Tuple[str, ...] = (),
               submitted_at: float = 0.0) -> "Transaction":
        """Create a transaction with a fresh unique identifier."""
        args = args or {}
        seq = next(_TX_COUNTER)
        digest = None
        if (type(chaincode) is str and type(function) is str and type(args) is dict
                and type(client_id) is str and type(seq) is int):
            # ``args`` is the only free-form field: canonicalise it once and
            # write both records — the id's (chaincode, function, args,
            # client_id, seq) tuple and the content dict — around that text.
            args_json = canonical_json(args)
            code, func = json_string(chaincode), json_string(function)
            head = sha256_hex(f"[{code},{func},{args_json},{json_string(client_id)},{seq}]")
            tx_id = f"tx-{seq}-{head[:8]}"
            digest = sha256_hex(f'{{"args":{args_json},"chaincode":{code},'
                                f'"function":{func},"tx_id":"{tx_id}"}}')
        else:
            tx_id = f"tx-{seq}-{digest_of((chaincode, function, args, client_id, seq))[:8]}"
        tx = Transaction(
            tx_id=tx_id,
            chaincode=chaincode,
            function=function,
            args=dict(args),
            client_id=client_id,
            keys=tuple(keys),
            submitted_at=submitted_at,
        )
        if digest is not None:
            tx.__dict__["_digest"] = digest
        return tx

    @property
    def digest(self) -> str:
        """Content digest of the transaction (computed once, then cached).

        Every replica recomputes the Merkle root over the block's transaction
        digests, so the digest is memoized on the instance; writing straight
        to ``__dict__`` sidesteps the frozen-dataclass ``__setattr__`` guard
        without weakening it for the declared fields.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest_of({
                "tx_id": self.tx_id,
                "chaincode": self.chaincode,
                "function": self.function,
                "args": self.args,
            })
            self.__dict__["_digest"] = cached
        return cached

    def num_arguments(self) -> int:
        """Number of distinct state keys touched (``d`` in Appendix B)."""
        return len(set(self.keys))


@dataclass
class TransactionReceipt:
    """The result of executing a transaction."""

    tx_id: str
    status: TxStatus
    result: Any = None
    error: Optional[str] = None
    block_height: Optional[int] = None
    shard_id: Optional[int] = None
    committed_at: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status is TxStatus.COMMITTED
