"""Chaincode (smart contract) abstraction and execution engine.

A chaincode exposes named functions that read and write the key-value world
state.  The execution engine applies the transactions of a block sequentially
(blockchains execute transactions sequentially within a block — concurrency
only arises across shards, Section 6.1) and produces a receipt per
transaction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ChaincodeError
from repro.ledger.block import Block
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction, TransactionReceipt, TxStatus


class Chaincode(ABC):
    """Base class for chaincodes.

    Subclasses implement :meth:`invoke`; :meth:`keys_touched` lets the
    sharded system route a transaction to the shards owning its keys without
    executing it.
    """

    #: Name under which the chaincode is registered.
    name: str = "chaincode"

    @abstractmethod
    def invoke(self, state: StateStore, function: str, args: Dict[str, Any]) -> Any:
        """Execute ``function(args)`` against ``state``; raise ChaincodeError to abort."""

    def keys_touched(self, function: str, args: Dict[str, Any]) -> Tuple[str, ...]:
        """State keys the invocation will read or write (used for routing and locking)."""
        return tuple(args.get("keys", ()))

    def new_transaction(self, function: str, args: Optional[Dict[str, Any]] = None,
                        client_id: str = "client", submitted_at: float = 0.0) -> Transaction:
        """Build a transaction invoking this chaincode."""
        args = args or {}
        return Transaction.create(
            chaincode=self.name,
            function=function,
            args=args,
            client_id=client_id,
            keys=self.keys_touched(function, args),
            submitted_at=submitted_at,
        )


@dataclass
class ChaincodeRegistry:
    """Maps chaincode names to instances (one registry per committee)."""

    chaincodes: Dict[str, Chaincode] = field(default_factory=dict)

    def register(self, chaincode: Chaincode) -> None:
        self.chaincodes[chaincode.name] = chaincode

    def get(self, name: str) -> Chaincode:
        try:
            return self.chaincodes[name]
        except KeyError as exc:
            raise ChaincodeError(f"unknown chaincode {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.chaincodes


class ExecutionEngine:
    """Executes transactions and blocks against a state store."""

    def __init__(self, registry: ChaincodeRegistry, state: StateStore) -> None:
        self.registry = registry
        self.state = state
        self.executed_transactions = 0
        self.failed_transactions = 0

    def execute_transaction(self, tx: Transaction, block_height: Optional[int] = None,
                            shard_id: Optional[int] = None,
                            now: Optional[float] = None) -> TransactionReceipt:
        """Execute one transaction, returning a receipt (never raises for chaincode aborts)."""
        try:
            chaincode = self.registry.get(tx.chaincode)
            result = chaincode.invoke(self.state, tx.function, tx.args)
        except ChaincodeError as exc:
            self.failed_transactions += 1
            return TransactionReceipt(
                tx_id=tx.tx_id,
                status=TxStatus.FAILED,
                error=str(exc),
                block_height=block_height,
                shard_id=shard_id,
                committed_at=now,
            )
        self.executed_transactions += 1
        return TransactionReceipt(
            tx_id=tx.tx_id,
            status=TxStatus.COMMITTED,
            result=result,
            block_height=block_height,
            shard_id=shard_id,
            committed_at=now,
        )

    def execute_block(self, block: Block, now: Optional[float] = None) -> List[TransactionReceipt]:
        """Execute every transaction of ``block`` sequentially."""
        receipts = []
        for tx in block.transactions:
            receipts.append(
                self.execute_transaction(
                    tx,
                    block_height=block.height,
                    shard_id=block.header.shard_id,
                    now=now,
                )
            )
        return receipts
