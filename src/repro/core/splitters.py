"""Splitting a logical transaction into per-shard prepare/commit/abort invocations.

Section 6.3 describes the manual chaincode refactoring: ``sendPayment``
becomes ``preparePayment`` / ``commitPayment`` / ``abortPayment``.  A
:class:`TransactionSplitter` knows, for one benchmark, how to produce those
per-shard invocations from the original transaction; the sharded system uses
it to drive the coordination protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.ledger.transaction import Transaction
from repro.workloads.kvstore import KVStoreChaincode
from repro.workloads.smallbank import SmallbankChaincode, account_key


class TransactionSplitter(ABC):
    """Produces per-shard prepare / commit / abort transactions."""

    @abstractmethod
    def shards_touched(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> List[int]:
        """The shards a transaction involves."""

    @abstractmethod
    def prepare_transactions(self, tx: Transaction,
                             shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        """Per-shard PrepareTx invocations."""

    @abstractmethod
    def commit_transactions(self, tx: Transaction,
                            shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        """Per-shard CommitTx invocations."""

    @abstractmethod
    def abort_transactions(self, tx: Transaction,
                           shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        """Per-shard AbortTx invocations."""

    @abstractmethod
    def _read_arguments(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> None:
        """Read every argument the three builders above read (and no more)."""

    def validate(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> None:
        """Raise :class:`WorkloadError` unless ``tx`` can be split.

        Builds nothing (so it draws no transaction ids): the 2PC driver calls
        it before registering a transaction anywhere.
        """
        try:
            self._read_arguments(tx, shard_of_key)
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadError(
                f"cannot split {tx.chaincode} {tx.function!r}: bad argument {exc}"
            ) from exc


class SmallbankSplitter(TransactionSplitter):
    """Splits Smallbank ``sendPayment`` transactions (Figure 4's account model)."""

    def __init__(self) -> None:
        self.chaincode = SmallbankChaincode()

    def _accounts_by_shard(self, tx: Transaction,
                           shard_of_key: Callable[[str], int]) -> Dict[int, List[str]]:
        if tx.function != "sendPayment":
            raise WorkloadError(f"cannot split smallbank function {tx.function!r}")
        source = str(tx.args["from"])
        destination = str(tx.args["to"])
        by_shard: Dict[int, List[str]] = {}
        for account in (source, destination):
            shard = shard_of_key(account_key(account))
            by_shard.setdefault(shard, []).append(account)
        return by_shard

    def _read_arguments(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> None:
        self._accounts_by_shard(tx, shard_of_key)
        int(tx.args["amount"])

    def shards_touched(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> List[int]:
        return sorted(self._accounts_by_shard(tx, shard_of_key))

    def prepare_transactions(self, tx: Transaction,
                             shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        source = str(tx.args["from"])
        amount = int(tx.args["amount"])
        result = {}
        for shard, accounts in self._accounts_by_shard(tx, shard_of_key).items():
            result[shard] = self.chaincode.new_transaction(
                "preparePayment",
                {"tx_id": tx.tx_id, "accounts": accounts, "amount": amount,
                 "debit": source},
                client_id=tx.client_id,
            )
        return result

    def commit_transactions(self, tx: Transaction,
                            shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        source = str(tx.args["from"])
        destination = str(tx.args["to"])
        amount = int(tx.args["amount"])
        deltas = {source: -amount, destination: amount}
        result = {}
        for shard, accounts in self._accounts_by_shard(tx, shard_of_key).items():
            result[shard] = self.chaincode.new_transaction(
                "commitPayment",
                {"tx_id": tx.tx_id,
                 "deltas": [(account, deltas[account]) for account in accounts]},
                client_id=tx.client_id,
            )
        return result

    def abort_transactions(self, tx: Transaction,
                           shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        result = {}
        for shard, accounts in self._accounts_by_shard(tx, shard_of_key).items():
            result[shard] = self.chaincode.new_transaction(
                "abortPayment",
                {"tx_id": tx.tx_id, "accounts": accounts},
                client_id=tx.client_id,
            )
        return result


class KVStoreSplitter(TransactionSplitter):
    """Splits KVStore ``multi_put`` transactions (3 updates per transaction in Section 7)."""

    def __init__(self) -> None:
        self.chaincode = KVStoreChaincode()

    def _writes_by_shard(self, tx: Transaction,
                         shard_of_key: Callable[[str], int]) -> Dict[int, List[Tuple[str, object]]]:
        if tx.function not in ("multi_put", "put", "update"):
            raise WorkloadError(f"cannot split kvstore function {tx.function!r}")
        if tx.function in ("put", "update"):
            writes: Sequence[Tuple[str, object]] = [(str(tx.args["key"]), tx.args.get("value"))]
        else:
            writes = [(str(key), value) for key, value in tx.args["writes"]]
        by_shard: Dict[int, List[Tuple[str, object]]] = {}
        for key, value in writes:
            by_shard.setdefault(shard_of_key(key), []).append((key, value))
        return by_shard

    def _read_arguments(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> None:
        self._writes_by_shard(tx, shard_of_key)

    def shards_touched(self, tx: Transaction, shard_of_key: Callable[[str], int]) -> List[int]:
        return sorted(self._writes_by_shard(tx, shard_of_key))

    def prepare_transactions(self, tx: Transaction,
                             shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        return {
            shard: self.chaincode.new_transaction(
                "prepare_multi_put", {"tx_id": tx.tx_id, "writes": writes},
                client_id=tx.client_id)
            for shard, writes in self._writes_by_shard(tx, shard_of_key).items()
        }

    def commit_transactions(self, tx: Transaction,
                            shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        return {
            shard: self.chaincode.new_transaction(
                "commit_multi_put", {"tx_id": tx.tx_id, "writes": writes},
                client_id=tx.client_id)
            for shard, writes in self._writes_by_shard(tx, shard_of_key).items()
        }

    def abort_transactions(self, tx: Transaction,
                           shard_of_key: Callable[[str], int]) -> Dict[int, Transaction]:
        return {
            shard: self.chaincode.new_transaction(
                "abort_multi_put", {"tx_id": tx.tx_id, "writes": writes},
                client_id=tx.client_id)
            for shard, writes in self._writes_by_shard(tx, shard_of_key).items()
        }


def splitter_for(benchmark: str) -> TransactionSplitter:
    """The splitter implementation for a benchmark name."""
    if benchmark == "smallbank":
        return SmallbankSplitter()
    if benchmark == "kvstore":
        return KVStoreSplitter()
    raise WorkloadError(f"no transaction splitter for benchmark {benchmark!r}")


def shards_for(splitter: TransactionSplitter, tx: Transaction,
               shard_of_key: Callable[[str], int]) -> List[int]:
    """The shards whose state ``tx`` touches.

    Functions the splitter cannot split (``WorkloadError("cannot split …")``:
    single-key invocations such as ``deposit`` or ``query``) route by the
    keys they declare.
    """
    try:
        return splitter.shards_touched(tx, shard_of_key)
    except WorkloadError:
        shards = {shard_of_key(key) for key in tx.keys}
        return sorted(shards) if shards else [0]
