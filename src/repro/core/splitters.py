"""The shard definition: what a benchmark is, and the committee that runs it.

A shard is one committee running one benchmark chaincode over its
hash-partitioned slice of the initial table (Section 5).  This module is the
single place that knows, per benchmark name, the chaincode, the initial
``(key, value)`` table, the key naming and the
:class:`TransactionSplitter` (:data:`BENCHMARKS`), and the single place that
turns a deployment config into a populated
:class:`~repro.consensus.cluster.ConsensusCluster` (:func:`build_committee`).
Every partition of the engine and the ``repro-serve`` shard process
assemble their committees from here.

Section 6.3 describes the manual chaincode refactoring: ``sendPayment``
becomes ``preparePayment`` / ``commitPayment`` / ``abortPayment``.  A
:class:`TransactionSplitter` knows, for one benchmark, how to produce those
per-shard invocations from the original transaction; the 2PC driver uses it
to drive the coordination protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.consensus.cluster import ConsensusCluster
from repro.errors import WorkloadError
from repro.ledger.chaincode import Chaincode, ChaincodeRegistry
from repro.ledger.transaction import Transaction
from repro.txn.reference_committee import ReferenceCommitteeChaincode
from repro.workloads.generator import shard_of_key
from repro.workloads.kvstore import KVStoreChaincode, key_name
from repro.workloads.smallbank import (DEFAULT_BALANCE, SmallbankChaincode,
                                       account_key)

#: Shard id of the reference committee's cluster.
REFERENCE_SHARD_ID = 900


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


@dataclass(frozen=True)
class Benchmark:
    """One row of the benchmark table."""

    chaincode: Callable[[], Chaincode]
    splitter: Callable[[], TransactionSplitter]
    #: Index in the key space -> state key.
    key: Callable[[int], str]
    initial_value: object
    #: At most this many keys are pre-loaded (None = the whole key space).
    max_initial_keys: Optional[int] = None


BENCHMARKS: Dict[str, Benchmark] = {
    "smallbank": Benchmark(SmallbankChaincode, SmallbankSplitter,
                           key=lambda index: account_key(str(index)),
                           initial_value=DEFAULT_BALANCE),
    "kvstore": Benchmark(KVStoreChaincode, KVStoreSplitter, key=key_name,
                         initial_value="0" * 8, max_initial_keys=5_000),
}


def benchmark_for(name: str) -> Benchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise WorkloadError(f"no benchmark named {name!r}") from None


def splitter_for(benchmark: str) -> TransactionSplitter:
    """The splitter implementation for a benchmark name."""
    return benchmark_for(benchmark).splitter()


def initial_items(benchmark: str, num_keys: int) -> List[Tuple[str, object]]:
    """The benchmark's initial ``(key, value)`` table, before shard routing."""
    row = benchmark_for(benchmark)
    count = (num_keys if row.max_initial_keys is None
             else min(num_keys, row.max_initial_keys))
    return [(row.key(index), row.initial_value) for index in range(count)]


@lru_cache(maxsize=1)
def _routed_table(benchmark: str, num_keys: int,
                  num_shards: int) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
    """The initial table split by owning shard, in table order.

    Remembers the last deployment only: it builds its committees back to
    back, and each would otherwise route the whole table to keep its slice.
    """
    slices: List[List[Tuple[str, object]]] = [[] for _ in range(num_shards)]
    for item in initial_items(benchmark, num_keys):
        slices[shard_of_key(item[0], num_shards)].append(item)
    return tuple(tuple(items) for items in slices)


def release_routed_table() -> None:
    """Forget the remembered deployment's routed table (a process that has
    built its last committee hands the other shards' slices back)."""
    _routed_table.cache_clear()


def initial_state(config: Any, shard_id: int) -> Tuple[Tuple[str, object], ...]:
    """Shard ``shard_id``'s slice of the initial table (the reference
    committee starts empty)."""
    if shard_id == REFERENCE_SHARD_ID:
        return ()
    return _routed_table(config.benchmark, config.num_keys,
                         config.num_shards)[shard_id]


def chaincode_registry(config: Any, shard_id: int) -> ChaincodeRegistry:
    """A fresh registry holding the chaincode shard ``shard_id`` runs."""
    registry = ChaincodeRegistry()
    registry.register(ReferenceCommitteeChaincode()
                      if shard_id == REFERENCE_SHARD_ID
                      else benchmark_for(config.benchmark).chaincode())
    return registry


def build_committee(config: Any, shard_id: int, runtime: Any, network: Any,
                    adversary: Any = None) -> ConsensusCluster:
    """Shard ``shard_id``'s committee on ``runtime``/``network``, state loaded.

    ``config`` is a :class:`~repro.core.config.ShardedSystemConfig`,
    ``runtime`` a :class:`~repro.runtime.base.Runtime` (the simulator or a
    wall-clock runtime), and
    ``adversary`` an armed :class:`~repro.core.adversary.AdversaryState` (its
    per-shard strategy is snapshotted by every replica at construction).
    ``REFERENCE_SHARD_ID`` builds the reference committee.
    """
    byzantine = None
    if adversary is not None:
        byzantine = (adversary.reference_strategy
                     if shard_id == REFERENCE_SHARD_ID
                     else adversary.strategy_for(shard_id))
    cluster = ConsensusCluster(
        protocol=config.protocol,
        n=config.committee_size,
        config_overrides=dict(config.consensus_overrides),
        registry_factory=partial(chaincode_registry, config, shard_id),
        byzantine=byzantine,
        shard_id=shard_id,
        runtime=runtime,
        network=network,
        max_series_samples=config.max_series_samples,
    )
    for key, value in initial_state(config, shard_id):
        for replica in cluster.replicas:
            replica.state.put(key, value)
    return cluster


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
