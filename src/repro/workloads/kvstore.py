"""The KVStore (YCSB-style) benchmark from BLOCKBENCH.

Single-shard experiments use simple put/get transactions; the multi-shard
experiments modify the driver to issue **3 updates per transaction**
(Section 7), which makes most transactions cross-shard.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ChaincodeError, WorkloadError
from repro.ledger.chaincode import Chaincode
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.workloads.zipf import ZipfGenerator


def key_name(index: int) -> str:
    """State key of the ``index``-th entry of the KVStore key space."""
    return f"kv_{index}"


class KVStoreChaincode(Chaincode):
    """Key-value chaincode: ``put``, ``get``, ``update`` and multi-key ``multi_put``.

    The sharded variant splits every write function into the prepare /
    commit / abort form used by the coordination protocol; the lock key for a
    state key ``k`` is ``"L_" + k``, exactly as described in Section 6.3.
    """

    name = "kvstore"

    def invoke(self, state: StateStore, function: str, args: Dict[str, Any]) -> Any:
        if function == "put":
            return self._put(state, args)
        if function == "get":
            return state.get(self._key(args))
        if function == "update":
            return self._put(state, args)
        if function == "multi_put":
            return self._multi_put(state, args)
        if function == "prepare_multi_put":
            return self._prepare_multi_put(state, args)
        if function == "commit_multi_put":
            return self._commit_multi_put(state, args)
        if function == "abort_multi_put":
            return self._abort_multi_put(state, args)
        raise ChaincodeError(f"kvstore has no function {function!r}")

    @staticmethod
    def _key(args: Dict[str, Any]) -> str:
        try:
            return str(args["key"])
        except KeyError as exc:
            raise ChaincodeError("missing 'key' argument") from exc

    def _put(self, state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        key = self._key(args)
        state.put(key, args.get("value"))
        return {"written": key}

    @staticmethod
    def _pairs(args: Dict[str, Any]) -> List[Tuple[str, Any]]:
        writes = args.get("writes")
        if not writes:
            raise ChaincodeError("missing 'writes' argument")
        return [(str(key), value) for key, value in writes]

    def _multi_put(self, state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        pairs = self._pairs(args)
        for key, value in pairs:
            state.put(key, value)
        return {"written": [key for key, _ in pairs]}

    # -------------------------------------------------- sharded (2PC) variant
    def _prepare_multi_put(self, state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        pairs = self._pairs(args)
        tx_id = args.get("tx_id", "")
        for key, _ in pairs:
            lock_key = f"L_{key}"
            holder = state.get(lock_key)
            if holder is not None and holder != tx_id:
                raise ChaincodeError(f"key {key!r} is locked by {holder!r}")
        for key, _ in pairs:
            state.put(f"L_{key}", tx_id)
        return {"prepared": [key for key, _ in pairs]}

    def _commit_multi_put(self, state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 2 (commit): apply the prepared writes and release the locks.

        A write is applied only while this transaction's prepare lock is
        still held, making CommitTx **idempotent**: a re-driven decision
        (the coordinator retries when a Byzantine first-contact member
        swallows the original and the ack never arrives) may be delivered
        twice, and the duplicate must neither resurrect a stale value over a
        later transaction's write nor strip that transaction's lock.
        """
        pairs = self._pairs(args)
        tx_id = args.get("tx_id", "")
        committed = []
        for key, value in pairs:
            lock_key = f"L_{key}"
            if state.get(lock_key) != tx_id:
                continue  # never prepared here, or already committed/aborted
            state.put(key, value)
            state.delete(lock_key)
            committed.append(key)
        return {"committed": committed}

    def _abort_multi_put(self, state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        pairs = self._pairs(args)
        tx_id = args.get("tx_id", "")
        for key, _ in pairs:
            lock_key = f"L_{key}"
            if state.get(lock_key) == tx_id:
                state.delete(lock_key)
        return {"aborted": [key for key, _ in pairs]}

    def keys_touched(self, function: str, args: Dict[str, Any]) -> Tuple[str, ...]:
        if "writes" in args:
            return tuple(str(key) for key, _ in args["writes"])
        if "key" in args:
            return (str(args["key"]),)
        return ()


class KVStoreWorkload:
    """Transaction generator for the KVStore benchmark.

    Parameters
    ----------
    num_keys:
        Size of the key space.
    updates_per_transaction:
        1 for the single-shard benchmark, 3 for the cross-shard variant
        (Section 7's modified driver).
    zipf_coefficient:
        Key-popularity skew.
    """

    def __init__(self, num_keys: int = 100_000, updates_per_transaction: int = 1,
                 zipf_coefficient: float = 0.0, value_bytes: int = 64,
                 seed: int = 0) -> None:
        if num_keys < 1 or updates_per_transaction < 1:
            raise WorkloadError("num_keys and updates_per_transaction must be positive")
        self.chaincode = KVStoreChaincode()
        self.num_keys = num_keys
        self.updates_per_transaction = updates_per_transaction
        self.value_bytes = value_bytes
        self._rng = random.Random(seed)
        self._zipf = ZipfGenerator(num_keys, zipf_coefficient, rng=self._rng)

    def key_name(self, index: int) -> str:
        return key_name(index)

    def draw_invocation(self) -> Tuple[str, Dict[str, Any]]:
        """Draw ``(function, args)`` updating ``updates_per_transaction`` distinct keys."""
        indices = self._zipf.sample_many(self.updates_per_transaction, distinct=True)
        value = "x" * self.value_bytes
        if self.updates_per_transaction == 1:
            return "put", {"key": self.key_name(indices[0]), "value": value}
        return "multi_put", {"writes": [(self.key_name(i), value) for i in indices]}

    def next_transaction(self, client_id: str = "client", now: float = 0.0) -> Transaction:
        """The next drawn invocation, materialised as a transaction."""
        function, args = self.draw_invocation()
        return self.chaincode.new_transaction(function, args, client_id=client_id,
                                              submitted_at=now)

    def batch(self, count: int, client_id: str = "client", now: float = 0.0) -> List[Transaction]:
        return [self.next_transaction(client_id, now) for _ in range(count)]

    def tx_factory(self):
        """Adapter matching the client-driver ``tx_factory`` signature."""
        def factory(client_id: str, now: float, rng, count: int) -> List[Transaction]:
            return self.batch(count, client_id=client_id, now=now)
        return factory

    def populate(self, state: StateStore, count: Optional[int] = None) -> None:
        """Pre-load the key space (as BLOCKBENCH does before measuring)."""
        total = count if count is not None else min(self.num_keys, 10_000)
        for index in range(total):
            state.put(self.key_name(index), "0" * self.value_bytes)
