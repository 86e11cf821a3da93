"""The Smallbank benchmark (Section 6.3 and Section 7).

Smallbank models a simple banking application.  The paper's multi-shard
experiments use the ``sendPayment`` transaction, which reads and writes two
different accounts, and refactor its chaincode into three functions —
``preparePayment``, ``commitPayment`` and ``abortPayment`` — so it can run
under the 2PC/2PL coordination protocol.  Locking is implemented by writing a
boolean to the blockchain state under the key ``"L_" + account``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.errors import ChaincodeError, WorkloadError
from repro.ledger.chaincode import Chaincode
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.workloads.zipf import ZipfGenerator

#: Default initial balance of every account.
DEFAULT_BALANCE = 10_000


def account_key(account: str) -> str:
    return f"acc_{account}"


def lock_key(account: str) -> str:
    return f"L_{account_key(account)}"


def initial_balances(num_accounts: int, balance: int = DEFAULT_BALANCE) -> Dict[str, int]:
    """The initial account table loaded before the benchmark starts."""
    return {account_key(str(index)): balance for index in range(num_accounts)}


def receipt_deltas(tx: Transaction, receipt: Any) -> List[Tuple[str, int]]:
    """The exact per-account balance deltas one committed execution applied.

    This is the ledger index's materialization rule for Smallbank: given a
    transaction and its execution receipt, return the ``(state key, delta)``
    pairs :class:`SmallbankChaincode` applied — and *only* those.  The
    mirroring must be exact, delta for delta:

    * ``sendPayment`` debits ``from`` and credits ``to`` iff the receipt
      committed;
    * ``commitPayment`` applies a delta only while the account's prepare
      lock was still held — the receipt's ``committed`` list records exactly
      which accounts that was true for (and only an account's first delta in
      the list can have applied, since applying releases the lock);
    * ``deposit`` and ``createAccount`` mint money by design — their deltas
      are included here and reported separately by :func:`receipt_minted`,
      so conservation is ``sum(deltas) == sum(minted)``.  (``createAccount``
      over an existing account is treated as minting the full balance; the
      receipt does not carry the overwritten value.)

    Failed receipts applied nothing (the engine rolls back), so they
    contribute no deltas.
    """
    if receipt is None or not receipt.ok:
        return []
    args = tx.args
    if tx.function == "sendPayment":
        amount = int(args["amount"])
        return [(account_key(str(args["from"])), -amount),
                (account_key(str(args["to"])), amount)]
    if tx.function == "commitPayment":
        applied = {str(account) for account in (receipt.result or {}).get("committed", ())}
        deltas: List[Tuple[str, int]] = []
        seen: set = set()
        for account, delta in args.get("deltas", []):
            account = str(account)
            if account in applied and account not in seen:
                deltas.append((account_key(account), int(delta)))
            seen.add(account)
        return deltas
    if tx.function == "deposit":
        return [(account_key(str(args["account"])), int(args["amount"]))]
    if tx.function == "createAccount":
        return [(account_key(str(args["account"])),
                 int(args.get("balance", DEFAULT_BALANCE)))]
    return []


def receipt_minted(tx: Transaction, receipt: Any) -> int:
    """Money legitimately created by one committed execution.

    ``deposit`` and ``createAccount`` add balance out of thin air; every
    other Smallbank function conserves it.  The auditor's incremental money
    check subtracts this from the running delta sum, so a workload that uses
    deposits still audits clean while a lost or duplicated transfer still
    trips the invariant.
    """
    if receipt is None or not receipt.ok:
        return 0
    if tx.function == "deposit":
        return int(tx.args["amount"])
    if tx.function == "createAccount":
        return int(tx.args.get("balance", DEFAULT_BALANCE))
    return 0


class SmallbankChaincode(Chaincode):
    """The Smallbank chaincode, including the sharded (prepare/commit/abort) functions."""

    name = "smallbank"

    def invoke(self, state: StateStore, function: str, args: Dict[str, Any]) -> Any:
        handler = self._HANDLERS.get(function)
        if handler is None:
            raise ChaincodeError(f"smallbank has no function {function!r}")
        return handler(state, args)

    # ------------------------------------------------------------ single-shard
    @staticmethod
    def _create_account(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        account = str(args["account"])
        state.put(account_key(account), int(args.get("balance", DEFAULT_BALANCE)))
        return {"account": account}

    @staticmethod
    def _query(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        account = str(args["account"])
        balance = state.get(account_key(account))
        if balance is None:
            raise ChaincodeError(f"unknown account {account!r}")
        return {"account": account, "balance": balance}

    @staticmethod
    def _deposit(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        account = str(args["account"])
        amount = int(args["amount"])
        balance = state.get(account_key(account), 0)
        state.put(account_key(account), balance + amount)
        return {"account": account, "balance": balance + amount}

    @staticmethod
    def _send_payment(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        """The original single-shard sendPayment: check funds, debit, credit."""
        source = str(args["from"])
        destination = str(args["to"])
        amount = int(args["amount"])
        source_balance = state.get(account_key(source))
        destination_balance = state.get(account_key(destination))
        if source_balance is None or destination_balance is None:
            raise ChaincodeError("unknown account in sendPayment")
        if source_balance < amount:
            raise ChaincodeError(f"insufficient funds in account {source!r}")
        state.put(account_key(source), source_balance - amount)
        state.put(account_key(destination), destination_balance + amount)
        return {"from": source, "to": destination, "amount": amount}

    # --------------------------------------------------------------- sharded
    @staticmethod
    def _prepare_payment(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 1: acquire locks on the locally owned accounts and check funds.

        ``accounts`` lists the accounts stored on this shard; ``debit`` names
        the account to be debited if it lives here.
        """
        tx_id = str(args.get("tx_id", ""))
        accounts = [str(acc) for acc in args.get("accounts", [])]
        amount = int(args.get("amount", 0))
        debit_account = args.get("debit")
        for account in accounts:
            if not state.exists(account_key(account)):
                raise ChaincodeError(f"unknown account {account!r}")
            holder = state.get(lock_key(account))
            if holder is not None and holder != tx_id:
                raise ChaincodeError(f"account {account!r} is locked by {holder!r}")
        if debit_account is not None and str(debit_account) in accounts:
            balance = state.get(account_key(str(debit_account)), 0)
            if balance < amount:
                raise ChaincodeError(f"insufficient funds in account {debit_account!r}")
        for account in accounts:
            state.put(lock_key(account), tx_id)
        return {"prepared": accounts, "tx_id": tx_id}

    @staticmethod
    def _commit_payment(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 2 (commit): apply balance deltas and release the locks.

        A delta is applied only while this transaction's prepare lock is
        still held — applying it is what releases the lock — so CommitTx is
        **idempotent**: a coordinator that re-drives a decision whose ack was
        lost (a Byzantine first-contact member can swallow the original) may
        deliver it twice, and the second delivery must not double-apply the
        transfer.  This is also the 2PL discipline proper: a shard can only
        commit what it prepared.
        """
        tx_id = str(args.get("tx_id", ""))
        deltas: List[Tuple[str, int]] = [
            (str(account), int(delta)) for account, delta in args.get("deltas", [])
        ]
        applied = []
        for account, delta in deltas:
            if state.get(lock_key(account)) != tx_id:
                continue  # never prepared here, or already committed/aborted
            balance = state.get(account_key(account), 0)
            state.put(account_key(account), balance + delta)
            state.delete(lock_key(account))
            applied.append(account)
        return {"committed": applied, "tx_id": tx_id}

    @staticmethod
    def _abort_payment(state: StateStore, args: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 2 (abort): release any locks held by this transaction."""
        tx_id = str(args.get("tx_id", ""))
        accounts = [str(acc) for acc in args.get("accounts", [])]
        for account in accounts:
            if state.get(lock_key(account)) == tx_id:
                state.delete(lock_key(account))
        return {"aborted": accounts, "tx_id": tx_id}

    #: Function name -> handler, built once for the class rather than on every
    #: ``invoke`` (the ``staticmethod`` objects themselves are callable).
    _HANDLERS = {
        "createAccount": _create_account,
        "query": _query,
        "deposit": _deposit,
        "sendPayment": _send_payment,
        "preparePayment": _prepare_payment,
        "commitPayment": _commit_payment,
        "abortPayment": _abort_payment,
    }

    def keys_touched(self, function: str, args: Dict[str, Any]) -> Tuple[str, ...]:
        if function in ("createAccount", "query", "deposit"):
            return (account_key(str(args["account"])),)
        if function == "sendPayment":
            return (account_key(str(args["from"])), account_key(str(args["to"])))
        if function in ("preparePayment", "abortPayment"):
            return tuple(account_key(str(acc)) for acc in args.get("accounts", []))
        if function == "commitPayment":
            return tuple(account_key(str(acc)) for acc, _ in args.get("deltas", []))
        return ()


class SmallbankWorkload:
    """Generates Smallbank sendPayment transactions with Zipf-skewed account choice."""

    def __init__(self, num_accounts: int = 10_000, zipf_coefficient: float = 0.0,
                 max_amount: int = 50, seed: int = 0) -> None:
        if num_accounts < 2:
            raise WorkloadError("smallbank needs at least two accounts")
        self.chaincode = SmallbankChaincode()
        self.num_accounts = num_accounts
        self.max_amount = max_amount
        self._rng = random.Random(seed)
        self._zipf = ZipfGenerator(num_accounts, zipf_coefficient, rng=self._rng)

    def populate(self, state: StateStore) -> None:
        """Load the initial account balances into a shard's state store."""
        for key, balance in initial_balances(self.num_accounts).items():
            state.put(key, balance)

    def pick_accounts(self) -> Tuple[str, str]:
        source, destination = self._zipf.sample_many(2, distinct=True)
        return str(source), str(destination)

    def sample_payments(self, count: int) -> List[Tuple[str, str, int]]:
        """Sample ``count`` (source, destination, amount) triples in block layout.

        Block layout: the ``2 * count`` Zipf ranks are drawn as one block
        (numpy-accelerated via :meth:`ZipfGenerator.sample_block`, with a
        bit-identical scalar fallback), then colliding pairs are fixed up
        with scalar re-draws, then the amounts.  The RNG consumption *order*
        therefore differs from :meth:`next_transaction` (which interleaves
        ranks and amounts per transaction): a block-sampled workload is its
        own deterministic stream — identical with or without numpy installed,
        but not the same stream as the per-transaction path.
        """
        ranks = self._zipf.sample_block(2 * count)
        pairs: List[Tuple[int, int]] = []
        for index in range(count):
            source = ranks[2 * index]
            destination = ranks[2 * index + 1]
            attempts = 0
            while destination == source:
                destination = self._zipf.sample()
                attempts += 1
                if attempts > 50:
                    # Highly skewed tiny key spaces: give up on rejection and
                    # take the deterministic neighbour (consumes no RNG).
                    destination = (source + 1) % self.num_accounts
                    break
            pairs.append((source, destination))
        return [(str(source), str(destination), self._rng.randint(1, self.max_amount))
                for source, destination in pairs]

    def draw_invocation(self) -> Tuple[str, Dict[str, Any]]:
        """Draw ``(function, args)`` of a sendPayment between two distinct accounts."""
        source, destination = self.pick_accounts()
        return "sendPayment", {
            "from": source,
            "to": destination,
            "amount": self._rng.randint(1, self.max_amount),
        }

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
