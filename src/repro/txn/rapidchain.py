"""RapidChain's cross-shard transaction splitting (Figure 3a, Section 6.1).

RapidChain executes a UTXO transaction with inputs in several shards by
splitting it into single-shard sub-transactions: each input is first
*transferred* to the output shard (``tx_a``, ``tx_b``), which then spends the
transferred copies to create the final output (``tx_c``).  There is no
distributed commit: if one sub-transaction fails after another succeeded, the
system merely tells the owner of the succeeded input to use the transferred
copy in the future.

That side-steps atomicity for UTXOs, but the paper shows (Figure 4) that the
same recipe breaks **atomicity and isolation** for account-model
transactions: a debit can succeed while the matching credit fails, and an
interleaved transaction can observe the half-applied state.  This module
implements both the UTXO splitting and the account-model variant, so the
tests can demonstrate exactly those violations and contrast them with the
2PC/2PL protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from repro.errors import InvalidTransactionError
from repro.ledger.state import StateStore
from repro.txn.utxo import UTXO, UTXOSet, UTXOTransaction


class SubTxStatus(str, Enum):
    APPLIED = "applied"
    FAILED = "failed"


@dataclass
class SubTransaction:
    """One single-shard piece of a split transaction."""

    parent_tx: str
    shard_id: int
    description: str
    status: SubTxStatus = SubTxStatus.APPLIED


class RapidChainShard:
    """A shard holding both a UTXO partition and an account partition."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.utxos = UTXOSet(shard_id)
        self.accounts = StateStore(shard_id)

    # UTXO helpers -----------------------------------------------------------
    def fund(self, utxo: UTXO) -> None:
        self.utxos.add(utxo)

    # Account helpers --------------------------------------------------------
    def balance(self, account: str) -> int:
        return int(self.accounts.get(account, 0))

    def debit(self, account: str, amount: int) -> None:
        balance = self.balance(account)
        if balance < amount:
            raise InvalidTransactionError(
                f"insufficient funds in {account!r}: {balance} < {amount}"
            )
        self.accounts.put(account, balance - amount)

    def credit(self, account: str, amount: int) -> None:
        self.accounts.put(account, self.balance(account) + amount)


@dataclass
class SplitResult:
    """Outcome of executing one split transaction."""

    parent_tx: str
    sub_transactions: List[SubTransaction] = field(default_factory=list)

    @property
    def fully_applied(self) -> bool:
        return all(sub.status is SubTxStatus.APPLIED for sub in self.sub_transactions)

    # detlint: disable=DEAD001 -- §6.1, Figure 4: the half-applied state
    @property
    def partially_applied(self) -> bool:
        applied = [sub for sub in self.sub_transactions if sub.status is SubTxStatus.APPLIED]
        return bool(applied) and not self.fully_applied


# detlint: disable=DEAD001 -- §6.1, Figure 3a: RapidChain's transaction splitting
class RapidChainProtocol:
    """The transaction-splitting executor."""

    def __init__(self, shards: Dict[int, RapidChainShard]) -> None:
        self.shards = shards
        self.results: Dict[str, SplitResult] = {}

    # --------------------------------------------------------------- UTXO path
    # detlint: disable=DEAD001 -- §6.1, Figure 3a: UTXO split into transfers and a spend
    def execute_utxo(self, tx: UTXOTransaction, input_shards: Dict[str, int],
                     output_shard: int) -> SplitResult:
        """Split a UTXO transaction into per-input transfers plus a final spend."""
        result = SplitResult(parent_tx=tx.tx_id)
        transferred: List[UTXO] = []
        for utxo_id in tx.inputs:
            shard = self.shards[input_shards[utxo_id]]
            try:
                spent = shard.utxos.spend(utxo_id, tx.tx_id)
                # The value moves to the output shard as a fresh UTXO (I').
                moved = UTXO.create(owner=spent.owner, amount=spent.amount)
                self.shards[output_shard].utxos.add(moved)
                transferred.append(moved)
                result.sub_transactions.append(SubTransaction(
                    parent_tx=tx.tx_id, shard_id=shard.shard_id,
                    description=f"transfer {utxo_id}", status=SubTxStatus.APPLIED))
            except InvalidTransactionError:
                result.sub_transactions.append(SubTransaction(
                    parent_tx=tx.tx_id, shard_id=shard.shard_id,
                    description=f"transfer {utxo_id}", status=SubTxStatus.FAILED))
        if len(transferred) == len(tx.inputs):
            out_shard = self.shards[output_shard]
            for moved in transferred:
                out_shard.utxos.spend(moved.utxo_id, tx.tx_id)
            for output in tx.outputs:
                out_shard.utxos.add(output)
            result.sub_transactions.append(SubTransaction(
                parent_tx=tx.tx_id, shard_id=output_shard,
                description="final spend", status=SubTxStatus.APPLIED))
        else:
            # RapidChain's recovery: owners of transferred inputs are told to
            # use the transferred copies (I') in future transactions; nothing
            # is rolled back and the final spend never happens.
            result.sub_transactions.append(SubTransaction(
                parent_tx=tx.tx_id, shard_id=output_shard,
                description="final spend", status=SubTxStatus.FAILED))
        self.results[tx.tx_id] = result
        return result

    # ------------------------------------------------------------ account path
    # detlint: disable=DEAD001 -- §6.1, Figure 4: account split breaks atomicity
    def execute_account_transfer(self, tx_id: str,
                                 debits: Sequence[Tuple[int, str, int]],
                                 credits: Sequence[Tuple[int, str, int]]) -> SplitResult:
        """Split an account-model transfer into per-shard debits and credits.

        ``debits`` / ``credits`` are ``(shard_id, account, amount)`` triples.
        The debits and credits are applied independently, in order, with no
        coordination — which is precisely why atomicity and isolation break.
        """
        result = SplitResult(parent_tx=tx_id)
        debits_ok = True
        for shard_id, account, amount in debits:
            shard = self.shards[shard_id]
            try:
                shard.debit(account, amount)
                status = SubTxStatus.APPLIED
            except InvalidTransactionError:
                status = SubTxStatus.FAILED
                debits_ok = False
            result.sub_transactions.append(SubTransaction(
                parent_tx=tx_id, shard_id=shard_id,
                description=f"debit {account} {amount}", status=status))
        for shard_id, account, amount in credits:
            shard = self.shards[shard_id]
            if debits_ok:
                shard.credit(account, amount)
                status = SubTxStatus.APPLIED
            else:
                # The credit is skipped, but already-applied debits are NOT
                # rolled back — the atomicity violation of Figure 4.
                status = SubTxStatus.FAILED
            result.sub_transactions.append(SubTransaction(
                parent_tx=tx_id, shard_id=shard_id,
                description=f"credit {account} {amount}", status=status))
        self.results[tx_id] = result
        return result

    # detlint: disable=DEAD001 -- oracle: Figure 4's test checks conservation with it
    def total_balance(self, accounts: Sequence[Tuple[int, str]]) -> int:
        """Sum of balances over (shard, account) pairs — conservation check."""
        return sum(self.shards[shard_id].balance(account) for shard_id, account in accounts)
