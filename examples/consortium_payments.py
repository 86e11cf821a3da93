"""The paper's running example: a consortium ledger for cross-border payments.

A consortium of financial institutions shards a shared ledger.  Payments
between accounts held on different shards are cross-shard transactions and go
through the reference-committee 2PC/2PL protocol (Figure 5); this script
submits one explicitly and shows every phase's outcome, then contrasts the
liveness behaviour with OmniLedger's client-driven protocol under a malicious
coordinator.

Run with::

    python examples/consortium_payments.py
"""

from __future__ import annotations

from repro import ShardedBlockchain, ShardedSystemConfig
from repro.txn.coordinator import DistributedTxOutcome
from repro.txn.omniledger import OmniLedgerClientProtocol, OmniLedgerShard
from repro.txn.utxo import UTXO, UTXOTransaction
from repro.workloads.smallbank import SmallbankChaincode, account_key


def find_cross_shard_pair(system: ShardedBlockchain, accounts: int) -> tuple[str, str]:
    """Two accounts that live on different shards."""
    for a in range(accounts):
        for b in range(accounts):
            key_a, key_b = account_key(str(a)), account_key(str(b))
            if a != b and system.shard_of_key(key_a) != system.shard_of_key(key_b):
                return str(a), str(b)
    raise RuntimeError("no cross-shard account pair found")


def main() -> None:
    config = ShardedSystemConfig(
        num_shards=2, committee_size=3, protocol="AHL+",
        use_reference_committee=True, benchmark="smallbank", num_keys=200,
        consensus_overrides={"batch_size": 20, "view_change_timeout": 5.0}, seed=21,
    )
    system = ShardedBlockchain(config)
    chaincode = SmallbankChaincode()

    payer, payee = find_cross_shard_pair(system, config.num_keys)
    payer_shard = system.shard_of_key(account_key(payer))
    payee_shard = system.shard_of_key(account_key(payee))
    print(f"payer account {payer} lives on shard {payer_shard}, "
          f"payee account {payee} on shard {payee_shard}")

    payment = chaincode.new_transaction(
        "sendPayment", {"from": payer, "to": payee, "amount": 2_500},
        client_id="institution-A",
    )
    completed = []
    system.submit_transaction(payment, on_complete=completed.append)
    system.run(30.0)

    # ``completed[0]`` is the client's view (outcome and timing); the
    # coordination state — votes, acks — lives with the transaction's home
    # partition, its first participating shard.
    home = system.partitions[min(completed[0].shards)].home
    record = home.coordinator.records[payment.tx_id]
    print("\n=== cross-shard payment through the reference committee ===")
    print(f"transaction    : {record.tx_id}")
    print(f"involved shards: {record.shards}")
    print(f"prepare votes  : {record.prepare_votes}")
    print(f"outcome        : {record.outcome.value}")
    print(f"end-to-end time: {record.latency:.3f} s")
    payer_balance = system.shards[payer_shard].honest_observer().state.get(account_key(payer))
    payee_balance = system.shards[payee_shard].honest_observer().state.get(account_key(payee))
    print(f"balances after : payer={payer_balance}, payee={payee_balance}")
    assert record.outcome is DistributedTxOutcome.COMMITTED

    print("\n=== contrast: OmniLedger's client-driven commit with a malicious payee ===")
    shards = {0: OmniLedgerShard(0), 1: OmniLedgerShard(1), 2: OmniLedgerShard(2)}
    coin_a, coin_b = UTXO.create("payer", 1_500), UTXO.create("payer", 1_000)
    shards[0].fund(coin_a)
    shards[1].fund(coin_b)
    utxo_tx = UTXOTransaction.create([coin_a.utxo_id, coin_b.utxo_id],
                                     [UTXO.create("payee", 2_500)])
    malicious = OmniLedgerClientProtocol(shards=shards, crash_after_lock=True)
    state = malicious.execute(utxo_tx, {coin_a.utxo_id: 0, coin_b.utxo_id: 1}, output_shard=2)
    print(f"protocol state : {state.value}")
    print(f"frozen inputs  : {malicious.blocked_inputs()}")
    print("The payer's funds are locked forever — the blocking problem the "
          "reference committee removes.")


if __name__ == "__main__":
    main()
