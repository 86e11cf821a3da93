"""Ledger substrate: transactions, blocks, chains, world state and chaincodes.

This is the Hyperledger-Fabric-like layer the paper's system is built on:
the blockchain state is modelled as key-value tuples, smart contracts
(*chaincodes*) read and write those tuples, transactions are batched into
hash-chained blocks, and each committee/shard maintains its own chain and
state partition.  A fork-capable chain variant supports the Nakamoto-style
PoET/PoET+ protocols, which need fork resolution and stale-block accounting.
"""

from repro.ledger.transaction import Transaction, TxStatus, TransactionReceipt
from repro.ledger.block import Block, BlockHeader, GENESIS_PREV_HASH, make_genesis_block
from repro.ledger.blockchain import Blockchain, ForkableChain
from repro.ledger.state import StateStore, VersionedValue
from repro.ledger.chaincode import Chaincode, ChaincodeRegistry, ExecutionEngine

__all__ = [
    "Transaction",
    "TxStatus",
    "TransactionReceipt",
    "Block",
    "BlockHeader",
    "GENESIS_PREV_HASH",
    "make_genesis_block",
    "Blockchain",
    "ForkableChain",
    "StateStore",
    "VersionedValue",
    "Chaincode",
    "ChaincodeRegistry",
    "ExecutionEngine",
]
