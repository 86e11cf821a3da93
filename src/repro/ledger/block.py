"""Blocks and block headers."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Optional, Tuple

from repro.crypto.hashing import digest_of, json_string, sha256_hex
from repro.crypto.merkle import MerkleTree
from repro.ledger.transaction import Transaction

#: Previous-hash value of the genesis block.
GENESIS_PREV_HASH = "0" * 64


@dataclass(frozen=True)
class BlockHeader:
    """Header of a block: position in the chain plus commitments to its content."""

    height: int
    prev_hash: str
    merkle_root: str
    proposer: int
    view: int = 0
    timestamp: float = 0.0
    shard_id: int = 0

    @property
    def block_hash(self) -> str:
        """Digest of the header — the block identifier used by hash pointers.

        Computed once and memoized: the chain consults the tip's hash on
        every append and every consumer of a :class:`CommitEvent` may re-read
        it, so re-hashing the header per access is pure waste.  Writing
        straight to ``__dict__`` sidesteps the frozen-dataclass
        ``__setattr__`` guard without weakening it for the declared fields.
        """
        cached = self.__dict__.get("_block_hash")
        if cached is None:
            cached = self.__dict__["_block_hash"] = self._header_digest()
        return cached

    def _header_digest(self) -> str:
        """``digest_of`` the seven-field record, written as its template.

        Every replica re-chains an agreed block onto its own tip and so
        hashes an equal header of its own.  (Interning the hash by field
        tuple would make that one hash per distinct header, but ``0.0 ==
        -0.0`` and ``1 == 1.0 == True`` while their JSON differs, so the key
        would have to be the template itself — a lookup as dear as the hash.)
        """
        timestamp = self.timestamp
        if (type(self.height) is int and type(self.prev_hash) is str
                and type(self.merkle_root) is str and type(self.proposer) is int
                and type(self.view) is int and type(self.shard_id) is int
                and type(timestamp) is float and isfinite(timestamp)):
            return sha256_hex(
                f'{{"height":{self.height},"merkle_root":{json_string(self.merkle_root)},'
                f'"prev_hash":{json_string(self.prev_hash)},"proposer":{self.proposer},'
                f'"shard_id":{self.shard_id},"timestamp":{timestamp!r},"view":{self.view}}}')
        return digest_of({
            "height": self.height,
            "prev_hash": self.prev_hash,
            "merkle_root": self.merkle_root,
            "proposer": self.proposer,
            "view": self.view,
            "timestamp": self.timestamp,
            "shard_id": self.shard_id,
        })


@dataclass(frozen=True)
class Block:
    """A block: header plus the ordered list of transactions it commits."""

    header: BlockHeader
    transactions: Tuple[Transaction, ...] = field(default_factory=tuple)

    @property
    def block_hash(self) -> str:
        return self.header.block_hash

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def prev_hash(self) -> str:
        return self.header.prev_hash

    def __len__(self) -> int:
        return len(self.transactions)

    def verify_merkle_root(self) -> bool:
        """Check that the header's Merkle root matches the transaction list.

        The (immutable) outcome is memoized so repeated verification of the
        same block object — e.g. chain re-validation — hashes only once.
        """
        cached = self.__dict__.get("_merkle_ok")
        if cached is None:
            root = MerkleTree.from_leaves([tx.digest for tx in self.transactions]).root
            cached = root == self.header.merkle_root
            self.__dict__["_merkle_ok"] = cached
        return cached


def merkle_root_of(transactions: Tuple[Transaction, ...]) -> str:
    """Merkle root over a transaction list (one tree build)."""
    return MerkleTree.from_leaves([tx.digest for tx in transactions]).root


def build_block(height: int, prev_hash: str, transactions: Tuple[Transaction, ...],
                proposer: int, view: int = 0, timestamp: float = 0.0,
                shard_id: int = 0, merkle_root: Optional[str] = None) -> Block:
    """Construct a block, computing the transaction Merkle root.

    Pass ``merkle_root`` when the root over ``transactions`` is already known
    (e.g. re-chaining a block agreed by consensus) to skip rebuilding the
    tree — the single most frequent redundant hash in the commit hot path.
    """
    if merkle_root is None:
        merkle_root = merkle_root_of(transactions)
    header = BlockHeader(
        height=height,
        prev_hash=prev_hash,
        merkle_root=merkle_root,
        proposer=proposer,
        view=view,
        timestamp=timestamp,
        shard_id=shard_id,
    )
    return Block(header=header, transactions=tuple(transactions))


def make_genesis_block(shard_id: int = 0) -> Block:
    """The genesis block of a shard's chain."""
    return build_block(
        height=0,
        prev_hash=GENESIS_PREV_HASH,
        transactions=(),
        proposer=-1,
        view=0,
        timestamp=0.0,
        shard_id=shard_id,
    )
