"""Chains: the append-only BFT chain and the fork-capable Nakamoto chain."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, InvalidBlockError
from repro.ledger.block import Block, BlockHeader, make_genesis_block


class Blockchain:
    """An append-only, fork-free chain as maintained by BFT committees.

    BFT consensus totally orders blocks, so the chain never forks; appending
    a block whose ``prev_hash`` or ``height`` does not extend the tip is an
    error.

    Two levers bound the per-append and per-replica cost for long runs:

    * ``append(block, verify_merkle=False)`` — the trusted-append fast path
      for blocks whose Merkle root was already agreed by consensus (the
      default re-verifies, which is what untrusted ingestion wants);
    * ``retention="headers"`` — keep every :class:`BlockHeader` (so hash
      pointers, heights and running totals remain exact) but only the most
      recent ``retain_recent`` full blocks, bounding replica memory by the
      in-flight window instead of the run length.

    ``total_transactions`` is a running counter maintained on append — the
    metrics path reads it per report, so it must not be O(chain).
    """

    #: Retention modes: "full" keeps every block; "headers" keeps all
    #: headers but only the ``retain_recent`` newest block bodies.
    RETENTION_MODES = ("full", "headers")

    def __init__(self, shard_id: int = 0, genesis: Optional[Block] = None,
                 retention: str = "full", retain_recent: int = 16) -> None:
        if retention not in self.RETENTION_MODES:
            raise ConfigurationError(f"unknown retention mode {retention!r}")
        if retain_recent < 1:
            raise ConfigurationError("retain_recent must be at least 1")
        self.shard_id = shard_id
        self.retention = retention
        self.retain_recent = retain_recent
        genesis = genesis or make_genesis_block(shard_id)
        self._headers: List[BlockHeader] = [genesis.header]
        #: height-keyed bodies; in "full" mode never evicted.
        self._bodies: "OrderedDict[int, Block]" = OrderedDict([(0, genesis)])
        self._tip: Block = genesis
        self._total_transactions = len(genesis)

    # ----------------------------------------------------------------- access
    @property
    def height(self) -> int:
        """Height of the tip block."""
        return self._headers[-1].height

    @property
    def tip(self) -> Block:
        return self._tip

    def __len__(self) -> int:
        return len(self._headers)

    def header_at(self, height: int) -> BlockHeader:
        """Header at ``height`` — available at every height in both retention modes."""
        if not 0 <= height < len(self._headers):
            raise InvalidBlockError(f"no block at height {height}")
        return self._headers[height]

    def blocks(self) -> List[Block]:
        """A copy of the retained full blocks, lowest height first.

        In "full" retention this is the whole chain (genesis first); in
        "headers" retention only the recent window of bodies is available.
        """
        return list(self._bodies.values())

    def headers(self) -> List[BlockHeader]:
        """A copy of every header, genesis first (both retention modes)."""
        return list(self._headers)

    def total_transactions(self) -> int:
        """Transactions committed on the chain (running counter, O(1))."""
        return self._total_transactions

    # ----------------------------------------------------------------- append
    def append(self, block: Block, verify_merkle: bool = True) -> None:
        """Append ``block`` to the tip; validates height, hash pointer and Merkle root.

        ``verify_merkle=False`` is the trusted-append fast path: the caller
        asserts the root was already checked (e.g. it was computed from the
        very transaction list the block carries, or a BFT quorum agreed on
        it).  Untrusted ingestion must keep the default.
        """
        tip = self._tip
        if block.height != tip.height + 1:
            raise InvalidBlockError(
                f"expected height {tip.height + 1}, got {block.height}"
            )
        if block.prev_hash != tip.block_hash:
            raise InvalidBlockError("previous-hash pointer does not match the tip")
        if verify_merkle and not block.verify_merkle_root():
            raise InvalidBlockError("merkle root does not match the block's transactions")
        self._headers.append(block.header)
        self._bodies[block.height] = block
        self._tip = block
        self._total_transactions += len(block)
        if self.retention == "headers":
            while len(self._bodies) > self.retain_recent:
                self._bodies.popitem(last=False)

    def verify_suffix(self, from_height: int) -> bool:
        """Re-validate hash pointers from ``from_height`` to the tip only.

        ``verify_suffix(0)`` re-validates the whole chain; a caller that
        already verified the chain up to ``from_height`` (and holds the hash
        it saw there) only needs the new suffix checked — O(blocks since
        last verify), not O(chain).  Checks every header link in
        ``[from_height, tip]`` plus the Merkle root of every *retained* body
        in that range.  ``from_height`` at or past the tip verifies nothing
        and returns True.
        """
        start = max(from_height, 0)
        for prev, current in zip(self._headers[start:], self._headers[start + 1:]):
            if current.prev_hash != prev.block_hash or current.height != prev.height + 1:
                return False
        for height in range(start, self.height + 1):
            block = self._bodies.get(height)
            if block is not None and not block.verify_merkle_root():
                return False
        return True


@dataclass
class _ForkNode:
    block: Block
    depth: int
    children: List[str] = field(default_factory=list)


class ForkableChain:
    """A block tree with longest-chain selection, for PoET/PoET+.

    Nakamoto-style protocols fork when multiple leaders propose at roughly
    the same time; the fork is resolved in favour of the longest branch and
    blocks on losing branches become **stale blocks** — the quantity Figure 22
    reports.
    """

    def __init__(self, shard_id: int = 0) -> None:
        genesis = make_genesis_block(shard_id)
        self._nodes: Dict[str, _ForkNode] = {
            genesis.block_hash: _ForkNode(block=genesis, depth=0)
        }
        self._best_tip = genesis.block_hash
        #: Hashes on the current main chain (genesis included).  Maintained
        #: incrementally by :meth:`add_block` — extending the tip is O(1) and
        #: a reorg costs O(reorg depth) — so ``stale_blocks``/``stale_rate``
        #: are O(1) reads in the fig21/fig22 PoET hot loop.
        self._on_main: set[str] = {genesis.block_hash}
        self.shard_id = shard_id

    # ----------------------------------------------------------------- access
    @property
    def best_tip(self) -> Block:
        """Tip of the currently longest branch."""
        return self._nodes[self._best_tip].block

    @property
    def height(self) -> int:
        return self._nodes[self._best_tip].depth

    def contains(self, block_hash: str) -> bool:
        return block_hash in self._nodes

    def total_blocks(self) -> int:
        """All blocks ever added, including genesis and stale blocks."""
        return len(self._nodes)

    def main_chain(self) -> List[Block]:
        """Blocks on the longest branch, genesis first."""
        chain: List[Block] = []
        cursor: Optional[str] = self._best_tip
        while cursor is not None:
            node = self._nodes[cursor]
            chain.append(node.block)
            cursor = node.block.prev_hash if node.depth > 0 else None
            if cursor is not None and cursor not in self._nodes:
                break
        return list(reversed(chain))

    def stale_blocks(self) -> int:
        """Number of non-genesis blocks that are not on the main chain (O(1))."""
        return len(self._nodes) - len(self._on_main)

    def stale_rate(self) -> float:
        """Stale blocks divided by total non-genesis blocks (Figure 22's metric)."""
        produced = self.total_blocks() - 1
        if produced <= 0:
            return 0.0
        return self.stale_blocks() / produced

    # ----------------------------------------------------------------- append
    def add_block(self, block: Block) -> bool:
        """Add a block extending any known block.

        Returns True if the block extended the main chain (i.e. became the
        new best tip), False if it created or extended a side branch.
        Raises :class:`InvalidBlockError` if the parent is unknown.
        """
        if block.block_hash in self._nodes:
            return False
        parent = self._nodes.get(block.prev_hash)
        if parent is None:
            raise InvalidBlockError("parent block is unknown")
        depth = parent.depth + 1
        self._nodes[block.block_hash] = _ForkNode(block=block, depth=depth)
        parent.children.append(block.block_hash)
        if depth > self._nodes[self._best_tip].depth:
            if block.prev_hash == self._best_tip:
                # Fast path: extending the current main chain.
                self._on_main.add(block.block_hash)
            else:
                self._reorg_to(block)
            self._best_tip = block.block_hash
            return True
        return False

    def _reorg_to(self, new_tip: Block) -> None:
        """Move the main-chain marker to the branch ending at ``new_tip``.

        Walks the new branch down to its junction with the current main
        chain, then retires the old branch back to that same junction — both
        walks are bounded by the reorg depth, not the chain length.
        """
        joining: List[str] = []
        cursor = new_tip.block_hash
        while cursor not in self._on_main:
            joining.append(cursor)
            node = self._nodes[cursor]
            if node.depth == 0:
                break
            cursor = node.block.prev_hash
        junction = cursor if cursor in self._on_main else None
        retiring = self._best_tip
        while retiring != junction and retiring in self._on_main:
            self._on_main.discard(retiring)
            node = self._nodes[retiring]
            if node.depth == 0:
                break
            retiring = node.block.prev_hash
        self._on_main.update(joining)
