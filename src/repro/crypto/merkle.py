"""Merkle trees over transaction lists.

Blocks commit to their transactions through a Merkle root; light clients (and
our tests) can verify membership with logarithmic-size proofs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.crypto.hashing import digest_of, sha256_hex
from repro.errors import CryptoError

#: Root value of an empty tree.
EMPTY_ROOT = sha256_hex(b"empty-merkle-tree")


def _hash_pair(left: str, right: str) -> str:
    # Inlined sha256 over the concatenation: this runs ~2n times per n-leaf
    # tree build and is the innermost loop of block construction.
    return hashlib.sha256((left + "|" + right).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MerkleProof:
    """A membership proof: the leaf index and the sibling hashes bottom-up."""

    leaf_index: int
    leaf_hash: str
    siblings: tuple[tuple[str, str], ...]  # (side, hash) where side is "L" or "R"

    def compute_root(self) -> str:
        """Recompute the root implied by this proof."""
        current = self.leaf_hash
        for side, sibling in self.siblings:
            if side == "L":
                current = _hash_pair(sibling, current)
            elif side == "R":
                current = _hash_pair(current, sibling)
            else:
                raise CryptoError(f"invalid proof side {side!r}")
        return current


class MerkleTree:
    """A binary Merkle tree over a sequence of JSON-like items.

    The tree supports **incremental growth**: :meth:`extend` appends leaves
    and recomputes only the affected right spine of each level (O(m + log n)
    hashes for m new leaves) instead of rebuilding the whole tree, so a block
    builder that accumulates transactions pays for each leaf once.
    """

    def __init__(self, items: Sequence[Any] = ()) -> None:
        self._leaves: List[str] = [digest_of(item) for item in items]
        self._levels: List[List[str]] = []
        self._build()

    @classmethod
    def from_leaves(cls, leaf_hashes: Sequence[str]) -> "MerkleTree":
        """Build a tree from precomputed leaf digests (skips hashing the items)."""
        tree = cls.__new__(cls)
        tree._leaves = list(leaf_hashes)
        tree._levels = []
        tree._build()
        return tree

    def _build(self) -> None:
        if not self._leaves:
            self._levels = [[EMPTY_ROOT]]
            return
        level = list(self._leaves)
        self._levels = [level]
        while len(level) > 1:
            next_level: List[str] = []
            for index in range(0, len(level), 2):
                left = level[index]
                right = level[index + 1] if index + 1 < len(level) else left
                next_level.append(_hash_pair(left, right))
            self._levels.append(next_level)
            level = next_level

    # ------------------------------------------------------------ incremental
    def extend(self, items: Sequence[Any]) -> None:
        """Append ``items`` as new rightmost leaves, updating the tree in place.

        Only the right spine of each level changes when leaves are appended,
        so each level is recomputed from the first parent whose children
        changed — the rest of the tree is untouched.  The resulting levels
        (and therefore the root and all proofs) are identical to a full
        rebuild over the concatenated leaf list.
        """
        self.extend_leaves([digest_of(item) for item in items])

    def append(self, item: Any) -> None:
        """Append a single leaf (see :meth:`extend`)."""
        self.extend_leaves([digest_of(item)])

    def extend_leaves(self, leaf_hashes: Sequence[str]) -> None:
        """Append precomputed leaf digests (the incremental core of :meth:`extend`)."""
        if not leaf_hashes:
            return
        if not self._leaves:
            # The empty tree has a sentinel level; start fresh.
            self._leaves = list(leaf_hashes)
            self._build()
            return
        first_new = len(self._leaves)
        self._leaves.extend(leaf_hashes)
        level = self._levels[0]
        level.extend(leaf_hashes)
        # ``dirty`` is the index of the first entry of the current level whose
        # parent must be recomputed (the old rightmost entry may have been
        # paired with a duplicate of itself, so it is dirty too).
        dirty = first_new - 1 if first_new % 2 else first_new
        depth = 1
        while len(level) > 1:
            parent_dirty = dirty // 2
            if depth < len(self._levels):
                parent = self._levels[depth]
                del parent[parent_dirty:]
            else:
                parent = []
                self._levels.append(parent)
            for index in range(parent_dirty * 2, len(level), 2):
                left = level[index]
                right = level[index + 1] if index + 1 < len(level) else left
                parent.append(_hash_pair(left, right))
            level = parent
            dirty = parent_dirty
            depth += 1
        del self._levels[depth:]

    @property
    def root(self) -> str:
        """The Merkle root (a SHA-256 hex digest)."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, leaf_index: int) -> MerkleProof:
        """Return a membership proof for the leaf at ``leaf_index``."""
        if not 0 <= leaf_index < len(self._leaves):
            raise CryptoError(f"leaf index {leaf_index} out of range")
        siblings: List[tuple[str, str]] = []
        index = leaf_index
        for level in self._levels[:-1]:
            if index % 2 == 0:
                sibling_index = index + 1 if index + 1 < len(level) else index
                siblings.append(("R", level[sibling_index]))
            else:
                siblings.append(("L", level[index - 1]))
            index //= 2
        return MerkleProof(
            leaf_index=leaf_index,
            leaf_hash=self._leaves[leaf_index],
            siblings=tuple(siblings),
        )

    def verify(self, proof: MerkleProof, item: Any) -> bool:
        """Check that ``item`` is the leaf the proof claims, under this tree's root."""
        if proof.leaf_hash != digest_of(item):
            return False
        return proof.compute_root() == self.root
