"""Versioned key-value world state.

Hyperledger models blockchain state as key-value tuples accessible to
chaincode during execution; each shard owns a disjoint partition of the key
space.  :class:`StateStore` provides the get/put/delete interface, version
counters (for write-conflict detection), snapshots (for shard state transfer
during reconfiguration) and simple usage statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

#: A state value together with its version number: a plain ``(value,
#: version)`` tuple.  Plain on purpose — one exists per key, and CPython's
#: collector untracks a tuple of atoms after its first pass but never an
#: instance of a tuple *subclass* (a ``NamedTuple``), so a subclass here made
#: every full collection re-traverse the whole world state.
VersionedValue = Tuple[Any, int]


class StateStore:
    """A key-value store with per-key versions."""

    def __init__(self, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        self._data: Dict[str, VersionedValue] = {}
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        #: Lazily cached sum of per-entry serialised sizes (sans the fixed
        #: per-entry overhead).  Mutations only flip the dirty flag — a
        #: single attribute store — so the write hot path pays nothing;
        #: :meth:`size_bytes` rescans at most once per batch of mutations.
        self._raw_size = 0
        self._size_dirty = False

    # ------------------------------------------------------------------ basic
    def get(self, key: str, default: Any = None) -> Any:
        """Value stored at ``key``, or ``default``."""
        self.reads += 1
        entry = self._data.get(key)
        return entry[0] if entry is not None else default

    def put(self, key: str, value: Any) -> int:
        """Store ``value`` at ``key``; returns the new version number."""
        self.writes += 1
        current = self._data.get(key)
        version = (current[1] + 1) if current is not None else 1
        self._data[key] = (value, version)
        self._size_dirty = True
        return version

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns True if it existed."""
        self.deletes += 1
        existed = self._data.pop(key, None) is not None
        if existed:
            self._size_dirty = True
        return existed

    def exists(self, key: str) -> bool:
        return key in self._data

    def version(self, key: str) -> int:
        """Version of ``key`` (0 if absent)."""
        entry = self._data.get(key)
        return entry[1] if entry is not None else 0

    # ------------------------------------------------------------------ bulk
    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data.keys())

    def items(self) -> Iterator[Tuple[str, Any]]:
        return ((key, entry[0]) for key, entry in self._data.items())

    def snapshot(self) -> Dict[str, VersionedValue]:
        """A copy of the full state, used for shard state transfer."""
        return dict(self._data)

    def restore(self, snapshot: Dict[str, VersionedValue]) -> None:
        """Replace the state with a snapshot (new member joining a committee)."""
        self._data = dict(snapshot)
        self._size_dirty = True

    def size_bytes(self, per_entry_overhead: int = 64) -> int:
        """Rough serialised size, used to model state-transfer duration.

        Cached with dirty-tracking: repeated reads between mutations are
        O(1); a rescan happens at most once per batch of writes instead of
        on every call.
        """
        if self._size_dirty:
            self._raw_size = sum(
                len(key) + len(str(entry[0])) for key, entry in self._data.items()
            )
            self._size_dirty = False
        return self._raw_size + len(self._data) * per_entry_overhead
