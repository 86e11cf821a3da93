"""The ledger analytics & audit index: O(delta) incremental materializations.

At millions of blocks, every audit invariant and historical query that walks
a full chain (or rescans a full state store) is the dominant cost of a run —
and a *periodic* auditor doing it is quadratic.  This module is the fix: a
columnar index maintained **incrementally at commit time** from the existing
commit observers, so every consumer reads a running materialization instead
of recomputing over history.  The design follows the modular-materialisation
idea: each invariant/query is one "rule" kept up to date delta-at-a-time,
with a one-shot full rebuild retained as the differential oracle
(:func:`rebuild_index` — re-ingesting the chains from scratch must reproduce
the incremental index bit-for-bit).

Materializations maintained per committed block (each O(block) to update):

* **block rows** — per shard, columnar arrays of block hash, transaction
  count, cross-shard flag, commit/abort decision counts, epoch and
  timestamp, appended in height order along one hash-linked chain
  (duplicate commit reports from the committee fan-out are dropped; a
  competing branch that outgrows the followed chain triggers a bounded
  reorg, mirroring the replicas' longest-chain rule).
* **prefix sums** — cumulative transaction / cross-shard / decision columns,
  so any windowed query (throughput, cross-shard rate, abort rate over a
  height range) is O(1) per window — the SQL window-function accelerator
  idiom, materialized as running sums.
* **balance deltas** — for Smallbank, the exact per-account deltas each
  committed execution applied (derived from the receipts via
  :func:`repro.workloads.smallbank.receipt_deltas`), as running per-shard
  and global sums plus optional per-account history.  Money conservation
  becomes "the global running delta is zero" — O(1) to read.
* **per-epoch aggregates** — blocks/transactions per epoch, and the
  epoch-transition quorum margins fed in by the system.
* **attested slots** — the (enclave, log, position) -> digest binding map the
  rollback audit checks, with first-binding semantics.

The index is a pure observer: it never schedules events or mutates the
system, so an indexed run commits exactly the same blocks as a bare one.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.ledger.block import Block
from repro.ledger.state import StateStore

#: Chaincode functions that execute a cross-shard 2PC phase on a shard.
#: These are the canonical definitions — the auditor's atomicity check and
#: the index's cross-shard/decision columns must agree on them.
PREPARE_FUNCTIONS = ("preparePayment", "prepare_multi_put")
COMMIT_FUNCTIONS = ("commitPayment", "commit_multi_put")
ABORT_FUNCTIONS = ("abortPayment", "abort_multi_put")
CROSS_SHARD_FUNCTIONS = frozenset(PREPARE_FUNCTIONS + COMMIT_FUNCTIONS + ABORT_FUNCTIONS)

#: How many applied block payloads each shard retains for branch switches.
#: A committed fork (or a committee handover onto a restarted chain) deeper
#: than this cannot be reorged onto incrementally; the index then stays on
#: its branch and the auditor's sync checks surface the divergence.
REORG_WINDOW = 512


@dataclass(frozen=True)
class RangeStats:
    """Aggregates over a half-open height range ``[start, end)`` of one shard."""

    shard_id: int
    start_height: int
    end_height: int
    blocks: int
    transactions: int
    cross_shard_blocks: int
    commit_decisions: int
    abort_decisions: int

    @property
    def abort_rate(self) -> float:
        """Aborted cross-shard decisions over all decisions executed in the range."""
        decisions = self.commit_decisions + self.abort_decisions
        return self.abort_decisions / decisions if decisions else 0.0


class _ShardColumns:
    """Columnar per-shard block table with prefix sums.

    Rows are appended strictly in height order starting at ``origin + 1``
    (``origin`` is the chain height at registration time — 0 when the index
    attaches before the run).  Gap handling and deduplication live in
    :class:`LedgerIndex`, which only calls :meth:`append_row` contiguously.
    """

    __slots__ = ("shard_id", "origin", "origin_hash", "tip_height", "tip_hash",
                 "block_hash", "tx_count", "cum_tx", "cross", "cum_cross",
                 "commits", "cum_commits", "aborts", "cum_aborts",
                 "epoch", "timestamp")

    def __init__(self, shard_id: int, origin: int = 0,
                 tip_hash: Optional[str] = None) -> None:
        self.shard_id = shard_id
        self.origin = origin
        self.origin_hash = tip_hash
        self.tip_height = origin
        self.tip_hash = tip_hash
        #: Per-row block hashes (references to the blocks' own strings, so
        #: this column costs one pointer per row).  Lets the index tell a
        #: duplicate commit report (same hash) from a fork sibling
        #: (different block at an indexed height), and rewind its tip.
        self.block_hash: List[str] = []
        self.tx_count = array("q")
        self.cum_tx = array("q")
        self.cross = array("b")
        self.cum_cross = array("q")
        self.commits = array("q")
        self.cum_commits = array("q")
        self.aborts = array("q")
        self.cum_aborts = array("q")
        self.epoch = array("q")
        self.timestamp = array("d")

    def rows(self) -> int:
        return len(self.tx_count)

    def hash_at(self, height: int) -> Optional[str]:
        """The indexed block hash at ``height`` (origin hash at the origin)."""
        if height == self.origin:
            return self.origin_hash
        position = height - self.origin - 1
        if 0 <= position < len(self.block_hash):
            return self.block_hash[position]
        return None

    def append_row(self, height: int, row: Tuple) -> None:
        txs, cross, commits, aborts, epoch, timestamp, block_hash = row
        last = self.rows() - 1
        self.block_hash.append(block_hash)
        self.tx_count.append(txs)
        self.cum_tx.append(txs + (self.cum_tx[last] if last >= 0 else 0))
        self.cross.append(cross)
        self.cum_cross.append(cross + (self.cum_cross[last] if last >= 0 else 0))
        self.commits.append(commits)
        self.cum_commits.append(commits + (self.cum_commits[last] if last >= 0 else 0))
        self.aborts.append(aborts)
        self.cum_aborts.append(aborts + (self.cum_aborts[last] if last >= 0 else 0))
        self.epoch.append(epoch)
        self.timestamp.append(timestamp)
        self.tip_height = height
        self.tip_hash = block_hash

    def pop_row(self) -> None:
        """Rewind the tip by one row (branch-switch support)."""
        for column in (self.block_hash, self.tx_count, self.cum_tx, self.cross,
                       self.cum_cross, self.commits, self.cum_commits,
                       self.aborts, self.cum_aborts, self.epoch, self.timestamp):
            column.pop()
        self.tip_height -= 1
        self.tip_hash = self.block_hash[-1] if self.block_hash else self.origin_hash

    def range_stats(self, start_height: int, end_height: int) -> RangeStats:
        """O(1) aggregates over ``[start_height, end_height)`` via the prefix sums."""
        start = max(start_height, self.origin + 1)
        end = min(end_height, self.tip_height + 1)
        lo = start - self.origin - 1          # first row index in range
        hi = end - self.origin - 1            # one past the last row index

        def span(cum: array) -> int:
            if hi <= 0 or lo >= hi:
                return 0
            return cum[hi - 1] - (cum[lo - 1] if lo > 0 else 0)

        blocks = max(hi, 0) - max(lo, 0) if hi > lo else 0
        return RangeStats(
            shard_id=self.shard_id, start_height=start_height,
            end_height=end_height, blocks=max(blocks, 0),
            transactions=span(self.cum_tx),
            cross_shard_blocks=span(self.cum_cross),
            commit_decisions=span(self.cum_commits),
            abort_decisions=span(self.cum_aborts),
        )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "origin": self.origin,
            "tip_height": self.tip_height,
            "tip_hash": self.tip_hash,
            "block_hash": list(self.block_hash),
            "tx_count": list(self.tx_count),
            "cross": list(self.cross),
            "commits": list(self.commits),
            "aborts": list(self.aborts),
            "epoch": list(self.epoch),
            "timestamp": list(self.timestamp),
        }


class LedgerIndex:
    """Columnar index over committed blocks, maintained at commit time.

    Feed it with :meth:`ingest_block` (idempotent per (shard, height)); read
    the materializations through the query methods.  ``account_history=False``
    drops the per-account delta log (running balances are always kept) for
    long bounded-memory runs.
    """

    def __init__(self, account_history: bool = True) -> None:
        self.history_enabled = account_history
        self._shards: Dict[int, _ShardColumns] = {}
        #: account key -> running sum of applied deltas.
        self._account_delta: Dict[str, int] = {}
        #: account key -> [(height, shard, delta)] in ingestion order.
        self._history: Dict[str, List[Tuple[int, int, int]]] = {}
        self._net_delta = 0
        self._minted = 0
        self._shard_net_delta: Dict[int, int] = {}
        #: epoch -> [blocks, transactions, cross-shard blocks].
        self._epoch_totals: Dict[int, List[int]] = {}
        #: (enclave id, log name, position) -> first digest bound there.
        self._attested: Dict[Tuple[str, str, int], str] = {}
        #: shard -> {height -> [candidate payloads]}: blocks that cannot land
        #: on the followed chain yet — reports above a gap, and fork siblings
        #: of already-indexed heights.  A candidate lands only when it
        #: hash-links contiguously; a parked *branch* that strictly outgrows
        #: the followed chain triggers a reorg (see :meth:`_maybe_reorg`).
        self._parked: Dict[int, Dict[int, List[Tuple]]] = {}
        #: shard -> recent applied (height, payload) ring, so a branch switch
        #: can unapply the abandoned suffix (bounded by ``REORG_WINDOW``).
        self._recent: Dict[int, Deque[Tuple[int, Tuple]]] = {}
        #: account -> number of applied deltas currently materialized, so an
        #: unapply can tell "delta sums back to zero" from "never touched".
        self._account_touches: Dict[str, int] = {}
        self.blocks_indexed = 0
        self.duplicates_dropped = 0
        self.reorgs = 0
        self.reorged_out = 0

    # -------------------------------------------------------------- ingestion
    def register_shard(self, shard_id: int, origin_height: int = 0,
                       origin_hash: Optional[str] = None) -> None:
        """Declare a shard whose blocks will be ingested from ``origin_height``.

        ``origin_height > 0`` marks a mid-run attach: rows below the origin
        were never seen, so balance materializations are exact only relative
        to the state at the origin (see :meth:`balances_exact`).
        """
        if shard_id in self._shards:
            return
        self._shards[shard_id] = _ShardColumns(shard_id, origin=origin_height,
                                               tip_hash=origin_hash)
        self._shard_net_delta.setdefault(shard_id, 0)

    def ingest_block(self, shard_id: int, block: Block,
                     receipts: Sequence[Any] = (), epoch: int = 0) -> bool:
        """Index one committed block; returns True if it was newly accepted.

        Ingestion is idempotent and **hash-linked**: duplicate reports of an
        already-indexed block (same height, same hash) are dropped, and a row
        only lands contiguously if its ``prev_hash`` matches the index's tip
        hash — the committee commit fan-out re-reports blocks from *every*
        member after membership changes, and a joiner's local chain restarts
        its height numbering, so height alone cannot distinguish the
        canonical stream from a restarted one.  Anything that cannot land on
        the followed chain (a report above a gap, a fork sibling of an
        indexed height, a non-linking tip extension) is *parked*; when the
        parked candidates form a branch that hash-links off the followed
        chain and is **strictly longer** than it, the index switches to that
        branch (longest-wins, the same rule the replicas' chains follow),
        unapplying the abandoned suffix so every materialization counts one
        coherent chain's effects exactly once.
        """
        columns = self._shards.get(shard_id)
        if columns is None:
            self.register_shard(shard_id)
            columns = self._shards[shard_id]
        height = block.height
        parked = self._parked.setdefault(shard_id, {})
        if height <= columns.tip_height and (
                height <= columns.origin
                or columns.hash_at(height) == block.block_hash):
            self.duplicates_dropped += 1
            return False
        from repro.workloads.smallbank import receipt_deltas, receipt_minted

        receipts_by_id = {receipt.tx_id: receipt for receipt in receipts}
        txs = len(block.transactions)
        cross = 0
        commit_decisions = 0
        abort_decisions = 0
        minted = 0
        deltas: List[Tuple[str, int]] = []
        for tx in block.transactions:
            if tx.function in CROSS_SHARD_FUNCTIONS:
                cross = 1
            receipt = receipts_by_id.get(tx.tx_id)
            ok = receipt is not None and receipt.ok
            if ok:
                if tx.function in COMMIT_FUNCTIONS:
                    commit_decisions += 1
                elif tx.function in ABORT_FUNCTIONS:
                    abort_decisions += 1
            if ok and tx.chaincode == "smallbank":
                deltas.extend(receipt_deltas(tx, receipt))
                minted += receipt_minted(tx, receipt)
        row = (txs, cross, commit_decisions, abort_decisions, epoch,
               block.header.timestamp, block.block_hash)
        payload = (row, deltas, minted, block.prev_hash)
        if (height == columns.tip_height + 1
                and (columns.tip_hash is None
                     or block.prev_hash == columns.tip_hash)):
            self._apply(shard_id, columns, height, payload)
            self._flush_parked(shard_id, columns, parked)
            return True
        # Cannot land on the followed chain: a report above a gap, a fork
        # sibling of an indexed height, or a tip extension that links a
        # different chain.  Park the whole payload — it lands later if the
        # gap fills and it hash-links, or as part of a branch switch if its
        # branch outgrows the followed one.
        candidates = parked.setdefault(height, [])
        if any(existing[0][-1] == block.block_hash for existing in candidates):
            self.duplicates_dropped += 1
            return False
        candidates.append(payload)
        self._maybe_reorg(shard_id, columns, parked)
        return True

    def _flush_parked(self, shard_id: int, columns: _ShardColumns,
                      parked: Dict[int, List[Tuple]]) -> None:
        """Land parked rows that now hash-link contiguously onto the tip."""
        while True:
            next_height = columns.tip_height + 1
            candidates = parked.get(next_height)
            if not candidates:
                return
            linked = next((payload for payload in candidates
                           if columns.tip_hash is None
                           or payload[3] == columns.tip_hash), None)
            if linked is None:
                return  # all candidates extend some other chain; keep waiting
            candidates.remove(linked)
            if not candidates:
                del parked[next_height]
            self._apply(shard_id, columns, next_height, linked)

    def _maybe_reorg(self, shard_id: int, columns: _ShardColumns,
                     parked: Dict[int, List[Tuple]]) -> None:
        """Switch to a parked branch that strictly outgrew the followed chain.

        A branch is a hash-linked run of parked candidates whose first block
        links to an indexed block (or the origin).  The longest such branch
        wins only if it is strictly taller than the current tip — mirroring
        the replicas' own longest-chain rule, so e.g. a full-committee
        handover onto a restarted, re-batched chain is followed as soon as
        that chain overtakes the abandoned one.  The unapplied suffix is
        parked again, so a switch is lossless and reversible; a branch point
        deeper than the ``REORG_WINDOW`` of retained payloads cannot be
        switched to (the auditor's sync checks surface that).
        """
        if not parked:
            return
        tip = columns.tip_height
        best: Optional[Tuple[int, List[Tuple[int, Tuple]]]] = None
        for start in sorted(h for h in parked if columns.origin < h <= tip + 1):
            parent = columns.hash_at(start - 1)
            for candidate in parked[start]:
                if parent is not None and candidate[3] != parent:
                    continue
                branch = [(start, candidate)]
                branch_hash = candidate[0][-1]
                next_height = start + 1
                while True:
                    extension = next((p for p in parked.get(next_height, ())
                                      if p[3] == branch_hash), None)
                    if extension is None:
                        break
                    branch.append((next_height, extension))
                    branch_hash = extension[0][-1]
                    next_height += 1
                if branch[-1][0] > tip and (best is None
                                            or branch[-1][0] > best[0]):
                    best = (branch[-1][0], branch)
        if best is None:
            return
        branch = best[1]
        depth = tip - (branch[0][0] - 1)
        recent = self._recent.get(shard_id)
        if depth > 0 and (recent is None or len(recent) < depth):
            return  # branch point fell out of the reorg window
        for _ in range(depth):
            old_height, old_payload = recent.pop()
            self._unapply(shard_id, columns, old_height, old_payload)
            parked.setdefault(old_height, []).append(old_payload)
            self.reorged_out += 1
        for height, payload in branch:
            candidates = parked[height]
            candidates.remove(payload)
            if not candidates:
                del parked[height]
            self._apply(shard_id, columns, height, payload)
        self.reorgs += 1
        self._flush_parked(shard_id, columns, parked)

    def _apply(self, shard_id: int, columns: _ShardColumns, height: int,
               payload: Tuple) -> None:
        """Land one block's row and fold its effects into the running sums."""
        row, deltas, minted = payload[0], payload[1], payload[2]
        columns.append_row(height, row)
        txs, cross, _, _, epoch, _, _ = row
        self.blocks_indexed += 1
        self._minted += minted
        for account, delta in deltas:
            self._account_delta[account] = self._account_delta.get(account, 0) + delta
            self._account_touches[account] = self._account_touches.get(account, 0) + 1
            if self.history_enabled:
                self._history.setdefault(account, []).append((height, shard_id, delta))
            self._net_delta += delta
            self._shard_net_delta[shard_id] = (
                self._shard_net_delta.get(shard_id, 0) + delta)
        totals = self._epoch_totals.setdefault(epoch, [0, 0, 0])
        totals[0] += 1
        totals[1] += txs
        totals[2] += cross
        self._recent.setdefault(shard_id, deque(maxlen=REORG_WINDOW)).append(
            (height, payload))

    def _unapply(self, shard_id: int, columns: _ShardColumns, height: int,
                 payload: Tuple) -> None:
        """Reverse :meth:`_apply` for the current tip row (reorg rewind).

        Must be called top-down from the tip, so an account's most recent
        history entries are exactly this payload's.
        """
        row, deltas, minted = payload[0], payload[1], payload[2]
        columns.pop_row()
        txs, cross, _, _, epoch, _, _ = row
        self.blocks_indexed -= 1
        self._minted -= minted
        for account, delta in reversed(deltas):
            self._account_delta[account] -= delta
            self._account_touches[account] -= 1
            if self.history_enabled:
                self._history[account].pop()
            if self._account_touches[account] == 0:
                del self._account_touches[account]
                del self._account_delta[account]
                if self.history_enabled:
                    del self._history[account]
            self._net_delta -= delta
            self._shard_net_delta[shard_id] -= delta
        totals = self._epoch_totals[epoch]
        totals[0] -= 1
        totals[1] -= txs
        totals[2] -= cross
        if totals[0] == 0:
            del self._epoch_totals[epoch]

    def record_attestation(self, enclave_id: str, log_name: str, position: int,
                           digest: str) -> Optional[str]:
        """Record one attested append; returns the previously bound digest, if any.

        First-binding semantics: a slot binds to the digest first seen there;
        a later conflicting digest is returned to the caller (the auditor
        turns it into a rollback violation) and does not overwrite.
        """
        key = (enclave_id, log_name, position)
        bound = self._attested.get(key)
        if bound is None:
            self._attested[key] = digest
            return None
        return bound

    # ---------------------------------------------------------------- queries
    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._shards)

    def tip_height(self, shard_id: int) -> int:
        columns = self._shards.get(shard_id)
        return columns.tip_height if columns is not None else 0

    def tip_hash(self, shard_id: int) -> Optional[str]:
        columns = self._shards.get(shard_id)
        return columns.tip_hash if columns is not None else None

    def tx_count(self, shard_id: Optional[int] = None) -> int:
        if shard_id is not None:
            columns = self._shards.get(shard_id)
            return columns.cum_tx[-1] if columns is not None and columns.rows() else 0
        return sum(columns.cum_tx[-1]
                   for columns in self._shards.values() if columns.rows())

    def balances_exact(self) -> bool:
        """Whether the balance materializations saw every block of the
        chains being followed.

        False when a shard was registered mid-run (``origin > 0``) or has
        rows parked *above* its tip (a gap in, or a branch racing ahead of,
        the followed chain) — callers should fall back to a full state scan
        then.  Fork siblings parked at or below the tip (abandoned branches)
        do not affect exactness: the followed chain itself is complete.
        """
        for shard_id, columns in self._shards.items():
            if columns.origin != 0:
                return False
            if any(height > columns.tip_height
                   for height in self._parked.get(shard_id, ())):
                return False
        return True

    def pending_heights(self, shard_id: int) -> List[int]:
        """Parked heights above the tip — rows the followed chain is missing."""
        tip = self.tip_height(shard_id)
        return sorted(height for height in self._parked.get(shard_id, ())
                      if height > tip)

    def minted(self) -> int:
        """Running sum of legitimately created money (deposits, createAccount)."""
        return self._minted

    def balance_drift(self) -> int:
        """Applied deltas minus legitimate mints — 0 iff money was conserved.

        This is the O(1) money-conservation invariant: every transfer nets
        to zero, so any non-zero drift means a delta was lost, duplicated or
        forged somewhere in the committed history.
        """
        return self._net_delta - self._minted

    def account_delta(self, account: str) -> int:
        return self._account_delta.get(account, 0)

    def account_history(self, account: str) -> List[Tuple[int, int, int]]:
        """The (height, shard, delta) log of one account, ingestion order."""
        if not self.history_enabled:
            raise ConfigurationError("account history disabled for this index")
        return list(self._history.get(account, ()))

    def range_stats(self, shard_id: int, start_height: int,
                    end_height: int) -> RangeStats:
        """O(1) aggregates over ``[start_height, end_height)`` of one shard."""
        columns = self._shards.get(shard_id)
        if columns is None:
            return RangeStats(shard_id, start_height, end_height, 0, 0, 0, 0, 0)
        return columns.range_stats(start_height, end_height)

    def epoch_summary(self) -> Dict[int, Dict[str, int]]:
        """Per-epoch block/transaction/cross-shard totals (running aggregates)."""
        return {epoch: {"blocks": totals[0], "transactions": totals[1],
                        "cross_shard_blocks": totals[2]}
                for epoch, totals in sorted(self._epoch_totals.items())}

    @property
    def attestations_recorded(self) -> int:
        return len(self._attested)

    # ------------------------------------------------------------- comparison
    def snapshot(self) -> Dict[str, Any]:
        """The complete chain-derived materialization, for differential compares.

        Covers everything :func:`rebuild_index` can recompute from the chains
        alone; the control-plane record of attested slots is exposed through
        :attr:`attestations_recorded` instead.
        """
        return {
            "shards": {shard_id: columns.snapshot()
                       for shard_id, columns in sorted(self._shards.items())},
            "account_delta": dict(sorted(self._account_delta.items())),
            "history": ({account: list(entries)
                         for account, entries in sorted(self._history.items())}
                        if self.history_enabled else None),
            "net_delta": self._net_delta,
            "minted": self._minted,
            "shard_net_delta": dict(sorted(self._shard_net_delta.items())),
            "epoch_totals": {epoch: list(totals)
                             for epoch, totals in sorted(self._epoch_totals.items())},
        }


def rebuild_index(
    chains: Dict[int, Any],
    registry_factory: Callable[[int], Any],
    populate: Optional[Callable[[int, StateStore], None]] = None,
    epoch_of: Optional[Callable[[float], int]] = None,
    account_history: bool = True,
) -> LedgerIndex:
    """The one-shot full-rebuild path: re-derive the index from the chains.

    Replays every retained block body of every chain through a fresh
    execution engine (built from ``registry_factory(shard_id)`` — per shard,
    because e.g. the reference committee runs a different chaincode than the
    benchmark shards — and seeded by ``populate`` with the same initial
    state the shards were loaded with) and ingests the resulting receipts
    into a fresh :class:`LedgerIndex`.  This is the differential oracle for the
    incremental maintenance: for a full-retention run,
    ``rebuild_index(...).snapshot() == live_index.snapshot()`` must hold
    bit-for-bit.  O(chain) by construction — which is exactly why the live
    path never calls it.

    ``epoch_of`` maps a block header timestamp to its epoch (default: all
    epoch 0); pass :meth:`repro.sharding.epochs.EpochSchedule.epoch_of` to
    reproduce the live epoch column.

    Raises :class:`ConfigurationError` if any chain pruned bodies (header
    retention): receipts cannot be re-derived for pruned blocks, so the
    oracle only applies to full-retention chains.
    """
    from repro.ledger.chaincode import ExecutionEngine

    index = LedgerIndex(account_history=account_history)
    for shard_id in sorted(chains):
        chain = chains[shard_id]
        if len(chain.blocks()) != len(chain.headers()):
            raise ConfigurationError(
                f"shard {shard_id} pruned block bodies (header retention): "
                "the rebuild oracle needs every body to replay receipts")
        state = StateStore()
        if populate is not None:
            populate(shard_id, state)
        engine = ExecutionEngine(registry_factory(shard_id), state)
        index.register_shard(shard_id, origin_height=0,
                             origin_hash=chain.header_at(0).block_hash)
        for block in chain.blocks():
            if block.height == 0:
                continue  # genesis commits nothing
            receipts = engine.execute_block(block, now=block.header.timestamp)
            epoch = epoch_of(block.header.timestamp) if epoch_of is not None else 0
            index.ingest_block(shard_id, block, receipts, epoch=epoch)
    return index


def snapshot_diff(a: Any, b: Any, path: str = "snapshot") -> Optional[str]:
    """First difference between two :meth:`LedgerIndex.snapshot` values.

    Returns a ``path: left != right`` description of the first divergence
    (deterministic order), or None if the snapshots are identical — the
    error message of the ``incremental == rebuild`` differential gate.
    """
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a:
                return f"{path}.{key}: only in the rebuilt index"
            if key not in b:
                return f"{path}.{key}: only in the incremental index"
            diff = snapshot_diff(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for position, (left, right) in enumerate(zip(a, b)):
            diff = snapshot_diff(left, right, f"{path}[{position}]")
            if diff is not None:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None
