"""The safety auditor: global invariants over any sharded-system run.

The simulation's experiments report throughput; the *auditor* reports whether
the run was actually safe.  It subscribes to every replica's commit events
and every enclave's attested appends as the run executes (joiners admitted at
epoch boundaries are picked up through the cluster's member-admitted hook),
accumulates evidence, and :meth:`SafetyAuditor.check` turns that evidence
plus end-state inspection into a list of violations:

* **committed-prefix** — all honest replicas of a committee executed the
  same transactions in the same global order.  Each replica's committed
  stream is placed at its global offset (``_committed_before_join`` for
  members that installed a state snapshot mid-run), and the first writer of
  every position fixes the expected transaction; any later disagreement is a
  fork.  Honest observers' chains must also hash-verify.
* **cross-shard-atomicity** — per-shard decision logs: a transaction that
  executed its CommitTx on one shard must never execute its AbortTx on
  another (and vice versa).
* **money-conservation** — at quiescence the Smallbank balances across all
  shards sum to the initial endowment (checked only when the run is
  quiescent; use :meth:`settle` to drain in-flight work first).
* **attested-slot-uniqueness** — across each enclave's whole lifetime,
  including restarts, no (log, position) is ever bound to two digests.  The
  enclave enforces this internally *while it is honest and its state
  survives*; the auditor re-checks it from outside, which is what catches a
  broken rollback defence (a restarted enclave re-binding an old slot).
* **epoch-quorum-margin** — swap-batch epoch transitions must keep every
  committee's active-members-minus-quorum margin non-negative (the paper's
  liveness criterion; swap-all is expected to dip and is not flagged).

Memory: the auditor keeps one entry per committed transaction position and
per attested slot, i.e. it is meant for bounded audit runs (the adversarial
benchmark matrix, CI), not for unbounded soak tests.

The auditor never mutates the system: attaching it adds pure observers, so
an audited run commits the same blocks as an unaudited one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.base import CommitEvent, ConsensusReplica
from repro.core.splitters import (
    REFERENCE_SHARD_ID,
    chaincode_registry,
    initial_state,
)
from repro.core.system import ShardedBlockchain
from repro.ledger.index import (
    ABORT_FUNCTIONS as _ABORT_FUNCTIONS,
    COMMIT_FUNCTIONS as _COMMIT_FUNCTIONS,
    rebuild_index,
    snapshot_diff,
)


@dataclass
class AuditViolation:
    """One broken invariant, with enough context to reproduce the claim."""

    check: str
    shard: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = f"shard {self.shard}" if self.shard is not None else "system"
        return f"[{self.check}] {where}: {self.detail}"


@dataclass
class AuditReport:
    """Outcome of one :meth:`SafetyAuditor.check` call."""

    violations: List[AuditViolation]
    checks_run: List[str]
    blocks_audited: int = 0
    transactions_audited: int = 0
    attestations_recorded: int = 0
    equivocation_refusals: int = 0
    degraded_observer_reads: int = 0
    quiescent: bool = True
    #: Checks skipped (with reasons), e.g. money conservation on a run that
    #: never drained — skipping is reported, never silent.
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines = [
            f"safety audit: {status} "
            f"({self.blocks_audited} blocks / {self.transactions_audited} tx positions / "
            f"{self.attestations_recorded} attested slots audited; "
            f"{self.equivocation_refusals} enclave refusals)"
        ]
        lines.extend(str(violation) for violation in self.violations)
        for check, reason in self.skipped.items():
            lines.append(f"[{check}] skipped: {reason}")
        return "\n".join(lines)


class SafetyAuditor:
    """Attach to a :class:`ShardedBlockchain` before running it."""

    CHECKS = (
        "committed-prefix",
        "cross-shard-atomicity",
        "money-conservation",
        "attested-slot-uniqueness",
        "epoch-quorum-margin",
    )

    def __init__(self, system: ShardedBlockchain) -> None:
        self.system = system
        #: The commit-time ledger index every O(delta) check reads from.
        self.index = system.enable_analytics()
        #: shard -> global position -> first-recorded transaction id.
        self._prefix: Dict[int, Dict[int, str]] = {}
        #: (shard, replica id) -> next global position of that replica's stream.
        self._positions: Dict[Tuple[int, int], int] = {}
        #: origin tx id -> set of (shard, "commit"/"abort") decision executions.
        self._decisions: Dict[str, Set[Tuple[int, str]]] = {}
        #: Violations detected while recording (fork / re-binding seen live).
        self._live_violations: List[AuditViolation] = []
        #: shard -> (observer node id, hash-verified height, hash there).
        #: The incremental chain check resumes from this marker; an observer
        #: switch or a marker mismatch forces one full re-verify.
        self._verified: Dict[int, Tuple[int, int, str]] = {}
        #: How many leading ``system.epoch_transitions`` entries are final
        #: (completed and already folded into ``_margin_violations``).
        self._margins_consumed = 0
        self._margin_violations: List[AuditViolation] = []
        self.blocks_audited = 0
        self.transactions_audited = 0
        self._attach()

    # ------------------------------------------------------------- attachment
    def _attach(self) -> None:
        # Every committee's live cluster, the reference committee included
        # (process mode refuses — its replicas live in other address spaces;
        # audit the bit-identical workers=None run).
        self._clusters = self.system.audit_clusters()
        if self.system.reference is not None:
            self._clusters[REFERENCE_SHARD_ID] = self.system.reference
        for shard_id, cluster in self._clusters.items():
            for replica in cluster.replicas:
                self._observe_replica(shard_id, replica)
            cluster.on_member_admitted(
                lambda replica, shard_id=shard_id:
                self._observe_replica(shard_id, replica))

    def _observe_replica(self, shard_id: int, replica: ConsensusReplica) -> None:
        replica.on_commit(lambda event, shard_id=shard_id, replica=replica:
                          self.observe_commit(shard_id, replica, event))
        log = getattr(replica, "attested_log", None)
        if log is not None:
            log.append_listener = self.observe_append

    # -------------------------------------------------------------- recording
    def observe_commit(self, shard_id: int, replica: ConsensusReplica,
                       event: CommitEvent) -> None:
        """Record one replica's block execution (called by the commit hook)."""
        self.blocks_audited += 1
        self._record_decisions(shard_id, event)
        if replica.byzantine is not None:
            # The agreement invariant protects honest replicas; a Byzantine
            # member's local chain is allowed to be garbage.
            return
        key = (shard_id, replica.node_id)
        position = self._positions.get(key)
        if position is None:
            # First block from this replica: members that installed a state
            # snapshot mid-run start at the snapshot's global offset.
            position = replica._committed_before_join
        prefix = self._prefix.setdefault(shard_id, {})
        for tx in event.block.transactions:
            expected = prefix.get(position)
            if expected is None:
                prefix[position] = tx.tx_id
                self.transactions_audited += 1
            elif expected != tx.tx_id:
                self._live_violations.append(AuditViolation(
                    "committed-prefix", shard_id,
                    f"replica {replica.node_id} executed {tx.tx_id} at global "
                    f"position {position}, but {expected} was committed there "
                    "first — honest replicas have forked"))
            position += 1
        self._positions[key] = position

    def _record_decisions(self, shard_id: int, event: CommitEvent) -> None:
        receipts = {receipt.tx_id: receipt for receipt in event.receipts}
        for tx in event.block.transactions:
            if tx.function in _COMMIT_FUNCTIONS:
                kind = "commit"
            elif tx.function in _ABORT_FUNCTIONS:
                kind = "abort"
            else:
                continue
            receipt = receipts.get(tx.tx_id)
            if receipt is None or not receipt.ok:
                continue
            origin = str(tx.args.get("tx_id", ""))
            executed = self._decisions.setdefault(origin, set())
            opposite = "abort" if kind == "commit" else "commit"
            if any(other_kind == opposite for _, other_kind in executed):
                self._live_violations.append(AuditViolation(
                    "cross-shard-atomicity", shard_id,
                    f"transaction {origin} executed {kind} on shard {shard_id} "
                    f"after {opposite} elsewhere: {sorted(executed)}"))
            executed.add((shard_id, kind))

    def observe_append(self, enclave_id: str, log_name: str, position: int,
                       digest: str) -> None:
        """Record one attested append (called by the enclave's listener).

        Slot storage lives in the ledger index (first-binding semantics);
        the auditor turns a conflicting re-binding into a violation.
        """
        bound = self.index.record_attestation(enclave_id, log_name, position, digest)
        if bound is not None and bound != digest:
            self._live_violations.append(AuditViolation(
                "attested-slot-uniqueness", None,
                f"enclave {enclave_id} bound log {log_name!r} position "
                f"{position} to a second digest ({bound[:12]}… then "
                f"{digest[:12]}…) — the rollback defence failed"))

    # ------------------------------------------------------------- quiescence
    def is_quiescent(self) -> bool:
        """Every transaction the coordinators began has completed."""
        stats = self.system.coordination_stats()
        return stats.started == stats.committed + stats.aborted

    def _progress_snapshot(self) -> tuple:
        stats = self.system.coordination_stats()
        per_shard = tuple(
            cluster.honest_observer().committed_transactions()
            for _, cluster in sorted(self._clusters.items()))
        return (stats.committed, stats.aborted, per_shard)

    def settle(self, max_seconds: float = 180.0, step: float = 0.5) -> bool:
        """Drain in-flight work so quiescent invariants can be checked.

        Advances the simulation in ``step`` slices until the coordinator has
        completed everything it began *and* per-shard execution has stopped
        advancing (lagging replicas may still be applying blocks after the
        last 2PC ack), or until ``max_seconds`` of simulated time pass.
        Returns whether quiescence was reached — a False return usually means
        the run lost liveness, which the caller should treat as a failure in
        its own right.
        """
        system = self.system
        sim = system.sim
        deadline = sim.now + max_seconds
        last_snapshot = None
        while sim.now < deadline:
            snapshot = self._progress_snapshot()
            if self.is_quiescent() and snapshot == last_snapshot:
                return True
            last_snapshot = snapshot
            if not system.pending_activity():
                return self.is_quiescent()
            system.advance(sim.now + step)
        return self.is_quiescent()

    # ----------------------------------------------------------------- checks
    def check(self, full_reverify: bool = False) -> AuditReport:
        """Evaluate every invariant and return the report.

        The default is **incremental**: each invariant consumes only what
        arrived since the previous ``check()`` — the chain check hash-verifies
        the new suffix past its per-shard marker, the money check reads the
        index's running balance drift, and the margin check folds in only
        newly-completed transitions — so a periodic auditor costs O(blocks
        since last check) per call instead of O(chain).
        ``full_reverify=True`` forces the original full-history forms (from
        genesis, full balance scan): the belt-and-suspenders mode for final
        reports, and the only mode that can catch out-of-band state tampering
        the committed receipts never saw.
        """
        violations = list(self._live_violations)
        skipped: Dict[str, str] = {}
        quiescent = self.is_quiescent()

        violations.extend(self._check_chains(full=full_reverify))
        if self.system.config.benchmark == "smallbank":
            if quiescent:
                violations.extend(self._check_money(full=full_reverify))
            else:
                skipped["money-conservation"] = (
                    "run is not quiescent (call settle() first); a mid-commit "
                    "cut is transiently unbalanced by design")
        else:
            skipped["money-conservation"] = "only defined for the smallbank benchmark"
        violations.extend(self._check_epoch_margins())

        refusals = 0
        degraded = 0
        for cluster in self._clusters.values():
            degraded += cluster.degraded_observer_reads
            for replica in cluster.replicas:
                log = getattr(replica, "attested_log", None)
                if log is not None:
                    refusals += log.rejected_appends

        return AuditReport(
            violations=violations,
            checks_run=list(self.CHECKS),
            blocks_audited=self.blocks_audited,
            transactions_audited=self.transactions_audited,
            attestations_recorded=self.index.attestations_recorded,
            equivocation_refusals=refusals,
            degraded_observer_reads=degraded,
            quiescent=quiescent,
            skipped=skipped,
        )

    def verify_index_rebuild(self) -> Tuple[bool, str]:
        """The differential oracle: rebuild the index from the chains and diff.

        Replays every observer chain from genesis through fresh execution
        engines (:func:`repro.ledger.index.rebuild_index`) and compares the
        result against the incrementally maintained index, bit for bit.
        Returns ``(identical, description)`` — the description names the
        first divergence if there is one.  Requires full block retention
        (raises :class:`repro.errors.ConfigurationError` on header-only chains, where
        receipts cannot be re-derived).
        """
        system = self.system
        observers = {shard_id: cluster.honest_observer()
                     for shard_id, cluster in self._clusters.items()}
        chains = {shard_id: observer.blockchain
                  for shard_id, observer in observers.items()}
        for shard_id, chain in sorted(chains.items()):
            pending = self.index.pending_heights(shard_id)
            if (pending or self.index.tip_height(shard_id) != chain.height
                    or self.index.tip_hash(shard_id) != chain.tip.block_hash):
                return False, (
                    f"shard {shard_id} commit stream is incomplete or follows "
                    f"a different replica's chain (index tip "
                    f"{self.index.tip_height(shard_id)} vs observer height "
                    f"{chain.height}, pending heights {pending}): the "
                    "incremental index cannot equal a rebuild of this chain")

        def populate(shard_id: int, state) -> None:
            observer = observers[shard_id]
            if observer._join_state_snapshot is not None:
                # The observer joined mid-run: its chain is rooted in the
                # state snapshot it installed, not in the genesis state, so
                # a faithful replay must start from that snapshot.
                state.restore(observer._join_state_snapshot)
            else:
                # The same slice every replica got at construction, so
                # re-derived receipts match the live execution exactly.
                for key, value in initial_state(system.config, shard_id):
                    state.put(key, value)

        rebuilt = rebuild_index(chains, partial(chaincode_registry, system.config),
                                populate=populate,
                                epoch_of=system.epochs.epoch_of,
                                account_history=self.index.history_enabled)
        diff = snapshot_diff(self.index.snapshot(), rebuilt.snapshot())
        if diff is None:
            return True, (f"incremental index == full rebuild across "
                          f"{self.index.blocks_indexed} blocks")
        return False, diff

    def _check_chains(self, full: bool = False) -> List[AuditViolation]:
        """Hash-verify each shard's observer chain (prefix check backstop).

        Incremental: per shard the auditor remembers which observer it
        verified, up to which height, and the block hash it saw there; the
        next check only verifies the suffix past that marker.  The marker is
        trusted only if the observer is the same replica and still carries
        the remembered hash at the remembered height — an observer switch
        (the old one crashed, lagged or departed) or a marker mismatch means
        this chain object was never verified, so it gets one full pass.  A
        failed verify never advances the marker: the violation re-fires on
        every later check instead of being absorbed.
        """
        violations = []
        for shard_id, cluster in self._clusters.items():
            observer = cluster.honest_observer()
            chain = observer.blockchain
            from_height = 0
            marker = self._verified.get(shard_id)
            if not full and marker is not None:
                node_id, height, block_hash = marker
                if (node_id == observer.node_id and height <= chain.height
                        and chain.header_at(height).block_hash == block_hash):
                    from_height = height
            if not chain.verify_suffix(from_height):
                violations.append(AuditViolation(
                    "committed-prefix", shard_id,
                    f"replica {observer.node_id}'s chain fails hash "
                    f"verification (from height {from_height})"))
                continue
            self._verified[shard_id] = (observer.node_id, chain.height,
                                        chain.tip.block_hash)
        return violations

    def _check_money(self, full: bool = False) -> List[AuditViolation]:
        """Money conservation: O(1) off the index, or the full balance scan.

        The incremental form reads the index's running balance drift (every
        committed delta minus every legitimate mint — exact, maintained at
        commit time).  The full scan re-reads all ``num_keys`` balances from
        the observers' state stores; it is the only form that can catch
        tampering applied *behind* consensus (state mutated with no
        committed receipt), and the automatic fallback when the index did
        not see the whole history (mid-run attach, gaps, or an index that
        trails the observer chains).
        """
        if not full and self.index.balances_exact() and self._index_synced():
            drift = self.index.balance_drift()
            if drift != 0:
                return [AuditViolation(
                    "money-conservation", None,
                    f"committed balance deltas net to {drift:+d} after mints "
                    f"across {self.index.blocks_indexed} indexed blocks — "
                    "money was created or destroyed on-chain")]
            return []
        from repro.workloads.smallbank import initial_balances

        system = self.system
        balances = initial_balances(system.config.num_keys)
        expected = sum(balances.values())
        total = 0
        for key in balances:  # initial_balances maps state keys -> endowment
            shard = self._clusters[system.shard_of_key(key)]
            total += shard.honest_observer().state.get(key, 0)
        if total != expected:
            return [AuditViolation(
                "money-conservation", None,
                f"balances sum to {total}, expected {expected} "
                f"(drift {total - expected:+d}) at quiescence")]
        return []

    def _index_synced(self) -> bool:
        """Whether the index covers every benchmark shard's full history.

        Requires, per shard, an observer whose chain is rooted in the
        genesis state (a joiner's chain starts from a mid-run state
        snapshot, so its deltas only cover a suffix of history and cannot
        prove conservation) and an index tip that matches that observer's —
        a prefix-only index (commit reports stopped, or the observer
        switched to a chain the index was not following) has exact
        *per-block* materializations but an incomplete total.  Either way
        the quiescent whole-system sum falls back to the full scan.
        """
        for shard_id, cluster in self._clusters.items():
            if shard_id == REFERENCE_SHARD_ID:
                continue  # the reference committee holds no benchmark state
            observer = cluster.honest_observer()
            chain = observer.blockchain
            if (observer._committed_before_join > 0
                    or self.index.tip_height(shard_id) != chain.height
                    or self.index.tip_hash(shard_id) != chain.tip.block_hash):
                return False
        return True

    def _margin_violations_for(self,
                               transition) -> List[AuditViolation]:
        if transition.strategy != "swap-batch":
            return []  # swap-all gives up the quorum by design
        violations = []
        for shard_id, margin in sorted(transition.min_active_margin.items()):
            if margin < 0:
                violations.append(AuditViolation(
                    "epoch-quorum-margin", shard_id,
                    f"epoch {transition.epoch} swap-batch transition left "
                    f"the committee {-margin} member(s) short of its "
                    "quorum"))
        return violations

    def _check_epoch_margins(self) -> List[AuditViolation]:
        """Quorum margins, incrementally: finished transitions fold in once.

        The contiguous prefix of *completed* transitions is consumed exactly
        once (its violations persist in ``_margin_violations`` and re-appear
        in every later report); anything after it — an in-progress
        transition whose margins are still moving — is re-scanned each call
        without being consumed.
        """
        transitions = self.system.epoch_transitions
        consumed = self._margins_consumed
        while (consumed < len(transitions)
               and transitions[consumed].completed_at is not None):
            self._margin_violations.extend(
                self._margin_violations_for(transitions[consumed]))
            consumed += 1
        self._margins_consumed = consumed
        pending: List[AuditViolation] = []
        for transition in transitions[consumed:]:
            pending.extend(self._margin_violations_for(transition))
        return list(self._margin_violations) + pending
