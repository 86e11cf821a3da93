"""AHL: Attested HyperLedger (Section 4.1).

PBFT where every consensus message carries an attestation from the node's
attested append-only log enclave.  Because the enclave refuses to bind two
different digests to the same log position, Byzantine nodes cannot
equivocate, and the committee only needs ``N = 2f + 1`` replicas with quorum
``f + 1``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.consensus.base import ConsensusConfig, ConsensusReplica
from repro.ledger.chaincode import ChaincodeRegistry
from repro.sim.monitor import Monitor
from repro.runtime.base import Runtime
from repro.sim.network import Network
from repro.tee.attested_log import AttestedAppendOnlyLog, LogAttestation
from repro.tee.enclave import SealedBlob
from repro.errors import EnclaveError, NetworkError


def ahl_config(**overrides) -> ConsensusConfig:
    """Configuration preset for AHL (attested PBFT, no communication optimisations)."""
    defaults = dict(
        protocol="ahl",
        use_attested_log=True,
        separate_queues=False,
        broadcast_requests=True,
        leader_aggregation=False,
    )
    defaults.update(overrides)
    return ConsensusConfig(**defaults)


class AhlReplica(ConsensusReplica):
    """An AHL replica: PBFT plus the attested append-only log."""

    PROTOCOL_NAME = "AHL"

    def __init__(self, node_id: int, sim: Runtime, network: Network,
                 committee: Sequence[int], config: ConsensusConfig,
                 registry: Optional[ChaincodeRegistry] = None,
                 monitor: Optional[Monitor] = None,
                 region: str = "local", shard_id: int = 0,
                 byzantine: Optional[Any] = None) -> None:
        super().__init__(node_id, sim, network, committee, config, registry,
                         monitor, region, shard_id, byzantine)
        self.attested_log = AttestedAppendOnlyLog(
            enclave_id=f"a2m-{node_id}",
            time_source=lambda: self.runtime.now,
        )

    def _attest(self, log_name: str, position: int, body: Any) -> Optional[LogAttestation]:
        """Append the message digest to the per-type trusted log and return the proof.

        A Byzantine host attempting to attest a *different* body for the same
        position gets an :class:`EnclaveError` from the enclave; in that case
        the replica cannot produce a valid message and stays silent, which is
        exactly the anti-equivocation guarantee AHL relies on.
        """
        try:
            return self.attested_log.append(log_name, position, body)
        except EnclaveError:
            return None

    def _collect_garbage(self) -> None:
        super()._collect_garbage()
        # Attested-log entries at or below the checkpoint horizon will never
        # be verified again; truncate them so enclave memory tracks the
        # in-flight window (the floor keeps their slots unappendable).
        self.attested_log.truncate_below(self._gc_horizon + 1)

    # ------------------------------------------- rollback recovery (Appendix A)
    def restart_attested_log(self, sealed: Optional[SealedBlob] = None) -> None:
        """The host restarts the enclave and feeds it sealed log state.

        ``sealed`` is whatever the (untrusted) host storage holds — under a
        rollback attack, a *stale* seal taken before the most recent appends.
        The enclave cannot detect staleness (real SGX sealing does not
        either); its defence is to freeze appends until the Appendix-A
        recovery procedure (:meth:`begin_log_recovery`) establishes a floor
        ``H_M`` above anything it may have attested before the crash.  The
        replica keeps processing inbound messages throughout — it just cannot
        produce attested votes, so peers treat it as silent until recovery
        completes.
        """
        self.attested_log.restart()
        if sealed is not None:
            self.attested_log.restore_from_seal(sealed)

    def gather_checkpoint_responses(self) -> List[Tuple[str, int]]:
        """Query live peers for their last stable checkpoint (recovery step 1).

        Modelled as a synchronous read of each live peer's
        ``stable_checkpoint`` — the paper's recovery round-trip collapsed to
        its result, as elsewhere in the simulation.  Crashed or departed
        peers contribute no response, exactly like a timed-out query.
        """
        responses: List[Tuple[str, int]] = []
        for peer in self.peers():
            try:
                node = self.network.node(peer)
            except NetworkError:
                continue  # departed at an epoch boundary
            if getattr(node, "crashed", False):
                continue
            checkpoint = getattr(node, "stable_checkpoint", None)
            if checkpoint is not None:
                responses.append((str(peer), checkpoint))
        return responses

    def begin_log_recovery(self, watermark_window: Optional[int] = None) -> int:
        """Run the Appendix-A estimation and arm automatic completion.

        The enclave computes ``H_M = ckp_M + L`` from the peers' checkpoint
        responses; appends stay frozen until this replica's *own* stable
        checkpoint reaches ``H_M`` (checked after every checkpoint quorum in
        :meth:`_advance_stable_checkpoint`), at which point the log thaws and
        the replica resumes attested participation.  Returns ``H_M``.
        """
        if watermark_window is None:
            # Everything the enclave may have attested pre-crash lies inside
            # the in-flight window above the last stable checkpoint.
            watermark_window = self.config.pipeline_depth + self.config.checkpoint_interval
        responses = self.gather_checkpoint_responses()
        floor = self.attested_log.begin_recovery(
            responses, quorum_f=self.f, watermark_window=watermark_window)
        self._maybe_complete_log_recovery()
        return floor

    def _maybe_complete_log_recovery(self) -> None:
        log = self.attested_log
        if (log.recovering and log.recovery_floor is not None
                and self.stable_checkpoint >= log.recovery_floor):
            log.complete_recovery(self.stable_checkpoint)

    def _advance_stable_checkpoint(self, seq: int) -> None:
        super()._advance_stable_checkpoint(seq)
        if self.attested_log.recovering:
            self._maybe_complete_log_recovery()
