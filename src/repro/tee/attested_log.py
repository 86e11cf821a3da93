"""Attested append-only memory (A2M).

AHL (Section 4.1) follows Chun et al.: each node keeps, inside its enclave,
one trusted log per consensus message type (pre-prepare, prepare, commit).
Before sending a message the node must append the message digest to the
corresponding log at the message's sequence slot; the enclave signs an
attestation of the append, and peers only accept messages that carry such an
attestation.  Because the enclave refuses to bind two different digests to
the same slot, a Byzantine node cannot equivocate, which is what allows the
quorum size to drop from ``2f + 1`` out of ``3f + 1`` to ``f + 1`` out of
``2f + 1``.

The log also models sealing and the Appendix-A rollback-recovery procedure:
after a restart, the log refuses appends until it has been presented with a
stable checkpoint at or beyond its conservative estimate ``H_M`` of the
highest sequence number it may have attested before the crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.hashing import digest_of, json_string, sha256_hex
from repro.crypto.signatures import Signature, registry_generation, verify_signature
from repro.errors import EnclaveError
from repro.tee.enclave import Enclave, SealedBlob


def _body_digest(log_name: str, position: int, digest: str) -> str:
    """``digest_of`` the attestation body the enclave signs, written as its template."""
    if type(log_name) is str and type(position) is int and type(digest) is str:
        return sha256_hex(f'{{"digest":{json_string(digest)},"log":{json_string(log_name)},'
                          f'"position":{position}}}')
    return digest_of({"log": log_name, "position": position, "digest": digest})


@dataclass(frozen=True)
class LogAttestation:
    """Proof that a digest was appended to a named log at a given position."""

    enclave_id: str
    log_name: str
    position: int
    digest: str
    signature: Signature

    def verify(self) -> bool:
        """Check the enclave signature over (log, position, digest).

        One attestation object is broadcast to a whole committee, so the
        verdict is cached on the object: the first of the N-1 receivers pays
        the HMAC and the rest read an attribute.  A verdict depends on the
        registered keys, not just on the attestation, so it is tagged with
        the key registry's generation and recomputed after any
        (re-)registration — a fresh run registers its enclaves' keys, so it
        is never served a verdict computed against other key material.  The
        verdict dies with the attestation: nothing outlives the message.
        Writing straight to ``__dict__`` sidesteps the frozen-dataclass
        ``__setattr__`` guard, as :attr:`BlockHeader.block_hash` does.
        """
        generation = registry_generation()
        cached = self.__dict__.get("_verdict")
        if cached is not None and cached[0] == generation:
            return cached[1]
        result = verify_signature(self.signature, digest=_body_digest(
            self.log_name, self.position, self.digest))
        self.__dict__["_verdict"] = (generation, result)
        return result


@dataclass
class _LogState:
    entries: Dict[int, str] = field(default_factory=dict)
    highest: int = -1
    #: Positions below this have been truncated at a stable checkpoint; the
    #: enclave refuses to (re-)attest them, so forgetting their digests does
    #: not weaken the anti-equivocation guarantee.
    truncated_below: int = 0


class AttestedAppendOnlyLog(Enclave):
    """The A2M enclave used by AHL/AHL+/AHLR.

    One instance per node; logs are addressed by name (message type).
    """

    CODE_IDENTITY = "repro.tee.AttestedAppendOnlyLog/v1"

    def __init__(self, enclave_id: str, **kwargs) -> None:
        super().__init__(enclave_id, **kwargs)
        self._logs: Dict[str, _LogState] = {}
        self._recovering = False
        self._recovery_floor: Optional[int] = None
        self.appends = 0
        self.rejected_appends = 0
        #: Optional observer called as ``(enclave_id, log_name, position,
        #: digest)`` after every successful append.  The safety auditor uses
        #: it to check, *outside* the enclave, that no slot is ever bound to
        #: two digests across the enclave's whole lifetime — including across
        #: restarts, where a broken rollback defence would let a slot be
        #: re-bound.  None (the default) costs one predicate per append.
        self.append_listener: Optional[Callable[[str, str, int, str], None]] = None

    # ---------------------------------------------------------------- appends
    def append(self, log_name: str, position: int, message: object) -> LogAttestation:
        """Append ``message``'s digest at ``position`` of ``log_name`` and attest it.

        Raises :class:`EnclaveError` if a *different* digest is already bound
        to that position (the anti-equivocation guarantee) or if the enclave
        is recovering from a restart and the position is below the recovery
        floor ``H_M``.
        """
        if self._recovering:
            raise EnclaveError(
                "attested log is recovering from a restart and refuses appends"
            )
        digest = digest_of(message)
        log = self._logs.setdefault(log_name, _LogState())
        if position < log.truncated_below:
            self.rejected_appends += 1
            raise EnclaveError(
                f"position {position} of log {log_name!r} is below the "
                f"truncation floor {log.truncated_below}"
            )
        existing = log.entries.get(position)
        if existing is not None and existing != digest:
            self.rejected_appends += 1
            raise EnclaveError(
                f"equivocation attempt: position {position} of log {log_name!r} "
                "is already bound to a different digest"
            )
        log.entries[position] = digest
        log.highest = max(log.highest, position)
        self.appends += 1
        if self.append_listener is not None:
            self.append_listener(self.enclave_id, log_name, position, digest)
        return LogAttestation(
            enclave_id=self.enclave_id,
            log_name=log_name,
            position=position,
            digest=digest,
            signature=self.sign(digest=_body_digest(log_name, position, digest)),
        )

    # detlint: disable=DEAD001 -- oracle: equivocation tests read the bound digest
    def lookup(self, log_name: str, position: int) -> Optional[str]:
        """Digest bound at a position, or None."""
        log = self._logs.get(log_name)
        if log is None:
            return None
        return log.entries.get(position)

    # detlint: disable=DEAD001 -- oracle: truncation tests read the log head
    def highest_position(self, log_name: str) -> int:
        """Highest attested position in a log (-1 if empty)."""
        log = self._logs.get(log_name)
        return log.highest if log is not None else -1

    def truncate_below(self, position: int) -> int:
        """Forget entries below ``position`` in every log (checkpoint truncation).

        The paper's A2M logs are truncated once a stable checkpoint covers a
        prefix: the digests are no longer needed for verification, and the
        enclave permanently refuses appends below the floor so truncation
        cannot be abused to re-bind an old slot.  Returns the number of
        entries dropped.
        """
        dropped = 0
        for log in self._logs.values():
            if position <= log.truncated_below:
                continue
            stale = [pos for pos in log.entries if pos < position]
            for pos in stale:
                del log.entries[pos]
            dropped += len(stale)
            log.truncated_below = position
        return dropped

    # ---------------------------------------------------------------- sealing
    def seal_logs(self) -> SealedBlob:
        """Periodically persist the log heads (paper: 'AHL periodically seals the logs')."""
        snapshot = {
            name: {"entries": dict(state.entries), "highest": state.highest,
                   "truncated_below": state.truncated_below}
            for name, state in self._logs.items()
        }
        return self.seal(snapshot)

    def restore_from_seal(self, blob: SealedBlob) -> None:
        """Restore log heads from sealed storage (possibly stale — rollback attack)."""
        snapshot = self.unseal(blob)
        self._logs = {
            name: _LogState(entries=dict(data["entries"]), highest=data["highest"],
                            truncated_below=data.get("truncated_below", 0))
            for name, data in snapshot.items()
        }

    # ------------------------------------------------- restart / rollback (§A)
    def restart(self) -> None:
        """Restart the enclave: volatile logs are lost and appends are frozen."""
        super().restart()
        self._logs = {}
        self._recovering = True
        self._recovery_floor = None

    @property
    def recovering(self) -> bool:
        return self._recovering

    @property
    def recovery_floor(self) -> Optional[int]:
        """The estimate H_M below which messages must not be re-attested."""
        return self._recovery_floor

    def begin_recovery(self, checkpoint_responses: List[Tuple[str, int]],
                       quorum_f: int, watermark_window: int) -> int:
        """Run the Appendix-A estimation procedure.

        ``checkpoint_responses`` is a list of ``(peer id, last stable
        checkpoint sequence number)`` pairs gathered from peers.  The enclave
        selects ``ckp_M``: the largest reported value such that at least ``f``
        *other* replicas report values less than or equal to it, then sets
        ``H_M = ckp_M + L`` where ``L`` is the watermark window.  Returns
        ``H_M``.
        """
        if not checkpoint_responses:
            raise EnclaveError("recovery requires at least one checkpoint response")
        values = sorted(ckp for _, ckp in checkpoint_responses)
        ckp_m = values[0]
        for candidate_peer, candidate in checkpoint_responses:
            others_leq = sum(
                1 for peer, value in checkpoint_responses
                if peer != candidate_peer and value <= candidate
            )
            if others_leq >= quorum_f and candidate > ckp_m:
                ckp_m = candidate
        self._recovery_floor = ckp_m + watermark_window
        return self._recovery_floor

    def complete_recovery(self, stable_checkpoint_seq: int) -> None:
        """Finish recovery once a stable checkpoint at or beyond ``H_M`` is presented."""
        if not self._recovering:
            return
        if self._recovery_floor is None:
            raise EnclaveError("begin_recovery must run before complete_recovery")
        if stable_checkpoint_seq < self._recovery_floor:
            raise EnclaveError(
                f"checkpoint {stable_checkpoint_seq} is below the recovery floor "
                f"{self._recovery_floor}"
            )
        self._recovering = False
