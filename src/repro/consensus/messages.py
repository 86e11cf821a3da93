"""Consensus message payloads.

Message *envelopes* are :class:`repro.sim.network.Message`; the payloads
defined here carry the protocol content.  ``attestation`` fields hold the
TEE attested-log proofs that AHL-family protocols require on every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ledger.block import Block
from repro.ledger.transaction import Transaction
from repro.tee.attested_log import LogAttestation

#: Message kind tags (the ``kind`` field of the network envelope).
KIND_REQUEST = "request"
KIND_PRE_PREPARE = "pre-prepare"
KIND_PREPARE = "prepare"
KIND_COMMIT = "commit"
KIND_VIEW_CHANGE = "view-change"
KIND_NEW_VIEW = "new-view"
KIND_AGGREGATE = "aggregate"
KIND_FORWARD = "forward-request"
KIND_PROPOSAL = "proposal"
KIND_VOTE = "vote"
KIND_APPEND_ENTRIES = "append-entries"
KIND_APPEND_RESPONSE = "append-response"
KIND_POET_BLOCK = "poet-block"
KIND_CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class ClientRequest:
    """A batch of transactions submitted by a client."""

    client_id: str
    request_id: int
    transactions: Tuple[Transaction, ...]
    submitted_at: float = 0.0


@dataclass(frozen=True)
class PrePrepare:
    """Leader's proposal of a block at (view, seq)."""

    view: int
    seq: int
    block: Block
    leader: int
    attestation: Optional[LogAttestation] = None


@dataclass(frozen=True)
class Prepare:
    """A replica's agreement to order the block with digest ``block_digest`` at (view, seq)."""

    view: int
    seq: int
    block_digest: str
    replica: int
    attestation: Optional[LogAttestation] = None


@dataclass(frozen=True)
class Commit:
    """A replica's commitment to (view, seq, digest)."""

    view: int
    seq: int
    block_digest: str
    replica: int
    attestation: Optional[LogAttestation] = None


@dataclass(frozen=True)
class Checkpoint:
    """A replica's announcement that it has executed up to ``seq`` (PBFT checkpoint)."""

    seq: int
    replica: int
    state_digest: str = ""


@dataclass(frozen=True)
class ViewChange:
    """A vote to move to ``new_view`` because the current leader is not making progress."""

    new_view: int
    last_executed: int
    replica: int


@dataclass(frozen=True)
class NewView:
    """The new leader's announcement that ``new_view`` has started."""

    new_view: int
    leader: int
    reproposed_seqs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AggregateCertificate:
    """AHLR: the leader enclave's proof that a quorum exists for (view, seq, phase)."""

    view: int
    seq: int
    phase: str
    block_digest: str
    quorum_size: int
    leader: int
    attestation: Optional[LogAttestation] = None


@dataclass(frozen=True)
class AppendEntries:
    """Raft: leader replicating a block to followers."""

    term: int
    index: int
    block: Block
    leader: int


@dataclass(frozen=True)
class AppendResponse:
    """Raft: follower acknowledgement."""

    term: int
    index: int
    follower: int
    success: bool = True


@dataclass(frozen=True)
class PoetBlockAnnouncement:
    """PoET: a newly minted block plus its wait certificate summary."""

    block: Block
    wait_time: float
    q: int
    proposer: int
