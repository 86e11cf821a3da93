"""Byzantine attack strategies for single-cluster and full-system runs.

The paper's attack model (Figure 8 right, Section 4.1) is a Byzantine node
that sends *conflicting* consensus messages — different digests for the same
slot — to different recipients, plus a Byzantine leader that withholds
proposals.  A strategy object is attached to the replicas it controls
(directly, or through the system-wide adversary knob
``ShardedSystemConfig.adversary``, which places corruptions per shard); the
replica consults it at the decision points exposed by
:class:`~repro.consensus.base.ConsensusReplica`:

* ``leader_should_propose`` — whether a corrupted leader proposes at all;
* ``suppress_vote`` — whether a corrupted replica withholds its
  prepare/commit vote entirely;
* ``vote_digest_for`` — the digest the corrupted replica claims **to one
  specific recipient** for one vote.  This is the per-recipient equivocation
  path: returning different digests for different recipients is exactly the
  conflicting-message attack the attested log exists to block.  It is
  consulted on *both* prepare and commit votes;
* ``drop_incoming`` — whether the corrupted replica ignores a message.

Why per-recipient matters: against plain PBFT the conflicting votes are
verified by every honest recipient and then discarded on digest mismatch —
wasted work, and the reason PBFT needs ``3f + 1`` replicas.  Against the AHL
family the node's own enclave refuses to attest a *second* digest for the
same slot, so at most one of the conflicting votes carries a valid
attestation; honest AHL replicas reject the rest outright, and the attack
degenerates to staying silent — the reduction to ``2f + 1`` replicas that
the attested log is designed to force.

Strategies hold only the corrupted id set plus pure functions of the
replica/recipient, so one run's behaviour is a deterministic function of the
placement seed — same seed, same attack trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Type

from repro.crypto.hashing import sha256_hex
from repro.sim.network import Message


class ByzantineStrategy:
    """Base (benign) strategy: controls a set of node ids but behaves honestly."""

    def __init__(self, corrupted: Iterable[int] = ()) -> None:
        self.corrupted: Set[int] = set(corrupted)

    def applies_to(self, node_id: int) -> bool:
        return node_id in self.corrupted

    # Decision hooks — the default implementations are honest behaviour.
    def leader_should_propose(self, replica) -> bool:
        """Whether a corrupted leader proposes blocks at all."""
        return True

    def suppress_vote(self, replica, phase: str) -> bool:
        """Whether a corrupted replica withholds its prepare/commit vote."""
        return False

    def vote_digest_for(self, replica, phase: str, recipient: int,
                        digest: Optional[str]) -> Optional[str]:
        """Digest this replica's ``phase`` vote claims to ``recipient``.

        Consulted once per (vote, recipient) pair on both the prepare and the
        commit path, so a strategy can equivocate per destination.  The
        default is honest: every recipient gets the true digest.
        """
        return digest

    def equivocates(self) -> bool:
        """Whether this strategy may claim different digests to different
        recipients (routes its votes through the per-recipient send path)."""
        return False

    def drop_incoming(self, replica, message: Message) -> bool:
        """Whether the corrupted replica ignores an incoming message."""
        return False


class SilentLeader(ByzantineStrategy):
    """Corrupted nodes never propose when they are the leader and never vote.

    This is the strongest liveness attack available to non-equivocating
    Byzantine nodes: it forces repeated view changes whenever a corrupted
    node holds the leader role.
    """

    def leader_should_propose(self, replica) -> bool:
        return False

    def suppress_vote(self, replica, phase: str) -> bool:
        return True

    def drop_incoming(self, replica, message: Message) -> bool:
        return True


class EquivocatingAttacker(ByzantineStrategy):
    """Corrupted nodes claim *different* digests to different recipients.

    For every prepare **and** commit vote, the first half of the committee
    (in committee order) is told the true digest and the second half a
    conflicting one — the per-recipient conflicting-message attack.  Against
    plain PBFT every honest node must verify the conflicting votes before
    discarding them on digest mismatch (wasted work on the critical path).
    Against the AHL family the node's enclave binds the slot to whichever
    digest it attested first and refuses the second, so the conflicting vote
    goes out *without* a valid attestation and honest replicas reject it
    unverified — the attack collapses to silence, which is the reduction the
    attested log is designed to force.

    ``also_silent_leader`` additionally withholds proposals when a corrupted
    node holds the leader role (the paper's combined attack).
    """

    def __init__(self, corrupted: Iterable[int] = (), also_silent_leader: bool = True) -> None:
        super().__init__(corrupted)
        self.also_silent_leader = also_silent_leader
        #: (node, phase, seq-digest) pairs where the second digest was
        #: attempted — observability for the audit layer and tests.
        self.conflicting_votes_sent = 0

    def leader_should_propose(self, replica) -> bool:
        return not self.also_silent_leader

    def equivocates(self) -> bool:
        return True

    def conflicting_digest(self, replica, digest: str) -> str:
        return sha256_hex(f"conflicting:{digest}:{replica.node_id}")

    def vote_digest_for(self, replica, phase: str, recipient: int,
                        digest: Optional[str]) -> Optional[str]:
        if digest is None:
            return None
        committee = replica.committee
        try:
            index = committee.index(recipient)
        except ValueError:
            index = recipient  # non-member observer: treat id parity as index
        if index < len(committee) // 2:
            return digest
        self.conflicting_votes_sent += 1
        return self.conflicting_digest(replica, digest)


class CrashAttacker(ByzantineStrategy):
    """Corrupted nodes behave as crashed: no proposals, no votes, no processing."""

    def leader_should_propose(self, replica) -> bool:
        return False

    def suppress_vote(self, replica, phase: str) -> bool:
        return True

    def drop_incoming(self, replica, message: Message) -> bool:
        return True


#: Strategy name -> class, as accepted by ``AdversaryConfig.strategy``.
STRATEGIES: Dict[str, Type[ByzantineStrategy]] = {
    "honest": ByzantineStrategy,
    "silent-leader": SilentLeader,
    "equivocate": EquivocatingAttacker,
    "crash": CrashAttacker,
}
