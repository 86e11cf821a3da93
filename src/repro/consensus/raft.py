"""Raft as integrated in Quorum (Figure 2 baseline).

Raft tolerates crash failures only (majority quorum, ``f = (n-1)/2``).  The
Quorum integration the paper measured does **not** pipeline: a node first
constructs a block, runs Raft to finalise it, and only then constructs the
next block, so consensus happens in lockstep and throughput suffers even
though the protocol itself is cheaper than PBFT (no all-to-all phases).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.consensus import messages as m
from repro.consensus.base import (
    CONSENSUS_MESSAGE_BYTES, TRANSACTION_BYTES, ConsensusConfig, ConsensusReplica,
)
from repro.sim.network import Message


def raft_config(**overrides) -> ConsensusConfig:
    """Configuration preset for Quorum's Raft integration (lockstep, majority quorum).

    The consensus itself is cheap, but Quorum constructs the next block only
    after the previous one is finalised and executes every transaction in the
    EVM with Merkle-tree updates, which caps the achievable throughput.
    """
    from repro.crypto.costs import DEFAULT_COSTS

    defaults = dict(
        protocol="raft",
        use_attested_log=False,
        separate_queues=False,
        broadcast_requests=False,   # requests go to the leader, as in Raft
        leader_aggregation=False,
        pipeline_depth=1,
        batch_size=200,
        min_block_interval=0.05,
        costs=DEFAULT_COSTS.with_overrides(tx_execution=1.2e-3, chaincode_overhead=0.1e-3),
    )
    defaults.update(overrides)
    return ConsensusConfig(**defaults)


class RaftReplica(ConsensusReplica):
    """A Raft node under Quorum's non-pipelined integration."""

    PROTOCOL_NAME = "Raft"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._acks: Dict[int, Set[int]] = {}

    @property
    def quorum(self) -> int:  # majority, crash-failure model
        return self.n // 2 + 1

    # ------------------------------------------------------------ leader side
    def _propose_block(self, batch) -> None:
        seq = self.next_seq
        self.next_seq += 1
        from repro.ledger.block import build_block
        block = build_block(
            height=seq, prev_hash="pending", transactions=tuple(batch),
            proposer=self.node_id, view=self.view, timestamp=self.runtime.now,
            shard_id=self.shard_id,
        )
        self.blocks_proposed += 1
        instance = self._get_instance(seq)
        instance.block = block
        instance.block_digest = block.header.merkle_root
        instance.pre_prepared = True
        instance.prepared = True
        instance.proposed_at = self.runtime.now
        self._acks[seq] = {self.node_id}
        payload = m.AppendEntries(term=self.view, index=seq, block=block, leader=self.node_id)
        size = CONSENSUS_MESSAGE_BYTES + TRANSACTION_BYTES * len(batch)
        message = Message(sender=self.node_id, kind=m.KIND_APPEND_ENTRIES,
                          payload=payload, size_bytes=size)
        self.cpu_execute(self.config.costs.ecdsa_sign, self.broadcast, self.peers(), message)

    def _handle_other(self, message: Message) -> None:
        if message.kind == m.KIND_APPEND_ENTRIES:
            self._handle_append_entries(message.payload)
        elif message.kind == m.KIND_APPEND_RESPONSE:
            self._handle_append_response(message.payload)

    def _handle_append_entries(self, payload: m.AppendEntries) -> None:
        if payload.index <= self._gc_horizon:
            return  # executed and pruned below a stable checkpoint
        if payload.leader != self.leader_id():
            return
        instance = self._get_instance(payload.index)
        instance.block = payload.block
        instance.block_digest = payload.block.header.merkle_root
        instance.pre_prepared = True
        instance.prepared = True
        instance.proposed_at = payload.block.header.timestamp
        response = m.AppendResponse(term=payload.term, index=payload.index,
                                    follower=self.node_id, success=True)
        self.send(payload.leader, Message(sender=self.node_id, kind=m.KIND_APPEND_RESPONSE,
                                          payload=response,
                                          size_bytes=CONSENSUS_MESSAGE_BYTES))

    def _handle_append_response(self, payload: m.AppendResponse) -> None:
        if not self.is_leader:
            return
        if payload.index <= self._gc_horizon:
            return  # executed and pruned below a stable checkpoint
        acks = self._acks.setdefault(payload.index, {self.node_id})
        acks.add(payload.follower)
        instance = self._get_instance(payload.index)
        if not instance.committed and len(acks) >= self.quorum:
            self._mark_committed(instance)
            # Tell followers the entry is committed (piggybacked heartbeat in
            # real Raft; an explicit commit notification here).
            notify = m.Commit(view=self.view, seq=payload.index,
                              block_digest=instance.block_digest or "",
                              replica=self.node_id)
            self._broadcast_consensus(m.KIND_COMMIT, notify)
            self._try_execute()

    def _handle_commit(self, payload: m.Commit) -> None:
        # Followers: commit notification from the leader.
        if payload.seq <= self._gc_horizon:
            return  # executed and pruned below a stable checkpoint
        if payload.replica != self.leader_id():
            return
        instance = self._get_instance(payload.seq)
        if instance.block is None:
            return
        if not instance.committed:
            self._mark_committed(instance)
            self._try_execute()

    def _collect_garbage(self) -> None:
        super()._collect_garbage()
        for index in [i for i in self._acks if i <= self._gc_horizon]:
            del self._acks[index]

    def message_cost(self, message: Message) -> float:
        costs = self.config.costs
        if message.kind == m.KIND_APPEND_ENTRIES:
            ntx = len(message.payload.block.transactions)
            return costs.ecdsa_verify + costs.sha256 * ntx
        if message.kind in (m.KIND_APPEND_RESPONSE, m.KIND_COMMIT):
            return costs.ecdsa_verify
        return super().message_cost(message)
