"""PoET and PoET+ (Section 4.2, Figures 21 and 22).

Proof of Elapsed Time is a Nakamoto-style protocol: every node asks its SGX
enclave for a random wait time, and the node whose wait expires first
proposes the next block.  Because block propagation is not instantaneous,
nodes whose wait expires before they have received the winner's block
propose *conflicting* blocks; the fork is resolved by the longest-chain rule
and the losing blocks become stale.

PoET+ adds a pre-filter: the enclave binds an ``l``-bit value ``q`` to the
wait certificate and only certificates with ``q == 0`` are valid, which
subsamples the competitor set to ``n * 2^-l`` nodes and therefore reduces
the number of near-simultaneous proposals.

Modelling notes (documented in EXPERIMENTS.md): wait times are exponential
with a **fixed** mean ``wait_scale`` (the enclave is calibrated for a target
population, as in Sawtooth), so the raw block production rate grows with the
number of competitors while the per-node validation capacity and the
propagation delay do not — which is what produces the declining throughput
and growing stale rate the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.ledger.block import Block, build_block
from repro.ledger.blockchain import ForkableChain
from repro.sim.network import Message, Network
from repro.sim.node import SimProcess
from repro.sim.simulator import Simulator
from repro.tee.poet_enclave import PoETEnclave
from repro.consensus.messages import KIND_POET_BLOCK, PoetBlockAnnouncement


@dataclass
class PoetNetworkConfig:
    """Configuration of a PoET/PoET+ network.

    Parameters mirror the Appendix-C.1 experiment: block size 2-8 MB, 50 Mbps
    links with 100 ms latency on the cluster, 2-vCPU nodes over 8 GCP regions.
    """

    n: int = 8
    block_size_mb: float = 2.0
    tx_bytes: int = 512
    wait_scale: float = 600.0
    q_bits: int = 0
    link_latency: float = 0.1
    bandwidth_bps: float = 50e6
    validation_seconds_per_mb: float = 0.08
    gossip_hop_factor: float = 0.5

    @property
    def txs_per_block(self) -> int:
        return max(1, int(self.block_size_mb * 1024 * 1024 / self.tx_bytes))

    @property
    def block_bytes(self) -> int:
        return int(self.block_size_mb * 1024 * 1024)

    def propagation_delay(self) -> float:
        """One-hop transfer plus gossip depth over the n-node overlay."""
        transfer = self.block_bytes * 8 / self.bandwidth_bps
        hops = max(1.0, self.gossip_hop_factor * math.log2(max(2, self.n)))
        return hops * (self.link_latency + transfer)

    def validation_cost(self) -> float:
        """CPU cost for a node to validate one received block."""
        return self.validation_seconds_per_mb * self.block_size_mb

    def receive_cost(self) -> float:
        """Serialised cost of downloading and validating one block.

        This is the per-node capacity bound that makes PoET degrade at scale:
        when blocks (including soon-to-be-stale forks) arrive faster than a
        node can download and validate them, the node falls behind the tip,
        keeps proposing on old parents, and the fork rate snowballs.
        """
        transfer = self.block_bytes * 8 / self.bandwidth_bps
        return transfer + self.validation_cost()

    @staticmethod
    def poet_plus_q_bits(n: int) -> int:
        """The paper sets l = log2(N) / 2, reducing the effective network to sqrt(N)."""
        return max(1, int(round(math.log2(max(2, n)) / 2)))


class PoetNode(SimProcess):
    """A PoET/PoET+ miner."""

    def __init__(self, node_id: int, sim: Simulator, network: Network,
                 config: PoetNetworkConfig, region: str = "local") -> None:
        super().__init__(node_id, sim, network, region=region)
        self.config = config
        self.enclave = PoETEnclave(
            enclave_id=f"poet-{node_id}",
            mean_wait=config.wait_scale,
            q_bits=config.q_bits,
            time_source=lambda: self.runtime.now,
        )
        self.chain = ForkableChain(shard_id=0)
        self.blocks_proposed = 0
        self.blocks_validated = 0
        self._competing_heights: Dict[int, bool] = {}
        self._orphans: Dict[str, List[Block]] = {}

    # ------------------------------------------------------------------ rounds
    def start(self) -> None:
        """Begin competing for the first block."""
        self._begin_round(self.chain.height + 1)

    def _begin_round(self, height: int) -> None:
        if height in self._competing_heights:
            return
        self._competing_heights[height] = True
        wait_time = self.enclave.request_wait_time(height)
        certificate_q = self.enclave._pending[height][2]
        if self.config.q_bits > 0 and certificate_q != 0:
            # PoET+: this node is filtered out for this height.
            return
        self.runtime.schedule(wait_time, self._wake, height)

    def _wake(self, height: int) -> None:
        if self.crashed:
            return
        if self.chain.height >= height:
            return  # someone else's block already extended the chain
        certificate = self.enclave.get_wait_certificate(height)
        if certificate is None:
            return
        if self.config.q_bits > 0 and not certificate.valid_for_poet_plus:
            return
        tip = self.chain.best_tip
        block = build_block(
            height=tip.height + 1,
            prev_hash=tip.block_hash,
            transactions=(),
            proposer=self.node_id,
            timestamp=self.runtime.now,
        )
        self.blocks_proposed += 1
        self.chain.add_block(block)
        announcement = PoetBlockAnnouncement(
            block=block, wait_time=certificate.wait_time, q=certificate.q,
            proposer=self.node_id,
        )
        message = Message(sender=self.node_id, kind=KIND_POET_BLOCK,
                          payload=announcement, size_bytes=self.config.block_bytes)
        delay = self.config.propagation_delay()
        for peer in self.network.node_ids:
            if peer != self.node_id:
                self.runtime.schedule(delay, self._deliver_to_peer, peer, message)
        self._begin_round(block.height + 1)

    def _deliver_to_peer(self, peer: int, message: Message) -> None:
        node = self.network.node(peer)
        node.deliver(message)

    # --------------------------------------------------------------- messages
    def message_cost(self, message: Message) -> float:
        if message.kind == KIND_POET_BLOCK:
            return self.config.receive_cost()
        return 0.0

    def handle_message(self, message: Message) -> None:
        if message.kind != KIND_POET_BLOCK:
            return
        announcement: PoetBlockAnnouncement = message.payload
        self._accept_block(announcement.block)

    def _accept_block(self, block: Block) -> None:
        if self.chain.contains(block.block_hash):
            return
        if not self.chain.contains(block.prev_hash):
            self._orphans.setdefault(block.prev_hash, []).append(block)
            return
        self.blocks_validated += 1
        extended_main = self.chain.add_block(block)
        # Attach any orphans waiting for this block.
        for orphan in self._orphans.pop(block.block_hash, []):
            self._accept_block(orphan)
        if extended_main:
            self._begin_round(self.chain.height + 1)


@dataclass
class PoetRunResult:
    """Outcome of a PoET simulation run."""

    config: PoetNetworkConfig
    duration: float
    main_chain_blocks: int
    total_blocks: int
    stale_blocks: int
    throughput_tps: float

    @property
    def stale_rate(self) -> float:
        produced = max(1, self.total_blocks)
        return self.stale_blocks / produced


def run_poet_network(config: PoetNetworkConfig, duration: float, seed: int = 0,
                     latency_model=None) -> PoetRunResult:
    """Build and run a PoET/PoET+ network for ``duration`` simulated seconds."""
    from repro.sim.latency import LanLatencyModel

    sim = Simulator(seed=seed)
    network = Network(sim, latency_model or LanLatencyModel())
    nodes = [
        PoetNode(node_id=i, sim=sim, network=network, config=config)
        for i in range(config.n)
    ]
    for node in nodes:
        node.start()
    sim.run(until=duration)
    observer = nodes[0]
    # Count blocks known to the observer (propagation still in flight is ignored).
    main_blocks = len(observer.chain.main_chain()) - 1
    total_blocks = observer.chain.total_blocks() - 1
    stale = observer.chain.stale_blocks()
    throughput = main_blocks * config.txs_per_block / duration if duration > 0 else 0.0
    return PoetRunResult(
        config=config,
        duration=duration,
        main_chain_blocks=main_blocks,
        total_blocks=total_blocks,
        stale_blocks=stale,
        throughput_tps=throughput,
    )
