"""Distributed randomness generation (Section 5.1).

At the start of epoch ``e`` every node invokes its RandomnessBeacon enclave.
With probability ``2^-l`` the enclave returns a signed certificate
``<e, rnd>``, which the node broadcasts.  After the synchrony bound ``Delta``
every node locks in the smallest ``rnd`` it received.  If nobody obtained a
certificate, the epoch number is incremented and the protocol repeats.
(Determinism note: detlint-verified clean — peer fan-out iterates the
network's sorted ``node_ids`` and lock-in picks via ``min``, both
canonical orders.)

The protocol's cost is what Figure 11 (right) measures: communication is
``O(2^-l * N^2)`` and the expected number of rounds is ``1 / (1 - P_repeat)``
with ``P_repeat = (1 - 2^-l)^N``.  The paper sets
``l = log(N) - log(log(N))`` so communication is ``O(N log N)`` and
``P_repeat < 2^-11``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.costs import DEFAULT_COSTS, OperationCosts
from repro.errors import ShardingError
from repro.sim.monitor import Monitor
from repro.sim.network import Message, Network
from repro.sim.node import SimProcess
from repro.sim.simulator import Simulator
from repro.tee.randomness_beacon import BeaconCertificate, RandomnessBeaconEnclave

KIND_BEACON_CERT = "beacon-certificate"


def recommended_q_bits(network_size: int) -> int:
    """The paper's choice ``l = log(N) - log(log(N))`` (rounded, at least 0)."""
    if network_size < 2:
        return 0
    log_n = math.log2(network_size)
    return max(0, int(round(log_n - math.log2(max(1.0, log_n)))))


def repeat_probability(network_size: int, q_bits: int) -> float:
    """``P_repeat = (1 - 2^-l)^N``: the chance no node obtains a certificate."""
    return (1.0 - 2.0 ** -q_bits) ** network_size


def expected_certificates(network_size: int, q_bits: int) -> float:
    """Expected number of nodes that obtain (and broadcast) a certificate."""
    return network_size * 2.0 ** -q_bits


@dataclass
class BeaconProtocolResult:
    """Outcome of one epoch's distributed randomness generation."""

    epoch: int
    rnd: Optional[int]
    rounds: int
    elapsed_seconds: float
    certificates_broadcast: int
    messages_sent: int
    q_bits: int
    delta: float

    @property
    def succeeded(self) -> bool:
        return self.rnd is not None


class _BeaconNode(SimProcess):
    """A node participating in the randomness generation protocol."""

    def __init__(self, node_id: int, sim: Simulator, network: Network, q_bits: int,
                 costs: OperationCosts, region: str = "local") -> None:
        super().__init__(node_id, sim, network, region=region)
        self.q_bits = q_bits
        self.costs = costs
        # The enclave draws from a stream forked off the protocol's seeded
        # simulator (not just the enclave id), so different protocol seeds —
        # and hence different epochs of the live system — lock in different
        # randomness.
        self.enclave = RandomnessBeaconEnclave(
            enclave_id=f"beacon-{node_id}", q_bits=q_bits,
            time_source=lambda: self.sim.now,
            rng=sim.fork_rng(f"beacon-enclave-{node_id}"),
        )
        self.received: Dict[int, List[BeaconCertificate]] = {}
        self.locked: Dict[int, int] = {}
        self.certificates_sent = 0

    def invoke_and_broadcast(self, epoch: int) -> None:
        certificate = None
        if not self.enclave.was_invoked(epoch):
            certificate = self.enclave.invoke(epoch)
        if certificate is None:
            return
        self.certificates_sent += 1
        self.received.setdefault(epoch, []).append(certificate)
        message = Message(sender=self.node_id, kind=KIND_BEACON_CERT,
                          payload=certificate, size_bytes=256)
        self.cpu_execute(self.costs.beacon_invocation() + self.costs.ecdsa_sign,
                         self.broadcast, self.peers(), message)

    def peers(self) -> List[int]:
        return [peer for peer in self.network.node_ids if peer != self.node_id]

    def message_cost(self, message: Message) -> float:
        if message.kind == KIND_BEACON_CERT:
            return self.costs.ecdsa_verify
        return 0.0

    def handle_message(self, message: Message) -> None:
        if message.kind != KIND_BEACON_CERT:
            return
        certificate: BeaconCertificate = message.payload
        if not certificate.verify():
            return
        self.received.setdefault(certificate.epoch, []).append(certificate)

    def lock_in(self, epoch: int) -> Optional[int]:
        """After Delta, lock the lowest rnd received for the epoch."""
        certificates = self.received.get(epoch, [])
        if not certificates:
            return None
        rnd = min(certificate.rnd for certificate in certificates)
        self.locked[epoch] = rnd
        return rnd


class BeaconProtocol:
    """Runs the distributed randomness generation over a simulated network.

    Parameters
    ----------
    network_size:
        Number of participating nodes ``N``.
    q_bits:
        Filter bit length ``l``; ``None`` uses the paper's recommended value.
    delta:
        Synchrony bound.  The paper measures the maximum propagation delay for
        a 1 KB message and conservatively multiplies it by 3; pass ``None`` to
        derive it the same way from the latency model.
    """

    def __init__(self, network_size: int, q_bits: Optional[int] = None,
                 delta: Optional[float] = None, latency_model=None,
                 costs: OperationCosts = DEFAULT_COSTS, seed: int = 0) -> None:
        if network_size < 1:
            raise ShardingError("network_size must be at least 1")
        from repro.sim.latency import LanLatencyModel

        self.network_size = network_size
        self.q_bits = recommended_q_bits(network_size) if q_bits is None else q_bits
        self.costs = costs
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, latency_model or LanLatencyModel())
        self.monitor = Monitor()
        regions = getattr(self.network.latency_model, "regions", None)
        self.nodes = [
            _BeaconNode(node_id=i, sim=self.sim, network=self.network,
                        q_bits=self.q_bits, costs=costs,
                        region=(regions[i % len(regions)] if regions else "local"))
            for i in range(network_size)
        ]
        if delta is None:
            delta = 3.0 * self.network.delay_bound(1024)
        self.delta = delta

    def run_epoch(self, epoch: int = 0, max_rounds: int = 64) -> BeaconProtocolResult:
        """Run the protocol until some round produces a certificate (or give up)."""
        start = self.sim.now
        rounds = 0
        current_epoch = epoch
        rnd: Optional[int] = None
        certificates = 0
        while rounds < max_rounds:
            rounds += 1
            for node in self.nodes:
                node.invoke_and_broadcast(current_epoch)
            # Nodes lock in after the synchrony bound Delta (the clock must
            # advance by a full Delta even if all certificates arrive sooner).
            lock_in_time = self.sim.now + self.delta
            self.sim.schedule(self.delta, lambda: None)
            self.sim.run(until=lock_in_time)
            certificates += sum(
                1 for node in self.nodes if node.certificates_sent and
                any(cert.epoch == current_epoch for cert in node.received.get(current_epoch, []))
            )
            locked = [node.lock_in(current_epoch) for node in self.nodes]
            values = [value for value in locked if value is not None]
            if values:
                rnd = min(values)
                break
            current_epoch += 1
        return BeaconProtocolResult(
            epoch=current_epoch,
            rnd=rnd,
            rounds=rounds,
            elapsed_seconds=self.sim.now - start,
            certificates_broadcast=sum(node.certificates_sent for node in self.nodes),
            messages_sent=self.network.stats.messages_sent,
            q_bits=self.q_bits,
            delta=self.delta,
        )

    def agreement_reached(self, epoch: int) -> bool:
        """True if every node locked the same rnd for the epoch."""
        values = {node.locked.get(epoch) for node in self.nodes}
        return len(values) == 1 and None not in values


def derive_epoch_randomness(network_size: int, epoch: int, seed: int = 0,
                            q_bits: Optional[int] = None,
                            delta: Optional[float] = None,
                            latency_model=None,
                            max_rounds: int = 64) -> BeaconProtocolResult:
    """Run one epoch of the randomness protocol in an isolated sub-simulation.

    The live epoch lifecycle of :class:`repro.core.system.ShardedBlockchain`
    calls this at every boundary: the protocol runs over its *own* simulator
    and network (so the deployment's event stream and RNG trace are
    untouched), and the caller uses ``result.rnd`` to seed the next
    committee assignment and ``result.elapsed_seconds`` as the modelled
    duration of randomness generation.  Deterministic in ``(seed, epoch)``.
    """
    protocol = BeaconProtocol(network_size=network_size, q_bits=q_bits,
                              delta=delta, latency_model=latency_model,
                              seed=seed * 1_000_003 + epoch)
    return protocol.run_epoch(epoch=epoch, max_rounds=max_rounds)


def analytical_running_time(network_size: int, delta: float,
                            q_bits: Optional[int] = None) -> float:
    """Expected protocol running time: rounds x Delta (used for large-N sweeps)."""
    bits = recommended_q_bits(network_size) if q_bits is None else q_bits
    p_repeat = repeat_probability(network_size, bits)
    expected_rounds = 1.0 / max(1e-12, (1.0 - p_repeat))
    return expected_rounds * delta
