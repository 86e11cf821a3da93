"""Tests for the simulated network and node CPU/queue model."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.sim.network import CONSENSUS_CHANNEL, Message, Network, REQUEST_CHANNEL
from repro.sim.node import SimProcess
from repro.sim.simulator import Simulator

from engine_harness import uniform_latency


class Recorder(SimProcess):
    """A node that records the messages it handles."""

    def __init__(self, *args, cost: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.cost = cost
        self.handled = []

    def message_cost(self, message: Message) -> float:
        return self.cost

    def handle_message(self, message: Message) -> None:
        self.handled.append((self.runtime.now, message.kind, message.sender))


def build(sim=None, latency=None, **node_kwargs):
    sim = sim or Simulator(seed=1)
    network = Network(sim, latency or uniform_latency(0.01, jitter_fraction=0.0))
    nodes = [Recorder(i, sim, network, **node_kwargs) for i in range(3)]
    return sim, network, nodes


class TestNetworkDelivery:
    def test_point_to_point_delivery_with_latency(self):
        sim, network, nodes = build()
        network.send(0, 1, Message(sender=0, kind="ping"))
        sim.run()
        assert len(nodes[1].handled) == 1
        time, kind, sender = nodes[1].handled[0]
        assert kind == "ping" and sender == 0
        assert time == pytest.approx(0.01, abs=1e-6)

    def test_broadcast_excludes_only_listed_targets(self):
        sim, network, nodes = build()
        network.broadcast(0, [1, 2], Message(sender=0, kind="hello"))
        sim.run()
        assert len(nodes[1].handled) == 1
        assert len(nodes[2].handled) == 1
        assert nodes[0].handled == []

    def test_send_to_unknown_node_raises(self):
        sim, network, nodes = build()
        with pytest.raises(NetworkError):
            network.send(0, 99, Message(sender=0, kind="ping"))

    def test_broadcast_with_unknown_node_still_delivers_earlier_recipients(self):
        sim, network, nodes = build()
        with pytest.raises(NetworkError):
            network.broadcast(0, [1, 99, 2], Message(sender=0, kind="ping"))
        sim.run()
        # Recipient 1 precedes the unknown node, so its message must be
        # delivered (matching the old per-send semantics); 2 comes after the
        # failure point and is not reached.
        assert len(nodes[1].handled) == 1
        assert nodes[2].handled == []

    def test_duplicate_registration_rejected(self):
        sim, network, nodes = build()
        with pytest.raises(NetworkError):
            network.register(nodes[0])

    def test_crashed_node_receives_nothing(self):
        sim, network, nodes = build()
        nodes[1].crash()
        network.send(0, 1, Message(sender=0, kind="ping"))
        sim.run()
        assert nodes[1].handled == []
        assert network.stats.messages_dropped == 1

    def test_recovered_node_receives_again(self):
        sim, network, nodes = build()
        nodes[1].crash()
        nodes[1].recover()
        network.send(0, 1, Message(sender=0, kind="ping"))
        sim.run()
        assert len(nodes[1].handled) == 1

    def test_blocked_link_drops_messages_one_way(self):
        sim, network, nodes = build()
        network.block_link(0, 1)
        network.send(0, 1, Message(sender=0, kind="a"))
        network.send(1, 0, Message(sender=1, kind="b"))
        sim.run()
        assert nodes[1].handled == []
        assert len(nodes[0].handled) == 1

    def test_partition_blocks_cross_group_traffic(self):
        sim, network, nodes = build()
        network.set_partition([[0], [1, 2]])
        network.send(0, 1, Message(sender=0, kind="x"))
        network.send(1, 2, Message(sender=1, kind="y"))
        sim.run()
        assert nodes[1].handled == [] or nodes[1].handled[0][1] != "x"
        assert any(kind == "y" for _, kind, _ in nodes[2].handled)
        network.heal_partition()
        network.send(0, 1, Message(sender=0, kind="x2"))
        sim.run()
        assert any(kind == "x2" for _, kind, _ in nodes[1].handled)

    def test_drop_rate_one_drops_everything(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_latency(0.01), drop_rate=1.0)
        nodes = [Recorder(i, sim, network) for i in range(2)]
        for _ in range(10):
            network.send(0, 1, Message(sender=0, kind="ping"))
        sim.run()
        assert nodes[1].handled == []
        assert network.stats.messages_dropped == 10

    def test_stats_count_messages_and_bytes(self):
        sim, network, nodes = build()
        network.send(0, 1, Message(sender=0, kind="ping", size_bytes=100))
        network.send(0, 2, Message(sender=0, kind="ping", size_bytes=200))
        sim.run()
        assert network.stats.messages_sent == 2
        assert network.stats.bytes_sent == 300
        assert network.stats.messages_delivered == 2


class TestNodeCpuModel:
    def test_serial_cpu_accumulates_processing_time(self):
        sim, network, nodes = build(cost=1.0)
        network.send(0, 1, Message(sender=0, kind="a"))
        network.send(0, 1, Message(sender=0, kind="b"))
        sim.run()
        # Both arrive at ~0.01 but the CPU serialises them 1 second apart.
        times = [time for time, _, _ in nodes[1].handled]
        assert times[1] - times[0] == pytest.approx(1.0, abs=1e-6)

    def test_bounded_shared_queue_drops_overflow(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_latency(0.001, jitter_fraction=0.0))
        node = Recorder(0, sim, network, cost=10.0, queue_capacity=2)
        sender = Recorder(1, sim, network)
        for _ in range(5):
            network.send(1, 0, Message(sender=1, kind="m"))
        sim.run(until=1.0)
        assert node.stats.messages_dropped_queue_full == 3

    def test_separate_queues_protect_consensus_channel(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_latency(0.001, jitter_fraction=0.0))
        node = Recorder(0, sim, network, cost=10.0, queue_capacity=2, separate_queues=True)
        sender = Recorder(1, sim, network)
        for _ in range(5):
            network.send(1, 0, Message(sender=1, kind="req", channel=REQUEST_CHANNEL))
        for _ in range(2):
            network.send(1, 0, Message(sender=1, kind="con", channel=CONSENSUS_CHANNEL))
        sim.run(until=1.0)
        dropped = node.stats.dropped_by_channel
        assert dropped.get(REQUEST_CHANNEL, 0) == 3
        assert dropped.get(CONSENSUS_CHANNEL, 0) == 0

    def test_crashed_node_does_not_process_queued_work(self):
        sim, network, nodes = build(cost=0.5)
        network.send(0, 1, Message(sender=0, kind="a"))
        nodes[1].crash()
        sim.run()
        assert nodes[1].handled == []

    def test_node_crashing_between_arrival_and_completion_handles_nothing(self):
        sim, network, nodes = build(cost=0.5)
        network.send(0, 1, Message(sender=0, kind="a"))
        sim.run(until=0.1)  # arrived (0.01), CPU busy until 0.51
        assert nodes[1].stats.messages_received == 1
        nodes[1].crash()
        sim.run()
        assert nodes[1].handled == [] and nodes[1].stats.messages_processed == 1

    def test_nth_arrival_at_a_full_queue_is_dropped_per_channel(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_latency(0.001, jitter_fraction=0.0))
        node = Recorder(0, sim, network, cost=1.0, queue_capacity=3, separate_queues=True)
        Recorder(1, sim, network)
        # Arrivals 1 ms apart; the CPU frees one slot per second, so the
        # queue is full from the 4th arrival of each channel on ...
        for index in range(6):
            channel = REQUEST_CHANNEL if index % 2 else CONSENSUS_CHANNEL
            sim.schedule(0.001 * index, network.send, 1, 0,
                         Message(sender=1, kind=f"m{index}", channel=channel))
        for index in range(6, 10):
            sim.schedule(0.001 * index, network.send, 1, 0,
                         Message(sender=1, kind=f"m{index}", channel=REQUEST_CHANNEL))
        sim.run(until=0.5)
        # ... request arrivals are m1 m3 m5 | m6 m7 m8 m9: the 4th-7th drop.
        assert node.stats.messages_received == 10
        assert node.stats.messages_dropped_queue_full == 4
        assert node.stats.dropped_by_channel == {REQUEST_CHANNEL: 4}
        sim.run()
        assert [kind for _, kind, _ in node.handled] == ["m0", "m1", "m2", "m3", "m4", "m5"]
        # A slot freed by processing admits the next arrival again.
        network.send(1, 0, Message(sender=1, kind="late", channel=REQUEST_CHANNEL))
        sim.run()
        assert node.handled[-1][1] == "late"
        assert node.stats.messages_dropped_queue_full == 4


# ---------------------------------------------------------------------------
# broadcast ≡ one send of a fresh copy per recipient, under every fault shape
# ---------------------------------------------------------------------------
class Inbox(SimProcess):
    """Records what arrives, with the stamps the network put on it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrived = []

    def handle_message(self, message: Message) -> None:
        self.arrived.append((self.runtime.now, message.msg_id, message.sender, message.recipient,
                             message.sent_at, message.kind, message.payload,
                             message.size_bytes, message.channel))


def _fault_crashed_source(network, nodes):
    nodes[0].crash()


def _fault_crashed_destination(network, nodes):
    nodes[2].crash()


def _fault_blocked_link(network, nodes):
    network.block_link(0, 3)
    network.block_link(1, 0)  # the other direction of another pair: irrelevant


def _fault_partition(network, nodes):
    network.set_partition([[0, 1, 2], [3, 4]])


def _fault_departed(network, nodes):
    network.unregister(2)


def _fault_everything(network, nodes):
    nodes[4].crash()
    network.block_link(0, 1)
    network.unregister(3)


FAULTS = {
    "none": lambda network, nodes: None,
    "crashed-source": _fault_crashed_source,
    "crashed-destination": _fault_crashed_destination,
    "blocked-link": _fault_blocked_link,
    "partition": _fault_partition,
    "departed": _fault_departed,
    "everything": _fault_everything,
}


def _fan_out(use_broadcast, fault, drop_rate, latency, dst_ids):
    """Three fan-outs from node 0 (the last at a later instant); returns
    everything observable about them.  The final clock is left out: a
    departed recipient's copy is dropped at once by ``send`` and on arrival
    by ``broadcast`` — counted as a drop either way."""
    sim = Simulator(seed=11)
    network = Network(sim, latency(), drop_rate=drop_rate)
    nodes = [Inbox(i, sim, network) for i in range(5)]
    FAULTS[fault](network, nodes)
    errors = []

    def fan_out(kind, size):
        template = Message(sender=0, kind=kind, payload={"k": kind}, size_bytes=size,
                           channel=REQUEST_CHANNEL)
        try:
            if use_broadcast:
                network.broadcast(0, dst_ids, template)
            else:
                ordered = sorted(dst_ids) if isinstance(dst_ids, (set, frozenset)) else dst_ids
                for dst in ordered:
                    network.send(0, dst, Message(sender=0, kind=kind, payload={"k": kind},
                                                 size_bytes=size, channel=REQUEST_CHANNEL))
        except NetworkError as exc:
            errors.append(str(exc))

    fan_out("first", 100)
    fan_out("second", 700)
    sim.schedule(0.5, fan_out, "third", 300)
    sim.run()
    return {
        "stats": network.stats,
        "rng": network._rng.getstate(),
        "next_msg_id": next(network._msg_counter),
        "arrived": [node.arrived for node in nodes],
        "received": [node.stats.messages_received for node in nodes],
        "errors": errors,
    }


@pytest.mark.parametrize("latency", [
    pytest.param(lambda: uniform_latency(0.01, jitter_fraction=0.0), id="equal-delays"),
    pytest.param(lambda: uniform_latency(0.01, jitter_fraction=0.2), id="jittered"),
])
@pytest.mark.parametrize("drop_rate", [0.0, 0.4])
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("dst_ids", [
    pytest.param([1, 2, 3, 4], id="list"),
    pytest.param([4, 2, 1, 3, 2], id="unsorted-with-repeat"),
    pytest.param({4, 3, 2, 1}, id="set"),
    pytest.param([1, 2, 99, 3], id="unknown-mid-list"),
])
def test_broadcast_equals_per_recipient_sends(latency, drop_rate, fault, dst_ids):
    """Same ``NetworkStats``, ``msg_id``s, rng state and delivery schedule
    whether a fan-out goes through ``broadcast`` or through one ``send`` per
    recipient — so hoisting the per-broadcast constants moved nothing."""
    sends = _fan_out(False, fault, drop_rate, latency, dst_ids)
    broadcast = _fan_out(True, fault, drop_rate, latency, dst_ids)
    assert broadcast == sends
    expected_errors = 3 if 99 in dst_ids else 0
    assert len(broadcast["errors"]) == expected_errors
    if fault == "none" and drop_rate == 0.0 and 99 not in dst_ids:
        assert broadcast["stats"].messages_delivered == broadcast["stats"].messages_sent
    if fault == "crashed-source":
        assert broadcast["stats"].messages_delivered == 0


def test_every_surviving_message_is_its_own_event():
    """Jitter-free copies of one broadcast share a delivery time but not an
    event, and a same-instant send to the last recipient adds one more."""
    sim = Simulator(seed=1)
    network = Network(sim, uniform_latency(0.01, jitter_fraction=0.0))
    nodes = [Inbox(i, sim, network) for i in range(5)]
    network.broadcast(0, [1, 2, 3, 4], Message(sender=0, kind="vote"))
    assert sim.pending_events == 4
    network.send(0, 4, Message(sender=0, kind="vote"))
    assert sim.pending_events == 5
    sim.run()
    assert [len(node.arrived) for node in nodes] == [0, 1, 1, 1, 2]
    assert [arrival[1] for arrival in nodes[4].arrived] == [3, 4]
