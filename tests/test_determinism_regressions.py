"""Seed-sweep differential regressions for the detlint-audited paths.

The detlint PR touched runtime code in three places: ``sim/node.py``
(request tracking keyed by deterministic msg ids instead of ``id()``),
``sim/network.py`` (set-typed broadcast destinations canonicalized), and
justified wall-clock suppressions that must not change behavior at all.
These goldens were captured at the pre-change HEAD and pin the protocol
fingerprints across seeds, protocols, and the membership-change path that
exercises request tracking — proving the hazard fixes are fingerprint-
preserving, not silent behavior changes.
"""

from __future__ import annotations

import pytest

from repro.consensus.cluster import ConsensusCluster
from repro.core.config import ShardedSystemConfig
from repro.core.driver import OpenLoopDriver
from repro.core.system import build_system
from repro.ledger.transaction import rebase_tx_counter
from repro.sharding.beacon_protocol import BeaconProtocol
from repro.sim.latency import UniformLatencyModel
from repro.sim.network import Message, Network
from repro.sim.node import SimProcess
from repro.sim.simulator import Simulator

# Captured at the pre-change HEAD (commit 2998957):
# [committed_txs, blocks, view_changes, msgs_sent, msgs_delivered,
#  honest observer last_executed]
CLUSTER_GOLDENS = {
    ("HL", 0, False): [695, 59, 0, 1983, 1981, 59],
    ("HL", 0, True): [685, 65, 0, 2080, 2009, 65],
    ("HL", 1, False): [670, 58, 0, 1923, 1921, 58],
    ("HL", 1, True): [715, 66, 0, 2068, 2000, 66],
    ("HL", 2, False): [695, 59, 0, 1983, 1981, 59],
    ("HL", 2, True): [705, 65, 0, 2086, 2022, 65],
    ("IBFT", 0, False): [400, 1, 0, 567, 565, 1],
    ("IBFT", 0, True): [400, 1, 0, 538, 504, 1],
    ("IBFT", 1, False): [400, 1, 0, 549, 547, 1],
    ("IBFT", 1, True): [400, 1, 0, 547, 516, 1],
    ("IBFT", 2, False): [400, 1, 0, 546, 544, 1],
    ("IBFT", 2, True): [400, 1, 0, 544, 517, 1],
}

# [rnd, rounds, certificates_broadcast, messages_sent, elapsed (9 dp)]
BEACON_GOLDENS = {
    0: [12380718284632516819952351371434493974, 1, 4, 44, 0.001014576],
    1: [263797996086799336663141100936270047083, 1, 2, 22, 0.001014576],
    2: [60881682469401843490923950448889340808, 1, 5, 55, 0.001014576],
    3: [17922400700691921650214938339890588114, 2, 4, 44, 0.002029152],
    4: [61723040481371487985940223514495564257, 1, 4, 44, 0.001014576],
}

# Re-baselined once when the single-loop wiring was deleted: these are the
# values the partitioned engine produced for this config at that commit's
# parent (workers=1), so they still pin the surviving engine's behaviour.
SYSTEM_GOLDENS = {
    0: {"committed": 107, "aborted": 6, "started": 120,
        "per_shard_committed": {0: 110, 1: 129, 2: 109},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "driver": [107, 6], "reconfigurations": 104},
    1: {"committed": 114, "aborted": 6, "started": 120,
        "per_shard_committed": {0: 116, 1: 118, 2: 129},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "driver": [114, 6], "reconfigurations": 6},
}


def _cluster_fingerprint(protocol: str, seed: int,
                         membership_change: bool) -> list:
    rebase_tx_counter(0)
    cluster = ConsensusCluster(protocol, 4, seed=seed)
    cluster.add_open_loop_clients(2, rate_tps=200.0, batch_size=5)
    cluster.run(1.0)
    if membership_change:
        # The graceful-leave path exercises request tracking — the code
        # that moved off id(message) keys.
        cluster.enable_request_tracking()
        departed = cluster.remove_member(cluster.committee[-1])
        assert departed is not None
        joiner = cluster.admit_member()
        cluster.run(0.2)
        cluster.activate_member(joiner)
    result = cluster.run(1.0)
    observer = cluster.honest_observer()
    return [
        result.committed_transactions,
        result.blocks_committed,
        result.view_changes,
        cluster.network.stats.messages_sent,
        cluster.network.stats.messages_delivered,
        observer.last_executed,
    ]


@pytest.mark.parametrize("protocol,seed,change", sorted(CLUSTER_GOLDENS))
def test_cluster_fingerprints_unchanged(protocol, seed, change):
    assert _cluster_fingerprint(protocol, seed, change) == \
        CLUSTER_GOLDENS[(protocol, seed, change)]


@pytest.mark.parametrize("seed", sorted(BEACON_GOLDENS))
def test_beacon_fingerprints_unchanged(seed):
    protocol = BeaconProtocol(network_size=12, seed=seed)
    result = protocol.run_epoch(epoch=seed)
    assert [
        result.rnd,
        result.rounds,
        result.certificates_broadcast,
        result.messages_sent,
        round(result.elapsed_seconds, 9),
    ] == BEACON_GOLDENS[seed]


@pytest.mark.parametrize("seed", sorted(SYSTEM_GOLDENS))
def test_sharded_system_fingerprints_unchanged(seed):
    rebase_tx_counter(0)
    config = ShardedSystemConfig(
        num_shards=3, committee_size=4, seed=seed,
        epoch_duration=1.2, auto_reconfigure=True,
        reconfiguration_strategy="swap-batch", swap_batch_interval=0.2,
    )
    system = build_system(config)
    try:
        driver = OpenLoopDriver(system, rate_tps=150.0, max_transactions=120)
        driver.run_to_completion()
        system.advance(system.sim.now + 5.0)
        fingerprint = system.fingerprint()
        fingerprint["driver"] = [driver.stats.committed,
                                 driver.stats.aborted]
        fingerprint["reconfigurations"] = system.reconfigurations_completed
    finally:
        system.close()
    assert fingerprint == SYSTEM_GOLDENS[seed]


# ------------------------------------------------------- broadcast hardening
class _Recorder(SimProcess):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle_message(self, message: Message) -> None:
        self.handled.append((self.sim.now, message.sender, message.kind))


def _run_broadcast(dst_ids) -> list:
    sim = Simulator(seed=7)
    # jitter makes the latency model consume one rng draw per recipient,
    # so visiting recipients in a different order changes every delay
    network = Network(sim, UniformLatencyModel(0.01, jitter_fraction=0.5))
    nodes = [_Recorder(i, sim, network) for i in range(4)]
    network.broadcast(3, dst_ids, Message(sender=3, kind="hello"))
    sim.run()
    return [(i, node.handled) for i, node in enumerate(nodes)]


def test_broadcast_canonicalizes_set_destinations():
    """A set of destination ids must behave exactly like the sorted list:
    the per-recipient rng draws consume the stream in visit order, so
    arbitrary set order would shift every delivery time."""
    assert _run_broadcast({2, 0, 1}) == _run_broadcast([0, 1, 2])
    assert _run_broadcast(frozenset({2, 0, 1})) == _run_broadcast([0, 1, 2])


def test_request_tracking_keys_are_deterministic():
    """_inbound_requests must be keyed by network msg ids (>= 0) or the
    node's negative local counter — never id(message) heap addresses."""
    sim = Simulator(seed=3)
    network = Network(sim, UniformLatencyModel(0.01, jitter_fraction=0.0))
    node = _Recorder(0, sim, network)
    node.track_requests = True
    # a locally-injected request that never crossed the network
    from repro.sim.network import REQUEST_CHANNEL
    local = Message(sender=0, kind="req", channel=REQUEST_CHANNEL,
                    payload="payload")
    node.deliver(local)
    assert set(node._inbound_requests) == {-2}
    assert local.msg_id == -2
    sim.run()
    assert node._inbound_requests == {}
