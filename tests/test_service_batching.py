"""Load-driven block filling: the shard agent is a batching client.

``ShardAgent`` hands its committee one request per leader-CPU cycle, not one
per transaction its partition hands it.  Part (a) pins the hand-over rule on
the simulated clock, where it is deterministic, with a real 4-replica AHL
committee; part (b) drives a live 2-shard cluster and checks that a burst
still commits exactly once, conserves money, and fills blocks.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.config import ShardedSystemConfig
from repro.core.splitters import benchmark_for, build_committee
from repro.service.shardnode import GATEWAY_NODE_ID, KIND_SHUTDOWN, ShardAgent
from repro.sim.network import Message, Network, REQUEST_CHANNEL
from repro.sim.simulator import Simulator
from repro.workloads.generator import shard_of_key
from repro.workloads.smallbank import DEFAULT_BALANCE, account_key

from service_harness import ServeProcess


# ------------------------------------------------------- (a) simulated clock
class _Gateway:
    """Stands in for the gateway's node; keeps each committed block's receipts."""

    node_id = GATEWAY_NODE_ID

    def __init__(self) -> None:
        self.frames = []

    def deliver(self, message: Message) -> None:
        pass

    def on_commit(self, event) -> None:
        if event.receipts:
            self.frames.append({"height": event.block.header.height,
                                "receipts": list(event.receipts)})

    @property
    def committed_ids(self):
        return [receipt.tx_id for frame in self.frames
                for receipt in frame["receipts"]]


class _Shard:
    """One AHL committee of four plus its agent, on the simulated clock."""

    def __init__(self) -> None:
        self.sim = Simulator(seed=7)
        network = Network(self.sim)
        config = ShardedSystemConfig(num_shards=1, committee_size=4, protocol="AHL",
                                     benchmark="smallbank", num_keys=100, seed=7)
        self.cluster = build_committee(config, 0, self.sim, network)
        self.gateway = _Gateway()
        network.register(self.gateway)
        self.stop = asyncio.Event()
        self.agent = ShardAgent(0, self.cluster, network, self.stop)
        self.cluster.subscribe_commits(self.gateway.on_commit)
        # Count the requests the agent hands its committee.
        self.requests_handed = 0
        submit = self.cluster.submit

        def counting_submit(transactions, *args, **kwargs):
            self.requests_handed += 1
            return submit(transactions, *args, **kwargs)

        self.cluster.submit = counting_submit
        self.chaincode = benchmark_for("smallbank").chaincode()
        self.sent = []

    def submit(self, index: int) -> None:
        """One payment between fresh accounts, handed to the agent as its
        partition hands it a single-shard transaction."""
        tx = self.chaincode.new_transaction(
            "sendPayment", {"from": str(index), "to": str(index + 50), "amount": 1},
            client_id="test", submitted_at=self.sim.now)
        self.sent.append(tx.tx_id)
        self.agent.hand([tx])

    def frame(self, kind: str, payload) -> None:
        self.agent.deliver(Message(sender=GATEWAY_NODE_ID, kind=kind, payload=payload,
                                   size_bytes=512, channel=REQUEST_CHANNEL))

    @property
    def height(self) -> int:
        return self.cluster.honest_observer().blockchain.height

    def assert_drained(self) -> None:
        assert self.gateway.committed_ids == self.sent  # arrival order, exactly once
        assert self.agent._buffer == []
        assert self.agent._request_waiting is False
        assert self.agent.submits_received == len(self.sent)


def test_lone_transaction_is_handed_over_in_the_same_call():
    shard = _Shard()
    replica = shard.cluster.replicas[0]
    before, now = replica.stats.messages_received, shard.sim.now
    shard.submit(0)
    assert replica.stats.messages_received == before + 1
    assert shard.sim.now == now
    assert shard.agent._buffer == [] and shard.requests_handed == 1
    shard.sim.run(until=1.0)
    assert shard.height == 1
    shard.assert_drained()


def test_burst_fills_blocks_instead_of_cutting_one_per_frame():
    shard = _Shard()
    for index in range(20):
        shard.sim.schedule(0.001 * index, shard.submit, index)
    shard.sim.run(until=2.0)
    # One block per frame until the pipeline fills gave 9 blocks here.
    assert shard.requests_handed <= 4
    assert shard.height <= 4
    assert [frame["height"] for frame in shard.gateway.frames] == \
        list(range(1, shard.height + 1))
    shard.assert_drained()


def test_request_behind_a_proposal_waits_for_the_whole_cpu_cycle():
    """Frames arriving while the leader signs a proposal leave as one request
    when that proposal is off the CPU — not one by one behind it."""
    shard = _Shard()
    shard.submit(0)                      # handed over at once; proposal follows
    for index in range(1, 6):
        shard.sim.schedule(0.004 * index, shard.submit, index)
    shard.sim.run(until=0.022)           # inside the 25 ms proposal charge
    assert shard.requests_handed == 1
    assert len(shard.agent._buffer) == 5 and shard.agent._request_waiting
    shard.sim.run(until=1.0)
    assert shard.requests_handed == 2
    assert [len(frame["receipts"]) for frame in shard.gateway.frames] == [1, 5]
    shard.assert_drained()


def test_parked_request_does_not_stall_later_submissions():
    """Whole committee mid-transfer: ``submit`` parks the request and returns
    nobody to clock on; the agent must not wait for a callback from nobody."""
    shard = _Shard()
    cluster = shard.cluster
    shard.submit(0)
    shard.sim.run(until=1.0)
    joiners = [cluster.admit_member() for _ in range(4)]
    for node_id in list(cluster.committee[:4]):
        cluster.remove_member(node_id)
    shard.submit(1)                      # nobody active: parked by the cluster
    assert shard.agent._request_waiting is False and shard.agent._buffer == []
    assert len(cluster._parked_requests) == 1
    shard.submit(2)                      # not buffered behind the parked one
    assert len(cluster._parked_requests) == 2
    for node_id in joiners:
        cluster.activate_member(node_id)
    shard.submit(3)                      # clocks on an active joiner now
    assert shard.agent._request_waiting is True
    shard.sim.run(until=5.0)
    # Commit fan-out after a membership change reports each block once per
    # member; every transaction still commits exactly once on the chain.
    assert sorted(set(shard.gateway.committed_ids)) == sorted(shard.sent)
    observer = cluster.honest_observer()
    assert all(tx_id in observer.committed_tx_ids for tx_id in shard.sent)
    assert shard.agent._buffer == [] and shard.agent._request_waiting is False


def test_shutdown_hands_over_what_is_still_buffered():
    shard = _Shard()
    for index in range(3):
        shard.submit(index)
    assert len(shard.agent._buffer) == 2 and shard.agent._request_waiting
    shard.frame(KIND_SHUTDOWN, None)
    assert shard.stop.is_set()
    assert shard.agent._buffer == [] and shard.requests_handed == 2
    shard.sim.run(until=1.0)
    assert shard.gateway.committed_ids == shard.sent


# ------------------------------------------------------------ (b) wall clock
NUM_SHARDS = 2
NUM_KEYS = 200
PAYMENTS = 40


def test_live_burst_commits_once_conserves_money_and_fills_blocks():
    """40 fire-and-forget payments in flight at once over 2 shard processes."""
    payments = [(str(2 * index), str(2 * index + 1)) for index in range(PAYMENTS)]
    cross = sum(1 for src, dst in payments
                if shard_of_key(account_key(src), NUM_SHARDS)
                != shard_of_key(account_key(dst), NUM_SHARDS))
    assert 0 < cross < PAYMENTS          # both paths are exercised
    # A cross-shard payment is a prepare and a decision on each of 2 shards.
    shard_transactions = (PAYMENTS - cross) + 4 * cross
    with ServeProcess(shards=NUM_SHARDS, committee=4, protocol="AHL", seed=13,
                      num_keys=NUM_KEYS) as serve:
        client = serve.client
        tx_ids = [client.submit("sendPayment", {"from": src, "to": dst, "amount": 3},
                                client_id="burst")["tx_id"]
                  for src, dst in payments]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            health = client.health()
            if health["committed"] + health["aborted"] == PAYMENTS:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"burst never finished: {health}")
        outcomes = [client.tx_status(tx_id)[1]["outcome"] for tx_id in tx_ids]
        balances = [client.balance(account_key(account))
                    for pair in payments for account in pair]

    # Disjoint accounts: nothing conflicts, so everything commits.
    assert outcomes == ["committed"] * PAYMENTS
    assert health["in_flight"] == 0
    assert sum(balances) == 2 * PAYMENTS * DEFAULT_BALANCE
    assert balances == [DEFAULT_BALANCE - 3, DEFAULT_BALANCE + 3] * PAYMENTS
    # /health answers "are blocks filling?" without stopping the service.
    assert set(health["blocks"]) == set(health["txs_per_block"]) == {"0", "1"}
    total_height = sum(health["blocks"].values())
    assert 0 < total_height < shard_transactions / 2
    assert all(filling > 2.0 for filling in health["txs_per_block"].values())
