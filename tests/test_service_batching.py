"""Blocks fill with the load: the leader's own cut at ``pipeline_depth=1``.

A live shard hands each transaction to its committee as its own request, as
the simulated partition does; the leader keeps one block in flight and
waits :data:`~repro.service.shardnode.BLOCK_INTERVAL` after its last block,
so the next block carries whatever arrived meanwhile.  Part (a) pins that
cut on the simulated clock, where it is deterministic, with the live
committee's own configuration (:data:`~repro.service.shardnode.LIVE_CONSENSUS`,
no network delay) and a real 4-replica AHL committee, and what the commit
timeout costs a lone payment on two such shards; part (b) drives a live
2-shard cluster and checks that a burst still commits exactly once,
conserves money, and fills blocks.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core import ShardedBlockchain
from repro.core.config import ShardedSystemConfig
from repro.core.scaleout import ShardPartition
from repro.core.splitters import benchmark_for
from repro.service.shardnode import BLOCK_INTERVAL, LIVE_CONSENSUS, NO_DELAY
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.workloads.generator import shard_of_key
from repro.workloads.smallbank import DEFAULT_BALANCE, account_key

from service_harness import ServeProcess


# ------------------------------------------------------- (a) simulated clock
class _Shard:
    """One AHL committee of four as a live shard configures it, on the
    simulated clock; keeps each committed block's transaction ids."""

    def __init__(self) -> None:
        self.sim = Simulator(seed=7)
        config = ShardedSystemConfig(
            num_shards=1, committee_size=4, protocol="AHL", benchmark="smallbank",
            num_keys=100, seed=7, use_reference_committee=False)
        config = dataclasses.replace(config, consensus_overrides=dict(LIVE_CONSENSUS))
        self.partition = ShardPartition(config, 0, self.sim, Network(self.sim, NO_DELAY))
        self.cluster = self.partition.cluster
        self.blocks = []
        self.committed_at = []
        self.cluster.subscribe_commits(self._on_commit)
        self.chaincode = benchmark_for("smallbank").chaincode()
        self.sent = []

    def _on_commit(self, event) -> None:
        if event.receipts:
            self.blocks.append([receipt.tx_id for receipt in event.receipts])
            self.committed_at.append(event.committed_at)

    def submit(self, index: int) -> None:
        """One payment between fresh accounts, handed to the committee as the
        partition hands it a single-shard transaction."""
        tx = self.chaincode.new_transaction(
            "sendPayment", {"from": str(index), "to": str(index + 50), "amount": 1},
            client_id="test", submitted_at=self.sim.now)
        self.sent.append(tx.tx_id)
        self.partition.hand_to_committee([tx], 0)

    def assert_drained(self) -> None:
        # Arrival order, each transaction exactly once.
        assert [tx_id for block in self.blocks for tx_id in block] == self.sent
        assert self.cluster.honest_observer().blockchain.height == len(self.blocks)


def test_lone_transaction_reaches_the_committee_in_the_same_call():
    shard = _Shard()
    leader = shard.cluster.replicas[0]
    before, now = leader.stats.messages_received, shard.sim.now
    shard.submit(0)
    assert leader.stats.messages_received == before + 1
    assert shard.sim.now == now
    shard.sim.run(until=1.0)
    assert shard.blocks == [shard.sent]
    shard.assert_drained()


def test_burst_is_cut_by_the_leader_into_few_blocks():
    shard = _Shard()
    for index in range(20):
        shard.sim.schedule(0.0, shard.submit, index)
    shard.sim.run(until=1.0)
    assert len(shard.blocks) <= 4
    shard.assert_drained()


def test_arrivals_spread_over_time_are_cut_once_per_block_interval():
    """50 arrivals 2 ms apart: the leader proposes no sooner than
    ``BLOCK_INTERVAL`` after its last block, so the 98 ms of arrivals leave
    in a handful of blocks spaced at least that far apart."""
    shard = _Shard()
    for index in range(50):
        shard.sim.schedule(0.002 * index, shard.submit, index)
    shard.sim.run(until=1.0)
    gaps = [later - earlier for earlier, later
            in zip(shard.committed_at, shard.committed_at[1:])]
    assert 2 <= len(shard.blocks) <= 0.1 / BLOCK_INTERVAL + 1
    assert all(gap >= BLOCK_INTERVAL for gap in gaps)
    shard.assert_drained()


def _lone_payment_latency(cross_shard: bool) -> float:
    """Simulated seconds one payment takes on two idle live-configured
    shards, from its submission to its home's completion."""
    config = ShardedSystemConfig(
        num_shards=2, committee_size=4, protocol="AHL", benchmark="smallbank",
        num_keys=100, seed=7, use_reference_committee=False,
        consensus_overrides=dict(LIVE_CONSENSUS))
    system = ShardedBlockchain(config)
    src, dst = next((str(a), str(b)) for a in range(100) for b in range(a + 1, 100)
                    if (shard_of_key(account_key(str(a)), 2)
                        != shard_of_key(account_key(str(b)), 2)) == cross_shard)
    system.run(1.0)                       # both leaders' last block is long past
    tx = benchmark_for("smallbank").chaincode().new_transaction(
        "sendPayment", {"from": src, "to": dst, "amount": 1},
        client_id="test", submitted_at=system.runtime.now)
    done = []
    system.submit_transaction(tx, on_complete=done.append)
    system.run(1.0)
    assert [record.outcome.value for record in done] == ["committed"]
    assert done[0].shards == ([0, 1] if cross_shard else [shard_of_key(account_key(src), 2)])
    return done[0].latency


def test_a_lone_cross_shard_payment_waits_one_commit_timeout_per_phase():
    """Paper section 6: a prepare round, then a decision round on each
    participant.  On idle shards the prepare block is cut at once and the
    decision block waits out one commit timeout after it, so the payment
    takes one ``BLOCK_INTERVAL`` and never more than two, plus the relay
    hops (client, prepare, vote, decision, ack).  A lone single-shard
    payment waits out none."""
    relay_hops = 5 * ShardedSystemConfig.relay_delay
    single = _lone_payment_latency(cross_shard=False)
    cross = _lone_payment_latency(cross_shard=True)
    assert single < BLOCK_INTERVAL
    assert BLOCK_INTERVAL <= cross <= 2 * BLOCK_INTERVAL + relay_hops


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
