"""Unit tests for the three parts the engine and the live service assemble.

* :class:`repro.txn.locks.LockAdmissionTable` — the one lock-admission
  schedule (host: every ``HomeCoordinator`` under ``wait`` / ``wound-wait``);
* :class:`repro.core.driver.ArrivalLoop` — the one open-loop arrival tick
  and completion accounting (configurations: ``OpenLoopDriver`` and
  ``PartitionDriver``);
* the shard definition in :mod:`repro.core.splitters` — one benchmark table
  and one committee factory (assembled by every ``ShardPartition`` of the
  engine and by the ``repro-serve`` shard process).

The first two need no simulator: a manual clock fires the timers and fake
callbacks record what the host would be told.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.core import ShardedBlockchain, ShardedSystemConfig
from repro.core.driver import ArrivalLoop
from repro.core.homecoord import PartitionDriver
from repro.core.splitters import (
    REFERENCE_SHARD_ID,
    build_committee,
    initial_items,
    initial_state,
)
from repro.runtime import AsyncioRuntime
from repro.service.socketnet import SocketNetwork
from repro.txn.locks import LockAdmissionTable
from repro.workloads.smallbank import initial_balances
from test_txn_driver import ManualClock

WAIT = 5.0


# --------------------------------------------------------------------------
# The lock-admission table.
# --------------------------------------------------------------------------

class Host:
    """Records every callback the table makes."""

    def __init__(self, policy: str) -> None:
        self.clock = ManualClock()
        self.admitted = []
        self.refused = []
        self.wounded = []
        self.table = LockAdmissionTable(
            self.clock, policy, WAIT,
            on_admitted=self.admitted.append,
            on_refused=lambda *args: self.refused.append(args),
            on_wound=self.wounded.append)

    def request(self, tx_id, keys, priority=(0.0, 0)):
        return self.table.admit(tx_id, keys, priority, f"payload-{tx_id}")


class TestLockAdmissionTable:
    def test_all_granted(self):
        host = Host("wait")
        assert host.request("a", ["k1", "k2"]) == "granted"
        assert host.table.claim("a") is None  # nothing parked
        assert host.table.manager.holder("k1") == host.table.manager.holder("k2") == "a"
        host.clock.advance(2 * WAIT)  # no timer was armed
        assert (host.admitted, host.refused, host.wounded) == ([], [], [])

    def test_park_then_grant_fires_once_on_the_last_key(self):
        host = Host("wait")
        host.request("a", ["k1", "k2"])
        assert host.request("b", ["k1", "k2"]) == "waiting"
        host.table.manager.release("k1", "a")
        assert host.admitted == []  # one key still missing
        host.table.manager.release("k2", "a")
        assert host.admitted == ["b"]
        assert host.table.claim("b") == "payload-b"
        assert host.table.claim("b") is None
        host.clock.advance(2 * WAIT)  # the stale timeout finds nothing parked
        assert host.refused == [] and host.table.wait_timeouts == 0

    def test_timeout_cancels_only_the_outstanding_waits(self):
        host = Host("wait")
        host.request("a", ["k1"])
        assert host.request("b", ["k1", "k2"]) == "waiting"
        host.clock.advance(WAIT)
        assert host.refused == [
            ("b", "payload-b", f"lock wait timed out after {WAIT}s")]
        assert host.table.wait_timeouts == 1
        manager = host.table.manager
        assert manager.waiters("k1") == [] and manager.holder("k2") == "b"
        assert host.table.claim("b") is None

    def test_deadlock_keeps_partial_grants(self):
        host = Host("wait")
        host.request("a", ["k1"])
        host.request("b", ["k2"])
        # Re-requests after a grant (a re-driven prepare) acquire re-entrantly.
        assert host.request("a", ["k2"]) == "waiting"
        assert host.request("b", ["k3", "k1"]) == "deadlock"
        assert host.table.deadlocks_detected == 1
        manager = host.table.manager
        assert manager.holder("k3") == "b"          # kept until b finishes
        assert manager.waiters("k1") == []          # no queued wait survives
        assert host.table.claim("b") is None
        host.table.finish("b")                       # the abort executes
        assert host.admitted == ["a"] and manager.holder("k3") is None

    def test_wound_wait_orders_by_priority_and_reports_wounds(self):
        host = Host("wound-wait")
        assert host.request("young", ["k"], priority=(3.0, 0)) == "granted"
        assert host.request("old", ["k"], priority=(1.0, 0)) == "waiting"
        assert host.wounded == ["young"] and host.table.wounded_transactions == 1
        assert host.request("middle", ["k"], priority=(2.0, 0)) == "waiting"
        assert host.request("oldest", ["k"], priority=(0.5, 0)) == "waiting"
        assert host.request("youngest", ["k"], priority=(9.0, 0)) == "waiting"
        assert host.wounded == ["young"]  # a holder is wounded once
        assert host.table.manager.waiters("k") == ["oldest", "old", "middle", "youngest"]
        host.table.finish("young")        # the host aborted the victim
        assert host.admitted == ["oldest"]

    def test_cancel_between_full_grant_and_the_launch_hop(self):
        host = Host("wait")
        host.request("a", ["k"])
        host.request("b", ["k"])
        host.table.finish("a")
        assert host.admitted == ["b"]
        # A participant claims only after its relay hop; until then the
        # request is still parked (a re-request is a no-op), and a decision
        # arriving first cancels it.
        assert host.request("b", ["k"]) == "waiting"
        host.table.cancel("b")
        assert host.table.claim("b") is None
        host.clock.advance(2 * WAIT)
        assert host.refused == []

    def test_re_requests_are_re_entrant(self):
        host = Host("wait")
        assert host.request("a", ["k"]) == "granted"
        assert host.request("a", ["k"]) == "granted"
        assert host.request("b", ["k"]) == "waiting"
        assert host.request("b", ["k"]) == "waiting"
        assert host.table.manager.waiters("k") == ["b"]
        host.clock.advance(WAIT)
        assert len(host.refused) == 1  # the re-request armed no second timer

    def test_finish_of_a_parked_request_withdraws_it(self):
        host = Host("wait")
        host.request("a", ["k1"])
        assert host.request("b", ["k2", "k1"]) == "waiting"
        host.request("c", ["k2"])
        host.table.finish("b")          # e.g. the decision aborted it
        manager = host.table.manager
        assert manager.waiters("k1") == [] and manager.holder("k2") == "c"
        assert host.admitted == ["c"]
        assert host.table.claim("b") is None
        host.clock.advance(2 * WAIT)    # neither stale timeout refuses anything
        assert host.refused == [] and host.table.wait_timeouts == 0

    def test_finish_grants_in_its_lock_order(self):
        host = Host("wait")
        host.request("a", ["k2", "k1"])
        assert host.request("b", ["k2"]) == "waiting"
        assert host.request("b2", ["k1"]) == "waiting"
        assert host.request("c", ["k1"]) == "waiting"
        host.table.finish("a")
        assert host.admitted == ["b", "b2"]
        assert host.table.manager.waiters("k1") == ["c"]  # still parked


# --------------------------------------------------------------------------
# The arrival loop.
# --------------------------------------------------------------------------

def _loop(**overrides):
    clock = ManualClock()
    submitted = []
    params = dict(rate_tps=10.0, batch_size=2, max_transactions=None,
                  max_in_flight=None)
    params.update(overrides)
    counter = iter(range(10_000))
    loop = ArrivalLoop(clock, draw=lambda now: (next(counter), now),
                       submit=submitted.append, **params)
    clock.schedule(0.0, loop.tick)
    return clock, loop, submitted


class TestArrivalLoop:
    def test_batches_until_the_transaction_cap(self):
        clock, loop, submitted = _loop(max_transactions=5)
        clock.advance(10.0)
        assert submitted == [(0, 0.0), (1, 0.0), (2, 0.2), (3, 0.2), (4, 0.4)]
        assert loop.stats.submitted == loop.stats.in_flight == 5
        assert loop.stats.max_in_flight == 5

    def test_in_flight_bound_drops_arrivals(self):
        clock, loop, submitted = _loop(batch_size=3, max_in_flight=2)
        clock.advance(0.0)
        assert len(submitted) == 2 and loop.stats.dropped_arrivals == 1
        loop.complete(True, None, 0.25, epoch=0)
        clock.advance(0.3)
        assert len(submitted) == 3 and loop.stats.dropped_arrivals == 3
        assert loop.stats.max_in_flight == 2

    def test_completions_bucket_by_epoch_and_abort_reason(self):
        _, loop, _ = _loop()
        loop.stats.in_flight = 4
        loop.complete(True, None, 0.5, epoch=0)
        loop.complete(False, "key 'x' is locked by 'tx-1'", None, epoch=1)
        loop.complete(False, "lock wait timed out after 5.0s", 1.5, epoch=1)
        loop.complete(False, None, None, epoch=2)
        stats = loop.stats
        assert (stats.committed, stats.aborted, stats.in_flight) == (1, 3, 0)
        assert stats.epoch_committed == {0: 1}
        assert stats.epoch_aborted == {1: 2, 2: 1}
        assert stats.abort_reasons == {"lock-conflict": 1, "wait-timeout": 1,
                                       "other": 1}
        assert (stats.latency_sum, stats.latency_count) == (2.0, 2)

    def test_partition_split_of_rate_and_caps(self):
        spec = dict(rate_tps=90.0, max_transactions=10, max_in_flight=2,
                    batch_size=4, client_id="c", workload_seed=1,
                    vectorized=False, vector_batch=256)
        config = ShardedSystemConfig(num_shards=3, num_keys=300)

        def partition(shard_id):
            return SimpleNamespace(shard_id=shard_id, config=config,
                                   runtime=ManualClock())

        drivers = [PartitionDriver(partition(shard_id), 0, spec)
                   for shard_id in range(3)]
        assert [driver.max_transactions for driver in drivers] == [4, 3, 3]
        # A cap smaller than the shard count still admits one per partition.
        assert [driver.max_in_flight for driver in drivers] == [1, 1, 1]
        assert {driver.rate_tps for driver in drivers} == {30.0}
        assert {driver.batch_size for driver in drivers} == {4}
        unbounded = PartitionDriver(partition(0), 0, {
            **spec, "max_transactions": None, "max_in_flight": None})
        assert unbounded.max_transactions is None and unbounded.max_in_flight is None


# --------------------------------------------------------------------------
# The shard definition.
# --------------------------------------------------------------------------

def _shard_view(cluster):
    """(chaincode names, initial state) of every replica, which must agree."""
    views = [(sorted(replica.registry.chaincodes), list(replica.state.items()))
             for replica in cluster.replicas]
    assert all(view == views[0] for view in views)
    return views[0]


@pytest.mark.parametrize("workload", ["smallbank", "kvstore"])
def test_every_assembler_builds_the_same_shards(workload):
    config = ShardedSystemConfig(num_shards=3, committee_size=4, num_keys=300,
                                 benchmark=workload, seed=5)
    system = ShardedBlockchain(config)
    expected = {shard_id: _shard_view(system.shards[shard_id])
                for shard_id in range(config.num_shards)}
    expected[REFERENCE_SHARD_ID] = _shard_view(system.reference)

    async def service_shards():
        runtime = AsyncioRuntime(seed=config.seed)
        return {shard_id: _shard_view(build_committee(
                    config, shard_id, runtime, SocketNetwork(runtime)))
                for shard_id in range(config.num_shards)}

    served = asyncio.run(service_shards())
    assert served == {shard_id: expected[shard_id] for shard_id in served}

    # The slices partition the benchmark's initial table, in table order.
    table = initial_items(workload, config.num_keys)
    assert expected[REFERENCE_SHARD_ID] == (["refcommittee"], [])
    assert sorted(key for shard_id in served for key, _ in expected[shard_id][1]) \
        == sorted(key for key, _ in table)
    for shard_id in served:
        assert expected[shard_id] == ([workload], list(initial_state(config, shard_id)))


def test_initial_tables():
    assert dict(initial_items("smallbank", 123)) == initial_balances(123)
    kvstore = initial_items("kvstore", 20_000)
    assert len(kvstore) == 5_000  # the pre-load cap
    assert kvstore[0] == ("kv_0", "0" * 8) and kvstore[-1][0] == "kv_4999"
    assert len(initial_items("kvstore", 40)) == 40
