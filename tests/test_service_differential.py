"""The keystone oracle: sim mode and service mode agree transaction-for-transaction.

A recorded workload replayed twice — once through the simulated
``ShardedBlockchain`` (trusted 2PC, no reference committee), once through
the live gateway over real shard processes — must produce the same
per-transaction outcomes and the same final balances.  Serial submission
(``wait=1``) makes both histories timing-independent: commits and
insufficient-funds aborts are decided by state alone, so the only thing
allowed to differ between the two runs is the clock.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import ShardedSystemConfig
from repro.core.system import ShardedBlockchain
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.smallbank import DEFAULT_BALANCE, account_key

from service_harness import ServeProcess, replay_in_sim

NUM_SHARDS = 2
NUM_KEYS = 24
SEED = 11
ENTRIES = 30


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """A recorded smallbank stream plus hand-written overdraft entries."""
    path = tmp_path_factory.mktemp("workload") / "smallbank.jsonl"
    generator = WorkloadGenerator(benchmark="smallbank", num_shards=NUM_SHARDS,
                                  num_keys=NUM_KEYS, seed=SEED,
                                  zipf_coefficient=0.9)
    generator.start_recording(str(path))
    for index in range(ENTRIES):
        generator.next_transaction(client_id=f"client-{index % 3}")
    generator.stop_recording()
    # Overdrafts force the abort path through both runtimes: the second one
    # re-tries the same transfer, which must abort again (state unchanged).
    with open(path, "a", encoding="utf-8") as fh:
        for seq in (ENTRIES, ENTRIES + 1):
            fh.write(json.dumps({
                "seq": seq, "function": "sendPayment",
                "args": {"from": "0", "to": "1",
                         "amount": DEFAULT_BALANCE * NUM_KEYS},
                "client_id": "overdraft",
            }) + "\n")
    return str(path)


def test_sim_vs_service_differential(recording):
    sim = ShardedBlockchain(ShardedSystemConfig(
        num_shards=NUM_SHARDS, committee_size=4, protocol="AHL",
        use_reference_committee=False, benchmark="smallbank",
        num_keys=NUM_KEYS, seed=SEED))
    sim_outcomes, sim_balances = replay_in_sim(sim, recording)
    assert "aborted" in sim_outcomes  # the overdrafts must exercise aborts
    assert "committed" in sim_outcomes

    replay = WorkloadGenerator.replay(recording)
    with ServeProcess(shards=NUM_SHARDS, committee=4, protocol="AHL",
                      seed=SEED, num_keys=NUM_KEYS) as serve:
        # wait=True never meets a full window (429), so one call per entry.
        results = [serve.client.submit(entry["function"], entry["args"],
                                       client_id=entry.get("client_id", "replay"),
                                       wait=True)
                   for entry in replay.entries]
        service_outcomes = [result["outcome"] for result in results]
        service_balances = {}
        for index in range(NUM_KEYS):
            key = account_key(str(index))
            service_balances[key] = serve.client.balance(key)
        health = serve.client.health()

    assert service_outcomes == sim_outcomes
    assert service_balances == sim_balances
    # Money conservation, independently of the sim comparison.
    assert sum(service_balances.values()) == NUM_KEYS * DEFAULT_BALANCE
    assert health["submitted"] == len(service_outcomes)
    assert health["committed"] == service_outcomes.count("committed")
    assert health["aborted"] == service_outcomes.count("aborted")


def test_gateway_surface(recording):
    """Status lookups, admission control and bad requests on a live cluster."""
    with ServeProcess(shards=NUM_SHARDS, committee=4, protocol="AHL",
                      seed=SEED, num_keys=NUM_KEYS, max_inflight=1) as serve:
        client = serve.client
        result = client.submit("sendPayment",
                               {"from": "0", "to": "1", "amount": 5},
                               wait=True)
        assert result["outcome"] == "committed"
        status, body = client.tx_status(result["tx_id"])
        assert status == 200 and body["outcome"] == "committed"
        status, body = client.tx_status("tx-does-not-exist")
        assert status == 404

        # max_inflight=1: a fire-and-forget submission occupies the window,
        # so a second one racing it must bounce with 429 + Retry-After.
        # Retried a few times because the filler can (rarely) commit before
        # the overflow request lands.
        import http.client as http_client
        overflow_status, retry_after = None, None
        for _ in range(5):
            accepted = client.submit("sendPayment",
                                     {"from": "2", "to": "3", "amount": 1})
            assert accepted["outcome"] == "pending"
            connection = http_client.HTTPConnection(client.host, client.port,
                                                    timeout=10)
            try:
                connection.request("POST", "/tx", body=json.dumps({
                    "function": "sendPayment",
                    "args": {"from": "4", "to": "5", "amount": 1}}),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                overflow_status = response.status
                retry_after = response.getheader("Retry-After")
                response.read()
            finally:
                connection.close()
            if overflow_status == 429:
                break
            import time
            time.sleep(0.3)  # let the racing pair drain before retrying
        assert overflow_status == 429
        assert retry_after is not None

        status, body = client.request("POST", "/tx", {"args": {}})
        assert status == 400
        status, body = client.request("GET", "/nope")
        assert status == 404
