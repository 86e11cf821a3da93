"""Graceful shutdown and partial failure: the service degrades, never hangs.

Two contracts from the issue:

* a shard process dying mid-flight turns requests that touch it into fast
  ``503``s (EOF on the frame link is the death signal) and aborts the
  in-flight 2PC records waiting on it — clients get answers, not hangs;
* ``SIGTERM`` drains: admissions stop, in-flight transactions finish, the
  shard processes are shut down, and the summary line reaches stdout before
  a clean exit 0.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.service.client import ServiceHTTPError
from repro.workloads.generator import shard_of_key
from repro.workloads.smallbank import account_key

from service_harness import ServeProcess

NUM_KEYS = 24


def _accounts_on_shard(shard: int, num_shards: int = 2):
    return [str(i) for i in range(NUM_KEYS)
            if shard_of_key(account_key(str(i)), num_shards) == shard]


def _submit_until_503(client, deadline: float):
    """Keep submitting a shard-1-touching payment until the gateway says 503."""
    src = _accounts_on_shard(0)[0]
    dst = _accounts_on_shard(1)[0]
    while time.monotonic() < deadline:
        try:
            # wait=1 so a pre-detection admission still gets an answer (the
            # peer-down sweep aborts it) instead of leaving a pending record.
            result = client.submit("sendPayment",
                                   {"from": src, "to": dst, "amount": 1},
                                   wait=True, timeout=30)
            assert result["outcome"] in ("committed", "aborted"), result
        except ServiceHTTPError as exc:
            if exc.status == 503:
                return exc
            raise
        time.sleep(0.1)
    raise AssertionError("gateway never turned the dead shard into a 503")


def test_dead_shard_yields_503_not_hang():
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=3,
                      num_keys=NUM_KEYS) as serve:
        client = serve.client
        warm = client.submit("sendPayment", {"from": "0", "to": "1", "amount": 2},
                             wait=True, timeout=30)
        assert warm["outcome"] == "committed"

        serve.kill_shard(1)
        error = _submit_until_503(client, time.monotonic() + 15)
        assert "down" in str(error)

        health = client.health()
        assert health["status"] == "degraded"
        assert health["shards"]["1"] == "down"
        assert health["in_flight"] == 0  # nothing left hanging

        # The surviving shard keeps serving transactions that never touch
        # the dead one.
        live = _accounts_on_shard(0)
        result = client.submit("sendPayment",
                               {"from": live[0], "to": live[1], "amount": 1},
                               wait=True, timeout=30)
        assert result["outcome"] == "committed"
        # Balance reads against the dead shard fail fast too.
        dead = _accounts_on_shard(1)
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.balance(account_key(dead[0]))
        assert excinfo.value.status == 503


def test_dead_home_shard_leaves_nothing_hanging():
    """Shard 1 dies with transactions in flight of both kinds: homed at
    shard 1 (the gateway answers for them) and homed at shard 0 with shard 1
    as a participant (shard 0's home coordinator answers for it).  Every one
    ends aborted, naming shard 1; shard 0 keeps committing its own."""
    on0, on1 = _accounts_on_shard(0), _accounts_on_shard(1)
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=7,
                      num_keys=NUM_KEYS) as serve:
        client = serve.client
        warm = client.submit("sendPayment", {"from": on0[0], "to": on1[0], "amount": 1},
                             wait=True, timeout=30)
        assert warm["outcome"] == "committed"

        # Frozen first, so nothing shard 1 is asked to do can finish; its
        # sockets close only when it is killed.
        os.kill(serve.shard_pids[1], signal.SIGSTOP)
        homed_at_1 = [client.submit("sendPayment",
                                    {"from": on1[i], "to": on1[i + 1], "amount": 1})
                      for i in (1, 3)]
        homed_at_0 = [client.submit("sendPayment",
                                    {"from": on0[i], "to": on1[i + 4], "amount": 1})
                      for i in (1, 2)]
        assert {len(accepted["shards"]) for accepted in homed_at_1} == {1}
        assert {len(accepted["shards"]) for accepted in homed_at_0} == {2}
        serve.kill_shard(1)

        deadline = time.monotonic() + 15
        records = {}
        for accepted in homed_at_1 + homed_at_0:
            while time.monotonic() < deadline:
                status, record = client.tx_status(accepted["tx_id"])
                assert status == 200
                if record["outcome"] != "pending":
                    records[accepted["tx_id"]] = record
                    break
                time.sleep(0.05)
        assert len(records) == 4, "some transaction was never answered"
        for record in records.values():
            assert record["outcome"] == "aborted", record
            assert "shard 1" in record["abort_reason"], record
        assert client.health()["in_flight"] == 0

        result = client.submit("sendPayment", {"from": on0[3], "to": on0[4], "amount": 1},
                               wait=True, timeout=30)
        assert result["outcome"] == "committed"


def test_malformed_cross_shard_request_is_a_400_and_holds_no_slot():
    """A cross-shard payment that cannot be split (no / non-numeric amount)
    is rejected before the 2PC driver registers anything: the client gets a
    400 (not a dropped connection), the in-flight window stays empty however
    many such requests arrive, and a SIGTERM drain still completes."""
    window = 3
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=5,
                      num_keys=NUM_KEYS, max_inflight=window) as serve:
        client = serve.client
        src, dst = _accounts_on_shard(0)[0], _accounts_on_shard(1)[0]
        for bad in ({"from": src, "to": dst},
                    {"from": src, "to": dst, "amount": "x"}):
            for _ in range(window + 1):
                with pytest.raises(ServiceHTTPError) as excinfo:
                    client.submit("sendPayment", bad)
                assert excinfo.value.status == 400
                assert "cannot split" in str(excinfo.value)
        assert client.health()["in_flight"] == 0
        result = client.submit("sendPayment",
                               {"from": src, "to": dst, "amount": 1},
                               wait=True, timeout=30)
        assert result["outcome"] == "committed"
        serve.sigterm()
        drained = serve._read_event(timeout=30)
        code, _out, err = serve.wait_exit(timeout=30)
        assert drained["submitted"] == 1
        assert drained["abandoned_in_flight"] == 0
        assert code == 0, err[-2000:]


def test_a_transaction_its_home_would_refuse_leaves_every_shard_up():
    """A transaction whose ``function`` is not a string would be refused by
    its home shard as a malformed frame, closing the gateway's link — which
    reads as the shard dying.  The gateway answers 400 instead, and the home
    keeps committing."""
    on0 = _accounts_on_shard(0)
    payment = {"from": on0[0], "to": on0[1], "amount": 1}
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=8,
                      num_keys=NUM_KEYS) as serve:
        client = serve.client
        for function in (7, None):
            status, body = client.request("POST", "/tx",
                                          {"function": function, "args": payment})
            assert status == 400, body
        time.sleep(0.5)  # room for a link the shard closed to be noticed
        health = client.health()
        assert health["shards"] == {"0": "up", "1": "up"}
        assert health["submitted"] == 0
        result = client.submit("sendPayment", payment, wait=True, timeout=30)
        assert result["outcome"] == "committed"
        assert client.health()["shards"] == {"0": "up", "1": "up"}


def test_leaving_the_harness_closes_its_client_connection():
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=5,
                      num_keys=NUM_KEYS) as serve:
        serve.client.health()
        socket = serve.client._local.connection.sock
        assert socket.fileno() != -1
    assert socket.fileno() == -1


def test_sigterm_drains_and_exits_cleanly():
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=5,
                      num_keys=NUM_KEYS) as serve:
        client = serve.client
        for index in range(4):
            result = client.submit(
                "sendPayment",
                {"from": str(index), "to": str(index + 4), "amount": 1},
                wait=True, timeout=30)
            assert result["outcome"] == "committed"
        serve.sigterm()
        drained = serve._read_event(timeout=30)
        code, _out, err = serve.wait_exit(timeout=30)
        assert drained["event"] == "drained", drained
        assert drained["submitted"] == 4
        assert drained["committed"] == 4
        assert drained["abandoned_in_flight"] == 0
        assert code == 0, err[-2000:]


def test_sigterm_refuses_new_work_while_draining():
    """After SIGTERM the gateway answers 503 for new submissions (if it
    answers at all — the HTTP listener closes once the drain completes)."""
    with ServeProcess(shards=2, committee=4, protocol="AHL", seed=6,
                      num_keys=NUM_KEYS) as serve:
        client = serve.client
        serve.sigterm()
        try:
            client.submit("sendPayment", {"from": "0", "to": "1", "amount": 1})
        except ServiceHTTPError as exc:
            assert exc.status == 503
        except (ConnectionError, OSError):
            pass  # listener already closed: equally not-hanging
        code, _out, _err = serve.wait_exit(timeout=30)
        assert code == 0
