"""The simulated hot path's digest budget, as a count.

On the reference deployment (4 shards x 4 replicas, AHL+, reference
committee, uniform Smallbank) every *general* digest — a ``_canonical`` walk
plus an encoder run, ``crypto.hashing.canonical_json`` — is one
transaction's free-form ``args``, canonicalised once in
``Transaction.create``.  Everything else the protocol hashes is a fixed
record written as its template and costs one SHA-256 evaluation:

* per created transaction: the id digest and the content digest (both
  around the one args text);
* per distinct block header per re-chaining replica: one;
* per attested message: one for the appended root (a plain string), one
  at sign, one at first verify (later verifies of the same attestation
  object are memo hits).

Before the templates every one of those was a general pass: 45.5 per
committed transaction on this 600-transaction run (35.8 on a 3 000-transaction
episode, where fewer blocks are cut per transaction).  The counts are
deterministic, so the bounds carry no noise margin: a change that
re-introduces per-replica or per-phase canonicalisation fails here, not
in a wall-clock benchmark.
"""

from __future__ import annotations

import collections

from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.crypto import hashing
from repro.ledger.transaction import rebase_tx_counter

from digest_oracle import count_calls, count_creates


def test_reference_config_digest_budget(monkeypatch):
    counts = collections.Counter()
    count_calls(monkeypatch, hashing, "canonical_json", counts)
    count_calls(monkeypatch, hashing, "sha256_hex", counts)
    count_creates(monkeypatch, counts)
    rebase_tx_counter(0)
    system = ShardedBlockchain(ShardedSystemConfig(
        num_shards=4, committee_size=4, protocol="AHL+", use_reference_committee=True,
        num_keys=20_000, zipf_coefficient=0.0, seed=7))
    try:
        driver = OpenLoopDriver(system, rate_tps=200.0, max_transactions=600, batch_size=4)
        driver.start()
        counts.clear()
        stats = driver.run_to_completion()
    finally:
        system.close()
    assert stats.committed + stats.aborted == 600 and stats.committed >= 570
    passes = counts["canonical_json"] / stats.committed
    hashes = counts["sha256_hex"] / stats.committed
    # The issue's contract (was 45.5 here) ...
    assert passes <= 14, f"{passes:.1f} general canonicalisation passes per committed tx"
    # ... and the structural floor it rests on: one pass per created
    # transaction and none elsewhere (6.1 per committed tx on this run: the
    # client's transaction plus its prepares, decisions and reference votes).
    assert counts["canonical_json"] == counts["create"]
    # SHA-256 evaluations barely move (45.5 -> 43.2): the templates save the
    # canonicalisation, not the hash.
    assert hashes <= 45, f"{hashes:.1f} SHA-256 evaluations per committed tx"
