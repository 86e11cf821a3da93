"""Retained memory per committed block, as a byte budget.

A committee of N replicas under AHL broadcasts an attested message per
phase, every receiver verifies each attestation, and every replica chains
the agreed block.  What a committee keeps per committed block, once the run
moves on, is what bounds a long run's resident memory.  Before the budget a
4-replica AHL committee kept 8.7 KB per block and an 11-replica one 23.0 KB,
most of it in two process-wide crypto memos (a per-key-pair MAC memo and an
attestation-verdict memo, up to 65 536 entries each) that kept every
attestation alive long after its broadcast, and in one re-chained ``Block``
per replica.  Now an attestation carries its own verdict and the honest
replicas of a committee share one re-chained block, so what stays is one
transaction, one block and each replica's bookkeeping: two metric samples,
the state write, the chain's header and body entries and the committed-id
entry (2.6 KB and 5.2 KB on CPython 3.11).

The measurement: tracemalloc's net traced bytes, after ``gc.collect()``,
over 600 one-transaction blocks that follow a 20-block warm-up.  The run is
deterministic, so the bounds only leave head-room for interpreter
differences; a change that retains a message, an attestation or a
per-replica block copy per commit fails here rather than in ``peak_rss_mb``.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc

import pytest

from repro.consensus.cluster import ConsensusCluster, NoopChaincode

WARMUP_BLOCKS = 20
MEASURED_BLOCKS = 600
#: Simulated seconds between one-transaction submissions.
SUBMIT_GAP = 0.05


def _retained_bytes_per_block(n: int) -> float:
    cluster = ConsensusCluster("AHL", n, seed=1, config_overrides={"batch_size": 1})
    chaincode = NoopChaincode()
    keys = itertools.count()

    def height() -> int:
        return min(len(replica.blockchain) - 1 for replica in cluster.replicas)

    def commit_blocks(count: int) -> int:
        target = height() + count
        for _ in range(count):
            i = next(keys)
            cluster.submit([chaincode.new_transaction("write", {"keys": (f"k{i}",), "value": i})])
            cluster.run(SUBMIT_GAP)
        while height() < target:
            cluster.run(SUBMIT_GAP)
        return height()

    commit_blocks(WARMUP_BLOCKS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        start = height()
        end = commit_blocks(MEASURED_BLOCKS)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # One transaction per block: batch_size=1 and one submission per gap.
    assert end - start == MEASURED_BLOCKS
    return (after - before) / (end - start)


@pytest.mark.parametrize("n, budget", [(4, 3_500), (11, 7_000)])
def test_retained_bytes_per_committed_block(n, budget):
    per_block = _retained_bytes_per_block(n)
    assert per_block <= budget, (
        f"{per_block:.0f} bytes retained per committed block at {n} replicas")
