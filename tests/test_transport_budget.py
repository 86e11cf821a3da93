"""The simulated transport's frame budget, as a count.

A committee of N votes all-to-all, so a block costs O(N^2) messages and a
message is two simulator events: its network arrival, then its CPU
completion after the Table-2 charge.  A census of every ``push`` showed the
events themselves are all but irreducible (no delivery cohort has a second
member under the jittered LAN model, no ``OperationCosts`` charge is zero,
the arrival's completion time is receiver state at arrival), so what the
transport can save is the *scaffolding per event*: the Python frames entered
in ``repro/sim/`` + ``repro/runtime/`` to schedule, pop, deliver and charge
it.  Before the budget that was 16.4 frames per fired event on both configs
below (queue ``peek_time`` → cohort pop → ``pop``, ``deliver`` →
``_channel_key`` → ``_queue_full`` → ``cpu_execute``, ``_admit`` →
``_link_ok`` → ``region_of`` ×2 → ``record_send`` per recipient, a ``now``
property hop per read).

Two halves are pinned, both deterministic counts with no noise margin:

* **nothing folded, nothing re-ordered** — fired events and delivered
  messages equal the counts captured before the budget, so the saving is
  per-event cost and no fingerprint moved;
* **the budget** — frames per fired event stay under the bound, so a change
  that re-introduces forwarding hops fails here rather than in a wall-clock
  benchmark.  The bounds are upper bounds with head-room for interpreter
  differences (measured 8.3 and 6.9 on CPython 3.11).
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.ledger.transaction import rebase_tx_counter

_TRANSPORT_DIRS = (os.sep + os.path.join("repro", "sim") + os.sep,
                   os.sep + os.path.join("repro", "runtime") + os.sep)

#: ``tests/test_digest_budget.py``'s reference deployment.
REFERENCE_4X4 = dict(num_shards=4, committee_size=4, protocol="AHL+",
                     use_reference_committee=True, num_keys=20_000, zipf_coefficient=0.0)
#: ``benchmarks/e2e``'s ``scaleout_w2`` cluster, drained inline.
SCALEOUT_8X11 = dict(num_shards=8, committee_size=11, protocol="AHL+",
                     use_reference_committee=False, relay_delay=0.02, num_keys=20_000,
                     zipf_coefficient=0.0)


def _census(config, rate_tps, batch_size):
    """(fired events, delivered messages, transport frames) of one 600-tx run."""
    in_transport = {}
    frames = 0

    def profiler(frame, event, arg):
        nonlocal frames
        if event == "call":
            code = frame.f_code
            hit = in_transport.get(code)
            if hit is None:
                filename = code.co_filename
                hit = in_transport[code] = any(part in filename for part in _TRANSPORT_DIRS)
            if hit:
                frames += 1

    rebase_tx_counter(0)
    system = ShardedBlockchain(ShardedSystemConfig(seed=7, **config))
    try:
        driver = OpenLoopDriver(system, rate_tps=rate_tps, max_transactions=600,
                                batch_size=batch_size)
        driver.start()
        events = system.events_processed
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            stats = driver.run_to_completion()
        finally:
            sys.setprofile(previous)
        events = system.events_processed - events
        clusters = list(system.audit_clusters().values())
        if system.reference is not None:
            clusters.append(system.reference)
        networks = {id(cluster.network): cluster.network for cluster in clusters}
        delivered = sum(network.stats.messages_delivered for network in networks.values())
    finally:
        system.close()
    assert stats.committed + stats.aborted == 600 and stats.committed >= 570
    return events, delivered, frames


@pytest.mark.parametrize("config, rate_tps, batch_size, events, delivered, bound", [
    pytest.param(REFERENCE_4X4, 200.0, 4, 51_964, 16_920, 9.0, id="4x4-reference"),
    pytest.param(SCALEOUT_8X11, 300.0, 8, 274_902, 124_960, 8.0, id="8x11-scaleout"),
])
def test_transport_frame_budget(config, rate_tps, batch_size, events, delivered, bound):
    fired, messages, frames = _census(config, rate_tps, batch_size)
    # Captured at the commit before the budget: same events, same deliveries.
    assert (fired, messages) == (events, delivered)
    per_event = frames / fired
    assert per_event <= bound, (
        f"{per_event:.1f} transport frames per fired event "
        f"({frames / messages:.1f} per delivered message)")
