"""Streaming open-loop client driver for the sharded system.

The seed harness pre-generated every client transaction before the run (via
``WorkloadGenerator.batch``), so a paper-scale run (Figs. 13/14: 100k+
transactions across many shards) paid for all transactions up front and held
them in memory for the whole simulation.  :class:`OpenLoopDriver` replaces
that with a BLOCKBENCH-style **open-loop** arrival process: transactions are
generated *lazily, one batch per arrival tick*, submitted at a fixed rate
regardless of completion, and forgotten as soon as they complete — so memory
is bounded by the number of in-flight transactions, not the run length.
The arrival tick and the completion accounting are :class:`ArrivalLoop`.
The engine's partitions each run their per-shard split of it
(:class:`repro.core.homecoord.PartitionDriver`), so the arrival process of a
default :class:`OpenLoopDriver` never touches the parent; a driver given a
custom ``workload`` object (which cannot be re-derived inside a worker) runs
the one loop parent-side and submits through ``system.submit_transaction``.

Determinism: the driver's entire arrival process is derived from the
simulator clock and the workload generator's seeded RNG, so a given
``(system seed, driver config)`` pair always produces the identical
transaction stream and identical commit/abort counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.config import ShardedSystemConfig
from repro.errors import ConfigurationError
from repro.ledger.transaction import Transaction
from repro.runtime.base import Runtime
from repro.txn.coordinator import DistributedTxOutcome, DistributedTxRecord
from repro.workloads.generator import WorkloadGenerator

if TYPE_CHECKING:  # system.py imports this module
    from repro.core.system import ShardedBlockchain


@dataclass
class DriverStats:
    """Aggregate statistics kept by an open-loop driver.

    Latencies are accumulated as running sums (not per-transaction lists) so
    the driver's footprint stays constant over arbitrarily long runs.
    """

    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    in_flight: int = 0
    max_in_flight: int = 0
    #: Arrivals dropped on the floor by the ``max_in_flight`` admission bound.
    dropped_arrivals: int = 0
    latency_sum: float = 0.0
    latency_count: int = 0
    #: Abort counts bucketed by cause (lock-conflict, wait-timeout, deadlock,
    #: wounded, insufficient-funds, other) — a handful of keys, so the
    #: breakdown stays O(1) in memory like the rest of the stats.
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    #: Completions bucketed by the epoch the system was in when the
    #: transaction finished — one pair of counters per epoch, so the
    #: footprint grows with the number of reconfigurations, not the run
    #: length.  Quantifies what an epoch transition cost (Figure 12).
    epoch_committed: Dict[int, int] = field(default_factory=dict)
    epoch_aborted: Dict[int, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.committed + self.aborted

    @property
    def abort_rate(self) -> float:
        return self.aborted / self.completed if self.completed else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.latency_count if self.latency_count else 0.0

    def merge(self, other: "DriverStats") -> None:
        """Fold another partition's counters into this one."""
        self.submitted += other.submitted
        self.committed += other.committed
        self.aborted += other.aborted
        self.in_flight += other.in_flight
        self.max_in_flight += other.max_in_flight
        self.dropped_arrivals += other.dropped_arrivals
        self.latency_sum += other.latency_sum
        self.latency_count += other.latency_count
        for key, value in other.abort_reasons.items():
            self.abort_reasons[key] = self.abort_reasons.get(key, 0) + value
        for key, value in other.epoch_committed.items():
            self.epoch_committed[key] = self.epoch_committed.get(key, 0) + value
        for key, value in other.epoch_aborted.items():
            self.epoch_aborted[key] = self.epoch_aborted.get(key, 0) + value


def abort_bucket(reason: Optional[str]) -> str:
    """Classify an abort reason into a small fixed set of buckets."""
    if reason is None:
        return "other"
    if "locked by" in reason:
        return "lock-conflict"
    if "wait timed out" in reason:
        return "wait-timeout"
    if "deadlock" in reason:
        return "deadlock"
    if "wounded" in reason:
        return "wounded"
    if "insufficient funds" in reason:
        return "insufficient-funds"
    return "other"


def split_evenly(total: Optional[int], index: int, parts: int) -> Optional[int]:
    """Share ``index`` of a cap split over ``parts`` (None = uncapped); the
    remainder goes to the first shares, so they sum exactly to ``total``."""
    if total is None:
        return None
    return total // parts + (1 if index < total % parts else 0)


class ArrivalLoop:
    """The open-loop arrival tick and its completion accounting.

    Every ``batch_size / rate_tps`` seconds the loop draws up to
    ``batch_size`` transactions with ``draw(now)`` and hands each to
    ``submit(tx)`` — never more than ``max_transactions`` in total, and
    dropping (not queueing) arrivals while ``max_in_flight`` are
    outstanding.  Whoever learns a transaction's outcome reports it through
    :meth:`complete`.  Every partition runs its split of an
    :class:`OpenLoopDriver`'s loop
    (:class:`repro.core.homecoord.PartitionDriver`); a driver with a custom
    workload object runs the one loop itself.
    """

    def __init__(self, runtime: Runtime, rate_tps: float, batch_size: int,
                 max_transactions: Optional[int], max_in_flight: Optional[int],
                 draw: Callable[[float], Transaction],
                 submit: Callable[[Transaction], None]) -> None:
        self.runtime = runtime
        self.rate_tps = rate_tps
        self.batch_size = batch_size
        self.max_transactions = max_transactions
        self.max_in_flight = max_in_flight
        self._draw = draw
        self._submit = submit
        self.stats = DriverStats()

    def tick(self) -> None:
        stats = self.stats
        remaining = (None if self.max_transactions is None
                     else self.max_transactions - stats.submitted)
        if remaining is not None and remaining <= 0:
            return
        count = self.batch_size if remaining is None else min(self.batch_size, remaining)
        now = self.runtime.now
        for _ in range(count):
            if (self.max_in_flight is not None
                    and stats.in_flight >= self.max_in_flight):
                stats.dropped_arrivals += 1
                continue
            tx = self._draw(now)
            stats.submitted += 1
            stats.in_flight += 1
            if stats.in_flight > stats.max_in_flight:
                stats.max_in_flight = stats.in_flight
            self._submit(tx)
        self.runtime.schedule(self.batch_size / self.rate_tps, self.tick)

    def complete(self, committed: bool, abort_reason: Optional[str],
                 latency: Optional[float], epoch: int) -> None:
        """Account one finished transaction, bucketed by ``epoch``."""
        stats = self.stats
        stats.in_flight -= 1
        if committed:
            stats.committed += 1
            stats.epoch_committed[epoch] = stats.epoch_committed.get(epoch, 0) + 1
        else:
            stats.aborted += 1
            stats.epoch_aborted[epoch] = stats.epoch_aborted.get(epoch, 0) + 1
            bucket = abort_bucket(abort_reason)
            stats.abort_reasons[bucket] = stats.abort_reasons.get(bucket, 0) + 1
        if latency is not None:
            stats.latency_sum += latency
            stats.latency_count += 1


def config_workload(config: ShardedSystemConfig, seed: int,
                    vectorized: bool = False,
                    vector_batch: int = 256) -> WorkloadGenerator:
    """The configured benchmark's transaction stream for ``seed``.

    ``vectorized``/``vector_batch`` select block-sampled generation (a
    different deterministic stream, see the generator).
    """
    return WorkloadGenerator(
        benchmark=config.benchmark, num_shards=config.num_shards,
        zipf_coefficient=config.zipf_coefficient, num_keys=config.num_keys,
        seed=seed, vectorized=vectorized, vector_batch=vector_batch)


class OpenLoopDriver:
    """Submits transactions to a :class:`ShardedBlockchain` at a fixed rate.

    Parameters
    ----------
    system:
        The sharded deployment to drive.
    rate_tps:
        Aggregate arrival rate in transactions per second of simulated time.
    max_transactions:
        Stop submitting after this many transactions (None = until the run's
        time bound).
    batch_size:
        Transactions generated and submitted per arrival tick.  Larger
        batches reduce scheduler overhead at a small cost in arrival-time
        granularity.
    max_in_flight:
        Optional admission bound: when this many transactions are
        outstanding, new arrivals are *dropped on the floor* rather than
        queued (the open-loop driver never slows down, matching BLOCKBENCH's
        behaviour under overload), keeping memory strictly bounded.
    workload:
        A custom transaction source.  By default (``None``) every partition
        generates its split of the system's configured benchmark in place,
        seeded from the system seed and ``stream_index``; a generator object
        is instead drawn parent-side and each transaction forwarded to its
        home partition (a different, equally deterministic stream).
    stream_index:
        Distinguishes the default workload streams of several drivers on one
        system (each index draws an independent deterministic stream).
    """

    def __init__(self, system: ShardedBlockchain, rate_tps: float,
                 max_transactions: Optional[int] = None,
                 batch_size: int = 1,
                 max_in_flight: Optional[int] = None,
                 workload: Optional[WorkloadGenerator] = None,
                 client_id: str = "open-loop",
                 stream_index: int = 0,
                 vectorized: bool = False,
                 vector_batch: int = 256) -> None:
        if rate_tps <= 0:
            raise ConfigurationError("rate_tps must be positive")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1")
        self.system = system
        self.rate_tps = rate_tps
        self.max_transactions = max_transactions
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self.client_id = client_id
        self._index: Optional[int] = None
        self._loop: Optional[ArrivalLoop] = None
        self._started = False
        if workload is None:
            # The plain picklable spec the partitions build their splits from.
            self._spec = dict(
                rate_tps=rate_tps, max_transactions=max_transactions,
                batch_size=batch_size, max_in_flight=max_in_flight,
                client_id=client_id,
                workload_seed=system.config.seed * 7919 + 1 + stream_index,
                vectorized=vectorized, vector_batch=vector_batch)
        else:
            self._loop = ArrivalLoop(
                system.runtime, rate_tps, batch_size, max_transactions,
                max_in_flight,
                draw=lambda now: workload.next_transaction(
                    client_id=self.client_id, now=now),
                submit=lambda tx: system.submit_transaction(
                    tx, on_complete=self._on_complete))

    @property
    def stats(self) -> DriverStats:
        """This driver's aggregate statistics (merged across partitions)."""
        if self._loop is not None:
            return self._loop.stats
        if self._index is not None:
            return self.system.driver_stats(self._index)
        return DriverStats()

    @property
    def dropped_arrivals(self) -> int:
        return self.stats.dropped_arrivals

    # ---------------------------------------------------------------- driving
    def start(self) -> "OpenLoopDriver":
        """Begin the arrival process at the current simulated time."""
        if not self._started:
            self._started = True
            if self._loop is None:
                self._index = self.system.register_partition_driver(self._spec)
            else:
                self.system.runtime.spawn(self._loop.tick)
        return self

    def _on_complete(self, record: DistributedTxRecord) -> None:
        self._loop.complete(record.outcome is DistributedTxOutcome.COMMITTED,
                            record.abort_reason, record.latency,
                            self.system.current_epoch)

    # ------------------------------------------------------------------- runs
    def run_to_completion(self, drain_timeout: float = 120.0) -> DriverStats:
        """Run until every submitted transaction completes (or times out).

        Drives the simulation in bounded slices: first until ``max_transactions``
        have been submitted, then up to ``drain_timeout`` additional simulated
        seconds for the tail to commit.  Requires ``max_transactions``.
        """
        if self.max_transactions is None:
            raise ConfigurationError("run_to_completion requires max_transactions")
        self.start()
        # One stats fetch per slice: in process mode each fetch is a worker RPC.
        system = self.system
        sim = system.sim
        submit_horizon = self.max_transactions / self.rate_tps
        system.advance(sim.now + submit_horizon)
        deadline = sim.now + drain_timeout
        while sim.now < deadline:
            stats = self.stats
            if stats.completed >= stats.submitted or not system.pending_activity():
                break
            system.advance(min(sim.now + 1.0, deadline))
        return self.stats


def attach_open_loop_drivers(system: ShardedBlockchain, count: int, rate_tps: float,
                             max_transactions: Optional[int] = None,
                             batch_size: int = 1,
                             max_in_flight: Optional[int] = None) -> List[OpenLoopDriver]:
    """Create and start ``count`` drivers, splitting ``rate_tps`` evenly."""
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    drivers = []
    for index in range(count):
        per_driver = split_evenly(max_transactions, index, count)
        driver = OpenLoopDriver(
            system, rate_tps=rate_tps / count, max_transactions=per_driver,
            batch_size=batch_size, max_in_flight=max_in_flight,
            client_id=f"open-loop-{index}", stream_index=index,
        )
        driver.start()
        drivers.append(driver)
    return drivers
