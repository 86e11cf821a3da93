"""Workload mixes for the sharded system experiments.

The sharded experiments need a stream of transactions with a controlled mix
of single-shard and cross-shard operations (and Appendix B tells us the
cross-shard fraction implied by uniformly hashed keys).  The generator here
produces such a stream for either benchmark and reports the realised mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO

from repro.errors import WorkloadError
from repro.ledger.transaction import Transaction, burn_tx_id
from repro.workloads.kvstore import KVStoreWorkload
from repro.workloads.smallbank import SmallbankWorkload, account_key


@lru_cache(maxsize=262144)
def shard_of_key(key: str, num_shards: int) -> int:
    """Deterministic key-to-shard mapping (hash partitioning).

    Benchmark key spaces are small relative to the transaction count, so the
    SHA-256 routing hash is memoized: a 100k-transaction run re-routes the
    same few thousand keys over and over.
    """
    if num_shards < 1:
        raise WorkloadError("num_shards must be at least 1")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass
class WorkloadMix:
    """Realised statistics of a generated transaction stream."""

    total: int = 0
    cross_shard: int = 0
    shards_touched: Dict[int, int] = field(default_factory=dict)

    @property
    def cross_shard_fraction(self) -> float:
        return self.cross_shard / self.total if self.total else 0.0

    def record(self, shards: Sequence[int]) -> None:
        self.total += 1
        distinct = len(set(shards))
        self.shards_touched[distinct] = self.shards_touched.get(distinct, 0) + 1
        if distinct > 1:
            self.cross_shard += 1


class WorkloadGenerator:
    """Generates a transaction stream for an ``num_shards``-shard deployment.

    Parameters
    ----------
    benchmark:
        "kvstore" (3 updates per transaction, as in Section 7) or "smallbank"
        (sendPayment reading and writing two accounts).
    num_shards:
        Used only to report the realised cross-shard mix; routing itself is
        done by the sharded system from the transaction's keys.
    """

    def __init__(self, benchmark: str = "smallbank", num_shards: int = 2,
                 zipf_coefficient: float = 0.0, num_keys: int = 10_000,
                 seed: int = 0, vectorized: bool = False,
                 vector_batch: int = 256) -> None:
        self.benchmark = benchmark
        self.num_shards = num_shards
        #: Construction parameters, kept introspectable so a generator can be
        #: described by a plain spec and re-derived elsewhere (the engine
        #: rebuilds per-partition streams from these inside workers).
        self.zipf_coefficient = zipf_coefficient
        self.num_keys = num_keys
        self.seed = seed
        self.mix = WorkloadMix()
        self._rng = random.Random(seed)
        if vectorized and benchmark != "smallbank":
            raise WorkloadError(
                "vectorized generation currently supports only the smallbank "
                "benchmark (kvstore's distinct-key rejection sampling is "
                "inherently data-dependent)")
        if vector_batch < 1:
            raise WorkloadError("vector_batch must be at least 1")
        #: Opt-in batched sampling: account pairs and amounts are pre-sampled
        #: ``vector_batch`` transactions at a time in the workload's *block
        #: layout* (numpy-accelerated when available, bit-identical scalar
        #: fallback otherwise), while transactions are still materialised one
        #: at a time with the caller's fresh ``now``/``client_id`` — so the
        #: existing stream/next_transaction interface is unchanged.  The
        #: block layout is a different (equally deterministic) stream than
        #: the scalar per-transaction path — and since ranks and amounts
        #: share one RNG, ``vector_batch`` is part of the stream definition
        #: (same seed + same batch size ⇒ same stream) — which is why it is
        #: opt-in.
        self.vectorized = vectorized
        self.vector_batch = vector_batch
        self._payment_buffer: List[tuple] = []
        self._buffer_pos = 0
        self._record_fh: Optional[TextIO] = None
        self._record_seq = 0
        if benchmark == "kvstore":
            self._workload = KVStoreWorkload(
                num_keys=num_keys, updates_per_transaction=3,
                zipf_coefficient=zipf_coefficient, seed=seed,
            )
        elif benchmark == "smallbank":
            self._workload = SmallbankWorkload(
                num_accounts=num_keys, zipf_coefficient=zipf_coefficient, seed=seed,
            )
        else:
            raise WorkloadError(f"unknown benchmark {benchmark!r}")

    @property
    def chaincode(self):
        return self._workload.chaincode

    def populate(self, state) -> None:
        self._workload.populate(state)

    def next_transaction(self, client_id: str = "client", now: float = 0.0) -> Transaction:
        if self.vectorized:
            tx = self._next_vectorized(client_id, now)
        else:
            tx = self._workload.next_transaction(client_id=client_id, now=now)
        shards = [shard_of_key(key, self.num_shards) for key in tx.keys]
        self.mix.record(shards)
        if self._record_fh is not None:
            self._record_fh.write(json.dumps({
                "seq": self._record_seq, "function": tx.function,
                "args": tx.args, "client_id": tx.client_id,
            }, sort_keys=True) + "\n")
            self._record_seq += 1
        return tx

    # -------------------------------------------------------- record / replay
    def start_recording(self, path: str) -> None:
        """Log every subsequent :meth:`next_transaction` draw to ``path``.

        The file is JSON-lines: a header row with the generator's spec
        (benchmark, shard count, key space, seed) followed by one
        ``{seq, function, args, client_id}`` row per transaction.  Entries
        capture the chaincode *invocation*, not the materialised
        ``Transaction`` — tx ids come from a process-global counter, so a
        replay mints fresh ids but performs the identical state transitions.
        This is the bridge of the sim-vs-service differential oracle: the
        exact stream a simulated run consumed can be re-submitted through the
        HTTP gateway (see :meth:`replay` and ``repro.service.client``).
        """
        if self._record_fh is not None:
            raise WorkloadError("already recording")
        self._record_fh = open(path, "w", encoding="utf-8")
        self._record_seq = 0
        self._record_fh.write(json.dumps({
            "benchmark": self.benchmark, "num_shards": self.num_shards,
            "num_keys": self.num_keys, "seed": self.seed,
            "zipf_coefficient": self.zipf_coefficient,
        }, sort_keys=True) + "\n")

    def stop_recording(self) -> int:
        """Close the recording file; returns the number of entries written."""
        if self._record_fh is None:
            raise WorkloadError("not recording")
        self._record_fh.close()
        self._record_fh = None
        return self._record_seq

    @classmethod
    def replay(cls, path: str) -> "WorkloadReplay":
        """Load a stream recorded by :meth:`start_recording` for re-submission."""
        return WorkloadReplay(path)

    def next_transaction_for_shard(self, shard_id: int, client_id: str = "client",
                                   now: float = 0.0) -> Transaction:
        """Next transaction from this stream whose *first key* lives on ``shard_id``.

        The engine gives every partition its own generator (seeded
        by a per-partition split) and a deterministic ownership rule: a
        partition drives exactly the draws whose first key — the payer's
        account for Smallbank — it owns, and skips the rest.  Because the
        rule is a pure function of the draw and the partition id, the union
        of all partitions' accepted streams is independent of worker count.

        Ownership is tested on the drawn invocation *before* materialising a
        Transaction, so a foreign draw costs no hashing.  On the vectorized
        path skipped draws use no transaction id; on the scalar path each
        skipped draw burns the id it would have been given (ids come from
        the partition's own disjoint counter), which keeps the scalar id
        stream what it was when foreign draws were materialised and dropped.
        """
        chaincode = self._workload.chaincode
        for _ in range(10_000_000):
            if self.vectorized:
                if self._buffer_pos >= len(self._payment_buffer):
                    self._payment_buffer = self._workload.sample_payments(self.vector_batch)
                    self._buffer_pos = 0
                source, destination, amount = self._payment_buffer[self._buffer_pos]
                self._buffer_pos += 1
                if shard_of_key(account_key(str(source)), self.num_shards) != shard_id:
                    continue
                function = "sendPayment"
                args = {"from": source, "to": destination, "amount": amount}
            else:
                function, args = self._workload.draw_invocation()
                first_key = chaincode.keys_touched(function, args)[0]
                if shard_of_key(first_key, self.num_shards) != shard_id:
                    burn_tx_id()
                    continue
            tx = chaincode.new_transaction(function, args, client_id=client_id,
                                           submitted_at=now)
            self.mix.record([shard_of_key(key, self.num_shards) for key in tx.keys])
            return tx
        raise WorkloadError(
            f"shard {shard_id} owns no sampled first keys: 10M consecutive "
            f"draws were all foreign (num_keys={self.num_keys} is likely far "
            f"too small for {self.num_shards} shards)")

    def _next_vectorized(self, client_id: str, now: float) -> Transaction:
        """Pop one pre-sampled payment; refill the block buffer when empty."""
        if self._buffer_pos >= len(self._payment_buffer):
            self._payment_buffer = self._workload.sample_payments(self.vector_batch)
            self._buffer_pos = 0
        source, destination, amount = self._payment_buffer[self._buffer_pos]
        self._buffer_pos += 1
        args = {"from": source, "to": destination, "amount": amount}
        return self._workload.chaincode.new_transaction(
            "sendPayment", args, client_id=client_id, submitted_at=now)

    def batch(self, count: int, client_id: str = "client", now: float = 0.0) -> List[Transaction]:
        """Materialise ``count`` transactions at once.

        Prefer :meth:`stream` (or repeated :meth:`next_transaction` calls)
        for long runs: eager batches hold the whole run's transactions in
        memory, which is exactly what the streaming open-loop driver avoids.
        """
        return [self.next_transaction(client_id, now) for _ in range(count)]

    def stream(self, count: Optional[int] = None, client_id: str = "client",
               now: float = 0.0) -> Iterator[Transaction]:
        """Convenience iterator over :meth:`next_transaction`.

        Lazily yields ``count`` transactions (forever when ``count`` is
        None) from the same seeded RNG, so ``list(g.stream(n))`` equals
        ``g.batch(n)`` for a fresh generator — but one transaction exists at
        a time.  Note the simulation driver calls :meth:`next_transaction`
        directly (it needs a fresh ``now`` per arrival); this iterator is
        for library users generating streams outside a simulation.
        """
        produced = 0
        while count is None or produced < count:
            yield self.next_transaction(client_id, now)
            produced += 1

    def tx_factory(self) -> Callable:
        """Adapter matching the client-driver ``tx_factory`` signature."""
        def factory(client_id: str, now: float, rng, count: int) -> List[Transaction]:
            return self.batch(count, client_id=client_id, now=now)
        return factory


class WorkloadReplay:
    """A recorded transaction stream, re-playable in any runtime.

    Built by :meth:`WorkloadGenerator.replay`.  ``entries`` holds the raw
    ``{seq, function, args, client_id}`` rows (what an HTTP client POSTs to
    the gateway); :meth:`next_transaction` re-materialises them through the
    benchmark's chaincode for in-process submission, preserving the
    :class:`WorkloadGenerator` interface (``populate``, ``chaincode``,
    ``stream``) so a replay can stand in for a live generator.
    """

    def __init__(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise WorkloadError(f"empty workload recording {path!r}")
        header = json.loads(lines[0])
        for field_name in ("benchmark", "num_shards", "num_keys", "seed"):
            if field_name not in header:
                raise WorkloadError(f"recording {path!r} is missing header field "
                                    f"{field_name!r}")
        self.benchmark: str = header["benchmark"]
        self.num_shards: int = header["num_shards"]
        self.num_keys: int = header["num_keys"]
        self.seed: int = header["seed"]
        self.zipf_coefficient: float = header.get("zipf_coefficient", 0.0)
        self.entries: List[Dict[str, Any]] = [json.loads(line) for line in lines[1:]]
        self._cursor = 0
        self.mix = WorkloadMix()
        # The same underlying workload the recording generator used, rebuilt
        # from the header spec — needed for populate() (initial balances) and
        # the chaincode that re-materialises entries.
        self._source = WorkloadGenerator(
            benchmark=self.benchmark, num_shards=self.num_shards,
            zipf_coefficient=self.zipf_coefficient, num_keys=self.num_keys,
            seed=self.seed)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def chaincode(self):
        return self._source.chaincode

    def populate(self, state) -> None:
        self._source.populate(state)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.entries)

    def rewind(self) -> None:
        self._cursor = 0

    def next_transaction(self, client_id: Optional[str] = None,
                         now: float = 0.0) -> Transaction:
        """Materialise the next recorded entry (fresh tx id, identical effect)."""
        if self.exhausted:
            raise WorkloadError("replay exhausted")
        entry = self.entries[self._cursor]
        self._cursor += 1
        tx = self.chaincode.new_transaction(
            entry["function"], entry["args"],
            client_id=client_id if client_id is not None else entry["client_id"],
            submitted_at=now)
        self.mix.record([shard_of_key(key, self.num_shards) for key in tx.keys])
        return tx

    def stream(self, client_id: Optional[str] = None,
               now: float = 0.0) -> Iterator[Transaction]:
        while not self.exhausted:
            yield self.next_transaction(client_id=client_id, now=now)
