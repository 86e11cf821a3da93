"""The HTTP/JSON gateway: trusted 2PC over live shard processes.

Two halves:

* :class:`GatewayService` — the coordination plane.  It hosts the *same*
  :class:`~repro.txn.coordinator.TwoPhaseCommitDriver` that the home
  coordinators host in sim mode, built with ``use_reference_committee=False``
  (the trusted coordinator of Figure 13): begin → per-shard prepares →
  votes → commit/abort decisions → acks.  The service itself is only the
  transport — a relayed cohort becomes ``svc-submit`` frames, the
  ``svc-receipts`` frames coming back from the shard processes become
  ``vote`` / ``ack`` inputs, a lost frame link becomes ``shard_lost`` — and
  the clock is the :class:`~repro.runtime.wallclock.AsyncioRuntime`.  Unlike
  the simulator it gives the driver a re-drive budget (:data:`MAX_REDRIVES`),
  after which a silent shard is answered for instead of waited on.

* :class:`GatewayHttp` — a deliberately small HTTP/1.1 front end (stdlib
  only; the container has no aiohttp) exposing::

      POST /tx            submit {"function", "args", "client_id"?}; ?wait=1 blocks
      GET  /tx/{id}       coordinator record for a transaction
      GET  /balance/{key} world-state read from the key's home shard
      GET  /health        shard liveness, in-flight window, totals, block filling

  Admission control is a bounded in-flight window: past ``max_inflight``
  the gateway answers ``429`` with ``Retry-After`` instead of queueing
  unboundedly.  A malformed request — a bad ``Content-Length``, body or
  ``timeout`` — is a ``400`` before anything is admitted.  A dead shard (EOF
  on its frame link) turns requests that touch it into ``503`` — and aborts
  the undecided in-flight transactions that were waiting on it, so nothing
  hangs.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.splitters import benchmark_for, shards_for, splitter_for
from repro.errors import WorkloadError
from repro.ledger.transaction import Transaction, TransactionReceipt
from repro.runtime.wallclock import AsyncioRuntime
from repro.service.frames import MAX_FRAME_BYTES
from repro.service.shardnode import (
    GATEWAY_NODE_ID, KIND_BALANCE_QUERY, KIND_BALANCE_REPLY, KIND_PONG,
    KIND_RECEIPTS, KIND_SUBMIT, shard_agent_id,
)
from repro.service.socketnet import SocketNetwork
from repro.sim.network import Message, REQUEST_CHANNEL
from repro.txn.coordinator import (
    Cohort, DistributedTxRecord, TwoPhaseCommitCoordinator, TwoPhaseCommitDriver,
)
from repro.workloads.generator import shard_of_key

#: How many times a lost prepare or decision is re-driven before the
#: gateway gives up (aborts the prepare, force-acks the decision).
MAX_REDRIVES = 3


class GatewayError(Exception):
    """Base for admission failures; carries the HTTP status to answer with."""

    status = 500
    retry_after: Optional[int] = None


class Overloaded(GatewayError):
    """The bounded in-flight window is full."""

    status = 429
    retry_after = 1


class Draining(GatewayError):
    """The gateway is shutting down and admits no new transactions."""

    status = 503


class ShardDown(GatewayError):
    """The transaction touches a shard whose process is unreachable."""

    status = 503


class BadRequest(GatewayError):
    """The request is malformed (headers, query or body), or its body does
    not describe a valid chaincode invocation."""

    status = 400


class PayloadTooLarge(BadRequest):
    """The announced body is larger than a frame may be."""

    status = 413


class _GatewayAgent:
    """The gateway's node in the SocketNetwork (receives shard frames)."""

    def __init__(self, service: "GatewayService") -> None:
        self.node_id = GATEWAY_NODE_ID
        self.service = service

    def deliver(self, message: Message) -> None:
        if message.kind == KIND_RECEIPTS:
            self.service._on_receipts(message.payload)
        elif message.kind == KIND_BALANCE_REPLY:
            self.service._on_balance_reply(message.payload)
        elif message.kind == KIND_PONG:
            self.service._on_pong(message.payload)


class GatewayService:
    """Trusted 2PC coordination over live shards, behind the runtime seam."""

    def __init__(self, runtime: AsyncioRuntime, num_shards: int,
                 benchmark: str = "smallbank", max_inflight: int = 256,
                 prepare_timeout: float = 5.0,
                 listen_host: str = "127.0.0.1") -> None:
        self.runtime = runtime
        self.num_shards = num_shards
        self.benchmark = benchmark
        self.max_inflight = max_inflight
        self.prepare_timeout = prepare_timeout
        self.network = SocketNetwork(runtime, listen_host=listen_host)
        self.network.on_peer_down = self._on_peer_down
        self.splitter = splitter_for(benchmark)
        self.chaincode = benchmark_for(benchmark).chaincode()
        self._agent = _GatewayAgent(self)
        self.network.register(self._agent)
        #: The one 2PC driver; this class is its host.  Completion is the
        #: submitter's future (None for fire-and-forget), and the driver's
        #: unfinished set is the in-flight window.
        self.driver = TwoPhaseCommitDriver(
            self, runtime, TwoPhaseCommitCoordinator(prepare_timeout=prepare_timeout),
            self.splitter, self.shard_of, use_reference_committee=False,
            redrive_decisions=True, max_redrives=MAX_REDRIVES)
        self.draining = False
        #: receipt watchers, keyed by the *wire* transaction's id (prepare /
        #: decision / single-shard tx), plus the parent tx owning each watch
        #: so a finished record's stale watchers can be reclaimed.
        self._watchers: Dict[str, Callable[[TransactionReceipt], None]] = {}
        self._watch_owner: Dict[str, str] = {}
        self._record_watches: Dict[str, Set[str]] = {}
        self._down: Dict[int, str] = {}
        self._pongs: Dict[int, Dict[str, Any]] = {}
        self._ready = asyncio.Event()
        #: Per shard: height of the newest block whose receipts arrived and
        #: receipts received — ``/health`` answers "are blocks filling?".
        self.blocks = [0] * num_shards
        self.receipts = [0] * num_shards
        self._balance_waiters: Dict[int, asyncio.Future] = {}
        self._query_counter = itertools.count()
        self._drained = asyncio.Event()

    # ----------------------------------------------------------- lifecycle
    async def start(self, port: int = 0) -> int:
        """Start the frame listener; returns its bound port."""
        return await self.network.start(port)

    def add_shard(self, shard_id: int, host: str, port: int) -> None:
        self.network.add_peer(shard_agent_id(shard_id), host, port)

    async def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every shard has announced itself (boot barrier)."""
        try:
            await asyncio.wait_for(self._ready.wait(), timeout)
        except asyncio.TimeoutError:
            missing = [s for s in range(self.num_shards) if s not in self._pongs]
            raise TimeoutError(f"shards {missing} never announced themselves") from None

    async def drain(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Stop admitting, wait for in-flight work, report what happened."""
        self.draining = True
        if self.driver.in_flight:
            try:
                await asyncio.wait_for(self._drained.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        stats = self.driver.coordinator.stats
        return {
            "submitted": stats.started,
            "committed": stats.committed,
            "aborted": stats.aborted,
            "abandoned_in_flight": self.driver.in_flight,
        }

    async def close(self) -> None:
        await self.network.close()

    # ------------------------------------------------------------- health
    def _on_pong(self, payload: Dict[str, Any]) -> None:
        """A shard's boot announcement: it bound a port of its own."""
        shard_id = payload["shard_id"]
        self.add_shard(shard_id, payload["host"], payload["port"])
        self._pongs[shard_id] = payload
        if len(self._pongs) >= self.num_shards:
            self._ready.set()

    def shard_state(self, shard_id: int) -> str:
        if shard_id in self._down:
            return "down"
        return "up" if shard_id in self._pongs else "starting"

    def health(self) -> Dict[str, Any]:
        shards = {str(s): self.shard_state(s) for s in range(self.num_shards)}
        if self.draining:
            status = "draining"
        elif any(state != "up" for state in shards.values()):
            status = "degraded"
        else:
            status = "ok"
        stats = self.driver.coordinator.stats
        return {
            "status": status,
            "shards": shards,
            "in_flight": self.driver.in_flight,
            "max_inflight": self.max_inflight,
            "submitted": stats.started,
            "committed": stats.committed,
            "aborted": stats.aborted,
            "blocks": {str(s): blocks for s, blocks in enumerate(self.blocks)},
            "txs_per_block": {
                str(s): round(self.receipts[s] / blocks, 2) if blocks else 0.0
                for s, blocks in enumerate(self.blocks)},
        }

    # ---------------------------------------------------------- submission
    def shard_of(self, key: str) -> int:
        return shard_of_key(key, self.num_shards)

    def build_transaction(self, function: str, args: Dict[str, Any],
                          client_id: str = "http") -> Transaction:
        try:
            return self.chaincode.new_transaction(
                function, dict(args), client_id=client_id,
                submitted_at=self.runtime.now)
        except Exception as exc:
            raise BadRequest(f"invalid invocation: {exc}") from exc

    def shards_for(self, tx: Transaction) -> List[int]:
        return shards_for(self.splitter, tx, self.shard_of)

    def submit_transaction(self, tx: Transaction,
                           wait: bool = False) -> Tuple[DistributedTxRecord,
                                                        Optional[asyncio.Future]]:
        """Admit and coordinate one transaction; mirrors sim trusted mode."""
        if self.draining:
            raise Draining("gateway is draining")
        if self.driver.in_flight >= self.max_inflight:
            raise Overloaded(f"{self.driver.in_flight} transactions in flight")
        shards = self.shards_for(tx)
        dead = [shard for shard in shards if shard in self._down]
        if dead:
            raise ShardDown(f"shard {dead[0]} is down: {self._down[dead[0]]}")
        future = self.runtime.loop.create_future() if wait else None
        try:
            record = self.driver.submit(tx, shards, completion=future)
        except WorkloadError as exc:
            raise BadRequest(str(exc)) from exc
        return record, future

    # ------------------------------------------- the driver's host surface
    def relay(self, kind: str, record: DistributedTxRecord, cohort: Cohort,
              extra_delay: float, attempt: int) -> None:
        """Watch for each receipt, then frame the transaction to its shard."""
        for shard_id, tx in cohort:
            self._watchers[tx.tx_id] = partial(
                self.driver.receipt, kind, record, shard_id)
            self._watch_owner[tx.tx_id] = record.tx_id
            self._record_watches.setdefault(record.tx_id, set()).add(tx.tx_id)
            self._send_frame(shard_id, KIND_SUBMIT, (tx,), size_bytes=512)

    def shard_unreachable(self, shard_id: int) -> bool:
        return shard_id in self._down

    def finished(self, record: DistributedTxRecord,
                 future: Optional[asyncio.Future]) -> None:
        for wire_tx_id in self._record_watches.pop(record.tx_id, ()):
            self._watchers.pop(wire_tx_id, None)
            self._watch_owner.pop(wire_tx_id, None)
        if future is not None and not future.done():
            future.set_result(record)
        if self.draining and not self.driver.in_flight:
            self._drained.set()

    def _on_receipts(self, payload: Dict[str, Any]) -> None:
        """One block's receipts from one shard."""
        shard_id, receipts = payload["shard_id"], payload["receipts"]
        self.blocks[shard_id] = max(self.blocks[shard_id], payload["height"])
        self.receipts[shard_id] += len(receipts)
        for receipt in receipts:
            self._on_receipt(receipt)

    def _on_receipt(self, receipt: TransactionReceipt) -> None:
        watcher = self._watchers.pop(receipt.tx_id, None)
        if watcher is None:
            return
        parent = self._watch_owner.pop(receipt.tx_id, None)
        if parent is not None:
            watches = self._record_watches.get(parent)
            if watches is not None:
                watches.discard(receipt.tx_id)
        watcher(receipt)

    # ------------------------------------------------------------ transport
    def _send_frame(self, shard_id: int, kind: str, payload: Any,
                    size_bytes: int = 512) -> None:
        message = Message(sender=GATEWAY_NODE_ID, kind=kind, payload=payload,
                          size_bytes=size_bytes, channel=REQUEST_CHANNEL)
        self.network.send(GATEWAY_NODE_ID, shard_agent_id(shard_id), message)

    # ------------------------------------------------------------ peer death
    def _on_peer_down(self, node_ids: List[int], exc: Exception) -> None:
        shards = sorted(node_id - shard_agent_id(0) for node_id in node_ids
                        if shard_agent_id(0) <= node_id < GATEWAY_NODE_ID)
        for shard in shards:
            self._down.setdefault(shard, str(exc) or type(exc).__name__)
        for shard in shards:
            self.driver.shard_lost(shard)

    # -------------------------------------------------------------- queries
    def status(self, tx_id: str) -> Optional[DistributedTxRecord]:
        return self.driver.coordinator.records.get(tx_id)

    async def balance(self, key: str, timeout: float = 5.0) -> Any:
        shard = self.shard_of(key)
        if shard in self._down:
            raise ShardDown(f"shard {shard} is down: {self._down[shard]}")
        query_id = next(self._query_counter)
        future = self.runtime.loop.create_future()
        self._balance_waiters[query_id] = future
        try:
            self._send_frame(shard, KIND_BALANCE_QUERY,
                             {"query_id": query_id, "key": key})
            return await asyncio.wait_for(future, timeout)
        finally:
            self._balance_waiters.pop(query_id, None)

    def _on_balance_reply(self, payload: Dict[str, Any]) -> None:
        future = self._balance_waiters.get(payload["query_id"])
        if future is not None and not future.done():
            future.set_result(payload["value"])


# --------------------------------------------------------------------- HTTP
async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One HTTP line; a line longer than the reader's limit is a BadRequest."""
    try:
        return await reader.readline()
    except ValueError as exc:  # readline's form of asyncio.LimitOverrunError
        raise BadRequest("request line or header too long") from exc


def record_json(record: DistributedTxRecord) -> Dict[str, Any]:
    return {
        "tx_id": record.tx_id,
        "outcome": record.outcome.value,
        "phase": record.phase.value,
        "shards": list(record.shards),
        "abort_reason": record.abort_reason,
        "latency": record.latency,
    }


class GatewayHttp:
    """A minimal HTTP/1.1 JSON server in front of a :class:`GatewayService`.

    Connections are persistent: one connection answers request after request
    until the client closes it, sends ``Connection: close`` or speaks
    HTTP/1.0.  Every 4xx/5xx answer closes it, and :meth:`close` hangs up the
    connections that are waiting for their next request, so shutdown never
    waits on an idle client.
    """

    def __init__(self, service: GatewayService, host: str = "127.0.0.1",
                 port: int = 8080, wait_timeout: float = 30.0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.wait_timeout = wait_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        #: Connections waiting for the next request line.
        self._idle: Set[asyncio.StreamWriter] = set()

    async def start(self) -> int:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------- plumbing
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            keep_alive = True
            while keep_alive and not self._closing:
                try:
                    self._idle.add(writer)
                    try:
                        line = await _read_line(reader)
                    finally:
                        self._idle.discard(writer)
                    request = await self._read_request(line, reader)
                except BadRequest as exc:
                    await self._respond(writer, exc.status, {"error": str(exc)}, False)
                    return
                if request is None:
                    return
                method, path, query, body, keep_alive = request
                status, payload, extra = await self._route(method, path, query, body)
                keep_alive = keep_alive and status < 400 and not self._closing
                await self._respond(writer, status, payload, keep_alive, extra)
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(self, line: bytes, reader: asyncio.StreamReader):
        """Parse one request after its request ``line``; None on EOF or garbage.

        Returns ``(method, path, query, body, keep_alive)``.  Raises
        :class:`BadRequest` for an over-long header or a bad
        ``Content-Length``, and :class:`PayloadTooLarge` before reading a
        body larger than a frame may be.
        """
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            header = await _read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise BadRequest(f"invalid Content-Length {raw_length!r}")
        if length > MAX_FRAME_BYTES:
            raise PayloadTooLarge(
                f"Content-Length {length} exceeds the {MAX_FRAME_BYTES}-byte cap")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return None  # the client hung up mid-body
        path, _, query_string = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        keep_alive = version.upper() == "HTTP/1.1" and "close" not in tokens
        return method.upper(), path, query, body, keep_alive

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, Any], keep_alive: bool,
                       extra_headers: Optional[Dict[str, str]] = None) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 413: "Payload Too Large",
                   429: "Too Many Requests",
                   500: "Internal Server Error", 503: "Service Unavailable",
                   504: "Gateway Timeout"}
        body = json.dumps(payload).encode()
        lines = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
        if not keep_alive:
            lines.append("Connection: close")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -------------------------------------------------------------- routing
    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: bytes):
        try:
            if method == "POST" and path == "/tx":
                return await self._post_tx(query, body)
            if method == "GET" and path.startswith("/tx/"):
                return self._get_tx(path[len("/tx/"):])
            if method == "GET" and path.startswith("/balance/"):
                return await self._get_balance(path[len("/balance/"):])
            if method == "GET" and path == "/health":
                return 200, self.service.health(), None
            return 404, {"error": f"no route for {method} {path}"}, None
        except GatewayError as exc:
            extra = ({"Retry-After": str(exc.retry_after)}
                     if exc.retry_after is not None else None)
            return exc.status, {"error": str(exc)}, extra
        except asyncio.TimeoutError:
            return 504, {"error": "timed out waiting for the transaction"}, None

    async def _post_tx(self, query: Dict[str, str], body: bytes):
        timeout = self._wait_timeout(query)
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            function = request["function"]
            args = request.get("args", {})
        except (ValueError, KeyError) as exc:
            raise BadRequest(f"malformed body: {exc}") from exc
        if not isinstance(args, dict):
            raise BadRequest("args must be an object")
        tx = self.service.build_transaction(
            function, args, client_id=str(request.get("client_id", "http")))
        wait = query.get("wait") in ("1", "true")
        record, future = self.service.submit_transaction(tx, wait=wait)
        if not wait:
            return 202, {"tx_id": tx.tx_id, "outcome": record.outcome.value,
                         "shards": list(record.shards)}, None
        record = await asyncio.wait_for(future, timeout)
        return 200, record_json(record), None

    def _wait_timeout(self, query: Dict[str, str]) -> float:
        """``?timeout=`` in seconds (a positive number), else the default."""
        raw = query.get("timeout")
        if raw is None:
            return self.wait_timeout
        try:
            timeout = float(raw)
        except ValueError:
            timeout = math.nan
        if not 0 < timeout < math.inf:
            raise BadRequest(f"timeout must be a positive number of seconds, got {raw!r}")
        return timeout

    def _get_tx(self, tx_id: str):
        record = self.service.status(tx_id)
        if record is None:
            return 404, {"error": f"unknown transaction {tx_id}"}, None
        return 200, record_json(record), None

    async def _get_balance(self, key: str):
        value = await self.service.balance(key)
        return 200, {"key": key, "balance": value}, None
