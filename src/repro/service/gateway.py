"""The HTTP/JSON gateway: admission and routing in front of live shard processes.

Two halves:

* :class:`GatewayService` — the routing plane, with no 2PC state.  Each
  admitted transaction is framed (``svc-submit``) to its home shard
  (:func:`~repro.core.homecoord.home_shard`), whose partition coordinates
  it as a simulated partition does; the home's ``svc-done`` answer fills
  the gateway's :class:`~repro.core.homecoord.ClientRecords` — the engine's
  parent keeps the same — stamped with the gateway's own clock.

* :class:`GatewayHttp` — a deliberately small HTTP/1.1 front end (stdlib
  only; the container has no aiohttp) exposing::

      POST /tx            submit {"function", "args", "client_id"?}; ?wait=1 blocks
      GET  /tx/{id}       the gateway's record of a transaction (in flight,
                          or among the last RECORD_WINDOW completed)
      GET  /balance/{key} world-state read from the key's home shard
      GET  /health        shard liveness, in-flight window, totals, block filling

  Until every shard has announced itself (the boot barrier), ``POST /tx``
  and ``GET /balance`` answer ``503`` with ``Retry-After``.  Admission
  control is a bounded in-flight window: past ``max_inflight`` the gateway
  answers ``429`` with ``Retry-After`` instead of queueing unboundedly.
  A malformed request — a bad ``Content-Length``, body or ``timeout``, a
  cross-shard transaction the splitter cannot split, one whose fields the
  codec (so its home shard) would refuse — is a ``400``, and a body or
  ``svc-submit`` frame over the frame cap a ``413``, before anything is
  admitted; the frame is encoded once, and the link writes those bytes.
  A dead shard (EOF on its frame link) turns requests that touch it into
  ``503``; the gateway answers the in-flight transactions homed there, and
  the surviving homes answer for it as a participant, so nothing hangs.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
from collections import OrderedDict
from functools import partial
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import codec
from repro.core.homecoord import ClientRecords, TxDone, home_shard
from repro.core.splitters import benchmark_for, shards_for, splitter_for
from repro.errors import WorkloadError
from repro.ledger.transaction import Transaction
from repro.runtime.wallclock import AsyncioRuntime
from repro.service.frames import MAX_FRAME_BYTES, FrameError
from repro.service.shardnode import (
    GATEWAY_NODE_ID, KIND_BALANCE_QUERY, KIND_BALANCE_REPLY, KIND_BLOCK,
    KIND_DONE, KIND_PEERS, KIND_PONG, KIND_SUBMIT, PAYLOADS, agent_shard,
    shard_agent_id,
)
from repro.service.socketnet import SocketNetwork
from repro.sim.network import Message, REQUEST_CHANNEL
from repro.txn.coordinator import DistributedTxOutcome, DistributedTxRecord
from repro.workloads.generator import shard_of_key


#: Completed transactions whose records ``GET /tx/{id}`` still answers;
#: older ones are dropped first.  In-flight records are never dropped.
RECORD_WINDOW = 65_536


class GatewayError(Exception):
    """Base for admission failures; carries the HTTP status to answer with."""

    status = 500
    retry_after: Optional[int] = None


class Overloaded(GatewayError):
    """The bounded in-flight window is full."""

    status = 429
    retry_after = 1


class NotReady(GatewayError):
    """Not every shard has announced itself yet."""

    status = 503
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
    """The body, or the frame it would travel in, is larger than a frame may be."""

    status = 413


class GatewayService:
    """Admission, routing and transaction records over live shards; also
    the gateway's node in its SocketNetwork, receiving the shards' frames."""

    node_id = GATEWAY_NODE_ID

    def __init__(self, runtime: AsyncioRuntime, num_shards: int,
                 benchmark: str = "smallbank", max_inflight: int = 256,
                 listen_host: str = "127.0.0.1") -> None:
        self.runtime = runtime
        self.num_shards = num_shards
        self.max_inflight = max_inflight
        self.network = SocketNetwork(runtime, listen_host=listen_host)
        self.network.on_peer_down = self._on_peer_down
        self.splitter = splitter_for(benchmark)
        self.chaincode = benchmark_for(benchmark).chaincode()
        self.network.register(self)
        #: The records of transactions awaiting their home's answer; their
        #: number is the in-flight window.
        self._clients = ClientRecords(self.splitter, self.shard_of)
        #: The last :data:`RECORD_WINDOW` completed records, oldest first.
        self.completed: "OrderedDict[str, DistributedTxRecord]" = OrderedDict()
        self.submitted = self.committed = self.aborted = 0
        self.draining = False
        self._down: Dict[int, str] = {}
        self._pongs: Dict[int, Tuple[str, int]] = {}
        self._ready = asyncio.Event()
        #: Per shard: height of the newest block reported and transactions
        #: in the blocks reported — ``/health`` answers "are blocks filling?".
        self.blocks = [0] * num_shards
        self.block_txs = [0] * num_shards
        self._balance_waiters: Dict[int, asyncio.Future] = {}
        self._query_counter = itertools.count()
        self._drained = asyncio.Event()
        self._handlers = {KIND_DONE: self._on_done, KIND_BLOCK: self._on_block,
                          KIND_BALANCE_REPLY: self._on_balance_reply,
                          KIND_PONG: self._on_pong}

    @property
    def in_flight(self) -> int:
        return len(self._clients)

    def deliver(self, message: Message) -> None:
        """A shard's frame; a wrong shape or shard id closes its connection."""
        kind, payload = message.kind, message.payload
        if (kind not in self._handlers or not PAYLOADS[kind](payload)
                or kind != KIND_DONE and not 0 <= payload["shard_id"] < self.num_shards):
            raise FrameError(f"malformed {kind!r} payload for the gateway")
        self._handlers[kind](payload)

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
        if self.in_flight:
            try:
                await asyncio.wait_for(self._drained.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        return {
            "submitted": self.submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "abandoned_in_flight": self.in_flight,
        }

    async def close(self) -> None:
        await self.network.close()

    # ------------------------------------------------------------- health
    def _on_pong(self, payload: Dict[str, Any]) -> None:
        """A shard's boot announcement of the port it bound.  The last one
        sends every shard the address table — before readiness, so before
        any submit."""
        shard_id, addr = payload["shard_id"], (payload["host"], payload["port"])
        self.add_shard(shard_id, *addr)
        self._pongs[shard_id] = addr
        if len(self._pongs) >= self.num_shards and not self._ready.is_set():
            peers = dict(sorted(self._pongs.items()))
            for shard in peers:
                self._send_frame(shard, KIND_PEERS, peers)
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
        return {
            "status": status,
            "shards": shards,
            "in_flight": self.in_flight,
            "max_inflight": self.max_inflight,
            "submitted": self.submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "blocks": {str(s): blocks for s, blocks in enumerate(self.blocks)},
            "txs_per_block": {
                str(s): round(self.block_txs[s] / blocks, 2) if blocks else 0.0
                for s, blocks in enumerate(self.blocks)},
        }

    def _on_block(self, payload: Dict[str, Any]) -> None:
        """One committed block's height and transaction count from a shard."""
        shard_id = payload["shard_id"]
        self.blocks[shard_id] = max(self.blocks[shard_id], payload["height"])
        self.block_txs[shard_id] += payload["txs"]

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

    def submit_transaction(self, tx: Transaction,
                           wait: bool = False) -> Tuple[DistributedTxRecord,
                                                        Optional[asyncio.Future]]:
        """Admit one transaction and route it to its home shard.

        Everything that can refuse it runs before its record is registered.
        A mistyped transaction (its home closes the link) or an oversized
        frame (a failed write fails the link) would read as the shard dying,
        so both are refused here.
        """
        try:
            codec.check(tx)
        except codec.CodecError as exc:
            raise BadRequest(f"function, client_id and keys must be strings: {exc}") from exc
        self._check_ready()
        if self.draining:
            raise Draining("gateway is draining")
        if self.in_flight >= self.max_inflight:
            raise Overloaded(f"{self.in_flight} transactions in flight")
        shards = shards_for(self.splitter, tx, self.shard_of)
        dead = [shard for shard in shards if shard in self._down]
        if dead:
            raise ShardDown(f"shard {dead[0]} is down: {self._down[dead[0]]}")
        try:
            self._clients.validate(tx, shards)
        except WorkloadError as exc:
            raise BadRequest(str(exc)) from exc
        submit = Message(sender=GATEWAY_NODE_ID, kind=KIND_SUBMIT, payload=(tx,),
                         size_bytes=512, channel=REQUEST_CHANNEL)
        try:
            self.network.send_frame(GATEWAY_NODE_ID,
                                    shard_agent_id(home_shard(shards)), submit)
        except FrameError as exc:
            raise PayloadTooLarge(str(exc)) from exc
        future = self.runtime.loop.create_future() if wait else None
        record = self._clients.begin(tx, shards, self.runtime.now,
                                     partial(self._finished, future))
        self.submitted += 1
        return record, future

    def record(self, tx_id: str) -> Optional[DistributedTxRecord]:
        """``tx_id``'s record, in flight or recently completed (else None)."""
        pending = self._clients.pending.get(tx_id)
        return pending[0] if pending is not None else self.completed.get(tx_id)

    def _check_ready(self) -> None:
        if not self._ready.is_set():
            missing = [s for s in range(self.num_shards) if s not in self._pongs]
            raise NotReady(f"shards {missing} have not announced themselves yet")

    def _on_done(self, done: TxDone) -> None:
        """The home's answer, stamped with this clock (its times are the home's)."""
        now = self.runtime.now
        self._clients.finish(done.tx_id, done.committed, done.abort_reason, now, now)

    def _finished(self, future: Optional[asyncio.Future],
                  record: DistributedTxRecord) -> None:
        if record.outcome is DistributedTxOutcome.COMMITTED:
            self.committed += 1
        else:
            self.aborted += 1
        self.completed[record.tx_id] = record
        if len(self.completed) > RECORD_WINDOW:
            self.completed.popitem(last=False)
        if future is not None and not future.done():
            future.set_result(record)
        if self.draining and not self.in_flight:
            self._drained.set()

    # ------------------------------------------------------------ transport
    def _send_frame(self, shard_id: int, kind: str, payload: Any) -> None:
        message = Message(sender=GATEWAY_NODE_ID, kind=kind, payload=payload,
                          size_bytes=512, channel=REQUEST_CHANNEL)
        self.network.send(GATEWAY_NODE_ID, shard_agent_id(shard_id), message)

    # ------------------------------------------------------------ peer death
    def _on_peer_down(self, node_ids: List[int], exc: Exception) -> None:
        """Answer every in-flight transaction homed at a dead shard; the
        surviving homes answer for it as a participant themselves."""
        shards = sorted(shard for shard in map(agent_shard, node_ids)
                        if shard is not None)
        for shard in shards:
            self._down.setdefault(shard, str(exc) or type(exc).__name__)
        now = self.runtime.now
        for record, _ in list(self._clients.pending.values()):
            home = home_shard(record.shards)
            if home in shards:
                self._clients.finish(record.tx_id, False, f"shard {home} down",
                                     now, now)

    # -------------------------------------------------------------- queries
    async def balance(self, key: str, timeout: float = 5.0) -> Any:
        self._check_ready()
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
        body = json.dumps(payload).encode()
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
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
        record = self.service.record(tx_id)
        if record is None:
            return 404, {"error": f"unknown transaction {tx_id}"}, None
        return 200, record_json(record), None

    async def _get_balance(self, key: str):
        value = await self.service.balance(key)
        return 200, {"key": key, "balance": value}, None
