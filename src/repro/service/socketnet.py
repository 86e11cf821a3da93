"""``SocketNetwork`` — the existing ``Network`` surface over real TCP.

A :class:`SocketNetwork` is a :class:`~repro.sim.network.Network` whose
destinations come in two flavours:

* **local** nodes (registered in this process, e.g. a shard's whole
  committee) are delivered exactly as the in-memory network delivers them —
  its latency model, loss and partition injection included, scheduled on
  the wall-clock runtime.  A live shard gives it a zero-delay model
  (:data:`repro.service.shardnode.NO_DELAY`): a local hop is a call;
* **remote** peers (added with :meth:`add_peer`, e.g. the gateway seen from
  a shard process) receive the ``Message`` as a length-prefixed frame
  (:mod:`repro.service.frames`, encoded by :mod:`repro.codec`) over a
  persistent TCP connection; the real network supplies the latency.
  A message is encoded once, when it is sent, and frames queued for one
  peer in the same loop turn leave in one socket write.

Because the class *is* a ``Network``, the unchanged consensus stack uses it
without knowing which flavour a destination is: ``send`` routes per
destination (a ``broadcast`` is a committee's, so it stays local).  Peer
liveness is surfaced through ``on_peer_down`` — a shard's home coordinator
uses it to answer for a dead participant, the gateway for the transactions
homed at a dead shard, instead of hanging (each outgoing link has a task
watching for EOF, so a peer's death is noticed as soon as its kernel sends
FIN/RST, not at the next write).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.wallclock import AsyncioRuntime
from repro.service.frames import FrameError, encode_frame, read_frame
from repro.sim.latency import LatencyModel
from repro.sim.network import Message, Network

#: How many times an outgoing link retries its initial connect before the
#: peer is declared down.  30 x 0.2s covers a shard process's startup.
CONNECT_RETRIES = 30
CONNECT_RETRY_DELAY = 0.2

_CLOSE = object()


class _PeerLink:
    """One persistent outgoing connection: a queue of encoded frames, a
    writer task and an EOF watcher.

    The writer task awaits the queue.  Each time it wakes it takes everything
    queued for the peer and sends it with one ``write`` and one ``drain``, so
    the frames one loop turn addresses to a peer cost one socket write.
    The peer never writes back on this connection, so any read result (EOF
    included) means the peer went away: the watcher task then fails the link
    — the fastest death signal TCP offers.
    """

    def __init__(self, net: "SocketNetwork", addr: Tuple[str, int]) -> None:
        self.net = net
        self.addr = addr
        self.down = False
        self.queue: asyncio.Queue = asyncio.Queue()
        #: Frames taken off the queue whose write has not completed yet.
        self._in_hand: List[bytes] = []
        self._writer: Optional[asyncio.StreamWriter] = None
        self._closing = asyncio.Event()
        self._task = net.runtime.loop.create_task(self._run())

    def enqueue(self, frame: bytes) -> None:
        if self.down:
            self.net.stats.messages_dropped += 1
            return
        self.queue.put_nowait(frame)

    async def _run(self) -> None:
        last_error: Exception = ConnectionError("connect never attempted")
        for _ in range(CONNECT_RETRIES):
            try:
                reader, writer = await asyncio.open_connection(*self.addr)
                break
            except OSError as exc:
                last_error = exc
                # The retry pause ends early on close(): a peer that already
                # exited would otherwise keep this task from ever reading
                # ``_CLOSE``, and close() would wait out its timeout.
                try:
                    await asyncio.wait_for(self._closing.wait(), CONNECT_RETRY_DELAY)
                    return  # closed before the peer ever answered: nothing was sent
                except asyncio.TimeoutError:
                    pass
        else:
            self._fail(last_error)
            return
        self._writer = writer
        watcher = asyncio.ensure_future(self._watch_eof(reader))
        try:
            while await self._send_batch(writer):
                pass
        except (ConnectionError, OSError) as exc:
            self._fail(exc)
            return
        finally:
            watcher.cancel()
        writer.close()

    async def _send_batch(self, writer: asyncio.StreamWriter) -> bool:
        """Send everything queued as one write; False once ``_CLOSE`` is reached."""
        item = await self.queue.get()
        while item is not _CLOSE:
            self._in_hand.append(item)
            if self.queue.empty():
                break
            item = self.queue.get_nowait()
        if self._in_hand:
            writer.write(b"".join(self._in_hand))
            await writer.drain()
            self._in_hand.clear()
        return item is not _CLOSE

    async def _watch_eof(self, reader: asyncio.StreamReader) -> None:
        try:
            await reader.read(1)
        except (ConnectionError, OSError):
            pass
        self._fail(ConnectionResetError(f"peer {self.addr} closed the connection"))

    def _fail(self, exc: Exception) -> None:
        if self.down:
            return
        self.down = True
        dropped = len(self._in_hand) + self.queue.qsize()
        self._in_hand.clear()
        while not self.queue.empty():
            self.queue.get_nowait()
        self.net.stats.messages_dropped += dropped
        if self._writer is not None:
            self._writer.close()
        if self._task is not asyncio.current_task():
            self._task.cancel()
        self.net._peer_link_down(self.addr, exc)

    async def close(self) -> None:
        self._closing.set()
        self.queue.put_nowait(_CLOSE)
        try:
            await asyncio.wait_for(self._task, timeout=2.0)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._task.cancel()


class SocketNetwork(Network):
    """The ``Network`` surface with remote peers behind TCP frames."""

    def __init__(self, runtime: AsyncioRuntime,
                 latency_model: Optional[LatencyModel] = None,
                 listen_host: str = "127.0.0.1") -> None:
        super().__init__(runtime, latency_model)
        self.listen_host = listen_host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._links: Dict[Tuple[str, int], _PeerLink] = {}
        self._inbound: List[asyncio.StreamWriter] = []
        #: Called with (node_ids, exception) when a peer address is declared
        #: unreachable; every node id mapped to that address is included.
        self.on_peer_down: Optional[Callable[[List[int], Exception], None]] = None

    # ----------------------------------------------------------- lifecycle
    async def start(self, port: int = 0) -> int:
        """Listen for inbound frames; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_inbound, self.listen_host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        for link in list(self._links.values()):
            await link.close()
        for writer in self._inbound:
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # --------------------------------------------------------------- peers
    def add_peer(self, node_id: int, host: str, port: int) -> None:
        """Route ``node_id`` over TCP to ``host:port`` (one link per address)."""
        self._peers[node_id] = (host, port)

    def connect(self, node_id: int) -> None:
        """Open the link to ``node_id`` now instead of at the first send, so
        the peer's death is noticed even before anything is addressed to it."""
        self._link_for(node_id)

    def is_remote(self, node_id: int) -> bool:
        return node_id in self._peers and node_id not in self._nodes

    def _link_for(self, node_id: int) -> _PeerLink:
        addr = self._peers[node_id]
        link = self._links.get(addr)
        if link is None:
            link = _PeerLink(self, addr)
            self._links[addr] = link
        return link

    def _peer_link_down(self, addr: Tuple[str, int], exc: Exception) -> None:
        node_ids = sorted(nid for nid, peer in self._peers.items() if peer == addr)
        if self.on_peer_down is not None:
            self.on_peer_down(node_ids, exc)

    # ------------------------------------------------------------- sending
    def send(self, src: int, dst: int, message: Message) -> None:
        """Deliver locally, or queue the frame for a remote peer; a frame
        over the cap is dropped and fails that peer's link."""
        try:
            self.send_frame(src, dst, message)
        except FrameError as exc:
            self.stats.messages_dropped += 1
            self._link_for(dst)._fail(exc)

    def send_frame(self, src: int, dst: int, message: Message) -> None:
        """:meth:`send`, except that a frame over the cap raises
        :class:`FrameError` and queues nothing."""
        if not self.is_remote(dst):
            super().send(src, dst, message)
            return
        message.sender = src
        message.recipient = dst
        message.sent_at = self.runtime.now
        message.msg_id = next(self._msg_counter)
        frame = encode_frame(message)
        self.stats.record_send(message)
        self._link_for(dst).enqueue(frame)

    # ------------------------------------------------------------ inbound
    async def _handle_inbound(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        self._inbound.append(writer)
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                if not isinstance(message, Message):
                    raise FrameError(
                        f"frame payload is a {type(message).__name__}, not a Message")
                # Re-stamp with this process's counter so remote ids can
                # never collide with locally-stamped ones.
                message.msg_id = next(self._msg_counter)
                self._deliver(message)
        except (FrameError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # loop shutdown mid-read; swallowing keeps teardown quiet
        finally:
            if writer in self._inbound:
                self._inbound.remove(writer)
            writer.close()
