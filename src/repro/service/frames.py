"""Length-prefixed wire-codec frames over asyncio streams.

The wire format is a 4-byte big-endian length followed by the
:mod:`repro.codec` encoding of the payload — the codec the scale-out barrier
pipe uses too — here applied to live TCP connections between the gateway and
the shard node processes.  The payloads are the protocol's own dataclasses
(``Message`` carrying ``Transaction`` / ``TransactionReceipt`` objects),
sent as tagged tuples of primitives; a body is loaded by an unpickler that
refuses every global, so whoever connects can at worst send a frame that
ends as :class:`FrameError`.  The *external* client surface (the HTTP
gateway) speaks JSON only.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Optional

from repro import codec

#: Refuse frames above this size — a corrupted length prefix must not make
#: the receiver try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(Exception):
    """A malformed, undecodable or oversized frame."""


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one frame; returns the decoded payload, or None on clean EOF."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError("connection closed mid-frame") from exc
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    try:
        return codec.loads(body)
    except Exception as exc:
        # Garbage raises whatever the byte stream happens to spell
        # (CodecError, UnpicklingError, EOFError, ValueError, ...): to the
        # reader they are all one thing — a frame that is not a payload.
        raise FrameError(f"frame body is not a wire payload: {exc!r}") from exc


def encode_frame(payload: Any) -> bytes:
    """Encode ``payload`` into one frame: length prefix plus body."""
    body = codec.dumps(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _LEN.pack(len(body)) + body


async def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Write ``payload`` as one frame (waits for the drain)."""
    writer.write(encode_frame(payload))
    await writer.drain()
