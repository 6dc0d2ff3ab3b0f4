"""``lp1``: optional length-prefixed binary framing for the wire protocol.

NDJSON (one JSON object per ``\\n``-terminated line) is the protocol's
native, debuggable wire format and remains the default everywhere.  On
high-throughput hops — the cluster router's connections to its workers
— newline scanning and per-line writes are pure overhead, and a payload
can never contain a newline.  ``lp1`` removes both limits:

Frame layout (everything after negotiation, both directions)::

    +--------+-----------------+------------------+
    | 0xA7   | u32 big-endian  |  payload bytes   |
    | magic  | payload length  |  (UTF-8 JSON)    |
    +--------+-----------------+------------------+

The payload is exactly the JSON text that NDJSON would carry on one
line, *without* the trailing newline — switching framings never changes
a single payload byte, which is what keeps the cluster's byte-identity
invariant framing-independent.  Payloads may contain newlines and may
exceed the NDJSON line cap (frames are bounded by ``max_frame``,
default 1 MiB).

Negotiation (one round trip, first line only)::

    client: {"op": "hello", "framing": "lp1"}\\n        # always NDJSON
    server: <lp1 frame containing {"kind": "hello", "framing": "lp1"}>

* A ``hello`` is only honoured as the **first** line of a connection;
  after any other line (valid or not) a hello gets a ``late hello``
  error reply and the framing stays NDJSON — the connection survives.
* ``{"framing": "ndjson"}`` is acked (as NDJSON) and changes nothing —
  a cheap capability probe.
* An unknown framing, or ``lp1`` against a server that disabled it
  (``allow_lp1=False``) or against the cluster router, gets an error
  reply and the connection continues in NDJSON.

Decode-side error handling mirrors :class:`~repro.serve.lines.LineReader`
one-for-one — a damaged frame costs one error event, never the
connection:

* ``overflow``: a frame announced a length over ``max_frame``; its
  payload is skipped (the length is known) and the stream stays in
  sync;
* ``garbage``: bytes where a magic byte should be; everything up to
  the next ``0xA7`` candidate is discarded, one event per run;
* ``truncated``: the peer closed mid-frame; reported once, then
  ``eof``.
"""

from __future__ import annotations

import json

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FRAME_MAGIC",
    "FrameReader",
    "encode_frame",
    "encode_frames",
    "encode_hello",
    "encode_hello_ack",
    "negotiate",
]

FRAME_MAGIC = 0xA7
_MAGIC_BYTE = bytes([FRAME_MAGIC])
_HEADER = 5  # magic + u32 length

# lp1 exists to carry payloads NDJSON cannot; its cap is deliberately
# larger than DEFAULT_MAX_LINE (64 KiB).
DEFAULT_MAX_FRAME = 1 << 20

_CHUNK = 65536

FRAMINGS = ("ndjson", "lp1")


def encode_frame(payload: bytes) -> bytes:
    """One lp1 frame: magic, u32 big-endian length, payload."""
    return _MAGIC_BYTE + len(payload).to_bytes(4, "big") + payload


def encode_frames(payloads) -> bytes:
    """Many frames as one buffer — the coalesced-write fast path.

    Accumulates into a single bytearray: per-frame ``bytes`` concats
    plus a final join would allocate three temporaries per frame."""
    buf = bytearray()
    for payload in payloads:
        buf += _MAGIC_BYTE
        buf += len(payload).to_bytes(4, "big")
        buf += payload
    return bytes(buf)


def encode_hello(framing: str) -> str:
    """The client-side negotiation request (sent as an NDJSON line)."""
    return json.dumps({"op": "hello", "framing": framing})


def encode_hello_ack(framing: str) -> str:
    """The server-side negotiation acknowledgement payload."""
    return json.dumps({"kind": "hello", "framing": framing})


def negotiate(payload: dict, *, first: bool, allow_lp1: bool):
    """Decide one ``hello``'s outcome; returns ``(reply_line, new_mode)``.

    ``new_mode`` is ``"lp1"`` when the connection must switch framing
    (the reply is then the first lp1 frame), else ``None`` — the reply
    goes out in the current framing and nothing changes.  Shared by
    :class:`~repro.serve.GestureServer` and the cluster router's client
    side so both ends refuse identically.
    """
    from .protocol import encode_error

    framing = payload.get("framing")
    if not first:
        return (
            encode_error("late hello: framing is negotiated on the first line"),
            None,
        )
    if framing == "ndjson":
        return encode_hello_ack("ndjson"), None
    if framing == "lp1":
        if not allow_lp1:
            return encode_error("framing lp1 unsupported"), None
        return encode_hello_ack("lp1"), "lp1"
    return encode_error(f"unknown framing: {framing!r}"), None


class FrameReader:
    """Split a ``StreamReader`` into lp1 frames of at most ``max_frame``.

    The interface matches :class:`~repro.serve.lines.LineReader`:
    :meth:`next` returns ``(kind, payload)`` with kind one of ``"line"``
    (a complete frame's payload), ``"overflow"``, ``"garbage"``,
    ``"truncated"``, or ``"eof"``; :meth:`next_batch` returns every
    event decodable from what has already arrived, awaiting the stream
    only when the buffer holds no complete frame.  ``initial`` seeds the
    buffer with bytes a line reader had already consumed before the
    framing switch (a client may pipeline its first frames behind the
    hello line).
    """

    def __init__(self, reader, max_frame: int = DEFAULT_MAX_FRAME, initial: bytes = b""):
        self._reader = reader
        self.max_frame = max_frame
        self._buf = bytearray(initial)
        self._pos = 0  # consumed prefix of _buf (compacted when starved)
        self._skip = 0  # payload bytes of an oversized frame still to drop
        self._in_garbage = False  # already reported the current garbage run
        self._eof = False

    def _starved(self, pos: int):
        """Drop the consumed prefix once per starved scan, not per frame
        (a per-frame ``del buf[:n]`` memmoves the whole tail)."""
        if pos:
            del self._buf[:pos]
        self._pos = 0
        return None

    def _scan(self):
        """One event from the buffer alone, or None if more bytes needed."""
        buf = self._buf
        pos = self._pos
        while True:
            if self._skip:
                avail = len(buf) - pos
                drop = self._skip if self._skip < avail else avail
                pos += drop
                self._skip -= drop
                if self._skip:
                    return self._starved(pos)
            if pos >= len(buf):
                return self._starved(pos)
            if buf[pos] != FRAME_MAGIC:
                nxt = buf.find(_MAGIC_BYTE, pos + 1)
                pos = len(buf) if nxt < 0 else nxt
                if not self._in_garbage:
                    self._in_garbage = True
                    self._pos = pos
                    return "garbage", b""
                continue  # same garbage run, already reported
            self._in_garbage = False
            if len(buf) - pos < _HEADER:
                return self._starved(pos)
            length = int.from_bytes(buf[pos + 1 : pos + _HEADER], "big")
            if length > self.max_frame:
                pos += _HEADER
                self._skip = length
                # Consume whatever payload already arrived right away.
                avail = len(buf) - pos
                drop = self._skip if self._skip < avail else avail
                pos += drop
                self._skip -= drop
                self._pos = pos
                return "overflow", b""
            end = pos + _HEADER + length
            if len(buf) < end:
                return self._starved(pos)
            payload = bytes(buf[pos + _HEADER : end])
            self._pos = end
            return "line", payload

    def _at_eof(self):
        if self._skip or self._buf:
            # Mid-frame (header or payload) when the peer vanished.
            # _scan just returned starved, so _pos is 0 and the buffer
            # holds only unconsumed bytes.
            self._skip = 0
            self._buf.clear()
            return "truncated", b""
        return "eof", b""

    async def next(self):
        while True:
            event = self._scan()
            if event is not None:
                return event
            if self._eof:
                return self._at_eof()
            chunk = await self._reader.read(_CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)

    async def next_batch(self):
        """At least one event, plus everything else already buffered."""
        events = [await self.next()]
        if events[0][0] == "eof":
            return events
        while True:
            event = self._scan()
            if event is None:
                return events
            events.append(event)
