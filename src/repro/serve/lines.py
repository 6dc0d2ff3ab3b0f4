"""Bounded NDJSON line framing over an asyncio stream.

``StreamReader.readline`` raises ``LimitOverrunError``/``ValueError``
when a line exceeds the stream limit, *after* which the unread bytes of
the oversized line are still sitting in the buffer — a naive handler
either kills the connection or reparses garbage.  :class:`LineReader`
owns the framing instead: it reads raw chunks, splits complete lines up
to a byte cap, and when a line overruns the cap it swallows the rest of
that line (however long) and reports a single ``"overflow"`` event, so
the connection survives and the next line parses cleanly.

Used by :class:`~repro.serve.GestureServer` connections and by the
cluster router's client and worker links — every socket that speaks the
protocol frames it the same way.
"""

from __future__ import annotations

__all__ = ["LineReader"]

_CHUNK = 8192


class LineReader:
    """Split a ``StreamReader`` into lines of at most ``max_line`` bytes.

    :meth:`next` returns ``(kind, payload)`` where ``kind`` is:

    * ``"line"`` — one complete line (without its newline);
    * ``"overflow"`` — a line exceeded ``max_line``; its bytes were
      discarded up to and including the terminating newline (one event
      per oversized line, however many chunks it spanned);
    * ``"eof"`` — the peer closed the stream.  A non-empty unterminated
      tail is returned as a final ``"line"`` first, matching
      ``readline``'s end-of-stream behaviour.

    With ``blocks``, :meth:`next_batch` may also return ``"block"``:
    complete lines, each *with* its newline, to decode at once.
    """

    def __init__(self, reader, max_line: int = 65536, blocks: bool = False):
        self._reader = reader
        self.max_line = max_line
        self.blocks = blocks
        self._buf = bytearray()
        self._pos = 0  # consumed prefix of _buf (compacted lazily)
        self._scanned = 0  # no b"\n" between _pos and this offset
        self._skipping = False  # inside an oversized line's remainder
        self._eof = False

    def _scan(self) -> tuple[str, bytes] | None:
        """One event from the buffer alone, or ``None`` if starved.

        Consumed lines advance ``_pos`` instead of deleting from the
        buffer — a per-line ``del buf[:n]`` memmoves the whole tail, so
        a read chunk holding N lines would cost O(N·chunk) in copying.
        The consumed prefix is dropped once per starved scan.
        """
        buf = self._buf
        newline = buf.find(b"\n", self._scanned)
        if newline < 0:
            if self._pos:
                del buf[: self._pos]
                self._pos = 0
            self._scanned = len(buf)
            return None
        line = bytes(buf[self._pos : newline])
        self._pos = newline + 1
        self._scanned = self._pos
        if self._skipping:
            self._skipping = False
            return "overflow", b""
        if len(line) > self.max_line:
            return "overflow", b""
        return "line", line

    def take_buffer(self) -> bytes:
        """Hand over unconsumed bytes (for a framing switch) and reset."""
        data = bytes(self._buf[self._pos :])
        self._buf.clear()
        self._pos = 0
        self._scanned = 0
        return data

    async def next(self) -> tuple[str, bytes]:
        while True:
            event = self._scan()
            if event is not None:
                return event
            self._scanned = len(self._buf)
            if self._skipping:
                # Still inside the oversized line: drop what we have.
                self._buf.clear()
                self._scanned = 0
            elif len(self._buf) > self.max_line:
                self._buf.clear()
                self._scanned = 0
                self._skipping = True
            if self._eof:
                if self._skipping:
                    self._skipping = False
                    return "overflow", b""
                if self._buf:
                    line = bytes(self._buf)
                    self._buf.clear()
                    return "line", line
                return "eof", b""
            chunk = await self._reader.read(_CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)

    async def next_batch(self) -> list[tuple[str, bytes]]:
        """At least one event, plus every further complete line already
        buffered — lets a consumer process a whole read's worth of lines
        without re-entering the event loop per line.  With ``blocks``,
        they come as one ``"block"`` whenever it is no longer than
        ``max_line``, so that no line in it can overflow."""
        events = [await self.next()]
        kind, first = events[0]
        if kind == "eof":
            return events
        # ``next`` only returns outside an oversized line, so every
        # complete line left in the buffer splits off in one C call.
        buf = self._buf
        end = buf.rfind(b"\n", self._pos)
        if end < 0:
            return events
        max_line = self.max_line
        if self.blocks and kind == "line":
            start = self._pos - len(first) - 1  # ``next`` left it in place
            if end - start <= max_line:
                self._pos = self._scanned = end + 1
                return [("block", bytes(buf[start : end + 1]))]
        for line in bytes(buf[self._pos : end]).split(b"\n"):
            events.append(
                ("line", line) if len(line) <= max_line else ("overflow", b"")
            )
        self._pos = self._scanned = end + 1
        return events
