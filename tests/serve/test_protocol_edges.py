"""Malformed-input edges: the protocol decoder, the line framer, and
per-session error isolation over real TCP.

Companion to ``test_server.py``'s happy paths: every test here feeds
the server something broken — truncated JSON, unknown ops, missing
session ids, duplicate opens, a line bigger than the frame cap — and
asserts the damage stays confined to an error reply on the offending
stroke/line while everything else on the connection keeps working.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import (
    DEFAULT_MAX_LINE,
    GestureServer,
    LineReader,
    ProtocolError,
    decode_frame,
    decode_request,
)


# -- decoder edges (pure) -----------------------------------------------------


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('{"op": "down", "stroke": "s1", "x": 1,', "bad json"),  # truncated
        ("", "bad json"),
        ("[1, 2, 3]", "json object"),
        ('{"op": "merge", "t": 0.1}', "unknown op"),
        ('{"t": 0.1}', "unknown op"),  # no op at all
        ('{"op": "down", "x": 1, "y": 2, "t": 0.1}', "missing stroke"),
        ('{"op": "down", "stroke": "", "x": 1, "y": 2, "t": 0.1}', "missing stroke"),
        ('{"op": "down", "stroke": 7, "x": 1, "y": 2, "t": 0.1}', "missing stroke"),
        ('{"op": "down", "stroke": "s1", "x": 1, "y": 2}', "non-numeric t"),
        ('{"op": "down", "stroke": "s1", "x": 1, "y": 2, "t": "soon"}', "non-numeric t"),
        ('{"op": "down", "stroke": "s1", "y": 2, "t": 0.1}', "x/y"),
        ('{"op": "down", "stroke": "s1", "x": "a", "y": 2, "t": 0.1}', "x/y"),
        ('{"op": "tick"}', "non-numeric t"),  # tick requires t
        ('{"op": "sweep", "max_idle": "all"}', "max_idle"),
        ('{"op": "sweep", "max_idle": -1}', "max_idle"),
    ],
)
def test_decode_request_rejects(line, fragment):
    with pytest.raises(ProtocolError) as exc:
        decode_request(line)
    assert fragment in str(exc.value)


HUGE = "1" + "0" * 400  # an integer literal far beyond float range


@pytest.mark.parametrize(
    "line,message",
    [
        # A huge integer overflows float(): once an OverflowError that
        # escaped the decoder and killed the client's connection.
        ('{"op": "move", "stroke": "a", "x": %s, "y": 1, "t": 0}' % HUGE,
         "missing or non-numeric x/y"),
        ('{"op": "move", "stroke": "a", "x": 1, "y": -%s, "t": 0}' % HUGE,
         "missing or non-numeric x/y"),
        ('{"op": "tick", "t": %s}' % HUGE, "missing or non-numeric t"),
        ('{"op": "sweep", "max_idle": %s}' % HUGE, "non-numeric max_idle"),
        # Non-finite numbers: json.loads takes NaN/Infinity literals, and
        # 1e400 parses to inf.
        ('{"op": "down", "stroke": "a", "x": NaN, "y": 1, "t": 0}',
         "missing or non-numeric x/y"),
        ('{"op": "down", "stroke": "a", "x": 1, "y": -Infinity, "t": 0}',
         "missing or non-numeric x/y"),
        ('{"op": "up", "stroke": "a", "x": 1e400, "y": 1.0, "t": 0.5}',
         "missing or non-numeric x/y"),
        ('{"op": "move", "stroke": "a", "x": 1.0, "y": 1.0, "t": NaN}',
         "missing or non-numeric t"),
        ('{"op": "tick", "t": Infinity}', "missing or non-numeric t"),
        ('{"op": "tick", "t": 1e400}', "missing or non-numeric t"),
        ('{"op": "stats", "t": -Infinity}', "missing or non-numeric t"),
        ('{"op": "sweep", "max_idle": NaN}', "non-numeric max_idle"),
        ('{"op": "sweep", "max_idle": Infinity}', "non-numeric max_idle"),
        ('{"op": "sweep", "max_idle": 1e400}', "non-numeric max_idle"),
    ],
)
def test_decode_rejects_overflow_and_non_finite(line, message):
    with pytest.raises(ProtocolError) as exc:
        decode_request(line)
    assert str(exc.value) == message
    # The server's read decoder (canonical runs, same fallback) agrees.
    out, errors = [], []
    assert decode_frame(line.encode(), "c1/", out, errors) == 0
    assert out == [] and [str(exc) for _, exc in errors] == [message]


def test_decode_request_optional_t():
    # sweep and stats may omit t (clock no-op); tick may not.
    assert decode_request('{"op": "sweep"}').t == 0.0
    assert decode_request('{"op": "stats"}').t == 0.0
    assert decode_request('{"op": "sweep", "max_idle": 2}').max_idle == 2.0


# -- the bounded line framer (pure asyncio, no server) ------------------------


class _FeedReader:
    """A minimal StreamReader stand-in fed from a byte script."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    async def read(self, n):
        if not self._chunks:
            return b""
        return self._chunks.pop(0)


def _drain(reader: LineReader):
    async def run():
        events = []
        while True:
            kind, line = await reader.next()
            events.append((kind, line))
            if kind == "eof":
                return events

    return asyncio.run(run())


def test_line_reader_plain_lines_across_chunks():
    reader = LineReader(_FeedReader([b"ab", b"c\nde\nf", b"g\n"]), 64)
    assert _drain(reader) == [
        ("line", b"abc"),
        ("line", b"de"),
        ("line", b"fg"),
        ("eof", b""),
    ]


def test_line_reader_oversized_line_is_one_overflow():
    big = b"x" * 200
    reader = LineReader(_FeedReader([big, b"yyy\nok\n"]), 64)
    assert _drain(reader) == [
        ("overflow", b""),
        ("line", b"ok"),
        ("eof", b""),
    ]


def test_line_reader_oversized_complete_line_in_one_chunk():
    # The newline is already in the buffer: still an overflow, not a
    # 100KiB "line".
    reader = LineReader(_FeedReader([b"x" * 100 + b"\nok\n"]), 64)
    assert _drain(reader) == [
        ("overflow", b""),
        ("line", b"ok"),
        ("eof", b""),
    ]


def test_line_reader_unterminated_tail():
    reader = LineReader(_FeedReader([b"tail"]), 64)
    assert _drain(reader) == [("line", b"tail"), ("eof", b"")]
    # ...and an unterminated oversized tail is an overflow.
    reader = LineReader(_FeedReader([b"x" * 100]), 64)
    assert _drain(reader) == [("overflow", b""), ("eof", b"")]


@given(
    lines=st.lists(
        st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"")),
        max_size=20,
    ),
    tail=st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"")),
    max_line=st.integers(1, 20),
    blocks=st.booleans(),
    data=st.data(),
)
def test_line_reader_batches_equal_single_events(
    lines, tail, max_line, blocks, data
):
    # next_batch splits every buffered line at once (or hands them over
    # as one block no longer than max_line); the events must be exactly
    # the ones next() yields one at a time, however reads fall.
    stream = b"".join(line + b"\n" for line in lines) + tail
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(stream) - 1)))))
    bounds = [0, *[c for c in cuts if c < len(stream)], len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]

    async def batched():
        reader = LineReader(_FeedReader(chunks), max_line, blocks=blocks)
        events = []
        while not events or events[-1][0] != "eof":
            for kind, payload in await reader.next_batch():
                if kind == "block":
                    assert blocks and len(payload) <= max_line + 1
                    assert payload.endswith(b"\n")
                    events.extend(
                        ("line", line) for line in payload[:-1].split(b"\n")
                    )
                else:
                    events.append((kind, payload))
        return events

    assert asyncio.run(batched()) == _drain(
        LineReader(_FeedReader(chunks), max_line)
    )


def test_line_reader_batch_keeps_the_exact_cap():
    # A line of exactly max_line bytes is a line, one byte more is an
    # overflow — also for the lines a batch splits off after the first.
    async def batched():
        reader = LineReader(_FeedReader([b"ab\nabc\nabcd\nabc\n"]), 3)
        return await reader.next_batch()

    assert asyncio.run(batched()) == [
        ("line", b"ab"),
        ("line", b"abc"),
        ("overflow", b""),
        ("line", b"abc"),
    ]


# -- TCP error isolation ------------------------------------------------------


async def _tcp_scenario(recognizer, script, **server_kwargs):
    """Run ``script(reader, writer)`` against a live TCP server."""
    server = GestureServer(recognizer, **server_kwargs)
    await server.start()
    try:
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await script(reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await server.stop()


async def _readline(reader) -> dict:
    return json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))


def test_oversized_line_gets_error_and_connection_survives(
    directions_recognizer,
):
    # The regression this file exists for: a >64KiB unterminated line
    # used to blow up the reader task with LimitOverrunError and kill
    # the connection.  Now: one error reply, stroke state intact.
    async def script(reader, writer):
        writer.write(
            json.dumps(
                {"op": "down", "stroke": "s1", "x": 0, "y": 0, "t": 0.0}
            ).encode()
            + b"\n"
        )
        # 100 KiB of garbage on one line, bigger than DEFAULT_MAX_LINE.
        writer.write(b"z" * (DEFAULT_MAX_LINE + 40000) + b"\n")
        await writer.drain()
        error = await _readline(reader)
        # The open stroke is unharmed: finish it and get its decisions.
        for i in range(1, 10):
            writer.write(
                json.dumps(
                    {
                        "op": "move",
                        "stroke": "s1",
                        "x": i * 5.0,
                        "y": i * 5.0,
                        "t": i * 0.01,
                    }
                ).encode()
                + b"\n"
            )
        writer.write(
            json.dumps(
                {"op": "up", "stroke": "s1", "x": 45.0, "y": 45.0, "t": 0.1}
            ).encode()
            + b"\n"
        )
        await writer.drain()
        replies = [error]
        while replies[-1]["kind"] != "commit":
            replies.append(await _readline(reader))
        return replies

    replies = asyncio.run(_tcp_scenario(directions_recognizer, script))
    assert replies[0]["kind"] == "error"
    assert str(DEFAULT_MAX_LINE) in replies[0]["reason"]
    assert replies[-1]["kind"] == "commit"
    assert replies[-1]["stroke"] == "s1"


def test_malformed_lines_are_isolated_per_connection(directions_recognizer):
    async def script(reader, writer):
        bad = [
            b'{"op": "down", "stroke": "s1", "x": 1,',
            b'{"op": "merge", "t": 0.0}',
            b'{"op": "down", "x": 1, "y": 2, "t": 0.0}',
        ]
        for line in bad:
            writer.write(line + b"\n")
        await writer.drain()
        errors = [await _readline(reader) for _ in bad]
        # The connection still speaks protocol afterwards.
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        stats = await _readline(reader)
        return errors, stats

    errors, stats = asyncio.run(_tcp_scenario(directions_recognizer, script))
    assert [e["kind"] for e in errors] == ["error"] * 3
    assert "bad json" in errors[0]["reason"]
    assert "unknown op" in errors[1]["reason"]
    assert "missing stroke" in errors[2]["reason"]
    assert stats["kind"] == "stats"


def test_duplicate_down_errors_only_the_offender(directions_recognizer):
    async def script(reader, writer):
        ops = [
            {"op": "down", "stroke": "a", "x": 0, "y": 0, "t": 0.0},
            {"op": "down", "stroke": "b", "x": 9, "y": 9, "t": 0.0},
            {"op": "down", "stroke": "a", "x": 1, "y": 1, "t": 0.01},  # dup
        ]
        for i in range(1, 8):
            t = i * 0.01
            ops.append({"op": "move", "stroke": "a", "x": i * 5.0, "y": 0, "t": t})
            ops.append({"op": "move", "stroke": "b", "x": 9 - i, "y": 9, "t": t})
        ops.append({"op": "up", "stroke": "a", "x": 35.0, "y": 0, "t": 0.08})
        ops.append({"op": "up", "stroke": "b", "x": 2.0, "y": 9, "t": 0.08})
        for payload in ops:
            writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        per_stroke: dict = {}
        commits = 0
        while commits < 2:
            reply = await _readline(reader)
            per_stroke.setdefault(reply["stroke"], []).append(reply)
            if reply["kind"] == "commit":
                commits += 1
        return per_stroke

    per_stroke = asyncio.run(_tcp_scenario(directions_recognizer, script))
    a_kinds = [r["kind"] for r in per_stroke["a"]]
    b_kinds = [r["kind"] for r in per_stroke["b"]]
    # The duplicate down errored on "a"...
    assert "error" in a_kinds
    assert per_stroke["a"][a_kinds.index("error")]["reason"] == "duplicate down"
    # ...but both sessions still recognized and committed.
    assert a_kinds[-1] == "commit" and b_kinds[-1] == "commit"
    assert "error" not in b_kinds


def test_overflowing_number_gets_error_and_connection_survives(
    directions_recognizer,
):
    # Before the fix the decoder raised OverflowError, which the
    # connection handler does not catch: the client lost its connection
    # and every stroke on it.
    async def script(reader, writer):
        def send(payload):
            writer.write(json.dumps(payload).encode() + b"\n")

        send({"op": "down", "stroke": "s1", "x": 0.0, "y": 0.0, "t": 0.0})
        writer.write(
            b'{"op": "move", "stroke": "s1", "x": %s, "y": 1, "t": 0}\n'
            % HUGE.encode()
        )
        writer.write(b'{"op": "tick", "t": %s}\n' % HUGE.encode())
        writer.write(b'{"op": "move", "stroke": "s1", "x": NaN, "y": 1, "t": 0}\n')
        await writer.drain()
        errors = [await _readline(reader) for _ in range(3)]
        for i in range(1, 10):
            t = i * 0.01
            send({"op": "move", "stroke": "s1", "x": i * 5.0, "y": i * 5.0, "t": t})
        send({"op": "up", "stroke": "s1", "x": 45.0, "y": 45.0, "t": 0.1})
        await writer.drain()
        replies = [await _readline(reader)]
        while replies[-1]["kind"] != "commit":
            replies.append(await _readline(reader))
        return errors, replies

    errors, replies = asyncio.run(_tcp_scenario(directions_recognizer, script))
    assert [e["reason"] for e in errors] == [
        "missing or non-numeric x/y",
        "missing or non-numeric t",
        "missing or non-numeric x/y",
    ]
    assert replies[-1]["kind"] == "commit"
    assert replies[-1]["stroke"] == "s1"
    # down + nine moves: the rejected lines never reached the stroke.
    assert replies[-1]["total_points"] == 10
