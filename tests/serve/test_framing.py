"""lp1 framing conformance: round-trips, damage, negotiation.

Two layers:

* :class:`~repro.serve.FrameReader` unit properties — any payload
  (embedded newlines, > 64 KiB) round-trips; truncated, oversized, and
  garbage-prefixed streams produce exactly one error event each and
  leave the reader in sync;
* a live :class:`~repro.serve.GestureServer` — negotiation outcomes
  (ack, refusal, unknown, late), damaged frames answered with protocol
  errors while the connection survives, and reply *payloads* identical
  between an NDJSON and an lp1 connection.

The cluster router speaks NDJSON on both of its hops, so no cluster
test lives here.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    DEFAULT_MAX_FRAME,
    DEFAULT_MAX_LINE,
    FrameReader,
    GestureServer,
    encode_frame,
    encode_frames,
    encode_hello,
)

from .test_server import _stroke_requests

# -- unit: FrameReader round-trips and damage ------------------------------


def _events(
    data: bytes, *, max_frame: int = DEFAULT_MAX_FRAME, initial: bytes = b""
) -> list:
    """Decode ``data`` (optionally seeded with ``initial``) to events."""

    async def collect():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = FrameReader(reader, max_frame, initial=initial)
        out = []
        while True:
            event = await frames.next()
            out.append(event)
            if event[0] == "eof":
                return out

    return asyncio.run(collect())


@settings(deadline=None, max_examples=60)
@given(payloads=st.lists(st.binary(min_size=0, max_size=300), max_size=8))
def test_any_payloads_round_trip(payloads):
    events = _events(encode_frames(payloads))
    assert events == [("line", p) for p in payloads] + [("eof", b"")]


def test_large_payload_with_newlines_round_trips():
    # Over the NDJSON line cap and full of newlines: exactly what lp1
    # exists to carry, impossible on the line-framed wire.
    payload = (b'{"pad": "' + b"x\n" * 40_000 + b'"}')
    assert len(payload) > DEFAULT_MAX_LINE
    events = _events(encode_frame(payload))
    assert events == [("line", payload), ("eof", b"")]


def test_truncated_frame_reports_once_then_eof():
    whole = encode_frame(b'{"op": "tick", "t": 1}')
    events = _events(whole[:-5])
    assert events == [("truncated", b""), ("eof", b"")]


def test_truncated_header_reports_truncated():
    events = _events(b"\xa7\x00\x00")  # magic + partial length
    assert events == [("truncated", b""), ("eof", b"")]


def test_garbage_prefix_is_one_event_then_resync():
    # A garbage run (no 0xA7 anywhere) costs exactly one event; the
    # reader resynchronises on the next magic byte.
    data = b"NOT A FRAME" + encode_frame(b"ok") + b"??" + encode_frame(b"ok2")
    events = _events(data)
    assert events == [
        ("garbage", b""),
        ("line", b"ok"),
        ("garbage", b""),
        ("line", b"ok2"),
        ("eof", b""),
    ]


def test_oversized_frame_is_skipped_and_stream_stays_in_sync():
    data = encode_frame(b"z" * 1000) + encode_frame(b"after")
    events = _events(data, max_frame=64)
    assert events == [("overflow", b""), ("line", b"after"), ("eof", b"")]


def test_initial_buffer_is_consumed_before_the_stream():
    # Frames pipelined behind the hello line arrive via `initial`.
    events = _events(encode_frame(b"second"), initial=encode_frame(b"first"))
    assert events == [
        ("line", b"first"),
        ("line", b"second"),
        ("eof", b""),
    ]


# -- server: negotiation and survival --------------------------------------


def _encode_request(req) -> str:
    payload = {"op": req.op, "t": req.t}
    if req.op != "tick":
        payload.update(stroke=req.stroke, x=req.x, y=req.y)
    return json.dumps(payload)


def _gesture_payloads(stroke: str) -> list:
    return [_encode_request(r).encode() for r in _stroke_requests(stroke)]


async def _read_frames_until(frames: FrameReader, kind: str, limit: int = 50):
    replies = []
    for _ in range(limit):
        event, payload = await asyncio.wait_for(frames.next(), timeout=5.0)
        assert event == "line", (event, payload)
        replies.append(payload.decode())
        if json.loads(payload)["kind"] == kind:
            return replies
    raise AssertionError(f"no {kind!r} within {limit} frames")


async def _read_lines_until(reader, kind: str, limit: int = 50):
    replies = []
    for _ in range(limit):
        raw = await asyncio.wait_for(reader.readline(), timeout=5.0)
        assert raw, f"connection closed while waiting for {kind}"
        replies.append(raw.decode().rstrip("\n"))
        if json.loads(raw)["kind"] == kind:
            return replies
    raise AssertionError(f"no {kind!r} within {limit} lines")


def _with_server(scenario, recognizer, **server_kw):
    async def run():
        server = GestureServer(recognizer, **server_kw)
        await server.start()
        try:
            return await scenario(*server.address)
        finally:
            await server.stop()

    return asyncio.run(run())


def test_lp1_and_ndjson_clients_get_identical_payloads(directions_recognizer):
    async def scenario(host, port):
        # NDJSON connection.
        reader, writer = await asyncio.open_connection(host, port)
        for payload in _gesture_payloads("s"):
            writer.write(payload + b"\n")
        await writer.drain()
        nd = await _read_lines_until(reader, "commit")
        writer.close()
        await writer.wait_closed()
        # lp1 connection, same ops as frames.
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((encode_hello("lp1") + "\n").encode())
        writer.write(encode_frames(_gesture_payloads("s2")))
        await writer.drain()
        frames = FrameReader(reader)
        kind, ack = await frames.next()
        assert kind == "line"
        assert json.loads(ack) == {"kind": "hello", "framing": "lp1"}
        lp = await _read_frames_until(frames, "commit")
        writer.close()
        await writer.wait_closed()
        return nd, lp

    nd, lp = _with_server(scenario, directions_recognizer)
    # Reply payloads are identical modulo the stroke id each client used.
    assert [l.replace('"s"', '"X"') for l in nd] == [
        l.replace('"s2"', '"X"') for l in lp
    ]


def test_ndjson_hello_acks_and_stays_ndjson(directions_recognizer):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((encode_hello("ndjson") + "\n").encode())
        for payload in _gesture_payloads("s"):
            writer.write(payload + b"\n")
        await writer.drain()
        replies = await _read_lines_until(reader, "commit")
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _with_server(scenario, directions_recognizer)
    assert json.loads(replies[0]) == {"kind": "hello", "framing": "ndjson"}
    assert json.loads(replies[-1])["kind"] == "commit"


def test_unknown_framing_is_refused_connection_survives(directions_recognizer):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "hello", "framing": "zz"}\n')
        for payload in _gesture_payloads("s"):
            writer.write(payload + b"\n")
        await writer.drain()
        replies = await _read_lines_until(reader, "commit")
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _with_server(scenario, directions_recognizer)
    first = json.loads(replies[0])
    assert first["kind"] == "error"
    assert first["reason"] == "unknown framing: 'zz'"
    assert json.loads(replies[-1])["kind"] == "commit"


def test_lp1_refused_when_disabled(directions_recognizer):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((encode_hello("lp1") + "\n").encode())
        for payload in _gesture_payloads("s"):
            writer.write(payload + b"\n")
        await writer.drain()
        replies = await _read_lines_until(reader, "commit")
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _with_server(scenario, directions_recognizer, allow_lp1=False)
    first = json.loads(replies[0])
    assert first["kind"] == "error"
    assert first["reason"] == "framing lp1 unsupported"
    assert json.loads(replies[-1])["kind"] == "commit"


def test_late_hello_is_rejected_framing_unchanged(directions_recognizer):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        payloads = _gesture_payloads("s")
        writer.write(payloads[0] + b"\n")
        # Mid-connection renegotiation attempt: must be refused, and the
        # connection must continue in NDJSON.
        writer.write((encode_hello("lp1") + "\n").encode())
        for payload in payloads[1:]:
            writer.write(payload + b"\n")
        await writer.drain()
        replies = await _read_lines_until(reader, "commit")
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _with_server(scenario, directions_recognizer)
    errors = [json.loads(r) for r in replies if json.loads(r)["kind"] == "error"]
    assert len(errors) == 1
    assert errors[0]["reason"] == (
        "late hello: framing is negotiated on the first line"
    )
    assert json.loads(replies[-1])["kind"] == "commit"


def test_damaged_frames_get_errors_connection_survives(directions_recognizer):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((encode_hello("lp1") + "\n").encode())
        await writer.drain()
        frames = FrameReader(reader)
        kind, ack = await frames.next()
        assert json.loads(ack)["framing"] == "lp1"
        # Garbage where a magic byte should be...
        writer.write(b"GARBAGE BYTES")
        # ...then an oversized frame (past the server's max_frame)...
        writer.write(b"\xa7" + (200).to_bytes(4, "big") + b"z" * 200)
        # ...then a healthy gesture.
        writer.write(encode_frames(_gesture_payloads("ok")))
        await writer.drain()
        replies = await _read_frames_until(frames, "commit")
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _with_server(scenario, directions_recognizer, max_frame=64)
    errors = [json.loads(r)["reason"] for r in replies if json.loads(r)["kind"] == "error"]
    assert errors == ["bad frame magic", "frame exceeds 64 bytes"]
    assert json.loads(replies[-1])["kind"] == "commit"


def test_truncated_lp1_client_does_not_wedge_the_server(directions_recognizer):
    async def scenario(host, port):
        # First client negotiates lp1 and dies mid-frame.
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((encode_hello("lp1") + "\n").encode())
        writer.write(encode_frame(b'{"op": "tick", "t": 1}')[:-3])
        await writer.drain()
        frames = FrameReader(reader)
        await frames.next()  # the hello ack
        writer.close()
        await writer.wait_closed()
        # The server must still serve a fresh connection.
        reader, writer = await asyncio.open_connection(host, port)
        for payload in _gesture_payloads("s"):
            writer.write(payload + b"\n")
        await writer.drain()
        replies = await _read_lines_until(reader, "commit")
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _with_server(scenario, directions_recognizer)
    assert json.loads(replies[-1])["kind"] == "commit"
