"""The router's op canonicalizer against the ``json`` oracle, and the
non-finite edge through a live cluster.

The router rebuilds every ``down``/``move``/``up`` line its op grammar
takes in the canonical shape, and sends everything else through
``json``.  Either way the worker must see what the client meant:

* for every op line the router forwards, ``decode_request`` of the
  forwarded line equals ``decode_request`` of the client's line with
  the stroke namespaced;
* for every line it refuses, the client gets ``decode_request``'s
  error bytes and the router keeps no session record.

The property drives the router's own batch loop (no sockets); the
cluster test compares live reply bytes with a direct worker's.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Cluster, Router
from repro.cluster.router import _Client, _Mailbox
from repro.serve import GestureServer, ProtocolError, decode_request
from repro.serve.protocol import JSON_NUMBER, encode_error, op_line_pattern

from ..serve.test_canonical_wire import NUMBER_TEXTS
from .inproc import InProcessLauncher

_CANONICAL = re.compile(op_line_pattern(JSON_NUMBER))


def _route(line: str):
    """Route one client line; returns (forwarded, replies, router)."""
    router = Router(["w0"])
    link = router.links["w0"]
    link.state = "up"
    link.queue = _Mailbox()
    client = _Client("k1", 1024)
    pending, _ = router._route_batch(client, [("line", line.encode())], 0)
    assert pending is None
    return link.queue.items, client.outbox.items, router


def _check(line: str) -> None:
    forwarded, replies, router = _route(line)
    try:
        request = decode_request(line)
    except ProtocolError as exc:
        assert replies == [encode_error(str(exc))], line
        assert forwarded == [] and router.sessions == {}, line
        return
    assert request.op in ("down", "move", "up")
    assert replies == [], line
    assert len(forwarded) == 1, line
    out = forwarded[0]
    request.stroke = "k1:" + request.stroke
    assert decode_request(out) == request, (line, out)
    # The canonical shape: json.dumps's key order and separators (an
    # escaped stroke is json.dumps's own escaping).
    assert _CANONICAL.match(out) or out == json.dumps(json.loads(out)), out
    assert list(router.sessions) == [request.stroke]


# -- pinned cases --------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        '{"op": "down", "stroke": "s1", "x": 1.5, "y": -2.0, "t": 0.25}',
        '{"op":"down","stroke":"s1","x":1.5,"y":-2.0,"t":0.25}',
        '{ "op" : "up" ,\t"stroke":"s1" ,"x":1,"y":2 , "t":3 }',
        '{"op":"move","stroke":"s1","x":-0,"y":-0.0,"t":1E5}',
        '{"op": "move", "stroke": "s1", "x": 1e308, "y": 1e308, "t": 0.5}',
        '{"t": 0.5, "op": "down", "stroke": "s1", "x": 1.0, "y": 2.0}',
        '{"op": "down", "stroke": "s\\"q", "x": 1.0, "y": 2.0, "t": 0.5}',
        '{"op": "down", "stroke": "é", "x": 1.0, "y": 2.0, "t": 0.5}',
        '{"op":\x0b"down","stroke":"s1","x":1.0,"y":2.0,"t":0.5}',
        '{"op":"down",\x0c"stroke":"s1","x":1.0,"y":2.0,"t":0.5}',
        '{"op": "down", "stroke": "s1", "x": 1e400, "y": 2.0, "t": 0.5}',
        '{"op":"down","stroke":"s1","x":1.0,"y":-1e400,"t":0.5}',
        '{"op": "down", "stroke": "s1", "x": 1.0, "y": 2.0, "t": NaN}',
        '{"op": "down", "stroke": "s1", "x": "1", "y": 2.0, "t": 0.5}',
        '{"op": "down", "stroke": "", "x": 1.0, "y": 2.0, "t": 0.5}',
        '{"op": "down", "stroke": "s1", "x": 1., "y": 2.0, "t": 0.5}',
    ],
)
def test_pinned_lines_match_the_oracle(line):
    _check(line)


def test_grammar_uses_no_python_311_only_regex_syntax():
    # Possessive quantifiers and atomic groups compile only from Python
    # 3.11; the package supports 3.9, and these patterns compile at
    # import time.
    from repro.serve.protocol import JSON_FLOAT, JSON_WS, SAFE_CHAR

    for pattern in (
        JSON_NUMBER, JSON_FLOAT, JSON_WS, SAFE_CHAR,
        op_line_pattern(JSON_NUMBER, JSON_WS),
    ):
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern


def test_invalid_utf8_gets_the_oracle_error():
    bline = b'{"op": "down", "stroke": "\xff", "x": 1.0, "y": 2.0, "t": 0.5}'
    router = Router(["w0"])
    client = _Client("k1", 1024)
    router._route_batch(client, [("line", bline)], 0)
    with pytest.raises(ProtocolError) as exc:
        decode_request(bline)
    assert client.outbox.items == [encode_error(str(exc.value))]
    assert router.sessions == {}


# -- generated lines -------------------------------------------------------------

# JSON whitespace (no newline: it ends the line before the router sees
# it), and the two characters ``\s`` takes and JSON does not.
_WS = st.sampled_from(["", "", "", " ", "  ", "\t", "\r", " \t "])
_NOT_WS = st.sampled_from(["\x0b", "\x0c"])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-(10**25), max_value=10**25).map(str),
    st.sampled_from(NUMBER_TEXTS),
)
_STROKES = st.one_of(
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        min_size=1,
        max_size=6,
    ).map(json.dumps),
    st.text(max_size=4).map(json.dumps),  # \u escapes, empty
    st.sampled_from(['"a\\"b"', '"a\\\\b"', '"a\\/b"', '"\\u0041"']),
)


@st.composite
def _op_lines(draw) -> str:
    fields = [
        ("op", json.dumps(draw(st.sampled_from(["down", "move", "up"])))),
        ("stroke", draw(_STROKES)),
        ("x", draw(_NUMBERS)),
        ("y", draw(_NUMBERS)),
        ("t", draw(_NUMBERS)),
    ]
    if draw(st.integers(0, 7)) == 0:
        fields = draw(st.permutations(fields))
    ws = [draw(_WS) for _ in range(4 * len(fields))]
    if draw(st.integers(0, 7)) == 0:
        ws[draw(st.integers(0, len(ws) - 1))] = draw(_NOT_WS)
    parts = [
        f'{ws[4 * i]}"{k}"{ws[4 * i + 1]}:{ws[4 * i + 2]}{v}{ws[4 * i + 3]}'
        for i, (k, v) in enumerate(fields)
    ]
    return "{" + ",".join(parts) + "}"


@given(st.lists(_op_lines(), min_size=1, max_size=40))
def test_router_canonicalizes_like_the_json_oracle(lines):
    for line in lines:
        _check(line)


# -- the non-finite edge through a live cluster ----------------------------------


def _non_finite_lines() -> list[str]:
    lines = []
    for value in ("1e400", "-1e400", "NaN", "Infinity", "-Infinity"):
        for field in ("x", "y", "t"):
            fields = {"x": "1.0", "y": "2.0", "t": "0.5", field: value}
            stroke = f"n{len(lines)}"
            lines.append(
                '{"op": "down", "stroke": "%s", "x": %s, "y": %s, "t": %s}'
                % (stroke, fields["x"], fields["y"], fields["t"])
            )
            lines.append(
                '{"op":"down","stroke":"%s","x":%s,"y":%s,"t":%s}'
                % (stroke + "c", fields["x"], fields["y"], fields["t"])
            )
    return lines


async def _ask(host: str, port: int, lines: list[str]) -> list[bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(("\n".join(lines) + "\n").encode())
        await writer.drain()
        return [
            await asyncio.wait_for(reader.readline(), 10) for _ in lines
        ]
    finally:
        writer.close()
        await writer.wait_closed()


def test_non_finite_ops_get_the_direct_workers_bytes(cluster_recognizer):
    lines = _non_finite_lines()

    async def run():
        server = GestureServer(cluster_recognizer, port=0)
        await server.start()
        try:
            direct = await _ask(*server.address, lines)
        finally:
            await server.stop()
        async with Cluster(InProcessLauncher(cluster_recognizer, 2)) as cluster:
            routed = await _ask(*cluster.address, lines)
            return direct, routed, dict(cluster.router.sessions)

    direct, routed, sessions = asyncio.run(run())
    assert routed == direct
    assert all(json.loads(r)["kind"] == "error" for r in routed)
    assert sessions == {}
