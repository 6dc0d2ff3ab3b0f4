"""The server's read decoder: one regex pass per socket read.

``decode_block`` turns a read's complete lines into pool-ready runs
(consecutive canonical ``down``/``move``/``up`` lines with finite values
and one ``t`` text) and ``Request``s for everything else.  Whatever the
block, its items, flattened, must equal the server's per-line rule —
strip, skip a blank line, else ``decode_request`` — line for line and in
order, and no run may join two ``t`` texts (``1.0`` and ``1e0`` are
equal floats from different lines).  Around it: a read holding an
over-cap line still reports one overflow, the inbox still counts ops,
and the per-op paths (faults, the traffic journal) still see one
``Request`` per op.  (``LineReader``'s blocks are held equal to its
single events in ``test_protocol_edges.py``.)
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import GestureServer, Request, decode_request
from repro.serve.protocol import decode_block
from repro.serve.server import _Inbox

from .test_canonical_wire import PREFIX, _lines, _oracle, flatten
from .test_read_chunking import _ChunkReader, _Collector

# -- decode_block against the per-line oracle ------------------------------------

_T_TEXTS = ["1.0", "1e0", "10e-1", "0.5", "0.0", "-0.0", "0", "-0", "1e400", "NaN"]
_XY_TEXTS = ["1.5", "-0.0", "2", "-2.5e-3", "1e308", "1e400", "Infinity"]
_BLANKS = [b"", b" ", b"\t", b"\r", b"\x0b", b"\x0c", b" \r\x0b"]


@st.composite
def _canonical(draw) -> bytes:
    """A canonical op line (or nearly: integer literals, non-finite values)
    from few enough texts that neighbours share their ``t``."""
    return (
        '{"op": "%s", "stroke": "%s", "x": %s, "y": %s, "t": %s}'
        % (
            draw(st.sampled_from(["down", "move", "up"])),
            draw(st.sampled_from(["a", "b", "s 1"])),
            draw(st.sampled_from(_XY_TEXTS)),
            draw(st.sampled_from(_XY_TEXTS)),
            draw(st.sampled_from(_T_TEXTS)),
        )
    ).encode()


_BLOCK_LINES = st.one_of(
    _canonical(),
    _canonical(),
    _canonical(),
    _lines(),
    st.sampled_from(_BLANKS),
    st.tuples(
        st.sampled_from(_BLANKS), _canonical(), st.sampled_from(_BLANKS)
    ).map(b"".join),
    st.sampled_from(
        [
            b"\xff\xfe",
            b'{"op": "move", "stroke": "\xc3\xa9", "x": 1.0, "y": 2.0, "t": 1.0}',
            b'{"op": "tick", "t": 1e0}',
            b'{"op":"move","stroke":"a","x":1.0,"y":2.0,"t":1.0}',
        ]
    ),
).map(lambda line: line.replace(b"\n", b""))


def _t_text(line: bytes) -> bytes:
    return line.rsplit(b'"t": ', 1)[1][:-1]


def _check_block(lines: list[bytes]) -> list:
    out, errors = [], []
    count = decode_block(
        b"".join(line + b"\n" for line in lines), PREFIX, out, errors
    )
    expected = [outcome for line in lines for outcome in _oracle(line)]
    flat = flatten(out)
    assert flat == [o for o in expected if o[0] == "ok"]
    assert [("error", str(exc)) for _, exc in errors] == [
        o for o in expected if o[0] == "error"
    ]
    assert count == len(flat)
    # Every run op back to its line: one t text per run.
    accepted = [line for line in lines if [o[0] for o in _oracle(line)] == ["ok"]]
    at = 0
    for item in out:
        if item.__class__ is tuple:
            t, ops = item
            assert ops, "a run is never empty"
            assert len({_t_text(line) for line in accepted[at : at + len(ops)]}) == 1
            at += len(ops)
        else:
            at += 1
    return out


@given(st.lists(_BLOCK_LINES, max_size=40))
def test_block_equals_per_line_decode_request(lines):
    _check_block(lines)


def test_runs_split_on_t_text_not_value():
    line = '{"op": "move", "stroke": "%s", "x": 1.0, "y": 2.0, "t": %s}'
    texts = ["1.0", "1.0", "1e0", "-0.0", "0.0", "1.0"]
    lines = [(line % (k, t)).encode() for k, t in zip("abcdef", texts)]
    out = _check_block(lines)
    assert [(repr(t), [op[1] for op in ops]) for t, ops in out] == [
        ("1.0", ["c1/a", "c1/b"]),
        ("1.0", ["c1/c"]),
        ("-0.0", ["c1/d"]),
        ("0.0", ["c1/e"]),
        ("1.0", ["c1/f"]),
    ]


def test_requests_and_errors_between_ops_end_or_keep_a_run():
    op = b'{"op": "move", "stroke": "%s", "x": 1.0, "y": 2.0, "t": 0.5}'
    lines = [
        op % b"a",
        b'{"op": "tick", "t": 0.5}',  # a request: the next op opens a run
        op % b"b",
        b"not json",  # an error: no item, so the run goes on
        b"   ",
        op % b"c",
        b'{"op": "move", "stroke": "d", "x": 1, "y": 2.0, "t": 0.5}',
        op % b"e",
    ]
    out = _check_block(lines)
    kinds = [
        [o[1] for o in item[1]] if item.__class__ is tuple else item.op
        for item in out
    ]
    assert kinds == [["c1/a"], "tick", ["c1/b", "c1/c"], "move", ["c1/e"]]


# -- a read with an over-cap line -------------------------------------------------


def _serve(recognizer, chunks, **kwargs) -> list[dict]:
    async def run():
        server = GestureServer(recognizer, **kwargs)
        await server.start()
        try:
            writer = _Collector()
            await server._handle_connection(
                _ChunkReader(chunks, writer.done), writer
            )
            return [json.loads(line) for line in writer.lines]
        finally:
            await server.stop()

    return asyncio.run(run())


def _op(op: str, stroke: str, x: float, t: float) -> bytes:
    return json.dumps(
        {"op": op, "stroke": stroke, "x": x, "y": 2.0, "t": t}
    ).encode()


@pytest.mark.parametrize("split", [False, True])
def test_over_cap_line_in_a_read_is_one_overflow(directions_recognizer, split):
    lines = [
        _op("down", "s1", 0.0, 0.0),
        b'{"op": "move", "stroke": "s1", "x": ' + b"1" * 300 + b", ...",
        _op("move", "s1", 1.0, 0.01),
        _op("up", "s1", 2.0, 0.02),
        b'{"op": "stats"}',
    ]
    stream = b"\n".join(lines) + b"\n"
    chunks = [stream[:100], stream[100:]] if split else [stream]
    replies = _serve(directions_recognizer, chunks, max_line=200)
    errors = [r for r in replies if r["kind"] == "error"]
    assert errors == [
        {"kind": "error", "stroke": "", "reason": "line exceeds 200 bytes", "t": 0.0}
    ]
    assert [r["kind"] for r in replies if r["stroke"] == "s1"][-1] == "commit"


# -- the inbox and the per-op paths ------------------------------------------------


def test_inbox_counts_ops_across_run_items():
    async def run():
        inbox = _Inbox(maxsize=4)
        ops = [("move", "c1/a", 1.0, 2.0), ("move", "c1/b", 1.0, 2.0)]
        inbox.put_nowait((None, [(0.5, ops), (0.6, ops[:1])], 3))  # 2 runs
        assert inbox.ops == 3 and not inbox.full()
        inbox.put_nowait((None, (Request("tick", 0.6),)))  # Channel.send
        assert inbox.ops == 4 and inbox.full()
        with pytest.raises(asyncio.QueueFull):
            inbox.put_nowait((None, [(0.7, ops)], 2))
        inbox.get_nowait()
        assert inbox.ops == 1 and not inbox.full()

    asyncio.run(run())


class _SpyInjector:
    """A fault injector that delivers everything and notes what it saw."""

    def __init__(self):
        self.seen: list[tuple[str | None, Request]] = []

    def apply(self, tick, ops, *, key=None):
        self.seen.extend((key(item), item[1]) for item in ops)
        return list(ops), []


def _traffic() -> tuple[list[bytes], list[Request]]:
    lines = [
        _op("down", "a", 1.0, 0.0),
        _op("down", "b", 1.5, 0.0),
        b'{"op":"move","stroke":"a","x":2.0,"y":2.0,"t":0.01}',  # compact
        _op("move", "b", 2.5, 0.01),
        b'{"op": "tick", "t": 0.01}',
        _op("up", "a", 3.0, 0.02),
        _op("up", "b", 3.5, 0.02),
        b'{"op": "stats"}',
    ]
    return lines, [decode_request(line) for line in lines]


def test_fault_injector_sees_per_op_requests(directions_recognizer):
    lines, requests = _traffic()
    spy = _SpyInjector()
    _serve(directions_recognizer, [b"\n".join(lines) + b"\n"], fault_injector=spy)
    assert [r for _, r in spy.seen] == requests
    keys = [key for key, _ in spy.seen]
    assert keys == [
        None if r.op in ("tick", "stats") else "c1/" + r.stroke for r in requests
    ]


def test_record_journals_every_op(directions_recognizer):
    lines, requests = _traffic()
    journal = io.StringIO()
    _serve(directions_recognizer, [b"\n".join(lines) + b"\n"], record=journal)
    records = [json.loads(line) for line in journal.getvalue().splitlines()]
    assert records == [
        {"rec": "op", "op": r.op, "user": "c1", "stroke": "c1/" + r.stroke,
         "x": r.x, "y": r.y, "t": r.t}
        for r in requests
        if r.op in ("down", "move", "up")
    ]
