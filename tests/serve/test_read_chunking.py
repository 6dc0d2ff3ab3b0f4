"""Read chunking cannot change replies.

A connection hands the pump each socket read's requests as one inbox
item, and the pump hands the pool each run of equal-timestamp ops as
one chunk.  Neither may show in the output: one byte stream, cut at
arbitrary read boundaries, with malformed lines between the ops of a
read, must give per-stroke reply bytes equal to the uncut run and to a
single in-process ``SessionPool`` (``reference_lines``).  The same holds
with a fault injector attached, which mangles ops one by one even
though they arrive batched.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import reference_lines, workload_ticks
from repro.obs import FaultInjector, FaultPlan
from repro.serve import GestureServer, Request, generate_workload
from repro.serve.server import _Inbox
from repro.synth import eight_direction_templates

MALFORMED = [
    b'{"op": "move", "stroke": "a", "x": 1,',
    b'{"op": "merge", "t": 0.0}',
    b'{"op": "down", "x": 1.0, "y": 2.0, "t": 0.0}',
    b'{"op": "move", "stroke": "a", "x": NaN, "y": 1.0, "t": 0.0}',
    b'{"op": "move", "stroke": "a", "x": 1' + b"0" * 400 + b', "y": 1, "t": 0}',
    b'{"op": "tick", "t": 1e400}',
    b"\xff\xfe",
]


class _ChunkReader:
    """A ``StreamReader`` stand-in that returns the given chunks, one per
    read, yielding to the loop between them so the pump interleaves.
    End of stream waits for ``done``: replies to a closed connection
    are dropped, so the stream stays open until the last one is out."""

    def __init__(self, chunks, done: asyncio.Event):
        self._chunks = [c for c in chunks if c]
        self._done = done

    async def read(self, n: int) -> bytes:
        await asyncio.sleep(0)
        if not self._chunks:
            await self._done.wait()
            return b""
        chunk = self._chunks.pop(0)
        if len(chunk) > n:
            self._chunks.insert(0, chunk[n:])
            chunk = chunk[:n]
        return chunk


class _Collector:
    """A ``StreamWriter`` stand-in that parses the reply stream."""

    def __init__(self):
        self.lines: list[bytes] = []
        self.done = asyncio.Event()
        self._tail = b""

    def write(self, data: bytes) -> None:
        *lines, self._tail = (self._tail + data).split(b"\n")
        for line in lines:
            if b'"kind": "stats"' in line:
                self.done.set()
            else:
                self.lines.append(line)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _serve(recognizer, chunks, fault_injector=None) -> list[bytes]:
    async def run():
        server = GestureServer(recognizer, fault_injector=fault_injector)
        await server.start()
        try:
            writer = _Collector()
            await server._handle_connection(
                _ChunkReader(chunks, writer.done), writer
            )
            return writer.lines
        finally:
            await server.stop()

    return asyncio.run(run())


def _per_stroke(lines: list[bytes]) -> dict[str, list[str]]:
    replies: dict[str, list[str]] = {}
    for raw in lines:
        stroke = json.loads(raw)["stroke"]
        replies.setdefault(stroke, []).append(raw.decode())
    return replies


def _encode(op, t: float, compact: bool) -> bytes:
    name, key, x, y = op
    payload = {"op": name, "stroke": key, "x": x, "y": y, "t": t}
    if compact:  # valid but not canonical: the full decoder's path
        return json.dumps(payload, separators=(",", ":")).encode()
    return json.dumps(payload).encode()


def _stream(ticks, draw) -> tuple[bytes, int]:
    """The ticks as one request stream, with malformed lines and compact
    encodings drawn in; returns ``(stream, malformed_count)``."""
    lines: list[bytes] = []
    bad = 0
    for t, group in ticks:
        for op in group:
            if draw(st.integers(0, 9)) == 0:
                lines.append(draw(st.sampled_from(MALFORMED)))
                bad += 1
            lines.append(_encode(op, t, compact=draw(st.integers(0, 7)) == 0))
        lines.append(json.dumps({"op": "tick", "t": t}).encode())
    lines.append(b'{"op": "sweep", "max_idle": 0.0}')
    lines.append(b'{"op": "stats"}')
    return b"\n".join(lines) + b"\n", bad


def _cut(stream: bytes, draw) -> list[bytes]:
    cuts = sorted(
        draw(st.sets(st.integers(1, len(stream) - 1), max_size=60))
    )
    bounds = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _ticks(seed: int):
    return workload_ticks(
        generate_workload(
            eight_direction_templates(),
            clients=4,
            gestures_per_client=2,
            seed=seed,
            dwell_every=2,
        )
    )


@pytest.fixture(scope="module")
def workloads():
    return {seed: _ticks(seed) for seed in range(3)}


@given(data=st.data())
def test_read_chunking_cannot_change_replies(
    directions_recognizer, workloads, data
):
    ticks = workloads[data.draw(st.integers(0, 2))]
    stream, bad = _stream(ticks, data.draw)
    uncut = _per_stroke(_serve(directions_recognizer, [stream]))
    cut = _per_stroke(_serve(directions_recognizer, _cut(stream, data.draw)))
    errors = cut.pop("", [])
    assert len(errors) == bad
    assert all('"kind": "error"' in line for line in errors)
    assert uncut.pop("", []) == errors
    assert cut == uncut
    assert cut == reference_lines(directions_recognizer, ticks)


@given(data=st.data())
def test_fault_injection_still_acts_per_op(
    directions_recognizer, workloads, data
):
    # Every session op duplicated: a fault schedule whose outcome does
    # not depend on how ops were grouped into pump batches, so the
    # replies must equal a single pool fed each op twice.
    ticks = workloads[data.draw(st.integers(0, 2))]
    stream, bad = _stream(ticks, data.draw)
    injector = FaultInjector(FaultPlan(duplicate=1.0), seed=0)
    cut = _per_stroke(
        _serve(directions_recognizer, _cut(stream, data.draw), injector)
    )
    assert len(cut.pop("", [])) == bad
    doubled = [(t, [op for op in group for _ in (0, 1)]) for t, group in ticks]
    assert cut == reference_lines(directions_recognizer, doubled)
    assert injector.counts["duplicated"] == sum(len(g) for _, g in ticks)


def test_zero_timestamps_keep_their_sign(directions_recognizer):
    # Ops with equal timestamps share one pool chunk, but 0.0 == -0.0:
    # merging them would restamp the second op and change its reply.
    async def run():
        server = GestureServer(directions_recognizer)
        await server.start()
        try:
            channel = await server.open_channel()
            await channel.send(Request("move", 0.0, "a", 1.0, 1.0))
            await channel.send(Request("move", -0.0, "b", 1.0, 1.0))
            await channel.send(Request("move", -0.0, "c", 1.0, 1.0))
            return [json.loads(await channel.recv()) for _ in range(3)]
        finally:
            await server.stop()

    replies = asyncio.run(run())
    assert [(r["stroke"], r["reason"]) for r in replies] == [
        ("a", "unknown stroke"), ("b", "unknown stroke"), ("c", "unknown stroke"),
    ]
    signs = [math.copysign(1.0, r["t"]) for r in replies]
    assert signs == [1.0, -1.0, -1.0]


def test_inbox_is_bounded_in_ops():
    async def run():
        inbox = _Inbox(maxsize=4)
        inbox.put_nowait((None, (1, 2, 3)))
        assert not inbox.full()
        inbox.put_nowait((None, (4, 5)))  # admitted below the bound...
        assert inbox.full()  # ...and now 5 ops are queued
        with pytest.raises(asyncio.QueueFull):
            inbox.put_nowait((None, (6,)))
        inbox.get_nowait()
        assert not inbox.full() and inbox.ops == 2
        inbox.put_nowait((None, tuple(range(10))))  # one big read
        assert inbox.ops == 12

    asyncio.run(run())
