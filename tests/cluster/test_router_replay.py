"""Router journal/replay semantics, pinned without worker subprocesses.

A scripted in-process "worker" — a bare asyncio server that records the
lines it receives and never replies — stands in for the real
:class:`~repro.serve.GestureServer`, so exactly what a restarted worker
would be fed is observable directly.  The tests are regressions from
review findings against the crash-recovery path.
"""

from __future__ import annotations

import asyncio
import json

from repro.cluster import Router


class FakeWorker:
    """Accepts one router connection and records every line verbatim."""

    def __init__(self):
        self.lines: list[dict] = []
        self._server = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def _handle(self, reader, writer) -> None:
        while True:
            raw = await reader.readline()
            if not raw:
                break
            self.lines.append(json.loads(raw))

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


async def _send(writer, *objs) -> None:
    writer.write(("\n".join(json.dumps(o) for o in objs) + "\n").encode())
    await writer.drain()


async def _wait(cond, what: str, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not cond():
        assert loop.time() < deadline, f"timed out waiting for {what}"
        await asyncio.sleep(0.01)


def test_sweep_sent_to_live_worker_is_still_replayed_after_crash():
    # Review regression: sweeps used to be journaled only for links that
    # were "down" at routing time.  Death detection is asynchronous — a
    # worker can die holding a sweep it was already sent — so a sweep is
    # only safe to forget once its effects are in the journal's terminal
    # drops.  The replay for a restarted worker must re-run it.
    async def run():
        router = Router(["w0"])
        await router.start()
        first, second = FakeWorker(), FakeWorker()
        try:
            host, port = await first.start()
            await router.worker_up("w0", host, port)
            _, cwriter = await asyncio.open_connection(*router.address)
            await _send(
                cwriter,
                {"op": "down", "stroke": "s1", "x": 0, "y": 0, "t": 0.0},
                {"op": "tick", "t": 0.0},
                {"op": "sweep", "max_idle": 30.0},
            )
            await _wait(
                lambda: any(l.get("op") == "sweep" for l in first.lines),
                "the live worker to receive the sweep",
            )
            # The worker dies with the sweep received but unprocessed.
            await router.worker_down("w0")
            host2, port2 = await second.start()
            await router.worker_up("w0", host2, port2)
            await _wait(
                lambda: any(l.get("op") == "sweep" for l in second.lines),
                "the replay to re-deliver the sweep",
            )
            cwriter.close()
            return list(second.lines)
        finally:
            await first.stop()
            await second.stop()
            await router.stop()

    replayed = asyncio.run(run())
    # The restarted worker walks the session, the sweep's clock marker,
    # the sweep, and the trailing tick to the fleet's present — in the
    # original order.
    assert [l["op"] for l in replayed] == ["down", "tick", "sweep", "tick"]
    assert replayed[1]["t"] == 0.0  # the sweep's clock marker
    assert replayed[2]["max_idle"] == 30.0


def test_sweep_with_no_live_sessions_is_not_journaled():
    # Pruning bound: with nothing to evict on replay, a sweep is dead
    # weight — extras must not grow without bound under periodic sweeps.
    async def run():
        router = Router(["w0"])
        await router.start()
        try:
            _, writer = await asyncio.open_connection(*router.address)
            await _send(
                writer,
                {"op": "tick", "t": 1.0},
                {"op": "sweep", "max_idle": 0.0},
                {"op": "sweep", "max_idle": 0.0},
            )
            await _wait(
                lambda: router._clock == 1.0, "the tick to be processed"
            )
            await asyncio.sleep(0.05)  # let the sweeps route
            writer.close()
            return list(router.links["w0"].extras)
        finally:
            await router.stop()

    assert asyncio.run(run()) == []


def test_markers_carry_broadcast_clock_not_peer_op_timestamps():
    # Review regression: workers advance their pool clocks only at
    # tick/sweep barriers, so a journal marker must carry the highest
    # *broadcast* barrier — never a clock inferred from another
    # session's op timestamp.  A marker at a peer's t, replayed before
    # the op, would fire a motionless timeout the live worker never
    # fired and break byte-identical recovery.
    async def run():
        router = Router(["w0"])
        await router.start()
        try:
            _, writer = await asyncio.open_connection(*router.address)
            await _send(
                writer,
                {"op": "down", "stroke": "a", "x": 0, "y": 0, "t": 0.0},
                {"op": "down", "stroke": "b", "x": 0, "y": 0, "t": 0.0},
                {"op": "tick", "t": 0.1},
                # The peer op at t=0.2 is routed ahead of a's move:
                {"op": "move", "stroke": "b", "x": 1, "y": 1, "t": 0.2},
                {"op": "move", "stroke": "a", "x": 1, "y": 1, "t": 0.2},
            )
            await _wait(
                lambda: "k1:a" in router.sessions
                and len(router.sessions["k1:a"].entries) >= 3,
                "a's move to be journaled",
            )
            writer.close()
            return [
                json.loads(line)
                for _, line in router.sessions["k1:a"].entries
            ]
        finally:
            await router.stop()

    entries = asyncio.run(run())
    # down (nothing broadcast yet: no marker), then the last broadcast
    # barrier (t=0.1) as the move's marker.  The peer's t=0.2 never was
    # a barrier, so it must not appear as one.
    assert [(e["op"], e["t"]) for e in entries] == [
        ("down", 0.0),
        ("tick", 0.1),
        ("move", 0.2),
    ]
