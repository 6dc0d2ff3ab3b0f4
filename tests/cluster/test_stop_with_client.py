"""Stopping a router or a gesture server with a client still connected
reports nothing to the event loop.

A connection handler that is cancelled, instead of returning, makes
asyncio's stream machinery log ``Exception in callback
StreamReaderProtocol.connection_made.<locals>.callback`` with a
``CancelledError`` traceback.  ``stop()`` aborts each connected client's
transport, so every handler sees EOF and returns normally.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import Router
from repro.serve import GestureServer


async def _stop_with_client_connected(make_service) -> list[dict]:
    reported: list[dict] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: reported.append(context)
    )
    service = make_service()
    await service.start()
    reader, writer = await asyncio.open_connection(*service.address)
    try:
        # A bad op is answered on the connection itself: once the reply
        # is back, the handler is live and reading.
        writer.write(b'{"op": "bogus"}\n')
        await writer.drain()
        reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
        assert reply["kind"] == "error"
        await asyncio.wait_for(service.stop(), 10.0)
        # Give any done-callback of a cancelled handler its turn.
        for _ in range(3):
            await asyncio.sleep(0)
        # The service hung up.
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
    finally:
        writer.close()
    return reported


@pytest.mark.parametrize("kind", ["router", "server"])
def test_stop_with_client_connected_reports_nothing(
    kind, directions_recognizer
):
    def make_service():
        if kind == "router":
            return Router(["w0"])
        return GestureServer(directions_recognizer)

    reported = asyncio.run(_stop_with_client_connected(make_service))
    assert reported == []
