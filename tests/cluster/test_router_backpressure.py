"""A worker that falls behind slows its clients; the router does not
buffer the backlog.

The router queues each worker's lines in a mailbox that its writer task
empties into the socket.  When the worker stops reading, the socket
fills, the writer blocks, and every further op would wait in router
memory.  After each routed read the router holds a client's reads while
an up worker's mailbox holds more than ``queue_size`` lines, so TCP flow
control carries the backlog back to the client instead.  Nothing is
lost: once the worker reads again, every op arrives, in order.
"""

from __future__ import annotations

import asyncio
import socket

from repro.cluster import Router

QUEUE_SIZE = 64
OPS = 40_000


def _op(i: int) -> str:
    return (
        f'{{"op": "move", "stroke": "s{i % 50}", "x": {i}.5, '
        f'"y": 2.0, "t": {i // 50}.25}}'
    )


async def _scenario():
    release = asyncio.Event()
    received: list[bytes] = []
    done = asyncio.Event()

    async def stalled_worker(reader, writer):
        await release.wait()
        while len(received) < OPS:
            line = await reader.readline()
            if not line:
                break
            received.append(line.rstrip(b"\n"))
        done.set()
        writer.close()

    # A small receive window, so the router's socket fills quickly.
    lsock = socket.socket()
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    lsock.bind(("127.0.0.1", 0))
    worker = await asyncio.start_server(stalled_worker, sock=lsock)
    router = Router(["w0"], queue_size=QUEUE_SIZE)
    await router.start()
    try:
        await router.worker_up("w0", *lsock.getsockname()[:2])
        link = router.links["w0"]
        # ...and a small send buffer: the kernel would otherwise take
        # megabytes before the router's writer ever waits.
        link.writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
        )
        _, writer = await asyncio.open_connection(*router.address)
        payload = "".join(_op(i) + "\n" for i in range(OPS)).encode()

        async def send():
            writer.write(payload)
            await writer.drain()

        sender = asyncio.get_running_loop().create_task(send())
        peak = 0
        for _ in range(300):
            await asyncio.sleep(0.002)
            peak = max(peak, len(link.queue.items))
        routed = len(router.sessions["k1:s0"].entries) * 50
        release.set()
        await asyncio.wait_for(done.wait(), timeout=60)
        await sender
        writer.close()
        await writer.wait_closed()
        while router._clients:  # the router sees the close
            await asyncio.sleep(0.001)
        return peak, routed, received
    finally:
        await router.stop()
        worker.close()
        await worker.wait_closed()


def test_stalled_worker_keeps_router_queue_bounded():
    peak, routed, received = asyncio.run(_scenario())
    # One client read (8 KiB, ~90 lines) may land on top of the bound.
    assert peak <= QUEUE_SIZE + 8192 // 40
    # While the worker stalled, the client was held back: the router
    # read only what fits the bound and the socket buffers.
    assert routed < OPS // 4
    assert [line.decode() for line in received] == [
        _op(i).replace('"stroke": "s', '"stroke": "k1:s') for i in range(OPS)
    ]
