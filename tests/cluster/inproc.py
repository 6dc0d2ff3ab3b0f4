"""An in-process launcher, so the chaos suites drive production
:class:`~repro.cluster.Cluster`.

Spinning real worker *subprocesses* per hypothesis example is far too
slow (and makes shrinking miserable), so :class:`InProcessLauncher`
starts real :class:`~repro.serve.GestureServer` workers inside the test's
event loop, over real TCP sockets, in the shape of the
:class:`~repro.cluster.Supervisor`.  ``Cluster`` wires it to its router
exactly as it wires the supervisor, so journaling, replay, migration,
drain, join, ``scale_to`` and swap broadcast all run the code that
ships; only process spawning is absent.
"""

from __future__ import annotations

from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import GestureServer


class InProcessLauncher:
    """The supervisor's launcher shape, over in-process GestureServers."""

    def __init__(self, recognizer, shards, *, timeout=DEFAULT_TIMEOUT, registry=None):
        self.recognizer = recognizer
        self.shards = tuple(f"w{i}" for i in range(shards))
        self.timeout = timeout
        self.registry = registry
        self.on_up = self.on_down = None  # wired by Cluster
        self.servers: dict[str, GestureServer] = {}

    async def start(self) -> None:
        for shard in self.shards:
            await self._up(shard)

    async def stop(self) -> None:
        for server in self.servers.values():
            await server.stop()
        self.servers.clear()

    async def add_shard(self, shard: str) -> None:
        self.shards += (shard,)
        await self._up(shard)

    async def retire(self, shard: str) -> None:
        await self.on_down(shard)
        await self.servers.pop(shard).stop()

    async def kill(self, shard: str) -> None:
        """A crash: ``worker_down`` runs *first* — it severs the
        router-side link, so replies the dying worker produced but the
        router never read are lost, exactly as with a SIGKILL — then the
        old server stops and a fresh one's ``worker_up`` replays the
        shard's journals."""
        await self.retire(shard)
        await self._up(shard)

    def status(self) -> dict:
        return {}

    async def _up(self, shard: str) -> None:
        server = GestureServer(
            self.recognizer, port=0, timeout=self.timeout, registry=self.registry
        )
        await server.start()
        self.servers[shard] = server
        await self.on_up(shard, *server.address)
