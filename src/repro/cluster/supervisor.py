"""Worker lifecycle: spawn, watch, restart with backoff, retire.

The supervisor owns the worker *processes*; the router owns the worker
*connections*.  The split keeps each side simple: the supervisor never
parses gesture protocol, the router never calls ``fork``.  They meet at
two async callbacks — ``on_up(shard, host, port)`` once a spawned worker
prints its ready line, and ``on_down(shard)`` the moment its process
exits (cleanly or not).

A worker signals liveness by heartbeat lines on stdout; a worker that
goes silent for ``heartbeat_timeout`` wall seconds is presumed hung and
killed, which funnels "hung" into the one failure path that is already
handled: process exit.  Crashed workers are restarted under exponential
backoff (doubling from ``backoff_base`` to ``backoff_max``, reset after
``healthy_after`` seconds of uptime, so a flapping worker cannot hot-loop
the host while a one-off crash restarts almost instantly).  Retired
workers — the drain path — are terminated and *not* restarted.
"""

from __future__ import annotations

import asyncio
import json
import signal
from contextlib import suppress

from .worker import DEFAULT_HEARTBEAT, worker_command, worker_env

__all__ = ["Supervisor", "WorkerHandle"]


class WorkerHandle:
    """One shard's current process and restart bookkeeping."""

    __slots__ = (
        "shard",
        "proc",
        "host",
        "port",
        "pid",
        "ready",
        "retired",
        "restarts",
        "backoff",
        "started_at",
        "last_beat",
        "monitor",
    )

    def __init__(self, shard: str):
        self.shard = shard
        self.proc: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.ready = False
        self.retired = False
        self.restarts = 0
        self.backoff = 0.0
        self.started_at = 0.0
        self.last_beat = 0.0
        self.monitor: asyncio.Task | None = None


class Supervisor:
    """Keep one worker process alive per shard."""

    def __init__(
        self,
        recognizer_path: str,
        shards,
        *,
        timeout: float | None = None,
        max_sessions: int = 4096,
        heartbeat: float = DEFAULT_HEARTBEAT,
        heartbeat_timeout: float | None = None,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        healthy_after: float = 5.0,
        on_up=None,
        on_down=None,
        registry=None,
        quality: bool = False,
        quality_sample: float = 1.0,
        quality_seed: int = 0,
        model_cache: int | None = None,
    ):
        self.recognizer_path = str(recognizer_path)
        self.model_cache = model_cache
        self.registry = None if registry is None else str(registry)
        # Quality telemetry flags, replicated to every worker (and to
        # every restart of one): the sampling hash is keyed on the
        # session id alone, so a respawned worker re-makes the exact
        # sampling choices its predecessor made.
        self.quality = quality
        self.quality_sample = quality_sample
        self.quality_seed = quality_seed
        self.shards = tuple(shards)
        self.timeout = timeout
        self.max_sessions = max_sessions
        self.heartbeat = heartbeat
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None else 5 * heartbeat
        )
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.healthy_after = healthy_after
        self.on_up = on_up
        self.on_down = on_down
        self.workers = {shard: WorkerHandle(shard) for shard in self.shards}
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard and wait until all are ready."""
        await asyncio.gather(*(self._spawn(s) for s in self.shards))

    async def stop(self) -> None:
        """Terminate every worker and reap the monitors."""
        self._stopping = True
        monitors = []
        for handle in self.workers.values():
            if handle.monitor is not None:
                monitors.append(handle.monitor)
            self._terminate(handle)
        for task in monitors:
            with suppress(asyncio.CancelledError):
                await task

    async def add_shard(self, shard: str) -> None:
        """Scale-out path: spawn a brand-new shard and wait until ready.

        The caller registers the shard with the router first (so the
        ready line's ``on_up`` finds a link to connect), then folds it
        into the ring once this returns.
        """
        if shard in self.workers:
            raise ValueError(f"shard already known: {shard}")
        self.shards = self.shards + (shard,)
        self.workers[shard] = WorkerHandle(shard)
        await self._spawn(shard)

    async def retire(self, shard: str) -> None:
        """Drain path: terminate ``shard`` and never restart it."""
        handle = self.workers[shard]
        handle.retired = True
        self._terminate(handle)
        if handle.monitor is not None:
            with suppress(asyncio.CancelledError):
                await handle.monitor

    def kill(self, shard: str) -> int | None:
        """SIGKILL a worker (chaos/testing); the monitor restarts it."""
        handle = self.workers[shard]
        if handle.proc is not None and handle.proc.returncode is None:
            pid = handle.proc.pid
            handle.proc.send_signal(signal.SIGKILL)
            return pid
        return None

    def status(self) -> dict:
        """Per-shard view for fleet ``stats`` replies."""
        out = {}
        for shard in self.shards:
            handle = self.workers[shard]
            out[shard] = {
                "ready": handle.ready,
                "retired": handle.retired,
                "pid": handle.pid,
                "port": handle.port,
                "restarts": handle.restarts,
            }
        return out

    # -- internals -----------------------------------------------------------

    def _terminate(self, handle: WorkerHandle) -> None:
        if handle.proc is not None and handle.proc.returncode is None:
            with suppress(ProcessLookupError):
                handle.proc.terminate()

    async def _spawn(self, shard: str) -> None:
        handle = self.workers[shard]
        cmd = worker_command(
            self.recognizer_path,
            shard,
            timeout=self.timeout,
            max_sessions=self.max_sessions,
            heartbeat=self.heartbeat,
            registry=self.registry,
            quality=self.quality,
            quality_sample=self.quality_sample,
            quality_seed=self.quality_seed,
            model_cache=self.model_cache,
        )
        loop = asyncio.get_running_loop()
        handle.proc = await asyncio.create_subprocess_exec(
            *cmd,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=worker_env(),
        )
        handle.pid = handle.proc.pid
        handle.ready = False
        handle.started_at = loop.time()
        handle.last_beat = handle.started_at
        ready = loop.create_future()
        handle.monitor = loop.create_task(self._monitor(handle, ready))
        await ready

    async def _monitor(self, handle: WorkerHandle, ready: asyncio.Future) -> None:
        """Follow one worker process from ready line to exit to restart."""
        proc = handle.proc
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    raw = await asyncio.wait_for(
                        proc.stdout.readline(), timeout=self.heartbeat_timeout
                    )
                except asyncio.TimeoutError:
                    # Hung: no ready line / heartbeat inside the window.
                    with suppress(ProcessLookupError):
                        proc.kill()
                    await proc.wait()
                    break
                if not raw:  # EOF: the process died (or was killed)
                    await proc.wait()
                    break
                try:
                    event = json.loads(raw)
                except ValueError:
                    continue  # stray stdout noise is not a health signal
                handle.last_beat = loop.time()
                if event.get("event") == "ready":
                    handle.host = event.get("host")
                    handle.port = event.get("port")
                    try:
                        if self.on_up is not None:
                            await self.on_up(
                                handle.shard, handle.host, handle.port
                            )
                    except OSError:
                        # The worker printed its ready line and then
                        # died before the router could connect to it
                        # (ConnectionRefusedError and kin).  Treat it
                        # exactly like a death: reap the process and
                        # fall through to the backoff-respawn path —
                        # letting the exception escape would kill this
                        # monitor task and leave the shard permanently
                        # unwatched and never restarted.
                        with suppress(ProcessLookupError):
                            proc.kill()
                        await proc.wait()
                        break
                    handle.ready = True
                    if not ready.done():
                        ready.set_result(None)
        finally:
            was_ready = handle.ready
            handle.ready = False
            if not ready.done():  # died before ever becoming ready
                ready.set_result(None)
            if was_ready and self.on_down is not None:
                await self.on_down(handle.shard)
        if self._stopping or handle.retired:
            return
        # Crash path: back off, then respawn this shard.
        uptime = loop.time() - handle.started_at
        if uptime >= self.healthy_after:
            handle.backoff = 0.0
        handle.backoff = (
            self.backoff_base
            if handle.backoff == 0.0
            else min(handle.backoff * 2, self.backoff_max)
        )
        handle.restarts += 1
        await asyncio.sleep(handle.backoff)
        if not self._stopping and not handle.retired:
            await self._spawn(handle.shard)
