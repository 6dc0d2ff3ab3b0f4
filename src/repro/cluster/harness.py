"""Cluster orchestration and the deterministic test/bench driver.

:class:`Cluster` wires the three tentpole pieces together — a
:class:`~repro.cluster.router.Router` in this process and a
:class:`~repro.cluster.supervisor.Supervisor` spawning one
:class:`~repro.cluster.worker` subprocess per shard — and owns the
elasticity choreography: ``drain`` migrates a shard's live sessions
off and retires it in one pass (nobody is evicted), ``join`` spawns a
fresh worker and rebalances exactly the ring-moved sessions onto it,
``scale_to`` walks the live fleet to a target size one move at a time,
and an optional :class:`~repro.cluster.elastic.Autoscaler` drives
``scale_to`` from the router's load samples.

The driver half exists for one claim: *cluster output is byte-identical
to a single pool*.  :func:`workload_ticks` pivots a
:func:`~repro.serve.generate_workload` script (or a fault plan's
``delivered_log``) into per-tick groups; :func:`drive_cluster` plays
them over one TCP connection with an explicit ``tick`` barrier after
each group — the same (apply, advance) cadence
:func:`~repro.serve.run_load` uses — and collects the reply lines per
stroke; :func:`reference_lines` produces what a single
:class:`~repro.serve.SessionPool` says to the identical cadence.
Comparing the two dicts *as strings* is the invariance test.

The driver ends with a trailing tick + ``sweep`` (the drain
``run_load`` performs in-process) and then uses a ``stats`` request as
a completion barrier: each worker answers stats after everything it was
sent earlier, and the router's fleet reply waits on every live worker,
so when the stats reply lands every prior decision has, too.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import suppress

from ..interaction import DEFAULT_TIMEOUT
from ..serve import SessionPool, encode_decision
from .router import Router
from .supervisor import Supervisor

__all__ = [
    "Cluster",
    "drive_cluster",
    "reference_lines",
    "workload_ticks",
]


class Cluster:
    """A router, a supervisor, and N worker processes, as one object."""

    def __init__(
        self,
        recognizer_path: str,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        max_sessions: int = 4096,
        heartbeat: float = 0.5,
        backoff_base: float = 0.05,
        metrics: bool = True,
        shard_names=None,
        registry=None,
        quality: bool = False,
        quality_sample: float = 1.0,
        quality_seed: int = 0,
        min_workers: int = 1,
        max_workers: int | None = None,
        autoscale=False,
        model_cache: int | None = None,
    ):
        from ..obs import MetricsRegistry

        shards = (
            tuple(shard_names)
            if shard_names is not None
            else tuple(f"w{i}" for i in range(workers))
        )
        self.metrics = MetricsRegistry() if metrics else None
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers is not None and max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        self.min_workers = min_workers
        self.max_workers = max_workers
        # ``autoscale`` is False (off), True (default-tuned
        # Autoscaler), or a ready-made Autoscaler instance.
        self.autoscale = autoscale
        self._autoscale_task: asyncio.Task | None = None
        self._scale_lock = asyncio.Lock()
        self._next_worker = len(shards)
        self.router = Router(
            shards, host=host, port=port, metrics=self.metrics,
            registry=registry,
        )
        self.supervisor = Supervisor(
            recognizer_path,
            shards,
            timeout=timeout,
            max_sessions=max_sessions,
            heartbeat=heartbeat,
            backoff_base=backoff_base,
            on_up=self.router.worker_up,
            on_down=self.router.worker_down,
            registry=registry,
            quality=quality,
            quality_sample=quality_sample,
            quality_seed=quality_seed,
            model_cache=model_cache,
        )
        self.router.drain_hook = self.drain
        self.router.scale_hook = self.scale_to
        self.router.supervisor_status = self.supervisor.status

    async def start(self) -> None:
        await self.router.start()
        await self.supervisor.start()
        if self.autoscale:
            from .elastic import Autoscaler

            scaler = (
                self.autoscale
                if isinstance(self.autoscale, Autoscaler)
                else Autoscaler(
                    min_workers=self.min_workers,
                    max_workers=(
                        self.max_workers
                        if self.max_workers is not None
                        else max(self.min_workers, 8)
                    ),
                )
            )
            self._autoscale_task = asyncio.get_running_loop().create_task(
                scaler.run(self.router.load_sample, self.scale_to)
            )

    async def stop(self) -> None:
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._autoscale_task
            self._autoscale_task = None
        await self.supervisor.stop()
        await self.router.stop()

    async def __aenter__(self) -> "Cluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.router.address

    def status(self) -> dict:
        return self.router.status()

    def kill(self, shard: str) -> int | None:
        """SIGKILL one worker; the supervisor will restart it."""
        return self.supervisor.kill(shard)

    async def wait_all_up(self, timeout: float = 30.0) -> None:
        """Block until every non-retired shard is spawned and connected."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            pending = [
                shard
                for shard, link in self.router.links.items()
                if shard not in self.router.retired and link.state != "up"
            ]
            if not pending:
                return
            if loop.time() >= deadline:
                raise TimeoutError(f"shards never came up: {pending}")
            await asyncio.sleep(0.02)

    async def wait_recovered(
        self, shard: str, ups_before: int, timeout: float = 60.0
    ) -> None:
        """Block until ``shard`` has *reconnected* since ``ups_before``.

        Death detection is asynchronous — immediately after a SIGKILL
        the link still reads "up" — so crash tests snapshot
        ``router.links[shard].ups`` before killing and wait here for it
        to move, which proves the death was noticed, the worker
        respawned, and the journal replay was enqueued.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        link = self.router.links[shard]
        while not (link.ups > ups_before and link.state == "up"):
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"{shard} never recovered (ups {link.ups}, "
                    f"state {link.state})"
                )
            await asyncio.sleep(0.02)

    async def drain(self, shard: str) -> None:
        """Gracefully retire ``shard``: spill new sessions to the ring
        successors and *migrate* its live sessions off — journal replay
        into each session's new shard, byte-identical, nobody evicted —
        then terminate the worker.

        Migration is synchronous router work, so the drain completes in
        one pass regardless of client behaviour: a client that opened a
        session and went silent simply carries its session to another
        shard.  The shard stays in the ring but in the ``retired`` skip
        set — by skip-spill equivalence, removing it would change no
        route, and keeping it keeps every historical journal seq valid.
        """
        if shard in self.router.draining or shard in self.router.retired:
            return
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.router.draining.add(shard)
        if self.metrics is not None:
            self.metrics.counter("cluster.drains").inc()
        # Freeze, then move: quiesce() resolves every in-flight sweep,
        # and migrate_off runs in the same synchronous continuation.
        await self.router.quiesce()
        self.router.migrate_off(shard)
        await self.supervisor.retire(shard)
        self.router.retired.add(shard)
        self.router.draining.discard(shard)
        if self.metrics is not None:
            self.metrics.histogram(
                "cluster.drain_seconds", (0.1, 1.0, 10.0, 60.0)
            ).observe(loop.time() - started)

    async def join(self, shard: str | None = None) -> str:
        """Scale out by one worker: register its link, spawn it, wait
        until the router is connected, then rebalance — migrating
        exactly the sessions the grown ring assigns to the newcomer
        (the :meth:`HashRing.plan_rebalance` minimum) and no others.
        """
        if shard is None:
            while shard is None or shard in self.router.links:
                shard = f"w{self._next_worker}"
                self._next_worker += 1
        self.router.add_shard(shard)
        await self.supervisor.add_shard(shard)
        await self.router.quiesce()
        self.router.rebalance(self.router.ring.with_shard(shard))
        if self.metrics is not None:
            self.metrics.counter("cluster.joins").inc()
        return shard

    async def scale_to(self, workers: int) -> None:
        """Walk the live fleet to ``workers`` shards, one join or drain
        at a time, clamped to ``[min_workers, max_workers]``.

        Serialized on a lock so an admin ``scale`` op and the
        autoscaler can never interleave half-finished topology moves.
        """
        target = max(self.min_workers, workers)
        if self.max_workers is not None:
            target = min(target, self.max_workers)
        async with self._scale_lock:
            while True:
                live = [
                    s
                    for s in self.router.links
                    if s not in self.router.retired
                    and s not in self.router.draining
                ]
                if len(live) < target:
                    await self.join()
                elif len(live) > target:
                    # Shrink newest-first: the highest-numbered live
                    # shard is the cheapest to empty again.
                    await self.drain(live[-1])
                else:
                    return


def workload_ticks(source, dt: float = 0.01):
    """Pivot ops into ``[(t, [op, ...]), ...]`` tick groups.

    ``source`` is either a :func:`~repro.serve.generate_workload` script
    (list of per-client op lists; tick ``k`` is ``t = k * dt``, client
    order preserved within a tick, as in ``run_load``) or a
    ``delivered_log`` from a faulted ``run_load`` (``(t, op)`` pairs,
    already timestamped — the post-fault ground truth).
    """
    if source and isinstance(source[0], tuple):  # a delivered_log
        ticks: list[tuple[float, list]] = []
        for t, op in source:
            if ticks and ticks[-1][0] == t:
                ticks[-1][1].append(op)
            else:
                ticks.append((t, [op]))
        return ticks
    n_ticks = max((len(ops) for ops in source), default=0)
    out = []
    for k in range(n_ticks):
        group = [
            ops[k]
            for ops in source
            if k < len(ops) and ops[k][0] != "idle"
        ]
        out.append((k * dt, group))
    return out


async def drive_cluster(
    host: str,
    port: int,
    ticks,
    *,
    end_t: float | None = None,
    sweep_idle: float = 0.0,
    before_tick=None,
    before_barrier=None,
    barrier_timeout: float = 120.0,
):
    """Play tick groups against a server; return per-stroke reply lines.

    Works against a :class:`~repro.serve.GestureServer` or a
    :class:`~repro.cluster.router.Router` alike — the protocol is the
    same, which is the invariant under test.  ``before_tick(i, t)``
    runs ahead of group ``i`` (chaos hooks inject crashes here);
    ``before_barrier()`` runs after the final sweep, before the
    ``stats`` completion barrier (crash tests wait for the fleet to
    heal here, so the barrier covers the replay too).

    Returns ``(replies, stats)``: ``replies`` maps each stroke id to
    its reply lines in arrival order; ``stats`` is the decoded barrier
    reply.
    """
    reader, writer = await asyncio.open_connection(host, port)
    replies: dict[str, list[str]] = {}
    stats: dict | None = None
    done = asyncio.Event()

    async def read_replies() -> None:
        nonlocal stats
        while True:
            raw = await reader.readline()
            if not raw:
                break
            obj = json.loads(raw)
            if obj.get("kind") == "stats":
                stats = obj
                done.set()
                break
            replies.setdefault(obj.get("stroke", ""), []).append(
                raw.decode().rstrip("\n")
            )

    read_task = asyncio.get_running_loop().create_task(read_replies())
    try:
        for i, (t, group) in enumerate(ticks):
            if before_tick is not None:
                await before_tick(i, t)
            out = [
                json.dumps(
                    {"op": name, "stroke": key, "x": x, "y": y, "t": t}
                )
                for name, key, x, y in group
            ]
            out.append(json.dumps({"op": "tick", "t": t}))
            writer.write(("\n".join(out) + "\n").encode())
            await writer.drain()
        tail = []
        if end_t is not None:
            tail.append(json.dumps({"op": "tick", "t": end_t}))
        tail.append(json.dumps({"op": "sweep", "max_idle": sweep_idle}))
        writer.write(("\n".join(tail) + "\n").encode())
        await writer.drain()
        if before_barrier is not None:
            await before_barrier()
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        await asyncio.wait_for(done.wait(), timeout=barrier_timeout)
    finally:
        read_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return replies, stats


def reference_lines(
    recognizer,
    ticks,
    *,
    end_t: float | None = None,
    sweep_idle: float = 0.0,
    timeout: float = DEFAULT_TIMEOUT,
    batched: bool = True,
    max_sessions: int = 4096,
) -> dict[str, list[str]]:
    """What one :class:`SessionPool` replies to the same cadence.

    The pool is driven exactly as :func:`~repro.serve.run_load` drives
    it — submit each tick's ops, advance to the tick's time — and the
    decisions are encoded with the protocol encoder, so the returned
    per-stroke line lists are directly comparable (``==``) with
    :func:`drive_cluster`'s.
    """
    pool = SessionPool(
        recognizer, timeout=timeout, batched=batched, max_sessions=max_sessions
    )
    replies: dict[str, list[str]] = {}

    def emit(decisions) -> None:
        for d in decisions:
            replies.setdefault(d.key, []).append(encode_decision(d, d.key))

    for t, group in ticks:
        if group:
            pool.submit(group, t)
        emit(pool.advance_to(t))
    if end_t is not None:
        emit(pool.advance_to(end_t))
    emit(pool.evict_idle(sweep_idle))
    return replies
