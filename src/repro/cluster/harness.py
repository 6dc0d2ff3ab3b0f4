"""The fleet core, and the deterministic test/bench driver.

:class:`Cluster` puts a :class:`~repro.cluster.router.Router` in this
process in front of the workers a *launcher* starts, and owns the
elasticity choreography: ``drain`` migrates a shard's live sessions
off and retires it in one pass (nobody is evicted), ``join`` starts a
fresh worker and rebalances exactly the ring-moved sessions onto it,
``scale_to`` walks the live fleet to a target size one move at a time,
and an optional :class:`~repro.cluster.elastic.Autoscaler` drives
``scale_to`` from the router's load samples.

A launcher has :class:`~repro.cluster.supervisor.Supervisor`'s shape:
``shards`` and ``registry`` attributes, ``on_up(shard, host, port)``
and ``on_down(shard)`` callbacks (``Cluster`` wires them to the
router's ``worker_up``/``worker_down``), async ``start``, ``stop``,
``add_shard``, ``retire`` and ``kill``, and a ``status()`` dict per
shard.  The ``Supervisor`` — one worker subprocess per shard — is the
launcher behind ``repro cluster`` and ``loadgen --cluster``; the chaos
suites plug in an in-process launcher of
:class:`~repro.serve.GestureServer` workers, so they drive this very
class, not a copy of it.

The driver half exists for one claim: *cluster output is byte-identical
to a single pool*.  :func:`drive_events` plays an event script — ops,
barriers, swaps, raw lines, crashes, drains, joins, scale ops, waits,
connection churn — over one client connection and collects the reply
lines per stroke; :func:`reference_events` says what a single
:class:`~repro.serve.SessionPool` (and the router's own acks and error
lines) reply to the same script, with the topology events invisible.
Comparing the two dicts *as strings* is the invariance test.
:func:`workload_ticks` pivots a :func:`~repro.serve.generate_workload`
script (or a fault plan's ``delivered_log``) into per-tick groups;
:func:`tick_events` turns those into the plain script — each group
then a ``tick`` barrier, the same (apply, advance) cadence
:func:`~repro.serve.run_load` uses, then a trailing tick + ``sweep`` —
and :func:`drive_cluster` / :func:`reference_lines` are the driver and
reference of that plain script.

The driver ends with a ``stats`` request as a completion barrier: each
worker answers stats after everything it was sent earlier, and the
router's fleet reply waits on every live worker, so when the stats
reply lands every prior decision has, too.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import suppress

from ..interaction import DEFAULT_TIMEOUT
from ..serve import SessionPool, encode_decision
from ..serve.framing import negotiate
from ..serve.protocol import (
    INTERNAL_OPS,
    ProtocolError,
    decode_payload,
    encode_error,
    encode_swap,
)
from .router import Router

__all__ = [
    "Cluster",
    "drive_cluster",
    "drive_events",
    "reference_events",
    "reference_lines",
    "tick_events",
    "workload_ticks",
]


async def _poll(ready, timeout: float, failure) -> None:
    """Wait until ``ready()``; raise ``TimeoutError(failure())`` once
    ``timeout`` seconds pass first."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not ready():
        if loop.time() >= deadline:
            raise TimeoutError(failure())
        await asyncio.sleep(0.01)


class Cluster:
    """A router in front of a launcher's workers, as one object."""

    def __init__(
        self,
        launcher,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: bool = True,
        min_workers: int = 1,
        max_workers: int | None = None,
        autoscale=False,
    ):
        from ..obs import MetricsRegistry

        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers is not None and max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        self.launcher = launcher
        self.metrics = MetricsRegistry() if metrics else None
        self.min_workers = min_workers
        self.max_workers = max_workers
        # ``autoscale`` is False (off), True (default-tuned
        # Autoscaler), or a ready-made Autoscaler instance.
        self.autoscale = autoscale
        self._autoscale_task: asyncio.Task | None = None
        self._scale_lock = asyncio.Lock()
        self._next_worker = len(launcher.shards)
        self.router = Router(
            launcher.shards,
            host=host,
            port=port,
            metrics=self.metrics,
            registry=launcher.registry,
        )
        launcher.on_up = self.router.worker_up
        launcher.on_down = self.router.worker_down
        self.router.drain_hook = self.drain
        self.router.scale_hook = self.scale_to
        self.router.supervisor_status = launcher.status

    async def start(self) -> None:
        await self.router.start()
        await self.launcher.start()
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
        await self.launcher.stop()
        await self.router.stop()

    async def __aenter__(self) -> "Cluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.router.address

    async def kill(self, shard: str):
        """Crash one worker; the launcher brings a fresh one up, into
        which the router replays the shard's journals."""
        return await self.launcher.kill(shard)

    async def wait_all_up(self, timeout: float = 30.0) -> None:
        """Block until every non-retired shard is started and connected."""
        router = self.router

        def pending() -> list[str]:
            return [
                shard
                for shard, link in router.links.items()
                if shard not in router.retired and link.state != "up"
            ]

        await _poll(
            lambda: not pending(),
            timeout,
            lambda: f"shards never came up: {pending()}",
        )

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
        link = self.router.links[shard]
        await _poll(
            lambda: link.ups > ups_before and link.state == "up",
            timeout,
            lambda: f"{shard} never recovered (ups {link.ups}, "
            f"state {link.state})",
        )

    async def wait_retired(self, shard: str, timeout: float = 60.0) -> None:
        """Block until a drain of ``shard`` has completed."""
        await _poll(
            lambda: shard in self.router.retired,
            timeout,
            lambda: f"{shard} never retired",
        )

    async def wait_live(self, workers: int, timeout: float = 60.0) -> None:
        """Block until the live fleet counts ``workers`` shards and no
        drain or scale move is still in flight."""
        router = self.router
        await _poll(
            lambda: len(router.live_shards()) == workers
            and not router.draining
            and not self._scale_lock.locked(),
            timeout,
            lambda: f"fleet never settled at {workers} workers: "
            f"{router.live_shards()}",
        )

    async def drain(self, shard: str) -> None:
        """Gracefully retire ``shard``: spill new sessions to the ring
        successors and *migrate* its live sessions off — journal replay
        into each session's new shard, byte-identical, nobody evicted —
        then retire the worker.

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
        await self.launcher.retire(shard)
        self.router.retired.add(shard)
        self.router.draining.discard(shard)
        if self.metrics is not None:
            self.metrics.histogram(
                "cluster.drain_seconds", (0.1, 1.0, 10.0, 60.0)
            ).observe(loop.time() - started)

    async def join(self, shard: str | None = None) -> str:
        """Scale out by one worker: register its link, start it, wait
        until the router is connected, then rebalance — migrating
        exactly the sessions the grown ring assigns to the newcomer
        (the :meth:`HashRing.plan_rebalance` minimum) and no others.
        """
        if shard is None:
            while shard is None or shard in self.router.links:
                shard = f"w{self._next_worker}"
                self._next_worker += 1
        self.router.add_shard(shard)
        await self.launcher.add_shard(shard)
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
                live = self.router.live_shards()
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


def tick_events(
    ticks,
    *,
    end_t: float | None = None,
    sweep_idle: float = 0.0,
    before_tick=None,
    before_barrier=None,
) -> list[tuple]:
    """The plain event script of tick groups.

    Each group's ops, then a ``tick`` at its ``t``; then a trailing
    tick to ``end_t`` (when given) and a ``sweep`` — the drain
    ``run_load`` performs in-process.  ``before_tick(i, t)`` and
    ``before_barrier()`` ride along as ``wait`` steps ahead of group
    ``i`` and after the sweep (chaos hooks inject crashes there, and
    wait for the fleet to heal so the stats barrier covers the replay).
    """
    events: list[tuple] = []
    for i, (t, group) in enumerate(ticks):
        if before_tick is not None:
            events.append(("wait", lambda _, i=i, t=t: before_tick(i, t)))
        events.append(("ops", t, group))
        events.append(("tick", t))
    if end_t is not None:
        events.append(("tick", end_t))
    events.append(("sweep", sweep_idle))
    if before_barrier is not None:
        events.append(("wait", lambda _: before_barrier()))
    return events


async def _churn(host: str, port: int) -> None:
    """One short-lived extra client: probe, garbage, hang up.

    Exercises connection churn without perturbing the primary stream —
    replies are per-connection, and neither line below touches the
    shared clock or any session.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"op": "hello", "framing": "lp1"}\nnot json!\n')
        await writer.drain()
        for reason in ("framing lp1 unsupported", "bad json"):
            reply = json.loads(await reader.readline())
            if reply["kind"] != "error" or not reply["reason"].startswith(reason):
                raise AssertionError(f"churn expected {reason!r}: {reply}")
    finally:
        writer.close()
        with suppress(ConnectionError, OSError):
            await writer.wait_closed()


async def drive_events(
    host: str,
    port: int,
    events,
    *,
    cluster=None,
    barrier_timeout: float = 120.0,
):
    """Play an event script over one client connection; collect replies.

    Works against a :class:`~repro.serve.GestureServer` or a
    :class:`~repro.cluster.router.Router` alike — the protocol is the
    same, which is the invariant under test.  Events are tuples whose
    first element is the kind:

    - ``("ops", t, group)`` — one tick group of ``(op, stroke, x, y)``
    - ``("tick", t)`` / ``("sweep", max_idle)`` — barriers
    - ``("swap", user, model, t)`` — a model swap request
    - ``("raw", line)`` — a verbatim line (malformed or non-canonical)
    - ``("drain", shard)`` / ``("scale", n)`` — the admin requests
    - ``("crash", shard)`` / ``("join",)`` — ``cluster.kill`` /
      ``cluster.join``
    - ``("wait", step)`` — ``await step(cluster)``: a hook, or a block
      until a topology move completes
    - ``("churn",)`` — an unrelated connection opens, errs, closes

    Request lines go out in one write per tick barrier, and before any
    event that acts off the connection.  The script ends with the
    ``stats`` completion barrier.  Returns ``(replies, stats)``:
    ``replies`` maps each stroke id to its reply lines in arrival order
    (replies without a stroke land under ``""``); ``stats`` is the
    decoded barrier reply.
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
    out: list[str] = []

    async def flush() -> None:
        if out:
            writer.write(("\n".join(out) + "\n").encode())
            out.clear()
            await writer.drain()

    try:
        for event in events:
            kind = event[0]
            if kind == "ops":
                _, t, group = event
                out.extend(
                    json.dumps(
                        {"op": name, "stroke": key, "x": x, "y": y, "t": t}
                    )
                    for name, key, x, y in group
                )
            elif kind == "tick":
                out.append(json.dumps({"op": "tick", "t": event[1]}))
                await flush()
            elif kind == "sweep":
                out.append(json.dumps({"op": "sweep", "max_idle": event[1]}))
            elif kind == "swap":
                _, user, model, t = event
                out.append(
                    json.dumps(
                        {"op": "swap", "user": user, "model": model, "t": t}
                    )
                )
            elif kind == "raw":
                out.append(event[1])
            elif kind == "drain":
                out.append(json.dumps({"op": "drain", "shard": event[1]}))
            elif kind == "scale":
                out.append(json.dumps({"op": "scale", "workers": event[1]}))
            else:
                await flush()
                if kind == "crash":
                    await cluster.kill(event[1])
                elif kind == "join":
                    await cluster.join()
                elif kind == "wait":
                    await event[1](cluster)
                elif kind == "churn":
                    await _churn(host, port)
                else:  # pragma: no cover - scripted by the test author
                    raise ValueError(f"unknown script event: {event!r}")
        out.append('{"op": "stats"}')
        await flush()
        await asyncio.wait_for(done.wait(), timeout=barrier_timeout)
    finally:
        read_task.cancel()
        writer.close()
        with suppress(ConnectionError, OSError):
            await writer.wait_closed()
    return replies, stats


async def drive_cluster(
    host: str, port: int, ticks, *, barrier_timeout: float = 120.0, **script
):
    """:func:`drive_events` over the plain script
    ``tick_events(ticks, **script)``."""
    return await drive_events(
        host, port, tick_events(ticks, **script), barrier_timeout=barrier_timeout
    )


def _raw_reply(line: str, first: bool):
    """Predict the router's reply for a line that is not a session op.

    Mirrors the router's json path exactly (same json error text, same
    ``decode_payload`` messages, same hello negotiation), so expected
    error bytes need no hand-maintained table.  Returns ``(reply,
    None)`` for error/hello lines and ``(None, request)`` when the line
    is a *valid* session op in non-canonical form, which the reference
    must then apply to the pool.  ``first`` says whether this is the
    connection's very first line — a hello is then a genuine
    negotiation probe (refused: the client hop is NDJSON-only) rather
    than the late-hello error.
    """
    try:
        payload = json.loads(line)
    except ValueError as exc:
        return encode_error(f"bad json: {exc}"), None
    if isinstance(payload, dict) and payload.get("op") == "hello":
        reply, _ = negotiate(payload, first=first, allow_lp1=False)
        return reply, None
    try:
        request = decode_payload(payload)
    except ProtocolError as exc:
        return encode_error(str(exc)), None
    if request.op in INTERNAL_OPS:
        return (
            encode_error(
                f"internal op: {request.op}",
                stroke=request.stroke,
                t=request.t,
            ),
            None,
        )
    return None, request


def reference_events(
    recognizer,
    events,
    *,
    registry=None,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[str, list[str]]:
    """What one :class:`SessionPool` — and the router's own replies —
    say to the event script :func:`drive_events` plays.

    The pool is driven the way :func:`~repro.serve.run_load` drives it —
    submit each group's ops, advance at each barrier — and decisions
    are encoded with the protocol encoder, so the per-stroke line lists
    compare (``==``) with :func:`drive_events`'.  Crash, join, wait and
    churn events are skipped: the invariant under test is precisely
    that they leave no trace in the reply bytes.  Drains and scales
    contribute only their ack line; routing changes are invisible.
    """
    pool = SessionPool(recognizer, timeout=timeout)
    replies: dict[str, list[str]] = {}
    latest = float("-inf")
    # Whether any line has been sent on the connection yet — a raw
    # hello landing *first* takes the negotiation path (refused, the
    # client hop is NDJSON-only), not the late-hello error.
    seen = False

    def emit(decisions) -> None:
        for d in decisions:
            replies.setdefault(d.key, []).append(encode_decision(d, d.key))

    def misc(line: str) -> None:
        replies.setdefault("", []).append(line)

    for event in events:
        kind = event[0]
        if kind == "ops":
            _, t, group = event
            if group:
                pool.submit(group, t)
                latest = max(latest, t)
                seen = True
        elif kind == "tick":
            latest = max(latest, event[1])
            emit(pool.advance_to(latest))
            seen = True
        elif kind == "sweep":
            if latest > float("-inf"):
                emit(pool.advance_to(latest))
            emit(pool.evict_idle(event[1]))
            seen = True
        elif kind == "swap":
            _, user, model, t = event
            name, _, version = model.partition("@")
            if not version:
                version = registry.latest_version(name)
            pinned = f"{name}@{version}"
            pool.swap_model(
                user, registry.load(name, version), t, label=pinned
            )
            misc(encode_swap(user, pinned, t))
            seen = True
        elif kind == "raw":
            reply, request = _raw_reply(event[1], first=not seen)
            seen = True
            if reply is not None:
                misc(reply)
            else:
                pool.submit(
                    [(request.op, request.stroke, request.x, request.y)],
                    request.t,
                )
                latest = max(latest, request.t)
        elif kind == "drain":
            misc(
                json.dumps(
                    {"kind": "drain", "shard": event[1], "status": "started"}
                )
            )
            seen = True
        elif kind == "scale":
            misc(
                json.dumps(
                    {"kind": "scale", "workers": event[1], "status": "started"}
                )
            )
            seen = True
    return replies


def reference_lines(
    recognizer, ticks, *, timeout: float = DEFAULT_TIMEOUT, **script
) -> dict[str, list[str]]:
    """What one :class:`SessionPool` replies to :func:`drive_cluster`:
    :func:`reference_events` over ``tick_events(ticks, **script)``."""
    return reference_events(
        recognizer, tick_events(ticks, **script), timeout=timeout
    )
