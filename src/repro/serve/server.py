"""An asyncio front end over the session pool.

:class:`GestureServer` accepts newline-delimited JSON event streams
(see :mod:`repro.serve.protocol`) over TCP, and offers the identical
interface in-process through :meth:`GestureServer.open_channel` — tests
and embedders talk to the same pump the sockets do.

Concurrency model
-----------------

All recognition runs on one *pump* task.  Every connection (and every
in-process channel) pushes decoded requests into one inbox — a
connection decodes each socket read in one regex pass
(:func:`~repro.serve.protocol.decode_block`) into one item, whose
canonical ops come as pool-ready runs keyed by their ``t`` text — and
the pump drains whatever has accumulated, applies it to the
:class:`~repro.serve.SessionPool` as one batch — which is exactly what
makes the batched evaluator pay off — and routes the resulting decisions
to per-channel bounded outboxes.  Backpressure is explicit at both ends:

* the inbox is bounded in ops (``queue_size``; an item carries its op
  count); while it is full, a producing connection's reader coroutine
  is suspended (TCP flow control does the rest upstream);
* a full outbox means the consumer is not reading its replies; rather
  than buffer without bound or stall every other client, the server
  closes that channel.  Each closure only ever affects its own client.

Time is virtual, and advances **only at ``tick``/``sweep`` barriers**:
the server tracks the largest timestamp seen anywhere on its input
(``down``/``move``/``up`` carry ``t``; ``tick`` carries only ``t``) and
moves the pool's clock to it when a barrier arrives, at the barrier's
position in line order.  Motionless timeouts therefore fire
deterministically from the recorded timeline — never from the server's
wall clock, and never from how lines happened to coalesce into read
batches.  All clients of one server share a single timeline.

Per-session errors (duplicate ``down``, pool exhaustion) come back as
``error`` replies on the offending stroke; malformed lines come back as
protocol ``error`` replies; neither disturbs other strokes or clients.

Observability and chaos are injected, never built in.  Pass an
``observer`` (:class:`~repro.obs.PoolObserver`) and the pool reports
spans and metrics through it, a ``stats`` request returns the metrics
snapshot, and the pump records its inbox batch sizes; pass a
``fault_injector`` (:class:`~repro.obs.FaultInjector`) and each pump
batch is run through it — drops, duplicates, delays (to a later pump
batch), reorders, and session kills — with ``tick``/``stats`` requests
exempt.  With neither, the pump path is exactly as before.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import suppress
from time import perf_counter

from ..eager import EagerRecognizer
from ..interaction import DEFAULT_TIMEOUT
from .framing import DEFAULT_MAX_FRAME, FrameReader, encode_frames, negotiate
from .lines import LineReader
from .pool import Decision, SessionPool
from .protocol import (
    ProtocolError,
    Request,
    decode_block,
    decode_frame,
    encode_decision,
    encode_error,
    encode_stats,
    encode_swap,
)

__all__ = ["Channel", "DEFAULT_MAX_LINE", "GestureServer"]

# Cap on one NDJSON request line; far beyond any legitimate request
# (the longest op is a down/move/up with four floats).
DEFAULT_MAX_LINE = 65536

_CLOSE = object()  # outbox sentinel

_SESSION_OPS = ("down", "move", "up")


def _requests(channel: Channel, items) -> list[Request]:
    """One read's items with every run expanded into per-op requests."""
    cut = len(channel.prefix)
    out = []
    for item in items:
        if item.__class__ is tuple:
            t, ops = item
            out.extend(Request(op, t, key[cut:], x, y) for op, key, x, y in ops)
        else:
            out.append(item)
    return out


def _size(item: tuple) -> int:
    """Ops in one inbox item: ``(channel, requests)`` from
    :meth:`Channel.send`, or ``(channel, items, ops)`` for a read whose
    runs each hold many ops."""
    return item[2] if len(item) > 2 else len(item[1])


class _Inbox(asyncio.Queue):
    """The pump's inbox of channel items, bounded in ops.

    A connection queues each read's requests as one item, so a bound on
    items would let the number of queued ops grow with the read size.
    Counting ops keeps ``queue_size`` the bound it was when every op was
    its own item.  An item is admitted whenever fewer than ``maxsize``
    ops are queued, so a read larger than the bound cannot deadlock.
    """

    def _init(self, maxsize):
        super()._init(maxsize)
        self.ops = 0

    def _put(self, item):
        super()._put(item)
        self.ops += _size(item)

    def _get(self):
        item = super()._get()
        self.ops -= _size(item)
        return item

    def full(self) -> bool:
        return 0 < self._maxsize <= self.ops


class _Wire:
    """One TCP connection's negotiated framing, shared between the
    reader loop (which switches it) and the reply drain task (which
    encodes with it)."""

    __slots__ = ("mode",)

    def __init__(self):
        self.mode = "ndjson"


class Channel:
    """One client's two-way lane to the server, TCP-backed or in-process."""

    def __init__(self, server: "GestureServer", channel_id: str, queue_size: int):
        self._server = server
        self.id = channel_id
        self.prefix = channel_id + "/"  # session-key namespace
        self.closed = False
        self._outbox: asyncio.Queue = asyncio.Queue(maxsize=queue_size)

    async def send(self, request: Request) -> None:
        """Submit one request; suspends while the server inbox is full."""
        if self.closed:
            raise ConnectionError("channel is closed")
        await self._server._inbox.put((self, (request,)))

    async def recv(self) -> str | None:
        """Next reply line, or None once the channel is closed and drained."""
        item = await self._outbox.get()
        if item is _CLOSE:
            return None
        return item

    def close(self) -> None:
        self._server._close_channel(self)

    # -- server side ---------------------------------------------------------

    def _push(self, line: str) -> bool:
        """Queue a reply; False means the outbox overflowed (slow consumer)."""
        try:
            self._outbox.put_nowait(line)
            return True
        except asyncio.QueueFull:
            return False

    def _push_close(self) -> None:
        if self._outbox.full():  # make room: the consumer is gone anyway
            with suppress(asyncio.QueueEmpty):
                self._outbox.get_nowait()
        with suppress(asyncio.QueueFull):
            self._outbox.put_nowait(_CLOSE)


class GestureServer:
    """Serve one recognizer to many concurrent clients."""

    def __init__(
        self,
        recognizer: EagerRecognizer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
        max_sessions: int = 4096,
        queue_size: int = 1024,
        max_line: int = DEFAULT_MAX_LINE,
        max_frame: int = DEFAULT_MAX_FRAME,
        observer=None,
        fault_injector=None,
        registry=None,
        allow_lp1: bool = True,
        model_cache: int | None = None,
        record=None,
    ):
        # Model source for `swap`/`pin` requests: a ModelRegistry, a
        # registry root path, or None (those ops are then rejected with
        # an error reply — a server without a registry still speaks the
        # full protocol).
        if registry is not None and not hasattr(registry, "load"):
            from .registry import ModelRegistry

            registry = ModelRegistry(registry)
        self.registry = registry
        if model_cache is not None and registry is None:
            raise ValueError("model_cache needs a registry to reload from")
        self.pool = SessionPool(
            recognizer,
            timeout=timeout,
            max_sessions=max_sessions,
            observer=observer,
            max_models=model_cache,
            model_loader=self._load_label if model_cache is not None else None,
        )
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.max_line = max_line
        self.max_frame = max_frame
        self.allow_lp1 = allow_lp1
        # Cumulative pump busy time (recognition work, not transport):
        # the worker half of the cluster benchmark's breakdown, exported
        # on stats replies as "busy_s".
        self.busy_s = 0.0
        self.observer = observer
        self.fault_injector = fault_injector
        # Optional traffic journal: every applied down/move/up is
        # written as an adapt-harvest ``{"rec": "op", ...}`` record, so
        # a live server feeds `repro adapt` directly — no loadgen
        # `--record` replay needed.  Post-fault: the journal holds what
        # the recognizer actually saw.
        self._record = None
        self._record_owned = False
        if record is not None:
            if hasattr(record, "write"):
                self._record = record
            else:
                self._record = open(record, "w")
                self._record_owned = True
        # Largest timestamp seen anywhere on the input stream, across
        # pump batches.  Barriers advance the pool clock to this value,
        # so when a timeout fires depends only on line order, never on
        # how lines coalesced into batches.
        self._latest = float("-inf")
        self._batch_no = 0
        self._inbox = _Inbox(maxsize=queue_size)
        self._channels: dict[str, Channel] = {}
        self._next_channel = 0
        self._server: asyncio.AbstractServer | None = None
        # Each TCP connection's handler task and its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._pump_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for channel in list(self._channels.values()):
            self._close_channel(channel)
        # Abort each connection's transport, so its handler reads EOF
        # and returns (its channel is closed, so nothing more is read):
        # a handler left to be cancelled makes asyncio log a
        # CancelledError traceback.
        handlers = list(self._connections.items())
        for _, writer in handlers:
            writer.transport.abort()
        await asyncio.gather(*(task for task, _ in handlers))
        if self._pump_task is not None:
            self._pump_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._pump_task
            self._pump_task = None
        if self._record is not None:
            self._record.flush()
            if self._record_owned:
                self._record.close()
            self._record = None

    # -- the in-process API ---------------------------------------------------

    async def open_channel(self) -> Channel:
        """A client lane without a socket: same pump, same protocol."""
        self._next_channel += 1
        channel = Channel(self, f"c{self._next_channel}", self.queue_size)
        self._channels[channel.id] = channel
        return channel

    # -- the pump -------------------------------------------------------------

    async def _pump(self) -> None:
        while True:
            batch = [await self._inbox.get()]
            while True:
                try:
                    batch.append(self._inbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            t0 = perf_counter()
            self._apply(batch)
            self.busy_s += perf_counter() - t0

    @staticmethod
    def _fault_key(item: tuple[Channel, Request]) -> str | None:
        """Session key of one pump item; None exempts it from faults."""
        channel, request = item
        if request.op not in _SESSION_OPS:
            return None
        return channel.prefix + request.stroke

    def _apply(self, batch: list[tuple]) -> None:
        """Apply one pump batch; the clock advances at barriers only.

        ``tick`` and ``sweep`` requests split the batch into segments:
        each segment's operations are applied, then the clock advances
        to the largest timestamp seen so far *on the whole stream* —
        at the barrier's position in line order.  Operations outside a
        barrier are applied (eager recognitions and ``up`` commits
        still come back promptly) but never move the clock, so a
        motionless timeout cannot fire earlier or later depending on
        how lines coalesced into pump batches.  Decisions are a pure
        function of input line order — the property the cluster
        router's crash-replay equivalence rests on.
        """
        if self.observer is not None:
            self.observer.server_batch(sum(_size(item) for item in batch))
        live = [item[:2] for item in batch if not item[0].closed]
        kills: list = []
        if self.fault_injector is not None or self._record is not None:
            # Faults and the journal act per op: expand the runs.
            live = [(c, _requests(c, items)) for c, items in live]
        if self.fault_injector is not None:
            # Faults act per op: flatten the read batches, mangle them,
            # and carry on with each delivered op as its own item.
            self._batch_no += 1
            delivered, kills = self.fault_injector.apply(
                self._batch_no,
                [(channel, r) for channel, requests in live for r in requests],
                key=self._fault_key,
            )
            live = [(channel, (request,)) for channel, request in delivered]
        submit = self.pool.submit
        latest = self._latest
        dirty = False  # pool input buffered since the last barrier
        stats_requests: list[Channel] = []
        decisions: list[Decision] = []
        released: list[tuple[Channel, str]] = []
        for channel, items in live:
            prefix = channel.prefix
            for request in items:
                if request.__class__ is tuple:  # a run: pool-ready ops
                    t = request[0]
                    submit(request[1], t)
                    dirty = True
                    if t > latest:
                        latest = t
                    continue
                op = request.op
                if op in _SESSION_OPS:
                    key = prefix + request.stroke
                    submit([(op, key, request.x, request.y)], request.t)
                    if self._record is not None:
                        self._record_op(channel, key, request)
                    dirty = True
                    if request.t > latest:
                        latest = request.t
                    continue
                if op == "stats":
                    stats_requests.append(channel)
                    continue
                if op in ("tick", "sweep"):
                    if request.t > latest:
                        latest = request.t
                    decisions.extend(self.pool.advance_to(latest))
                    if op == "sweep":
                        decisions.extend(self.pool.evict_idle(request.max_idle))
                    dirty = False
                    continue
                if op == "swap":
                    line, applied = self._swap(channel, request)
                    dirty = dirty or applied
                    if not channel.closed and not channel._push(line):
                        self._close_channel(channel)
                    continue
                key = prefix + request.stroke
                if op == "release":
                    # Migration handoff: forget the session silently, then
                    # ack *after* this batch's decisions route — the ack
                    # orders behind any still-in-flight reply for the key.
                    self.pool.release(key, request.t)
                    dirty = True
                    released.append((channel, request.stroke))
                    continue
                if op == "pin":
                    line, applied = self._pin(channel, key, request)
                    dirty = dirty or applied
                    if line is not None:
                        if not channel.closed and not channel._push(line):
                            self._close_channel(channel)
        self._latest = latest
        for key in kills:
            self.pool.kill(
                key, latest if latest != float("-inf") else self.pool.clock.now
            )
            dirty = True
        if dirty:
            decisions.extend(self.pool.flush())
        for decision in decisions:
            self._route(decision)
        for channel, stroke in released:
            line = json.dumps({"kind": "released", "stroke": stroke})
            if not channel.closed and not channel._push(line):
                self._close_channel(channel)
        if self._record is not None:
            self._record.flush()
        if stats_requests:
            observer = self.observer
            snapshot = (
                observer.metrics.snapshot()
                if observer is not None and observer.metrics is not None
                else None
            )
            profiler = (
                getattr(observer, "profiler", None)
                if observer is not None
                else None
            )
            line = encode_stats(
                snapshot,
                t=self.pool.clock.now,
                sessions=len(self.pool),
                channels=len(self._channels),
                profile=profiler.snapshot() if profiler is not None else None,
                busy_s=round(self.busy_s, 6),
            )
            for channel in stats_requests:
                if not channel.closed and not channel._push(line):
                    self._close_channel(channel)

    def _record_op(self, channel: Channel, key: str, request: Request) -> None:
        """Journal one applied down/move/up as an adapt-harvest record."""
        self._record.write(
            json.dumps(
                {
                    "rec": "op",
                    "op": request.op,
                    "user": channel.id,
                    "stroke": key,
                    "x": request.x,
                    "y": request.y,
                    "t": request.t,
                }
            )
            + "\n"
        )

    def _swap(self, channel: Channel, request: Request) -> tuple[str, bool]:
        """Resolve one swap against the registry; returns (reply, applied).

        The swapped prefix is ``channel.id/user`` — users are namespaced
        per channel exactly like strokes, so one client's swap can never
        rebind another client's sessions.  The swap is buffered into the
        pool at its position in line order; the ack carries the resolved
        ``name@version``.  A registry-less server or an unknown model
        answers with an ``error`` reply and changes nothing.
        """
        if self.registry is None:
            return (
                encode_error("swap unsupported: no registry", t=request.t),
                False,
            )
        name, _, version = request.model.partition("@")
        try:
            recognizer = self.registry.load(name, version or None)
            resolved = version or self.registry.latest_version(name)
        except (KeyError, OSError, ValueError) as exc:
            return encode_error(f"swap failed: {exc}", t=request.t), False
        label = f"{name}@{resolved}"
        self.pool.swap_model(
            f"{channel.id}/{request.user}", recognizer, request.t, label=label
        )
        return encode_swap(request.user, label, request.t), True

    def _load_label(self, label: str):
        """Registry loader for the pool's bounded model cache."""
        name, _, version = label.partition("@")
        return self.registry.load(name, version or None)

    def _pin(
        self, channel: Channel, key: str, request: Request
    ) -> tuple[str | None, bool]:
        """One-shot model pin for ``key``'s next open; (reply, applied).

        Success is silent — the router replays pins ahead of a migrated
        journal and absorbs no ack.  ``model: ""`` pins the default
        model and needs no registry; anything else resolves like a
        swap, answering an ``error`` reply on failure.
        """
        if not request.model:
            self.pool.pin(key, None, request.t)
            return None, True
        if self.registry is None:
            return (
                encode_error(
                    "pin unsupported: no registry",
                    stroke=request.stroke,
                    t=request.t,
                ),
                False,
            )
        name, _, version = request.model.partition("@")
        try:
            recognizer = self.registry.load(name, version or None)
        except (KeyError, OSError, ValueError) as exc:
            return (
                encode_error(
                    f"pin failed: {exc}", stroke=request.stroke, t=request.t
                ),
                False,
            )
        self.pool.pin(key, recognizer, request.t, label=request.model)
        return None, True

    def _route(self, decision: Decision) -> None:
        channel_id, _, stroke = decision.key.partition("/")
        channel = self._channels.get(channel_id)
        if channel is None or channel.closed:
            return
        if not channel._push(encode_decision(decision, stroke)):
            # Documented backpressure policy: a consumer that stops
            # reading loses its channel, not the whole server.
            self._close_channel(channel)

    def _close_channel(self, channel: Channel) -> None:
        if channel.closed:
            return
        channel.closed = True
        self._channels.pop(channel.id, None)
        channel._push_close()

    # -- TCP ------------------------------------------------------------------

    def _frame_error(self, kind: str, mode: str) -> str:
        if kind == "overflow":
            if mode == "lp1":
                return encode_error(f"frame exceeds {self.max_frame} bytes")
            return encode_error(f"line exceeds {self.max_line} bytes")
        if kind == "garbage":
            return encode_error("bad frame magic")
        return encode_error("truncated frame")

    def _bad_request_reply(
        self, line: bytes, exc: ProtocolError, first: bool
    ) -> tuple[str, str | None]:
        """The reply to one undecodable line, and the framing it switches to.

        A ``hello`` is the one op :func:`decode_request` does not know:
        on a connection's first line it negotiates the framing, and
        after that it deserves a more specific message than ``unknown
        op: 'hello'`` — framing cannot be renegotiated mid-connection
        (replies already in flight would straddle the switch).  Only the
        (rare) error path pays the re-parse.
        """
        if b'"hello"' in line:
            try:
                payload = json.loads(line)
            except ValueError:
                payload = None
            if isinstance(payload, dict) and payload.get("op") == "hello":
                return negotiate(payload, first=first, allow_lp1=self.allow_lp1)
        return encode_error(str(exc)), None

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        channel = await self.open_channel()
        wire = _Wire()
        drain_task = asyncio.get_running_loop().create_task(
            self._drain_replies(channel, writer, wire)
        )
        frames = LineReader(reader, self.max_line, blocks=True)
        prefix = channel.prefix
        errors: list[tuple[bytes, ProtocolError]] = []
        first = True  # nothing decoded yet: a hello can still switch
        try:
            eof = False
            while not channel.closed and not eof:
                if first:
                    # One event at a time until the framing is settled:
                    # bytes after a hello line are frames, not lines,
                    # and must not be consumed by the line scanner.
                    events = [await frames.next()]
                else:
                    events = await frames.next_batch()
                items: list = []  # this read's runs and requests: one put
                ops = 0
                for kind, data in events:
                    if kind == "block":
                        ops += decode_block(data, prefix, items, errors)
                    elif kind == "line":
                        ops += decode_frame(data, prefix, items, errors)
                    elif kind == "eof":
                        eof = True
                        break
                    else:
                        # One bad line/frame is not a reason to lose
                        # every other in-flight stroke: report it and
                        # keep the connection.
                        first = False
                        if not channel._push(self._frame_error(kind, wire.mode)):
                            eof = True
                            break
                        continue
                    for line, exc in errors:
                        reply, mode = self._bad_request_reply(line, exc, first)
                        if mode == "lp1":
                            # The ack is the first lp1 frame; bytes the
                            # line scanner had already buffered are frames.
                            wire.mode = mode
                            frames = FrameReader(
                                reader, self.max_frame, initial=frames.take_buffer()
                            )
                        if not channel._push(reply):
                            eof = True
                            break
                    if ops or errors:
                        first = False
                    errors.clear()
                    if eof:
                        break
                if ops and not channel.closed:
                    await self._inbox.put((channel, items, ops))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._close_channel(channel)
            with suppress(asyncio.CancelledError):
                await drain_task
            writer.close()
            with suppress(ConnectionError):
                await writer.wait_closed()
            self._connections.pop(task, None)

    async def _drain_replies(self, channel: Channel, writer, wire=None) -> None:
        mode = wire if wire is not None else _Wire()
        with suppress(ConnectionError):
            closing = False
            while not closing:
                line = await channel.recv()
                if line is None:
                    break
                # Coalesce everything already queued into one write():
                # replies leave in one syscall per pump pass, not one
                # per decision.
                batch = [line]
                while True:
                    try:
                        item = channel._outbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is _CLOSE:
                        closing = True
                        break
                    batch.append(item)
                if mode.mode == "lp1":
                    data = encode_frames(l.encode() for l in batch)
                else:
                    data = b"".join(l.encode() + b"\n" for l in batch)
                writer.write(data)
                await writer.drain()
