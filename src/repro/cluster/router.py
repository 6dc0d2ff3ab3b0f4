"""The cluster front door: one address, N workers, zero new semantics.

The router speaks the exact :mod:`repro.serve.protocol` NDJSON dialect
on its client side and is itself a plain client on its worker side, so
neither end can tell the cluster apart from a single
:class:`~repro.serve.GestureServer` — which is the point: routed
decisions are *byte-identical* to a single-pool run.

Mechanics:

* both hops speak NDJSON.  Each valid ``down``/``move``/``up`` line is
  canonicalized once at the router — rebuilt in ``json.dumps``'s shape
  with its stroke namespaced ``client:stroke`` — and an op with a
  non-finite value is refused at the edge with the same error bytes a
  worker would send (:mod:`repro.cluster.fastpath`);
* every session key (``client:stroke``) is consistent-hashed onto a
  shard (:class:`~repro.cluster.ring.HashRing`) and stays there —
  sticky routing, so one session's ops never interleave across workers;
* ``tick``/``sweep`` are broadcast to every live worker: all shards
  share one virtual timeline, exactly as all sessions of a single pool
  share one clock.  Sweeps are additionally journaled per shard (a
  worker can die before processing one) and pruned once no live
  journal entry precedes them;
* every routed op is journaled per session with lazy clock markers
  (:mod:`repro.cluster.journal`); when the supervisor restarts a
  crashed worker, the router replays the journals of that shard's live
  sessions in original global order, suppresses the replies it had
  already forwarded (by count — replay is deterministic, so the prefix
  is bit-equal), and forwards the rest.  Clients see a complete,
  duplicate-free, byte-identical decision stream across a crash;
* ``stats`` fans out to every live worker and the per-worker metric
  snapshots are merged (:func:`repro.obs.merge_snapshots`) together
  with the router's own ``cluster.*`` registry into one fleet-wide
  reply;
* ``swap`` is resolved against the router's registry — the version is
  *pinned* at routing time, so a replay after the registry's latest
  moved applies the same model — then broadcast to every worker (a
  user's sessions can land on any shard) with the user rewritten to
  ``client:user``, mirroring stroke namespacing.  Swaps are journaled
  per shard in full (never pruned — they are rare and bind *future*
  sessions, so no live-session floor applies) and re-applied on crash
  replay; re-application is idempotent because the line carries the
  pinned version.  The router synthesizes exactly one ack itself and
  drops the N worker acks, keeping the client's stream identical to a
  single server's.

The router accepts three admin ops beyond the serve protocol:
``{"op": "cluster"}`` returns shard states,
``{"op": "drain", "shard": ...}`` starts a graceful drain (new sessions
spill to the ring successor; live sessions *migrate* off — see below —
so the shard retires immediately, never evicting anyone), and
``{"op": "scale", "workers": n}`` asks the harness to grow or shrink
the fleet to ``n`` workers.

Live migration reuses the crash-replay machinery against a *planned*
move: the migrating session's journal (ops, clock markers, and a
one-shot ``pin`` carrying the model it bound at open) is replayed into
the destination via the normal worker hop (each clock marker as the
session's own ``expire``: a warm destination's clock is already past
it), already-forwarded replies are suppressed by count, a ``release``
tells the source to forget the session (stale in-flight replies are
dropped until its ack), and the record is atomically re-pointed.
``migrate_off`` empties a shard;
``rebalance`` migrates exactly the sessions a ring change moves
(:meth:`HashRing.plan_rebalance` bounds that set).

Known limit: a record whose very first ``down`` was answered with a
``pool full`` error is dropped on that reply, but an error reply lost
to a crash *and* never re-derivable (the key never had a live session)
is at-most-once.  Session decisions — the recognition stream — are
exactly-once.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from contextlib import suppress
from itertools import count
from math import inf, isfinite
from time import perf_counter

from ..serve import DEFAULT_MAX_LINE, LineReader
from ..serve.framing import negotiate
from ..serve.protocol import (
    INTERNAL_OPS,
    ProtocolError,
    decode_payload,
    encode_error,
    encode_stats,
    encode_swap,
)
from .fastpath import OP_LINE, splice_reply
from .journal import SessionRecord, replay_lines
from .ring import HashRing

__all__ = ["Router"]

_NEG_INF = float("-inf")

# How every journaled clock marker (and replay's trailing tick) starts.
_TICK_PREFIX = '{"op": "tick"'

# The cap on one worker reply line.  Worker replies are trusted output,
# and a worker's ``stats`` reply grows with its metric count (more so
# with ``--quality`` histograms), so this hop does not share the client
# hop's line cap.
_WORKER_MAX_LINE = 1 << 20

# Error reasons that prove the worker holds no session for the key, so
# the router's record (and journal) can be dropped with it.
_GONE_REASONS = ("unknown stroke", "pool full")

# Migration freeze windows are sub-millisecond router work, far below
# the serve-latency decade ladder — they get their own bucket ladder.
_MIGRATION_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    1.0,
)


class _Mailbox:
    """A single-consumer list mailbox for the per-op hot path.

    ``put_nowait`` is a list append (plus one Event set when the list
    was empty) — several times cheaper than ``asyncio.Queue``'s
    put/get machinery — and ``take()`` hands the consumer *everything*
    queued in one call, which is exactly the coalescing the connection
    writers want anyway.  Single-threaded asyncio only: no locks.
    """

    __slots__ = ("items", "event", "taken")

    def __init__(self):
        self.items: list = []
        # Public: the batch router inlines put_nowait (append + set).
        self.event = asyncio.Event()
        # Set when the consumer takes the queue or is gone (a producer
        # held over a bound waits on it).
        self.taken = asyncio.Event()

    def put_nowait(self, item) -> None:
        self.items.append(item)
        if len(self.items) == 1:
            self.event.set()

    async def take(self) -> list:
        while not self.items:
            self.event.clear()
            await self.event.wait()
        batch = self.items
        self.items = []
        self.event.clear()
        self.taken.set()
        return batch


class _WorkerLink:
    """The router's connection (and outbound queue) to one worker."""

    __slots__ = (
        "shard",
        "state",
        "ups",
        "queue",
        "writer",
        "reader_task",
        "writer_task",
        "pending_stats",
        "extras",
        "swaps",
        "released",
    )

    def __init__(self, shard: str):
        self.shard = shard
        self.state = "down"
        self.ups = 0
        self.queue: _Mailbox | None = None
        self.writer = None
        self.reader_task: asyncio.Task | None = None
        self.writer_task: asyncio.Task | None = None
        self.pending_stats: deque = deque()
        self.extras: list[tuple[int, str]] = []  # shard-global journal
        # Swap journal, kept separate from `extras`: sweeps are pruned
        # against the shard's oldest *live* session (and cleared when
        # none), but a swap binds sessions that do not exist yet, so it
        # must survive arbitrary idle gaps and replay on every restart.
        self.swaps: list[tuple[int, str]] = []
        # Keys migrated *off* this worker whose `release` is still in
        # flight: any reply for them is a stale pre-release copy (the
        # destination owns the byte stream now) and must be dropped.
        # Wire order makes the protocol exact: stale replies < released
        # ack < anything a later migrate-back replays.
        self.released: set[str] = set()


class _Client:
    """One accepted client connection."""

    __slots__ = ("id", "ns", "outbox", "limit", "closed", "seen")

    def __init__(self, cid: str, queue_size: int):
        self.id = cid
        self.ns = cid + ":"  # namespace prefix, built once per connection
        self.outbox = _Mailbox()
        self.limit = queue_size  # backpressure: beyond it, push refuses
        self.closed = False
        self.seen = False  # any line processed yet (hello negotiation)

    def push(self, line: str) -> bool:
        if len(self.outbox.items) >= self.limit:
            return False
        self.outbox.put_nowait(line)
        return True


class Router:
    """Route the serve protocol across a shard fleet."""

    def __init__(
        self,
        shards,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 1024,
        max_line: int = DEFAULT_MAX_LINE,
        stats_timeout: float = 10.0,
        metrics=None,
        registry=None,
    ):
        self.ring = HashRing(shards)
        # Model source for `swap` requests: a ModelRegistry, a registry
        # root path, or None (swaps rejected with an error reply).
        if registry is not None and not hasattr(registry, "load"):
            from ..serve.registry import ModelRegistry

            registry = ModelRegistry(registry)
        self.registry = registry
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.max_line = max_line
        self.stats_timeout = stats_timeout
        # Duck-typed: anything with .counter(name).inc(n) and .snapshot().
        self.metrics = metrics
        # Hot-loop counters, resolved once (the generic _count path pays
        # a dict lookup per call).
        if metrics is not None:
            self._ops_routed = metrics.counter("cluster.ops_routed")
            self._replies_forwarded = metrics.counter("cluster.replies_forwarded")
            self._replies_suppressed = metrics.counter("cluster.replies_suppressed")
            self._migration_seconds = metrics.histogram(
                "cluster.migration_seconds", bounds=_MIGRATION_BUCKETS
            )
        else:
            self._ops_routed = None
            self._replies_forwarded = None
            self._replies_suppressed = None
            self._migration_seconds = None
        # Data-plane busy time (client-side routing / worker-side reply
        # handling), excluding every await — the "router_s" half of the
        # benchmark's router/worker/transport breakdown.
        self._client_in_s = 0.0
        self._worker_in_s = 0.0
        self.links = {shard: _WorkerLink(shard) for shard in self.ring.shards}
        self.sessions: dict[str, SessionRecord] = {}
        self.draining: set[str] = set()
        self.retired: set[str] = set()
        self.drain_hook = None  # async (shard) -> None; wired by the harness
        self.scale_hook = None  # async (workers) -> None; wired by the harness
        self.supervisor_status = None  # () -> dict; wired by the harness
        # Every swap ever routed, as (seq, "client:user" prefix, pinned
        # label): a live migration must re-pin the model the session
        # bound at *open* — the destination's present-day assignments
        # have moved on, so replaying the down alone would bind the
        # wrong model.  Swaps are rare and never pruned (same contract
        # as the per-link swap journals).
        self._swap_history: list[tuple[int, str, str]] = []
        self._clients: dict[str, _Client] = {}
        self._next_client = 0
        # Router-global journal sequence numbers: replay merges a
        # shard's journals back into their original order by them.
        self._next_seq = count().__next__
        # The *broadcast* clock: the highest t the router has actually
        # broadcast to workers as a tick/sweep barrier.  Workers advance
        # their pool clocks only at barriers, so this — and only this —
        # is where every live worker's clock stands; journal markers and
        # the replay's trailing tick are taken from it.  Op timestamps
        # never move it: an op's own t reaches the worker on the op line
        # itself and is folded in at the next barrier, which replay
        # reproduces from the journaled op lines.
        self._clock = _NEG_INF
        # The broadcast clock's journal marker, encoded once per barrier
        # instead of once per journalled op (see SessionRecord.journal).
        self._clock_line: str | None = None
        # Sweeps ever broadcast: quiesce() loops until a barrier round
        # completes with this unchanged, because a sweep racing a
        # migration is the one thing replay cannot repair.
        self._sweeps_broadcast = 0
        self._server: asyncio.AbstractServer | None = None
        # Each connected client's handler task and its stream writer.
        self._client_tasks: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )

    @property
    def address(self) -> tuple[str, int]:
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Abort each connected client's transport, so its handler reads
        # EOF and returns: a handler left to be cancelled makes asyncio
        # log a CancelledError traceback.  Marking the shards down
        # releases handlers waiting on a worker (mailbox room, stats).
        handlers = list(self._client_tasks.items())
        for client in list(self._clients.values()):
            self._close_client(client)
        for _, writer in handlers:
            writer.transport.abort()
        for shard in self.links:
            self._mark_down(shard)
        await asyncio.gather(*(task for task, _ in handlers))

    # -- metrics -------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    # -- worker side ---------------------------------------------------------

    async def worker_up(self, shard: str, host: str, port: int) -> None:
        """Connect a (re)started worker and replay its shard's journals.

        Everything after the connect is synchronous, so ops that arrive
        during the connect are journaled and land in the replay, never
        double-sent.
        """
        reader, writer = await asyncio.open_connection(host, port)
        link = self.links[shard]
        records = [r for r in self.sessions.values() if r.shard == shard]
        final_t = None if self._clock == _NEG_INF else self._clock
        lines = replay_lines(records, link.extras + link.swaps, final_t=final_t)
        for record in records:
            record.skip = record.delivered
        # link.extras is kept: this worker too can die before processing
        # a replayed sweep.  Stale entries are pruned as sweeps are
        # journaled (see _journal_sweep).
        link.queue = _Mailbox()  # stale pre-crash queue is discarded
        for line in lines:
            link.queue.put_nowait(line)
        link.writer = writer
        link.state = "up"
        link.ups += 1
        if link.ups > 1:
            self._count("cluster.worker_restarts")
            if lines:
                self._count("cluster.replays")
                self._count("cluster.replayed_lines", len(lines))
        loop = asyncio.get_running_loop()
        link.writer_task = loop.create_task(self._worker_writer(link, writer))
        link.reader_task = loop.create_task(self._worker_reader(link, reader))

    async def worker_down(self, shard: str) -> None:
        self._mark_down(shard)

    def _mark_down(self, shard: str) -> None:
        link = self.links[shard]
        if link.state != "up":
            return
        link.state = "down"
        current = asyncio.current_task()
        for task in (link.reader_task, link.writer_task):
            if task is not None and task is not current:
                task.cancel()
        link.reader_task = link.writer_task = None
        link.queue.taken.set()  # release clients held by _await_room
        if link.writer is not None:
            link.writer.close()
            link.writer = None
        while link.pending_stats:  # unblock any stats fan-out in flight
            fut = link.pending_stats.popleft()
            if not fut.done():
                fut.set_result(None)
        # A dead worker holds no stale session copies: its replacement
        # starts empty, so nothing is left to drop.  Keeping entries
        # here could wrongly swallow replies if the key migrates back.
        link.released.clear()

    async def _worker_writer(self, link: _WorkerLink, writer) -> None:
        queue = link.queue
        with suppress(ConnectionError, asyncio.CancelledError):
            while True:
                # Coalesce: everything already queued leaves in one
                # write() — one join and one encode per pump pass.
                batch = await queue.take()
                batch.append("")  # the last line's newline
                writer.write("\n".join(batch).encode())
                await writer.drain()

    async def _worker_reader(self, link: _WorkerLink, reader) -> None:
        lines = LineReader(reader, _WORKER_MAX_LINE)
        try:
            eof = False
            while not eof:
                events = await lines.next_batch()
                t0 = perf_counter()
                for kind, raw in events:
                    if kind == "eof":
                        eof = True
                        break
                    if kind != "line":
                        # An overflow.  Only a stats reply can outgrow
                        # the cap (a decision echoes a stroke id of at
                        # most the client line cap), so its barrier is
                        # answered without that worker's numbers rather
                        # than left to wait out stats_timeout.
                        self._count("cluster.worker_frame_errors")
                        self._resolve_stats(link, None)
                        continue
                    raw = raw.strip()
                    if not raw:
                        continue
                    self._on_worker_line(link, raw.decode())
                self._worker_in_s += perf_counter() - t0
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if link.state == "up":
                self._mark_down(link.shard)

    def _on_worker_line(self, link: _WorkerLink, raw: str) -> None:
        fast = splice_reply(raw)
        if fast is not None:
            # A canonical decision reply: kind, key, and the
            # un-namespaced line came straight off the bytes.
            kind, key, line = fast
            obj = None
            terminal = kind == "commit" or kind == "evict"
        else:
            obj = json.loads(raw)
            kind = obj.get("kind")
            if kind == "swap":
                # Every worker acks a broadcast swap; the router already
                # synthesized the single client-facing ack at routing time.
                self._count("cluster.swap_acks_dropped")
                return
            if kind == "stats":
                self._resolve_stats(link, obj)
                return
            if kind == "released":
                # The source worker confirmed a migration handoff: every
                # stale reply for the key has already arrived (wire
                # order), so stop dropping.
                link.released.discard(obj.get("stroke", ""))
                return
            key = obj.get("stroke", "")
            line = None  # encoded lazily: a suppressed replay never needs it
            terminal = kind in ("commit", "evict") or (
                kind == "error" and obj.get("reason") in _GONE_REASONS
            )
        if link.released and key in link.released:
            # A stale copy from a worker the session migrated off —
            # the destination's replay owns this byte stream now.
            self._count("cluster.stale_replies_dropped")
            return
        record = self.sessions.get(key)
        if record is not None and record.skip > 0:
            # A replayed reply the client already has: bit-equal to the
            # one forwarded before the crash, so drop it by count.
            record.skip -= 1
            if self._replies_suppressed is not None:
                self._replies_suppressed.inc(1)
            if terminal:
                self.sessions.pop(key, None)
            return
        client_id, _, stroke = key.partition(":")
        if line is None:
            obj["stroke"] = stroke  # un-namespace; dumps() restores the bytes
            line = json.dumps(obj)
        if record is not None:
            record.delivered += 1
            client_id = record.client
            if terminal:
                self.sessions.pop(key, None)
        client = self._clients.get(client_id)
        if client is not None and not client.closed:
            if not client.push(line):
                self._close_client(client)
        if self._replies_forwarded is not None:
            self._replies_forwarded.inc(1)

    @staticmethod
    def _resolve_stats(link: _WorkerLink, reply) -> None:
        """Answer the link's oldest stats barrier (``None``: no numbers)."""
        if link.pending_stats:
            fut = link.pending_stats.popleft()
            if not fut.done():
                fut.set_result(reply)

    # -- client side ---------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self._next_client += 1
        client = _Client(f"k{self._next_client}", self.queue_size)
        self._clients[client.id] = client
        task = asyncio.current_task()
        self._client_tasks[task] = writer
        drain_task = asyncio.get_running_loop().create_task(
            self._client_writer(client, writer)
        )
        lines = LineReader(reader, self.max_line)
        try:
            while not client.closed:
                events = await lines.next_batch()
                if events[0][0] == "eof":
                    # next_batch never scans past an eof, so it is
                    # always the sole (first) event of its batch.
                    break
                t0 = perf_counter()
                start = 0
                while True:
                    # Routing is synchronous; only the rare ops that
                    # fan out (admin, stats) hand back an awaitable —
                    # kept outside the busy-time accounting, which
                    # measures data-plane work, not waits.
                    pending, start = self._route_batch(client, events, start)
                    if pending is None:
                        break
                    self._client_in_s += perf_counter() - t0
                    await pending
                    t0 = perf_counter()
                self._client_in_s += perf_counter() - t0
                await self._await_room()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._close_client(client)
            with suppress(asyncio.CancelledError):
                await drain_task
            writer.close()
            with suppress(ConnectionError):
                await writer.wait_closed()
            self._client_tasks.pop(task, None)

    async def _await_room(self) -> None:
        """Hold a client's reads while an up worker's mailbox holds more
        than ``queue_size`` lines, as many ops as the worker's inbox
        admits: a worker that falls behind slows its clients instead of
        growing router memory.  Replay, migration and stats probes
        queue without this check."""
        for link in list(self.links.values()):  # a join may add one
            while link.state == "up" and len(link.queue.items) > self.queue_size:
                taken = link.queue.taken
                taken.clear()
                await taken.wait()

    async def _client_writer(self, client: _Client, writer) -> None:
        outbox = client.outbox
        with suppress(ConnectionError):
            closing = False
            while not closing:
                # Coalesce queued replies into one write() per wakeup.
                batch = await outbox.take()
                if batch[-1] is None:  # the common close: sentinel last
                    closing = True
                    batch.pop()
                elif None in batch:
                    closing = True
                    batch = batch[: batch.index(None)]
                if batch:
                    batch.append("")  # the last line's newline
                    writer.write("\n".join(batch).encode())
                    await writer.drain()

    def _close_client(self, client: _Client) -> None:
        if client.closed:
            return
        client.closed = True
        self._clients.pop(client.id, None)
        # The sentinel bypasses the backpressure limit: closing must
        # always be deliverable to the writer task.
        client.outbox.put_nowait(None)

    def _route_batch(self, client: _Client, events, start: int):
        """Route one read's worth of client lines, starting at ``start``.

        Every ``down``/``move``/``up`` line that ``OP_LINE`` takes —
        canonical, or with other JSON whitespace — and whose values are
        finite is rebuilt in the canonical shape with the ``client:``
        namespace in its stroke (one f-string, which costs less than
        slicing the line), journaled, and forwarded right here, with
        every per-op ``self``/``client`` attribute read hoisted into a
        local once per batch.  Every other line takes
        :meth:`_route_json`, which hands a valid op back — re-encoded
        canonically — to the same journal and forward code.

        Returns ``(pending, resume)``: ``pending`` is an awaitable only
        when a line fanned out (admin, stats) — the caller awaits it
        outside the busy window and re-enters at index ``resume``.
        """
        match = OP_LINE.match
        sessions = self.sessions
        links = self.links
        next_seq = self._next_seq
        ns = client.ns
        cid = client.id
        seen = client.seen
        clock = self._clock
        ops = 0
        pending = None
        i = start
        n = len(events)
        while i < n:
            kind, bline = events[i]
            i += 1
            if kind != "line":  # overflow: the only other mid-batch kind
                if not client.push(
                    encode_error(f"line exceeds {self.max_line} bytes")
                ):
                    self._close_client(client)
                    break
                continue
            # bytes.strip() copies even when there is nothing to strip;
            # a canonical line starts with ``{`` and ends with ``}``.
            if not (bline and bline[0] == 123 and bline[-1] == 125):
                bline = bline.strip()
                if not bline:
                    continue
            try:
                line = bline.decode()
            except UnicodeDecodeError as exc:  # decode_request's reply
                seen = True
                client.push(encode_error(f"bad json: {exc}"))
                continue
            m = match(line)
            if m is not None:
                op, stroke, x, y, ts = m.groups()
                t = float(ts)
                if isfinite(float(x) + float(y) + t):
                    forwarded = (
                        f'{{"op": "{op}", "stroke": "{ns}{stroke}", '
                        f'"x": {x}, "y": {y}, "t": {ts}}}'
                    )
                else:
                    m = None  # 1e400 and kin: json decides, and rejects
            if m is None:
                routed = self._route_json(client, line, not seen)
                seen = True
                clock = self._clock  # a tick or sweep moves it
                if routed is None:
                    continue
                if routed.__class__ is not tuple:
                    pending = routed
                    break
                stroke, t, forwarded = routed
            seen = True
            key = ns + stroke
            record = sessions.get(key)
            if record is None:
                shard = self.ring.lookup(
                    key, skip=self.draining | self.retired
                )
                record = SessionRecord(key, cid, shard)
                sessions[key] = record
            # The journal marker carries the broadcast clock — the
            # barriers the worker received before this op; the op's own
            # t is carried by the op line itself, live and in replay.
            entries = record.entries
            if clock > record.clock_mark:
                entries.append((next_seq(), self._clock_line))
            entries.append((next_seq(), forwarded))
            record.clock_mark = clock if clock > t else t
            link = links[record.shard]
            if link.state == "up":
                # _Mailbox.put_nowait, inlined.
                queue = link.queue
                items = queue.items
                items.append(forwarded)
                if len(items) == 1:
                    queue.event.set()
            ops += 1
        client.seen = seen
        if ops and self._ops_routed is not None:
            self._ops_routed.inc(ops)
        return pending, i

    def _route_json(self, client: _Client, line: str, first: bool):
        """Route one line that :meth:`_route_batch` did not rebuild.

        Returns ``None`` once the line is handled, an awaitable for the
        ops that fan out (admin, stats), or ``(stroke, t, forwarded)``
        for a valid session op — re-encoded canonically with its stroke
        namespaced — for the caller to journal and forward.  ``first``
        says whether this is the connection's first line: only there is
        a ``hello`` a capability probe rather than a late hello.
        """
        try:
            payload = json.loads(line)
        except ValueError as exc:
            client.push(encode_error(f"bad json: {exc}"))
            return None
        if isinstance(payload, dict):
            admin_op = payload.get("op")
            if admin_op in ("cluster", "drain", "scale"):
                return self._admin(client, payload)
            if admin_op == "hello":
                # The client hop speaks NDJSON only: an ndjson hello
                # acks, lp1 is refused, and the connection continues
                # either way.
                reply, _ = negotiate(payload, first=first, allow_lp1=False)
                client.push(reply)
                return None
        try:
            request = decode_payload(payload)
        except ProtocolError as exc:
            client.push(encode_error(str(exc)))
            return None
        op = request.op
        if op in INTERNAL_OPS:
            # Migration internals the router speaks to its *workers*;
            # from a client they could silently corrupt live sessions.
            client.push(
                encode_error(
                    f"internal op: {op}", stroke=request.stroke, t=request.t
                )
            )
            return None
        if op == "stats":
            return self._fleet_stats(client)
        if op == "swap":
            self._route_swap(client, request)
            return None
        if op == "tick" or op == "sweep":
            if request.t > self._clock:
                self._clock = request.t
                self._clock_line = json.dumps({"op": "tick", "t": self._clock})
            self._broadcast(line)
            if op == "tick":
                self._count("cluster.ticks_broadcast")
                return None
            self._sweeps_broadcast += 1
            # A worker can die with the sweep queued or sent but not yet
            # processed — death detection is asynchronous, so "up at
            # routing time" proves nothing — and a lost sweep would mean
            # the replayed worker never runs the eviction every live
            # worker ran.  So the sweep is journaled (with its clock
            # marker) for *every* shard that could still be replayed.
            for link in self.links.values():
                if link.shard not in self.retired:
                    self._journal_sweep(link, line)
            return None
        # A down / move / up that OP_LINE refused: reordered keys, an
        # escaped stroke, integer overflow of x + y.
        forwarded = json.dumps(
            {
                "op": op,
                "stroke": client.ns + request.stroke,
                "x": request.x,
                "y": request.y,
                "t": request.t,
            }
        )
        return request.stroke, request.t, forwarded

    def _broadcast(self, line: str) -> None:
        for link in self.links.values():
            if link.state == "up":
                link.queue.put_nowait(line)

    def _route_swap(self, client: _Client, request) -> None:
        """Resolve, pin, broadcast, and journal one swap request.

        The user is rewritten to ``client:user`` so it prefixes the
        worker-side session keys exactly as stroke namespacing composes
        them (the worker's pool keys are ``chan/client:stroke``).  The
        version is resolved here — against the router's registry, once
        — and the *pinned* ``name@version`` is what workers receive and
        what the journal replays, so a crash replay after a later
        publish re-applies the same bits.
        """
        if self.registry is None:
            client.push(
                encode_error("swap unsupported: no registry", t=request.t)
            )
            return
        name, _, version = request.model.partition("@")
        try:
            if version:
                self.registry.path_of(name, version)
            else:
                version = self.registry.latest_version(name)
        except (KeyError, OSError) as exc:
            client.push(encode_error(f"swap failed: {exc}", t=request.t))
            return
        pinned = f"{name}@{version}"
        user_prefix = f"{client.id}:{request.user}"
        line = json.dumps(
            {
                "op": "swap",
                "user": user_prefix,
                "model": pinned,
                "t": request.t,
            }
        )
        self._broadcast(line)
        # One sequence number for the history entry and every link's
        # journal entry: each link replays only its own journal.
        seq = self._next_seq()
        self._swap_history.append((seq, user_prefix, pinned))
        for link in self.links.values():
            if link.shard not in self.retired:
                link.swaps.append((seq, line))
        client.push(encode_swap(request.user, pinned, request.t))
        self._count("cluster.swaps_routed")

    def _journal_sweep(self, link: _WorkerLink, line: str) -> None:
        """Journal one sweep (with clock marker) into a shard's extras.

        Old entries are pruned first: a sweep whose sequence number
        precedes every live journal entry of the shard would replay
        against sessions that no longer exist (evicted or committed
        sessions' journals were dropped on their terminal replies), so
        it can no longer change anything.  That bounds extras growth to
        the sweeps broadcast since the shard's oldest live session
        opened; with no live sessions at all, nothing is journaled.
        """
        floor: int | None = None
        for record in self.sessions.values():
            if record.shard == link.shard and record.entries:
                first = record.entries[0][0]
                if floor is None or first < floor:
                    floor = first
        if floor is None:
            link.extras = []
            return
        link.extras = [e for e in link.extras if e[0] >= floor]
        if self._clock != _NEG_INF:
            # _clock_line is always current here: it is re-encoded at
            # every barrier that moves _clock off -inf.
            link.extras.append((self._next_seq(), self._clock_line))
        link.extras.append((self._next_seq(), line))

    # -- live migration ------------------------------------------------------

    async def quiesce(self) -> None:
        """The migration freeze: wait until every live worker has
        answered everything queued to it so far.

        A ``stats`` probe is enqueued per link *after* whatever is
        already queued, so each worker's reply proves it processed the
        lot — in particular, every broadcast sweep's evictions have
        come back and their terminal records are dropped.  Sweeps are
        the one op replay cannot repair: a pool-wide ``evict_idle``
        re-run on a warm destination could evict bystander sessions, so
        a migration must never leave a sweep's outcome for a session
        unresolved.  The loop re-runs the round whenever a new sweep
        was broadcast (or a worker (re)connected — its journal replay
        re-enqueues sweeps) while a round was in flight; once it
        returns, the caller's continuation runs in the same synchronous
        task step, so a migration started immediately after cannot race
        anything.
        """
        loop = asyncio.get_running_loop()
        while True:
            mark = (
                self._sweeps_broadcast,
                sum(link.ups for link in self.links.values()),
            )
            futures = []
            for link in self.links.values():
                if link.state == "up":
                    fut = loop.create_future()
                    link.pending_stats.append(fut)
                    link.queue.put_nowait('{"op": "stats"}')
                    futures.append(fut)
            if futures:
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*futures), timeout=self.stats_timeout
                    )
                except asyncio.TimeoutError:
                    pass
            if mark == (
                self._sweeps_broadcast,
                sum(link.ups for link in self.links.values()),
            ):
                return

    def _pinned_model(self, record: SessionRecord) -> str | None:
        """The model label ``record``'s session bound when it opened.

        Scans the swap history for entries routed before the session's
        first journal entry, matching the pool's own resolution rule —
        longest ``client:user`` prefix wins, last write per prefix wins.
        Returns ``""`` when swaps touching the key exist but none
        preceded the open (the session bound the default model, which a
        warm destination would *not* give it), and ``None`` when no
        swap has ever matched the key — then no pin is needed at all.
        """
        history = self._swap_history
        if not history:
            return None
        key = record.key
        first = record.entries[0][0] if record.entries else inf
        matched = False
        best_len = -1
        best = ""
        for seq, prefix, label in history:
            if not key.startswith(prefix):
                continue
            matched = True
            if seq >= first:
                continue
            n = len(prefix)
            # >= so a later swap on the same prefix overwrites, while a
            # later swap on a *shorter* prefix never shadows a longer
            # match — exactly SessionPool's assignment semantics.
            if n >= best_len:
                best_len = n
                best = label
        if not matched:
            return None
        return best

    def _migrate(self, record: SessionRecord, dest: str) -> None:
        """Move one live session to ``dest`` — atomically, byte-exactly.

        This is crash replay aimed at a planned move, and it is fully
        synchronous: between reading the record and re-pointing it, no
        reply can interleave, so the suppression count is exact.  The
        destination replays the session's journal (plus a one-shot
        ``pin`` so it re-binds the model the session opened under, not
        the destination's present-day assignment) and suppresses the
        first ``delivered`` replies; the source gets a ``release`` and
        any reply it had in flight is dropped until the release ack.
        """
        src = record.shard
        if dest == src:
            return
        t0 = perf_counter()
        extras: list[tuple[int, str]] = []
        pinned = self._pinned_model(record)
        if pinned is not None and record.entries:
            # One seq below the first entry: the pin lands before the
            # session's down (and before its clock marker, which is
            # harmless — pins do not interact with the clock).
            extras.append(
                (
                    record.entries[0][0] - 1,
                    json.dumps(
                        {"op": "pin", "stroke": record.key, "model": pinned}
                    ),
                )
            )
        final_t = None if self._clock == _NEG_INF else self._clock
        record.skip = record.delivered
        record.shard = dest
        dest_link = self.links[dest]
        if dest_link.state == "up":
            # A warm destination's clock already stands at the present,
            # so a replayed tick would judge this session's timeouts
            # there.  Each clock marker (and the trailing tick) becomes
            # the session's own ``expire``, judged at the marker's t.
            for line in replay_lines([record], extras, final_t=final_t):
                if line.startswith(_TICK_PREFIX):
                    line = json.dumps(
                        {
                            "op": "expire",
                            "stroke": record.key,
                            "t": json.loads(line)["t"],
                        }
                    )
                dest_link.queue.put_nowait(line)
        # A down destination is fine: the record now belongs to it, so
        # its next worker_up cold-replays the journal — and a cold
        # replay needs no pin (the shard's full swap journal re-derives
        # the binding in original order).
        src_link = self.links[src]
        if src_link.state == "up":
            src_link.queue.put_nowait(
                json.dumps({"op": "release", "stroke": record.key})
            )
            src_link.released.add(record.key)
        # A down source needs nothing: its replacement starts empty and
        # its replay skips this record (record.shard is dest now).
        self._count("cluster.migrations")
        if self._migration_seconds is not None:
            self._migration_seconds.observe(perf_counter() - t0)

    def migrate_off(self, shard: str) -> None:
        """Migrate every live session off ``shard`` (drain's data move).

        Destinations follow the ring's skip spill — identical to where
        each key would have landed had the shard never existed, so a
        later ``retire`` (shard stays in the ring, lookups skip it)
        changes no route.
        """
        skip = self.draining | self.retired | {shard}
        for record in list(self.sessions.values()):
            if record.shard == shard:
                self._migrate(record, self.ring.lookup(record.key, skip=skip))

    def rebalance(self, new_ring: HashRing) -> None:
        """Adopt ``new_ring`` and migrate exactly the sessions it moves.

        Each record's ``shard`` is its *effective* route (spills
        included), so comparing it against the new ring's effective
        lookup moves the provably-minimal session set — the same set
        :meth:`HashRing.plan_rebalance` plans.
        """
        self.ring = new_ring
        shards = set(new_ring.shards)
        skip = frozenset(s for s in self.draining | self.retired if s in shards)
        for record in list(self.sessions.values()):
            dest = new_ring.lookup(record.key, skip=skip)
            if dest != record.shard:
                self._migrate(record, dest)

    def add_shard(self, shard: str) -> None:
        """Register a joining worker's link (the ring is untouched until
        :meth:`rebalance` — callers add the shard there once the worker
        is connected, so sessions never migrate toward a cold gap).

        The new link inherits the fleet's swap journal: swaps bind
        sessions that do not exist yet, and every non-retired link
        carries the identical journal, so any one of them seeds it.
        """
        if shard in self.links:
            raise ValueError(f"shard already known: {shard}")
        link = _WorkerLink(shard)
        for other in self.links.values():
            if other.shard not in self.retired:
                link.swaps = list(other.swaps)
                break
        self.links[shard] = link

    def live_shards(self) -> list[str]:
        """Shards that take sessions: linked, neither draining nor
        retired, in link order (the order shards joined)."""
        return [
            s
            for s in self.links
            if s not in self.retired and s not in self.draining
        ]

    def load_sample(self) -> dict:
        """A synchronous load snapshot for the autoscaler: live shard
        count, session totals, and the deepest outbound worker queue."""
        live = self.live_shards()
        max_queue = 0
        for shard in live:
            queue = self.links[shard].queue
            if queue is not None and len(queue.items) > max_queue:
                max_queue = len(queue.items)
        sessions = len(self.sessions)
        return {
            "shards": len(live),
            "sessions": sessions,
            "sessions_per_shard": sessions / max(1, len(live)),
            "max_queue_depth": max_queue,
        }

    # -- stats and admin -----------------------------------------------------

    async def _fleet_stats(self, client: _Client) -> None:
        loop = asyncio.get_running_loop()
        futures = []
        for link in self.links.values():
            if link.state == "up":
                fut = loop.create_future()
                link.pending_stats.append(fut)
                link.queue.put_nowait('{"op": "stats"}')
                futures.append(fut)
        replies: list = []
        if futures:
            try:
                replies = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=self.stats_timeout
                )
            except asyncio.TimeoutError:
                replies = [f.result() for f in futures if f.done() and not f.cancelled()]
        stats = [r for r in replies if isinstance(r, dict)]
        snapshots = [s.get("metrics") for s in stats]
        if self.metrics is not None:
            snapshots.append(self.metrics.snapshot())
        snapshots = [s for s in snapshots if s is not None]
        if snapshots:
            from ..obs import merge_snapshots

            merged = merge_snapshots(snapshots)
        else:
            merged = None
        line = encode_stats(
            merged,
            t=self._clock if self._clock != _NEG_INF else 0.0,
            sessions=sum(s.get("sessions", 0) for s in stats),
            channels=len(self._clients),
        )
        payload = json.loads(line)
        payload["cluster"] = self.status()
        # Fleet-wide pump busy time: the "worker_s" half of the
        # benchmark's router/worker/transport breakdown.
        payload["cluster"]["worker_busy_s"] = round(
            sum(s.get("busy_s", 0.0) for s in stats), 6
        )
        if not client.closed and not client.push(json.dumps(payload)):
            self._close_client(client)

    def status(self) -> dict:
        shards = {}
        supervisor = self.supervisor_status() if self.supervisor_status else {}
        # Iterate the links, not the ring: a joining shard has a link
        # before its first rebalance puts it on the ring.
        for shard, link in self.links.items():
            info = {
                "state": link.state,
                "ups": link.ups,
                "sessions": sum(
                    1 for r in self.sessions.values() if r.shard == shard
                ),
                "draining": shard in self.draining,
                "retired": shard in self.retired,
            }
            info.update(supervisor.get(shard, {}))
            shards[shard] = info
        return {
            "shards": shards,
            "sessions": len(self.sessions),
            "router": {
                "client_in_s": round(self._client_in_s, 6),
                "worker_in_s": round(self._worker_in_s, 6),
                "busy_s": round(self._client_in_s + self._worker_in_s, 6),
            },
        }

    async def _admin(self, client: _Client, payload: dict) -> None:
        if payload["op"] == "cluster":
            reply = {"kind": "cluster"}
            reply.update(self.status())
            client.push(json.dumps(reply))
            return
        if payload["op"] == "scale":
            workers = payload.get("workers")
            if (
                isinstance(workers, bool)
                or not isinstance(workers, int)
                or workers < 1
            ):
                client.push(encode_error("scale needs a positive workers count"))
                return
            if self.scale_hook is None:
                client.push(encode_error("scale unavailable: no supervisor"))
                return
            asyncio.get_running_loop().create_task(self.scale_hook(workers))
            client.push(
                json.dumps(
                    {"kind": "scale", "workers": workers, "status": "started"}
                )
            )
            return
        shard = payload.get("shard")
        if shard not in self.links:
            client.push(encode_error(f"unknown shard: {shard!r}"))
            return
        if shard in self.draining or shard in self.retired:
            client.push(encode_error(f"shard already draining: {shard}"))
            return
        if self.drain_hook is None:
            client.push(encode_error("drain unavailable: no supervisor"))
            return
        if len(self.live_shards()) <= 1:
            client.push(encode_error("cannot drain the last live shard"))
            return
        asyncio.get_running_loop().create_task(self.drain_hook(shard))
        client.push(json.dumps({"kind": "drain", "shard": shard, "status": "started"}))
