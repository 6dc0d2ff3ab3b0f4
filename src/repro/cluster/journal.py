"""Per-session op journals: the router's crash-recovery ground truth.

A worker's sessions live in its memory; when the supervisor restarts a
crashed worker that memory is gone.  The router therefore journals, per
live session, every line it routed — plus *clock markers*: a session's
decisions depend not only on its own operations but on where the shared
virtual clock stood between them (a motionless timeout fires when the
clock passes ``last_point + timeout``; a later move can only rescue the
session if it arrives *before* that advance).

Workers advance their clocks **only at tick/sweep barriers** (see
:meth:`~repro.serve.GestureServer._apply`), so the clock journaled in a
marker is the router's *broadcast* clock — the highest barrier actually
sent to workers before the op — never a value inferred from other
sessions' op timestamps.  Journaling op-derived clock values would be
unsound: an op's timestamp reaches the worker on the op line itself and
is folded into the clock at the *next* barrier, after the op applied; a
marker replayed *before* the op would fire a motionless timeout the
live worker never fired, and the restarted worker's replies would
diverge from the delivered prefix.

Rather than journal every broadcast barrier into every session, a
record lazily inserts one marker carrying the highest broadcast clock
reached since its previous entry — enough, because intermediate
advances between two consecutive ops of one session cannot change its
decisions (a timeout either fired at the first advance past the
horizon, with its timestamp pinned to ``last_point + timeout``
regardless, or it fires just the same at the highest value; advances at
or below the session's own last timestamp — subsumed by the record's
``clock_mark`` — can never reach its horizon at all).

Every entry carries a router-global sequence number.  Replay merges the
live records of a shard back into one stream in sequence order — the
original interleaving of ops and clock advances — and the restarted
worker, whose pump honours tick barriers in line order, walks the exact
decision path the crashed one did.  Decisions the router already
forwarded are suppressed by count (:attr:`SessionRecord.skip`); the
journal of a session is dropped the moment it reaches a terminal
decision (``commit`` or ``evict``), so journal memory tracks live
sessions only.
"""

from __future__ import annotations

import json
from heapq import merge

__all__ = ["SessionRecord", "replay_lines"]


class SessionRecord:
    """One live session's route, journal, and delivery cursor.

    The router appends the entries as it routes each op: a clock marker
    first when the broadcast clock moved past ``clock_mark``, then the
    op line.
    """

    __slots__ = ("key", "client", "shard", "delivered", "skip", "clock_mark", "entries")

    def __init__(self, key: str, client: str, shard: str):
        self.key = key  # namespaced "client:stroke"
        self.client = client
        self.shard = shard
        self.delivered = 0  # replies already forwarded to the client
        self.skip = 0  # replayed replies still to suppress
        self.clock_mark = float("-inf")  # clock at the last journal entry
        self.entries: list[tuple[int, str]] = []  # (seq, line), seq ascending


def replay_lines(records, extras=(), final_t: float | None = None) -> list[str]:
    """Merge session journals back into one stream, in original order.

    ``records`` are the live :class:`SessionRecord` values of one shard;
    ``extras`` are shard-global ``(seq, line)`` entries (e.g. ``sweep``
    requests that arrived while the worker was down).  A trailing tick
    to ``final_t`` restores the worker's clock to the fleet's present,
    firing any timeouts that came due after the last journaled entry.
    """
    streams = [r.entries for r in records]
    if extras:
        streams.append(sorted(extras))
    lines = [line for _, line in merge(*streams)]
    if final_t is not None and final_t != float("-inf"):
        lines.append(json.dumps({"op": "tick", "t": final_t}))
    return lines
