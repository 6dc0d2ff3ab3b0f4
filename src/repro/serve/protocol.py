"""The NDJSON wire protocol spoken by :class:`~repro.serve.GestureServer`.

One JSON object per line, in both directions.

Requests (client → server)::

    {"op": "down", "stroke": "s1", "x": 10, "y": 20, "t": 0.00}
    {"op": "move", "stroke": "s1", "x": 14, "y": 21, "t": 0.01}
    {"op": "up",   "stroke": "s1", "x": 30, "y": 40, "t": 0.25}
    {"op": "tick", "t": 0.50}
    {"op": "sweep", "max_idle": 30.0}
    {"op": "stats"}
    {"op": "swap", "user": "alice", "model": "gdp-alice@ab12cd34ef56", "t": 0.60}

``down``/``move``/``up`` mirror :class:`~repro.serve.SessionPool`
operations; ``stroke`` is the client's id for one gesture (the server
namespaces it per connection, so clients cannot collide).  ``tick``
advances the server's virtual clock — timeouts fire from the
timestamps clients supply, never from the server's wall clock, so a
recorded interaction replays identically.  ``sweep`` asks the server to
evict every session idle for at least ``max_idle`` seconds of virtual
time (``max_idle`` defaults to ``0.0`` — evict everything idle at all)
— the remote form of :meth:`~repro.serve.SessionPool.evict_idle` that a
drain or an end-of-run cleanup needs; evicted sessions get ``evict``
replies.  ``stats`` asks for a metrics snapshot; ``t`` is optional on
``sweep`` and ``stats`` and defaults to ``0.0`` (a no-op for the
monotone virtual clock), so polling stats never moves time.

``tick`` and ``sweep`` are also *clock barriers*: the server applies
everything received before them, then advances time (then sweeps), at
the request's position in the input order — behaviour is a function of
the line sequence alone, never of how lines happened to coalesce into
read batches.

``swap`` rebinds a *user* — a client-chosen id that prefixes session
keys — to a registry model (``name`` or ``name@version``), for sessions
opened after the swap's position in line order; sessions already
in flight keep the model they pinned at open, and all other users'
byte streams are untouched (see :meth:`~repro.serve.SessionPool.
swap_model`).  The server acks with a ``swap`` reply carrying the
resolved ``name@version``.

Two further ops are *internal* — the cluster router speaks them to its
workers during live session migration and rejects them from clients:
``release`` (``{"op": "release", "stroke": "s1"}``) silently forgets a
session that migrated away (acked with ``{"kind": "released", ...}``,
never a decision), and ``pin`` (``{"op": "pin", "stroke": "s1",
"model": "name@version"}``) one-shot-pins the model the stroke's *next*
session open must bind — how a migrated session keeps the historical
model it opened under, even though the destination pool's per-user
assignments have since moved on (``model: ""`` pins the default).

Replies (server → client)::

    {"kind": "recog", "stroke": "s1", "class": "delete", "eager": true,
     "points_seen": 12, "total_points": 12, "t": 0.11, "reason": "eager"}
    {"kind": "error", "stroke": "s1", "reason": "duplicate down", "t": 0.0}
    {"kind": "stats", "t": 0.5, "sessions": 3, "channels": 2,
     "metrics": {"counters": {...}, "histograms": {...}}}

``kind`` is one of ``recog`` / ``manip`` / ``commit`` / ``evict`` /
``error`` / ``stats`` (see :class:`~repro.serve.Decision` and
:meth:`repro.obs.MetricsRegistry.snapshot`); ``metrics`` is ``null``
when the server runs without a metrics registry.
"""

from __future__ import annotations

import json
import re
from math import isfinite

from .pool import Decision, _Slotted

__all__ = [
    "JSON_FLOAT",
    "JSON_NUMBER",
    "JSON_WS",
    "SAFE_CHAR",
    "ProtocolError",
    "Request",
    "decode_block",
    "decode_frame",
    "decode_payload",
    "decode_request",
    "encode_decision",
    "encode_error",
    "encode_stats",
    "encode_swap",
    "op_line_pattern",
]

_OPS = ("down", "move", "up", "tick", "sweep", "stats", "swap", "release", "pin")

# Ops that may omit ``t`` (it defaults to 0.0, a virtual-clock no-op).
_OPTIONAL_T = ("sweep", "stats", "release", "pin")

# -- the canonical-line grammar ------------------------------------------------
#
# A *canonical* line is the exact text ``json.dumps`` writes: its key
# order, ``", "``/``": "`` separators, no escapes.  Every fast path that
# reads such lines (the decoder below; the cluster router, which takes
# the same key order with any JSON whitespace and rebuilds it
# canonically) is built from these definitions, and any line outside
# them takes the full ``json`` path — so validation outcomes and error
# bytes never depend on which path ran.

# The JSON number grammar (RFC 8259): optional minus, no leading zeros,
# optional fraction, optional signed exponent.  Checked as text, not
# with ``float()``, which also takes "1_0", "+1", ".5" and "1." — all
# of which ``json.loads`` rejects.  The optional fraction and exponent
# are written ``(?:...|)`` rather than ``(?:...)?``: the same language,
# tried in the same order, but CPython's ``re`` runs the empty-branch
# alternation faster (router op line: ~0.85 vs ~1.1 us per match on
# Python 3.11).  Possessive quantifiers would be faster still, but
# ``re`` accepts them only from Python 3.11.
JSON_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)"

# A JSON number that ``json.loads`` reads as a float (it has a fraction
# or an exponent) — every float ``json.dumps`` writes.  An integer
# literal reads as an ``int``, so "-0" must stay 0.0, not -0.0.  The
# optional exponent is written ``(?:...|)`` like JSON_NUMBER's (~0.1 us
# less per line in the server's read decoder on Python 3.11).
JSON_FLOAT = (
    r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+|)|[eE][+-]?[0-9]+)"
)

# One character of a splice-safe string value: printable ASCII except
# ``"`` and ``\``.  Exactly the characters ``json.dumps`` writes
# verbatim, so such a value's wire text equals its decoded text.
SAFE_CHAR = r"[ !#-\[\]-~]"

# JSON's insignificant whitespace: space, tab, CR and LF — not ``\s``,
# which also takes the vertical tab and form feed ``json.loads`` rejects.
JSON_WS = r"[ \t\r\n]*"


def op_line_pattern(number: str, ws: str | None = None, end="\\Z") -> str:
    """The ``down``/``move``/``up`` line, in ``json.dumps``'s key order,
    as a regex.

    ``number`` is the grammar for ``x``, ``y`` and ``t``.  Without
    ``ws`` the separators are exactly ``json.dumps``'s (``", "`` and
    ``": "``): the canonical line.  With ``ws``, any amount of it may
    stand around every ``:`` and ``,`` and inside the braces — the
    shape ``json.loads`` accepts in this key order.  ``end`` follows
    the closing brace (``\\Z``: the match is the whole line).  Groups:
    1 op, 2 stroke, 3 x, 4 y, 5 t.
    """
    if ws is None:
        colon, comma, inner = ": ", ", ", ""
    else:
        colon, comma, inner = ws + ":" + ws, ws + "," + ws, ws
    return (
        '\\{%s"op"%s"(down|move|up)"%s"stroke"%s"(%s+)"%s"x"%s(%s)'
        '%s"y"%s(%s)%s"t"%s(%s)%s\\}%s'
        % (
            inner, colon, comma, colon, SAFE_CHAR, comma, colon, number,
            comma, colon, number, comma, colon, number, inner, end,
        )
    )


# One match per request line, in line order: groups 1-5 are a canonical
# down/move/up line (``op_line_pattern``'s), group 6 is any other line.
_READ_LINES = re.compile(
    ("^(?:%s|(.*))\n" % op_line_pattern(JSON_FLOAT, end="")).encode(), re.M
).findall
_OP_NAMES = {b"down": "down", b"move": "move", b"up": "up"}
_PLAIN = re.compile(SAFE_CHAR + "*\\Z").match


class ProtocolError(ValueError):
    """A request line that cannot be understood."""


class Request(_Slotted):
    """One decoded client request.

    A plain slotted record rather than a dataclass, built positionally
    (``op, t, stroke, x, y``).  The server's read decoder builds one per
    line it does not take into a run (see :func:`decode_block`).
    """

    __slots__ = ("op", "t", "stroke", "x", "y", "max_idle", "user", "model")

    def __init__(
        self,
        op: str,  # "down" | "move" | "up" | "tick" | "sweep" | "stats" | ...
        t: float,
        stroke: str = "",
        x: float = 0.0,
        y: float = 0.0,
        max_idle: float = 0.0,  # sweep only
        user: str = "",  # swap only: the session-key prefix to rebind
        model: str = "",  # swap only: registry "name" or "name@version"
    ):
        self.op = op
        self.t = t
        self.stroke = stroke
        self.x = x
        self.y = y
        self.max_idle = max_idle
        self.user = user
        self.model = model


def decode_block(block: bytes, prefix: str, out: list, errors: list) -> int:
    """Decode lines that each end in ``\\n`` in one regex pass; return
    how many requests were appended to ``out``, in line order.

    Consecutive canonical ``down``/``move``/``up`` lines with finite
    values and the same ``t`` *text* become one run ``(t, [(op, prefix
    + stroke, x, y), ...])`` (so ``-0.0`` never joins ``0.0``); every
    other line is stripped, skipped when blank, else decoded by
    :func:`decode_request` into a :class:`Request` or, rejected, into
    ``errors`` as ``(line, ProtocolError)`` — the same outcome per line.
    """
    lines = _READ_LINES(block)
    skipped = 0
    run_text = None
    ops = None
    for op, stroke, x, y, t, line in lines:
        if op:
            if t != run_text:
                run_text = t
                run_t = float(t)
                ops = None
            fx = float(x)
            fy = float(y)
            if isfinite(fx + fy + run_t):
                if ops is None:
                    ops = []
                    out.append((run_t, ops))
                ops.append((_OP_NAMES[op], prefix + stroke.decode(), fx, fy))
                continue
            # 1e400 and kin: json decides.  A canonical line is its groups.
            line = b'{"op": "%s", "stroke": "%s", "x": %s, "y": %s, "t": %s}'
            line %= (op, stroke, x, y, t)
        if _decode_other(line, out, errors):
            ops = None
        else:
            skipped += 1
    return len(lines) - skipped


def decode_frame(line: bytes, prefix: str, out: list, errors: list) -> int:
    """:func:`decode_block` for one line without its newline.  An lp1
    frame may hold newlines as JSON whitespace: still one request."""
    if b"\n" in line:
        return 1 if _decode_other(line, out, errors) else 0
    return decode_block(line + b"\n", prefix, out, errors)


def _decode_other(line: bytes, out: list, errors: list) -> bool:
    """Strip, skip a blank line, else :func:`decode_request`; True when a
    request was appended to ``out``."""
    line = line.strip()
    if not line:
        return False
    try:
        out.append(decode_request(line))
    except ProtocolError as exc:
        errors.append((line, exc))
        return False
    return True


def decode_request(line: str | bytes) -> Request:
    """Parse one NDJSON request line, validating shape and types."""
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad json: {exc}") from None
    return decode_payload(payload)


def _number(payload: dict, field: str, message: str, default=None) -> float:
    """``payload[field]`` as a finite float, else ``ProtocolError(message)``.

    ``default`` (when not None) stands in for a missing field.  A huge
    integer literal overflows ``float()``; ``NaN``, ``Infinity`` and
    ``1e400`` parse to non-finite floats: all are rejected like any
    other non-number.
    """
    try:
        value = float(payload[field])
    except KeyError:
        if default is None:
            raise ProtocolError(message) from None
        return default
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(message) from None
    if not isfinite(value):
        raise ProtocolError(message)
    return value


def decode_payload(payload) -> Request:
    """Validate one already-parsed request object.

    The validation (and every error message) is exactly
    :func:`decode_request`'s — split out so a caller that already had
    to ``json.loads`` the line for its own routing (the cluster router)
    does not parse it twice.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a json object")
    op = payload.get("op")
    if op not in _OPS:
        raise ProtocolError(f"unknown op: {op!r}")
    t = _number(
        payload,
        "t",
        "missing or non-numeric t",
        0.0 if op in _OPTIONAL_T else None,
    )
    if op == "sweep":
        max_idle = _number(payload, "max_idle", "non-numeric max_idle", 0.0)
        if max_idle < 0.0:
            raise ProtocolError("max_idle must be >= 0")
        return Request(op, t, max_idle=max_idle)
    if op in ("tick", "stats"):
        return Request(op, t)
    if op == "swap":
        user = payload.get("user")
        model = payload.get("model")
        if not isinstance(user, str) or not user:
            raise ProtocolError("missing swap user")
        if not isinstance(model, str) or not model:
            raise ProtocolError("missing swap model")
        return Request(op, t, user=user, model=model)
    stroke = payload.get("stroke")
    if not isinstance(stroke, str) or not stroke:
        raise ProtocolError("missing stroke id")
    if op == "release":
        # Internal (router → worker only): silently forget a session
        # that migrated away.  Carries no point, produces no decision.
        return Request(op, t, stroke)
    if op == "pin":
        # Internal (router → worker only): one-shot model pin for the
        # stroke's *next* session open.  ``model`` may be "" (default
        # model) — unlike swap, which always names a registry model.
        model = payload.get("model", "")
        if not isinstance(model, str):
            raise ProtocolError("missing pin model")
        return Request(op, t, stroke, model=model)
    x = _number(payload, "x", "missing or non-numeric x/y")
    y = _number(payload, "y", "missing or non-numeric x/y")
    return Request(op, t, stroke, x, y)


def encode_decision(decision: Decision, stroke: str) -> str:
    """Encode one pool decision as a reply line (without the newline).

    The bytes are ``json.dumps``'s.  A decision whose strings need no
    escaping and whose ``t`` is a finite float — every decision the pool
    makes for a canonical stroke id — fills a template instead; anything
    else is handed to ``json.dumps``.
    """
    kind = decision.kind
    name = decision.class_name
    eager = decision.eager
    seen = decision.points_seen
    total = decision.total_points
    t = decision.t
    reason = decision.reason
    if (
        type(t) is float
        and isfinite(t)  # json writes NaN/Infinity where repr says nan/inf
        and (eager is True or eager is False)
        and type(seen) is int
        and type(total) is int
        and _PLAIN(kind + stroke + reason + ("" if name is None else name))
    ):
        name = "null" if name is None else '"' + name + '"'
        eager = "true" if eager else "false"
        return (
            f'{{"kind": "{kind}", "stroke": "{stroke}", "class": {name}, '
            f'"eager": {eager}, "points_seen": {seen}, '
            f'"total_points": {total}, "t": {t!r}, "reason": "{reason}"}}'
        )
    return json.dumps(
        {
            "kind": kind,
            "stroke": stroke,
            "class": name,
            "eager": eager,
            "points_seen": seen,
            "total_points": total,
            "t": t,
            "reason": reason,
        }
    )


def encode_swap(user: str, model: str, t: float) -> str:
    """Encode a swap acknowledgement (without the newline).

    ``model`` is the *resolved* ``name@version`` — a client that swapped
    to a bare name learns exactly which version now serves its user.
    One shared encoder keeps the direct server's ack and the cluster
    router's synthesized ack byte-equal.
    """
    return json.dumps({"kind": "swap", "user": user, "model": model, "t": t})


def encode_error(reason: str, stroke: str = "", t: float = 0.0) -> str:
    """Encode a protocol-level error reply (without the newline)."""
    return json.dumps(
        {"kind": "error", "stroke": stroke, "reason": reason, "t": t}
    )


def encode_stats(
    metrics: dict | None,
    *,
    t: float,
    sessions: int,
    channels: int,
    profile: dict | None = None,
    busy_s: float | None = None,
) -> str:
    """Encode a metrics-snapshot reply (without the newline).

    ``metrics`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict, or
    ``None`` when the server runs unobserved.  ``profile`` is a
    :meth:`repro.obs.PerfProfiler.snapshot` dict; the key is only
    present when a profiler is attached (``serve --profile``), keeping
    the reply unchanged for existing clients otherwise.  ``busy_s`` is
    the server's cumulative pump busy time (recognition work, as
    opposed to transport); present whenever the server reports it —
    the cluster benchmark's router/worker/transport breakdown reads it.
    """
    payload = {
        "kind": "stats",
        "t": t,
        "sessions": sessions,
        "channels": channels,
        "metrics": metrics,
    }
    if profile is not None:
        payload["profile"] = profile
    if busy_s is not None:
        payload["busy_s"] = busy_s
    return json.dumps(payload)
