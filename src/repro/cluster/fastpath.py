"""Byte-splicing fast paths for the router's two hot loops.

The router's data plane does exactly two things per session op: rewrite
the ``stroke`` field on the way in (namespace it ``client:stroke``) and
rewrite it back on the way out.  The legacy implementation pays a full
``json.loads`` → mutate → ``json.dumps`` round trip in each direction —
by far the largest per-op cost.  Both rewrites only ever touch one
value span, so when a line is in *canonical form* (the exact text
``json.dumps`` produces, which is what every shipped client and every
worker emits) the rewrite is a string splice at a precomputed offset.

The contract that keeps this invisible:

* the fast parse accepts **only** lines that match the canonical shape
  character-for-character (key order, ``", "`` separators, strict JSON
  numbers, no escapes in the stroke value).  Anything else — compact
  separators, reordered keys, ``NaN``, ``1.``, an escaped quote, a
  control character — fails to match ``OP_LINE`` and the caller falls
  back to the exact legacy path, so validation outcomes and error-reply bytes
  are unchanged for every input;
* reply splicing applies only to lines the *worker's* ``json.dumps``
  produced, for which ``dumps(loads(raw))`` is the identity; removing
  the ``client:`` prefix from an escape-free stroke span therefore
  yields the same bytes the legacy decode → re-encode produced.  Any
  reply outside the shape (stats, swap acks, errors, escaped strokes)
  returns ``None``.

The canonical grammar — JSON numbers, splice-safe stroke characters,
the op-line shape — is defined once, in :mod:`repro.serve.protocol`,
and shared with the server's own decoder.  The router takes any JSON
number (it splices, never converts ``x``/``y``); validation of the
values is the worker's.
"""

from __future__ import annotations

import re

from ..serve.protocol import JSON_NUMBER, SAFE_CHAR, op_line_pattern

__all__ = ["OP_LINE", "splice_reply"]

# Public: the router's batch loop matches against this directly (the
# per-line function-call and tuple costs are measurable at its rates);
# group 2 is the stroke value span, group 5 the ``t`` number.
OP_LINE = re.compile(op_line_pattern(JSON_NUMBER))

_REPLY = re.compile(
    '\\{"kind": "(recog|manip|commit|evict)", "stroke": "(%s+)", ' % SAFE_CHAR
)


def splice_reply(raw: str):
    """Un-namespace one canonical worker reply by splicing.

    Returns ``(kind, key, line)`` — ``key`` is the namespaced stroke
    (``client:stroke``) for journal bookkeeping, ``line`` is the raw
    reply with the ``client:`` prefix removed from the stroke value —
    or ``None`` for any reply outside the canonical decision shape
    (stats, swap acks, errors, escaped strokes), which the caller must
    decode the legacy way.  Splicing partitions on the *first* colon,
    matching ``key.partition(":")`` in the legacy path.
    """
    m = _REPLY.match(raw)
    if m is None:
        return None
    key = m.group(2)
    cut = key.find(":")
    if cut < 0:
        return None
    start, end = m.span(2)
    return m.group(1), key, raw[:start] + key[cut + 1 :] + raw[end:]
