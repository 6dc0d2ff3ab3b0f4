"""The router's two per-op rewrites, done on text.

The router's data plane does exactly two things per session op: rewrite
the ``stroke`` field on the way in (namespace it ``client:stroke``) and
rewrite it back on the way out.  A ``json.loads`` → mutate →
``json.dumps`` round trip in each direction would be by far the largest
per-op cost, and both rewrites only ever touch one value span.

The contract that keeps this invisible:

* ``OP_LINE`` takes a ``down``/``move``/``up`` line in ``json.dumps``'s
  key order with any JSON whitespace between tokens (so both the
  canonical form every shipped client writes and ``JSON.stringify``'s
  compact form), a stroke of splice-safe characters, and any JSON
  number for ``x``, ``y`` and ``t``.  The router rebuilds every match in
  the canonical shape with the namespaced stroke; number literals pass
  through as written, so the worker decodes exactly the values the
  client sent.  Anything else — reordered keys, escapes, ``NaN``, ``1.``,
  a vertical tab — fails to match and takes the router's ``json`` path,
  so validation outcomes and error-reply bytes are unchanged for every
  input.  Finiteness is the router's check: ``1e400`` matches here;
* reply splicing applies only to lines the *worker's* ``json.dumps``
  produced, for which ``dumps(loads(raw))`` is the identity; removing
  the ``client:`` prefix from an escape-free stroke span therefore
  yields the same bytes a decode → re-encode would.  Any reply outside
  the shape (stats, swap acks, errors, escaped strokes) returns
  ``None``.

The grammar — JSON numbers and whitespace, splice-safe stroke
characters, the op-line shape — is defined once, in
:mod:`repro.serve.protocol`, and shared with the server's own decoder.
"""

from __future__ import annotations

import re

from ..serve.protocol import JSON_NUMBER, JSON_WS, SAFE_CHAR, op_line_pattern

__all__ = ["OP_LINE", "splice_reply"]

# Public: the router's batch loop matches against this directly (the
# per-line function-call and tuple costs are measurable at its rates).
# Groups: 1 op, 2 stroke, 3 x, 4 y, 5 t.
OP_LINE = re.compile(op_line_pattern(JSON_NUMBER, JSON_WS))

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
    decode with ``json``.  Splicing partitions on the *first* colon,
    matching ``key.partition(":")`` on the ``json`` path.
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
