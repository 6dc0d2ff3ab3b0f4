"""The canonical-line fast paths against their ``json`` oracles.

The server's read decoder (``decode_frame`` for one line, the same
regex pass ``decode_block`` runs over a whole read) takes canonical
``down``/``move``/``up`` lines into pool-ready runs and hands everything
else to ``decode_request``; ``encode_decision`` fills a template unless
a string needs escaping.  Both must be invisible: for every input, the
same ``Request`` (or the same ``ProtocolError`` message) and the same
reply bytes as the plain ``json`` path.  A line is decoded as the server
always read one: stripped, skipped when blank, else ``decode_request``.
The Hypothesis suites draw many lines per example, so the ``deep``
profile scales them like the other fuzzers.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import Decision, ProtocolError, Request, decode_request
from repro.serve.protocol import decode_frame, encode_decision

PREFIX = "c1/"


def _oracle(line: bytes):
    """``[("ok", repr)]``, ``[("error", message)]`` or ``[]`` (a blank
    line) from ``decode_request``; repr tells -0.0 from 0.0."""
    line = line.strip()
    if not line:
        return []
    try:
        return [("ok", repr(decode_request(line)))]
    except ProtocolError as exc:
        return [("error", str(exc))]


def flatten(out: list, prefix: str = PREFIX) -> list:
    """The read decoder's items as ``("ok", repr)`` per request: every
    run op becomes the ``Request`` its line decodes to."""
    flat = []
    for item in out:
        if item.__class__ is tuple:
            t, ops = item
            for op, key, x, y in ops:
                assert key.startswith(prefix)
                request = Request(op, t, key[len(prefix) :], x, y)
                flat.append(("ok", repr(request)))
        else:
            flat.append(("ok", repr(item)))
    return flat


def _decoded(line: bytes):
    out, errors = [], []
    count = decode_frame(line, PREFIX, out, errors)
    flat = flatten(out)
    assert count == len(flat)
    return flat + [("error", str(exc)) for _, exc in errors]


def _same(line: bytes) -> None:
    assert _decoded(line) == _oracle(line), line


# -- decoder: pinned cases ------------------------------------------------------


NUMBER_TEXTS = [
    "0.0", "-0.0", "0", "-0", "1.5", "1e-07", "1e+16", "1E5", "-1.5e-300",
    "2.5E+3", "12345678901234567890", "-12345678901234567890",
    "12345678901234567890.5", "1" + "0" * 400, "1e400", "-1e400", "1e308",
    "NaN", "Infinity", "-Infinity", "1.", ".5", "01", "+1", "1_0", "0x10",
    "1e", "--1", "1.5.5",
]


@pytest.mark.parametrize("number", NUMBER_TEXTS)
@pytest.mark.parametrize("field", ["x", "y", "t"])
def test_number_reprs_decode_like_json(number, field):
    values = {"x": "1.0", "y": "2.0", "t": "0.5", field: number}
    line = (
        '{"op": "move", "stroke": "s1", "x": %(x)s, "y": %(y)s, "t": %(t)s}'
        % values
    )
    _same(line.encode())


def test_canonical_line_takes_the_fast_path():
    line = b'{"op": "down", "stroke": "c7:s1", "x": 1.5, "y": -2.0, "t": 0.25}'
    out, errors = [], []
    assert decode_frame(line, PREFIX, out, errors) == 1
    assert out == [(0.25, [("down", "c1/c7:s1", 1.5, -2.0)])] and not errors
    assert flatten(out) == [("ok", repr(decode_request(line)))]


def test_integer_minus_zero_stays_positive():
    # json reads "-0" as int 0, so t is 0.0 — never -0.0 — and the fast
    # path must not read it as a float.
    line = b'{"op": "move", "stroke": "s", "x": -0, "y": -0.0, "t": -0}'
    out, errors = [], []
    decode_frame(line, PREFIX, out, errors)
    (request,) = out
    assert math.copysign(1.0, request.x) == 1.0
    assert math.copysign(1.0, request.y) == -1.0
    assert math.copysign(1.0, request.t) == 1.0


@pytest.mark.parametrize(
    "line",
    [
        b'{"op":"move","stroke":"s","x":1.0,"y":2.0,"t":0.5}',
        b'{"stroke": "s", "op": "move", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "s\\u0041", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "s\\"q", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "s\\\\", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "\xc3\xa9", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "\xff", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "a\tb", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "a\x7fb", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "", "x": 1.0, "y": 2.0, "t": 0.5}',
        b'{"op": "move", "stroke": "s", "x": 1.0, "y": 2.0, "t": 0.5} ',
        b'{"op": "move", "stroke": "s", "x": 1.0, "y": 2.0, "t": 0.5}\n',
        b'{"op": "move", "stroke": "s", "x": 1.0, "y": 2.0, "t": 0.5, "t": 1.5}',
        b'{"op": "tick", "t": 0.5}',
        b'{"op": "swap", "user": "u", "model": "m", "t": 0.5}',
        b"",
        b"[1.0]",
    ],
)
def test_non_canonical_lines_decode_like_json(line):
    _same(line)


# -- decoder: generated lines ----------------------------------------------------


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_NUMBERS = st.one_of(
    _FLOATS.map(lambda v: json.dumps(v)),
    st.integers(min_value=-(10**25), max_value=10**25).map(str),
    st.sampled_from(NUMBER_TEXTS),
)
_STROKES = st.one_of(
    st.text(min_size=0, max_size=6),
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        min_size=1,
        max_size=6,
    ),
)


@st.composite
def _lines(draw) -> bytes:
    """A canonical session-op line, or one edit away from it."""
    op = draw(st.sampled_from(["down", "move", "up", "tick", "Move"]))
    fields = [
        ["op", json.dumps(op)],
        ["stroke", json.dumps(draw(_STROKES))],
        ["x", json.dumps(draw(_FLOATS))],
        ["y", json.dumps(draw(_FLOATS))],
        ["t", json.dumps(draw(_FLOATS))],
    ]
    item, comma = ": ", ", "
    edit = draw(
        st.sampled_from(
            ["none", "none", "number", "number", "stroke", "separators",
             "order", "byte"]
        )
    )
    if edit == "number":
        fields[draw(st.integers(2, 4))][1] = draw(_NUMBERS)
    elif edit == "stroke":  # raw: quotes, control or non-ASCII characters
        fields[1][1] = '"%s"' % draw(st.text(max_size=6))
    elif edit == "separators":
        item, comma = draw(st.sampled_from([(":", ","), (": ", ","), (":", ", ")]))
    elif edit == "order":
        fields = draw(st.permutations(fields))
    data = ("{" + comma.join(f'"{k}"{item}{v}' for k, v in fields) + "}").encode()
    if edit == "byte":  # a stray byte anywhere, maybe not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]
    return data


@given(st.lists(_lines(), min_size=1, max_size=40))
def test_fast_decoder_equals_decode_request(lines):
    for line in lines:
        _same(line)


# -- encoder -----------------------------------------------------------------------


def _dumps(decision: Decision, stroke: str) -> str:
    """The reference encoding: what ``encode_decision`` always wrote."""
    return json.dumps(
        {
            "kind": decision.kind,
            "stroke": stroke,
            "class": decision.class_name,
            "eager": decision.eager,
            "points_seen": decision.points_seen,
            "total_points": decision.total_points,
            "t": decision.t,
            "reason": decision.reason,
        }
    )


_NAMES = st.one_of(
    st.sampled_from(["recog", "commit", "evict", "error", "eager", "up"]),
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        max_size=8,
    ),
    st.text(max_size=8),
)


@st.composite
def _decisions(draw) -> tuple[Decision, str]:
    stroke = draw(_NAMES)
    decision = Decision(
        key="c1/" + stroke,
        kind=draw(_NAMES),
        t=draw(st.one_of(_FLOATS, st.sampled_from([0.0, -0.0, 1e-07, 1e16]))),
        class_name=draw(st.one_of(st.none(), _NAMES)),
        eager=draw(st.booleans()),
        points_seen=draw(st.integers(0, 10**6)),
        total_points=draw(st.integers(0, 10**6)),
        reason=draw(_NAMES),
    )
    return decision, stroke


@given(st.lists(_decisions(), min_size=1, max_size=40))
def test_template_encoding_equals_json_dumps(cases):
    for decision, stroke in cases:
        assert encode_decision(decision, stroke) == _dumps(decision, stroke)


@pytest.mark.parametrize(
    "stroke,name,t",
    [
        ("s1", "delete", 0.11),
        ('s"1', "delete", 0.11),
        ("s\\1", None, 1e-07),
        ("s\x01", "copy", -0.0),
        ("sé", "move", 1e16),
        ("s\x7f", "move", 0.5),
        ("s1", "dé", 0.5),
        ("s1", None, float("nan")),
        ("s1", "x", float("inf")),
    ],
)
def test_escapes_and_odd_times_fall_back_to_json(stroke, name, t):
    decision = Decision(
        key="c1/" + stroke, kind="recog", t=t, class_name=name, eager=True,
        points_seen=3, total_points=3, reason="eager",
    )
    assert encode_decision(decision, stroke) == _dumps(decision, stroke)
