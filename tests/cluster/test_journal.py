"""Journal and replay-merge semantics (no processes).

The records are filled by the router's own routing code: a router whose
one shard is down journals every op it routes without forwarding it.
"""

from __future__ import annotations

import json

from repro.cluster import Router, replay_lines
from repro.cluster.router import _Client


def op(stroke: str, name: str = "move", t: float = 0.0) -> dict:
    return {"op": name, "stroke": stroke, "x": 1, "y": 2, "t": t}


def tick(t: float) -> dict:
    return {"op": "tick", "t": t}


def route(router: Router, *requests: dict) -> None:
    """Route ``requests`` as one read of client ``k1``."""
    client = router._clients.setdefault("k1", _Client("k1", 1024))
    events = [("line", json.dumps(r).encode()) for r in requests]
    pending, _ = router._route_batch(client, events, 0)
    assert pending is None


def kinds(lines: list) -> list:
    return [json.loads(line)["op"] for line in lines]


def test_journal_inserts_clock_marker_when_clock_moved():
    router = Router(["w0"])
    route(router, tick(0.1), op("s1", "down", 0.1))
    r = router.sessions["k1:s1"]
    # First entry: the clock stood at 0.1 before the down, so replay
    # must advance there first.
    assert kinds([line for _, line in r.entries]) == ["tick", "down"]
    # Clock unchanged since the record's mark: no new marker.
    route(router, op("s1", "move", 0.11))
    assert kinds([line for _, line in r.entries]) == ["tick", "down", "move"]
    # Clock jumped (other sessions kept time moving): marker inserted
    # carrying the highest value reached before this op.
    route(router, tick(0.3), tick(0.48), op("s1", "move", 0.5))
    assert kinds([line for _, line in r.entries]) == [
        "tick", "down", "move", "tick", "move",
    ]
    marker = json.loads(r.entries[3][1])
    assert marker == {"op": "tick", "t": 0.48}


def test_journal_no_marker_at_negative_infinity():
    # Before any tick the router clock is -inf; nothing to mark.
    router = Router(["w0"])
    route(router, op("s1", "down"))
    r = router.sessions["k1:s1"]
    assert kinds([line for _, line in r.entries]) == ["down"]


def test_replay_merges_by_global_sequence():
    router = Router(["w0"])
    route(
        router,
        tick(0.0),
        op("s1", "down", 0.0),
        op("s2", "down", 0.0),
        tick(0.1),
        op("s1", "move", 0.2),
        tick(0.2),
        op("s2", "up", 0.3),
    )
    a, b = router.sessions["k1:s1"], router.sessions["k1:s2"]
    lines = replay_lines([a, b], final_t=0.4)
    strokes = [json.loads(line).get("stroke") for line in lines]
    ops = kinds(lines)
    # Original interleaving restored — each record carries its own lazy
    # markers (a redundant advance is a no-op) — plus one trailing tick
    # to the present.
    assert ops == [
        "tick", "down", "tick", "down", "tick", "move", "tick", "up", "tick",
    ]
    assert strokes == [
        None, "k1:s1", None, "k1:s2", None, "k1:s1", None, "k1:s2", None,
    ]
    assert json.loads(lines[-1]) == {"op": "tick", "t": 0.4}


def test_replay_includes_extras_in_order():
    router = Router(["w0"])
    route(router, tick(0.0), op("s1", "down", 0.0))
    a = router.sessions["k1:s1"]
    sweep = json.dumps({"op": "sweep", "max_idle": 0.0})
    extras = [(router._next_seq(), sweep)]
    lines = replay_lines([a], extras=extras, final_t=None)
    assert kinds(lines) == ["tick", "down", "sweep"]


def test_replay_without_final_t_appends_nothing():
    router = Router(["w0"])
    route(router, tick(0.0), op("s1", "down", 0.0))
    a = router.sessions["k1:s1"]
    assert kinds(replay_lines([a])) == ["tick", "down"]
    assert kinds(replay_lines([a], final_t=float("-inf"))) == ["tick", "down"]
