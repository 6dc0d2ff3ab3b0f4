"""Seeded inputs, the reference oracle, and the correctness check.

Everything here runs outside the timed windows.  The recognizer is
trained from a fixed seed (it is part of the program's configuration,
not of the workload); the traffic comes from the ``--seed`` argument.

Traffic is one *lap* — every one of ``CLIENTS`` sessions drawing whole
gestures back to back — repeated under fresh stroke ids and later
virtual times for as many ticks as a run needs.  Every stroke of a lap
ends with its ``up`` inside the lap, so no session outlives it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cluster import reference_lines
from repro.eager import train_eager_recognizer
from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import SessionPool, encode_decision, generate_workload
from repro.synth import GestureGenerator, family_templates

CLIENTS = 256
DT = 0.01
MODEL_SEED = 9
MODEL_EXAMPLES = 12

STATS_LINE = b'{"op": "stats"}\n'


def train_model(family: str, path: Path) -> None:
    """Train the family's recognizer and save it where servers load it."""
    templates = family_templates(family)
    strokes = GestureGenerator(templates, seed=MODEL_SEED).generate_strokes(
        MODEL_EXAMPLES
    )
    train_eager_recognizer(strokes).recognizer.save(path)


def make_lap(family: str, seed: int, n_ticks: int, dwell_every: int):
    """``n_ticks`` groups of ``(kind, stroke, x, y)`` ops, one per tick.

    Each client's script is cut after the last gesture that ends within
    the lap and padded with idle ticks, so every session is busy until
    its last whole gesture and none is left open.
    """
    templates = family_templates(family)
    gestures = 4
    while True:
        script = generate_workload(
            templates,
            clients=CLIENTS,
            gestures_per_client=gestures,
            seed=seed,
            dwell_every=dwell_every,
        )
        shortest = min(len(ops) for ops in script)
        if shortest >= n_ticks:
            break
        gestures = gestures * n_ticks // shortest + 2
    lap: list[list[tuple]] = [[] for _ in range(n_ticks)]
    for ops in script:
        cut = max(i for i, op in enumerate(ops[:n_ticks]) if op[0] == "up")
        for k, op in enumerate(ops[: cut + 1]):
            if op[0] != "idle":
                lap[k].append(op)
    return lap


def stream(lap, n_ticks: int):
    """``(t, group)`` for ticks ``0 .. n_ticks-1``: the lap over and over,
    stroke ids suffixed ``r<lap number>``, tick ``i`` at ``t = i * DT``."""
    size = len(lap)
    for i in range(n_ticks):
        r, k = divmod(i, size)
        suffix = f"r{r}"
        yield i * DT, [(op, key + suffix, x, y) for op, key, x, y in lap[k]]


def end_time(n_ticks: int) -> float:
    """The trailing tick that fires every pending motionless timeout."""
    return n_ticks * DT + DEFAULT_TIMEOUT + DT


def encode_tick(t: float, group, compact_odd: bool) -> bytes:
    """One tick's request bytes: its ops, then the ``tick`` barrier.

    Lines are formatted as ``json.dumps`` writes them (floats by
    ``repr``, ``", "`` and ``": "`` separators).  With ``compact_odd``,
    clients with an odd index write theirs as ``JSON.stringify`` does,
    with no spaces: valid protocol, but not the canonical shape.
    """
    lines = []
    for op, key, x, y in group:
        if compact_odd and int(key[1 : key.index("g")]) % 2:
            lines.append(
                f'{{"op":"{op}","stroke":"{key}","x":{x!r},"y":{y!r},"t":{t!r}}}'
            )
        else:
            lines.append(
                f'{{"op": "{op}", "stroke": "{key}", "x": {x!r}, '
                f'"y": {y!r}, "t": {t!r}}}'
            )
    lines.append(f'{{"op": "tick", "t": {t!r}}}')
    return ("\n".join(lines) + "\n").encode()


def tail_bytes(n_ticks: int) -> bytes:
    """Final tick, sweep everything idle, then the completion barrier."""
    return (
        json.dumps({"op": "tick", "t": end_time(n_ticks)})
        + "\n"
        + json.dumps({"op": "sweep", "max_idle": 0.0})
        + "\n"
    ).encode() + STATS_LINE


def reference(recognizer, lap, n_ticks: int) -> dict[str, list[str]]:
    """Per-stroke reply lines one in-process pool gives the same ticks."""
    return reference_lines(
        recognizer,
        stream(lap, n_ticks),
        end_t=end_time(n_ticks),
        timeout=DEFAULT_TIMEOUT,
    )


def pool_oracle(recognizer, ticks) -> list:
    """The decision stream of the scalar (unbatched) pool: the oracle
    the batched pool must equal, decision for decision."""
    pool = SessionPool(
        recognizer, timeout=DEFAULT_TIMEOUT, batched=False,
        max_sessions=CLIENTS + 1,
    )
    out = []
    for t, group in ticks:
        if group:
            pool.submit(group, t)
        out.extend(pool.advance_to(t))
    out.extend(pool.advance_to(end_time(len(ticks))))
    out.extend(pool.evict_idle(0.0))
    return out


def digest_lines(lines_by_stroke: dict[str, list[str]]) -> str:
    h = hashlib.sha256()
    for stroke in sorted(lines_by_stroke):
        for line in lines_by_stroke[stroke]:
            h.update(f"{stroke}\t{line}\n".encode())
    return h.hexdigest()[:16]


def digest_decisions(decisions) -> str:
    h = hashlib.sha256()
    for d in decisions:
        h.update((encode_decision(d, d.key) + "\n").encode())
    return h.hexdigest()[:16]


def count_mismatches(expected: dict, got: dict) -> int:
    """Reply lines missing, extra, or not byte-identical, over all strokes."""
    bad = 0
    for stroke in expected.keys() | got.keys():
        want = expected.get(stroke, [])
        have = got.get(stroke, [])
        bad += sum(1 for a, b in zip(want, have) if a != b)
        bad += abs(len(want) - len(have))
    return bad
