"""Hot model swap: pool semantics, serving invariants, server protocol.

The serving invariants under test:

* a swap binds sessions *opened after it* (in input order); sessions in
  flight finish on the model they pinned at open;
* every non-swapped session's decision stream is byte-identical to a
  run without the swap;
* batched and sequential pools agree decision-for-decision with swaps
  in the stream;
* the server resolves swaps against its registry, acks with the pinned
  ``name@version``, and rejects them without a registry.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.eager import EagerRecognizer, train_eager_recognizer
from repro.obs import MetricsRegistry, PoolObserver, Tracer
from repro.synth import GestureGenerator, eight_direction_templates
from repro.serve import (
    GestureServer,
    ModelRegistry,
    Request,
    SessionPool,
    encode_decision,
    encode_swap,
)

TIMEOUT = 0.2
DT = 0.01


def stroke_ops(key: str, n: int = 10, step: float = 5.0, t0: float = 0.0):
    """(t, op) pairs of one complete stroke."""
    ops = [(t0, ("down", key, 0.0, 0.0))]
    for i in range(1, n):
        ops.append((t0 + i * DT, ("move", key, i * step, i * step)))
    ops.append((t0 + n * DT, ("up", key, n * step, n * step)))
    return ops


def drive(recognizer, events, *, batched: bool = True, observer=None):
    """Play ``(t, op-or-swap)`` events through a pool; return encoded lines.

    A ``("swap", prefix, recognizer, label)`` event is buffered via
    :meth:`swap_model` at its position; everything else goes through
    :meth:`submit`.  Decisions are stringified with the protocol
    encoder, keyed by session, so runs compare bytewise.
    """
    pool = SessionPool(
        recognizer, timeout=TIMEOUT, batched=batched, observer=observer
    )
    lines: dict[str, list[str]] = {}

    def emit(decisions):
        for d in decisions:
            lines.setdefault(d.key, []).append(encode_decision(d, d.key))

    for t, op in sorted(events, key=lambda e: e[0]):
        if op[0] == "swap":
            _, prefix, model, label = op
            pool.swap_model(prefix, model, t, label=label)
        else:
            pool.submit([op], t)
        emit(pool.advance_to(t))
    emit(pool.advance_to(max(t for t, _ in events) + TIMEOUT + DT))
    emit(pool.evict_idle(0.0))
    return lines


def decided_class(lines: list[str]) -> str:
    for line in lines:
        obj = json.loads(line)
        if obj["kind"] == "recog":
            return obj["class"]
    raise AssertionError(f"no recog in {lines}")


class TestPoolSwap:
    def test_next_stroke_gets_swapped_model(
        self, directions_recognizer, gdp_recognizer
    ):
        events = stroke_ops("u1/s1", t0=0.0)
        events.append((0.5, ("swap", "u1/", gdp_recognizer, "gdp@x")))
        events += stroke_ops("u1/s2", t0=1.0)
        lines = drive(directions_recognizer, events)
        assert (
            decided_class(lines["u1/s1"])
            in directions_recognizer.class_names
        )
        assert decided_class(lines["u1/s2"]) in gdp_recognizer.class_names

    def test_in_flight_session_pins_its_model(
        self, directions_recognizer, gdp_recognizer
    ):
        # The swap lands mid-gesture; the gesture must still be judged
        # by the model it opened under.
        events = stroke_ops("u1/s1", t0=0.0)
        events.append((0.035, ("swap", "u1/", gdp_recognizer, "gdp@x")))
        lines = drive(directions_recognizer, events)
        assert (
            decided_class(lines["u1/s1"])
            in directions_recognizer.class_names
        )

    def test_longest_prefix_wins(self, directions_recognizer, gdp_recognizer):
        events = [
            (0.0, ("swap", "u", gdp_recognizer, "broad")),
            (0.0, ("swap", "u1/", directions_recognizer, "narrow")),
        ]
        events += stroke_ops("u1/s1", t0=0.1)
        events += stroke_ops("u2/s1", t0=0.1)
        lines = drive(directions_recognizer, events)
        assert (
            decided_class(lines["u1/s1"])
            in directions_recognizer.class_names
        )
        assert decided_class(lines["u2/s1"]) in gdp_recognizer.class_names

    def test_non_swapped_sessions_byte_identical(
        self, directions_recognizer, gdp_recognizer
    ):
        # Interleaved strokes for three users; u2 gets swapped mid-run.
        events = []
        for user, t0 in (("u1", 0.0), ("u2", 0.02), ("u3", 0.04)):
            events += stroke_ops(f"{user}/a", t0=t0)
            events += stroke_ops(f"{user}/b", t0=t0 + 1.0)
        swap = [(0.5, ("swap", "u2/", gdp_recognizer, "gdp@x"))]
        plain = drive(directions_recognizer, list(events))
        swapped = drive(directions_recognizer, events + swap)
        for key in plain:
            if not key.startswith("u2/"):
                assert swapped[key] == plain[key], key
        # And the swap actually changed u2's second stroke.
        assert decided_class(swapped["u2/b"]) in gdp_recognizer.class_names

    def test_batched_and_sequential_agree_with_swaps(
        self, directions_recognizer, gdp_recognizer
    ):
        events = []
        for user, t0 in (("u1", 0.0), ("u2", 0.03)):
            events += stroke_ops(f"{user}/a", t0=t0)
            events += stroke_ops(f"{user}/b", t0=t0 + 1.0)
        events.append((0.5, ("swap", "u1/", gdp_recognizer, "gdp@x")))
        batched = drive(directions_recognizer, list(events), batched=True)
        sequential = drive(
            directions_recognizer, list(events), batched=False
        )
        assert batched == sequential

    def test_per_model_min_points_in_shared_rounds(
        self, directions_recognizer
    ):
        # Two resident models that differ only in min_points, with
        # sessions of both live in the same rounds: each session must
        # reach its own model's threshold before D may fire.  The
        # directions gestures turn late, so the default model decides
        # them eagerly at 11-14 points, below the late model's 15.
        late = EagerRecognizer(
            directions_recognizer.full_classifier,
            directions_recognizer.auc,
            min_points=15,
        )
        generator = GestureGenerator(eight_direction_templates(), seed=5)
        events = [(0.0, ("swap", "u2/", late, "late"))]
        for i, name in enumerate(directions_recognizer.class_names):
            for user in ("u1", "u2"):
                key = f"{user}/{name}"
                points = list(generator.generate(name).stroke)
                t0 = 0.01 + i * 0.05
                events.append((t0, ("down", key, points[0].x, points[0].y)))
                for k, p in enumerate(points[1:], start=1):
                    events.append((t0 + k * DT, ("move", key, p.x, p.y)))
                events.append(
                    (t0 + len(points) * DT, ("up", key, p.x, p.y))
                )
        batched = drive(directions_recognizer, list(events), batched=True)
        sequential = drive(
            directions_recognizer, list(events), batched=False
        )
        assert batched == sequential
        for key, lines in batched.items():
            recog = json.loads(lines[0])
            if key.startswith("u1/"):
                assert recog["eager"] and recog["points_seen"] < 15, key
            else:
                assert recog["points_seen"] >= 15, key

    def test_observer_hook_counts_and_traces_swaps(
        self, directions_recognizer, gdp_recognizer
    ):
        metrics = MetricsRegistry()
        tracer = Tracer()
        observer = PoolObserver(metrics=metrics, tracer=tracer)
        events = stroke_ops("u1/s1", t0=0.0)
        events.append((0.5, ("swap", "u1/", gdp_recognizer, "gdp@abc")))
        drive(directions_recognizer, events, observer=observer)
        assert metrics.snapshot()["counters"]["adapt.swaps"] == 1
        swap_events = [
            r for r in tracer.records
            if r["rec"] == "event" and r["kind"] == "swap"
        ]
        assert len(swap_events) == 1
        assert swap_events[0]["model"] == "gdp@abc"
        assert swap_events[0]["session"] == "u1/"

    def test_shared_recognizer_shares_one_pool_model(
        self, directions_recognizer, gdp_recognizer
    ):
        # Many users swapping to one cached recognizer object must share
        # a single resident model (one evaluator), not one per user.
        pool = SessionPool(directions_recognizer, timeout=TIMEOUT)
        for i in range(8):
            pool.swap_model(f"u{i}/", gdp_recognizer, 0.0, label="gdp@x")
        pool.advance_to(0.0)
        assert len(pool._model_cache) == 2  # default + the one candidate


class TestModelCacheLRU:
    def test_max_models_needs_a_loader(self, directions_recognizer):
        with pytest.raises(ValueError, match="model_loader"):
            SessionPool(directions_recognizer, max_models=1)

    def test_lru_eviction_degrades_assignments_to_labels(
        self, directions_recognizer, gdp_recognizer
    ):
        loads = []

        def loader(label):
            loads.append(label)
            return {"dirs": directions_recognizer, "gdp": gdp_recognizer}[
                label
            ]

        pool = SessionPool(
            directions_recognizer,
            timeout=TIMEOUT,
            max_models=1,
            model_loader=loader,
        )
        pool.swap_model("u1/", gdp_recognizer, 0.0, label="gdp")
        pool.advance_to(0.0)
        assert pool.model_evictions == 0
        # Swapping to the *default* recognizer adds no resident model:
        # the default never counts against the bound.
        pool.swap_model("u2/", directions_recognizer, 0.1, label="dirs")
        pool.advance_to(0.1)
        assert pool.model_evictions == 0
        # A second swapped-in model crosses the bound: gdp (the LRU)
        # is evicted and its assignment degrades to the label string.
        other = train_eager_recognizer(
            GestureGenerator(
                eight_direction_templates(), seed=7
            ).generate_strokes(5)
        ).recognizer
        pool.swap_model("u3/", other, 0.2, label="other")
        pool.advance_to(0.2)
        assert pool.model_evictions == 1
        assert pool._assign["u1/"] == "gdp"
        assert loads == []

        # The next session under the evicted prefix reloads the label
        # through the loader and decides with the real model again.
        lines: list[str] = []
        for t, op in stroke_ops("u1/s1", t0=1.0):
            pool.submit([op], t)
            for d in pool.advance_to(t):
                lines.append(encode_decision(d, d.key))
        for d in pool.advance_to(2.0):
            lines.append(encode_decision(d, d.key))
        assert loads == ["gdp"]
        assert decided_class(lines) in gdp_recognizer.class_names
        # ...and the assignment re-materialized to a live model.
        assert pool._assign["u1/"] != "gdp"

    def test_eviction_never_changes_decisions(
        self, directions_recognizer, gdp_recognizer
    ):
        """Bounded and unbounded pools produce byte-identical streams.

        Registry models are content-addressed, so an evicted model
        reloads bit-equal; the only observable difference a bound can
        make is memory, never output bytes.
        """

        other = train_eager_recognizer(
            GestureGenerator(
                eight_direction_templates(), seed=7
            ).generate_strokes(5)
        ).recognizer

        def loader(label):
            return {"gdp": gdp_recognizer, "other": other}[label]

        events = stroke_ops("u1/s1", t0=0.0)
        events.append((0.5, ("swap", "u1/", gdp_recognizer, "gdp")))
        events.append((0.6, ("swap", "u2/", other, "other")))
        events += stroke_ops("u1/s2", t0=1.0)
        events += stroke_ops("u2/s1", t0=1.0)

        def run(**kwargs):
            pool = SessionPool(
                directions_recognizer, timeout=TIMEOUT, **kwargs
            )
            lines: dict[str, list[str]] = {}
            for t, op in sorted(events, key=lambda e: e[0]):
                if op[0] == "swap":
                    _, prefix, model, label = op
                    pool.swap_model(prefix, model, t, label=label)
                else:
                    pool.submit([op], t)
                for d in pool.advance_to(t):
                    lines.setdefault(d.key, []).append(
                        encode_decision(d, d.key)
                    )
            for d in pool.advance_to(3.0):
                lines.setdefault(d.key, []).append(encode_decision(d, d.key))
            return pool, lines

        unbounded, plain = run()
        bounded, capped = run(max_models=1, model_loader=loader)
        assert capped == plain
        assert bounded.model_evictions >= 1
        assert unbounded.model_evictions == 0

    def test_server_model_cache_needs_registry(self, directions_recognizer):
        with pytest.raises(ValueError, match="registry"):
            GestureServer(directions_recognizer, model_cache=2)


@pytest.fixture()
def swap_registry(tmp_path, gdp_recognizer):
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish("gdp", gdp_recognizer, metadata={}).version
    return registry, version


class TestServerSwap:
    def _run(self, scenario):
        return asyncio.run(scenario())

    def test_swap_ack_carries_resolved_version(
        self, directions_recognizer, gdp_recognizer, swap_registry
    ):
        registry, version = swap_registry

        async def scenario():
            server = GestureServer(directions_recognizer, registry=registry)
            await server.start()
            try:
                channel = await server.open_channel()
                await channel.send(
                    Request(op="swap", t=0.1, user="alice", model="gdp")
                )
                ack = await asyncio.wait_for(channel.recv(), 5.0)
                # Post-swap stroke is judged by the swapped model.
                await channel.send(Request("down", 0.2, "s1", 0.0, 0.0))
                for i in range(1, 12):
                    await channel.send(
                        Request(
                            "move", 0.2 + i * DT, "s1", i * 5.0, i * 5.0
                        )
                    )
                await channel.send(Request("up", 0.4, "s1", 60.0, 60.0))
                recog = None
                for _ in range(30):
                    line = await asyncio.wait_for(channel.recv(), 5.0)
                    if json.loads(line)["kind"] == "recog":
                        recog = json.loads(line)
                        break
                return ack, recog
            finally:
                await server.stop()

        ack, recog = self._run(scenario)
        assert ack == encode_swap("alice", f"gdp@{version}", 0.1)
        assert recog is not None
        # "alice" is not the stroke's user prefix ("s1" has none), so the
        # session still ran the default model...
        assert recog["class"] in directions_recognizer.class_names

    def test_swapped_user_prefix_serves_candidate(
        self, directions_recognizer, gdp_recognizer, swap_registry
    ):
        registry, version = swap_registry

        async def scenario():
            server = GestureServer(directions_recognizer, registry=registry)
            await server.start()
            try:
                channel = await server.open_channel()
                # The wire contract: strokes of user u are "u:stroke"
                # only by client convention — the pool prefix is the
                # session key, so swap user "s" rebinds strokes named
                # "s...".  Swap first, then draw.
                await channel.send(
                    Request(op="swap", t=0.0, user="s", model=f"gdp@{version}")
                )
                await asyncio.wait_for(channel.recv(), 5.0)  # ack
                await channel.send(Request("down", 0.1, "s1", 0.0, 0.0))
                for i in range(1, 12):
                    await channel.send(
                        Request("move", 0.1 + i * DT, "s1", i * 5.0, i * 5.0)
                    )
                await channel.send(Request("up", 0.3, "s1", 60.0, 60.0))
                for _ in range(30):
                    line = await asyncio.wait_for(channel.recv(), 5.0)
                    obj = json.loads(line)
                    if obj["kind"] == "recog":
                        return obj
            finally:
                await server.stop()

        recog = self._run(scenario)
        assert recog["class"] in gdp_recognizer.class_names

    def test_registry_less_server_rejects_swap(self, directions_recognizer):
        async def scenario():
            server = GestureServer(directions_recognizer)
            await server.start()
            try:
                channel = await server.open_channel()
                await channel.send(
                    Request(op="swap", t=0.0, user="alice", model="gdp")
                )
                return json.loads(await asyncio.wait_for(channel.recv(), 5.0))
            finally:
                await server.stop()

        reply = self._run(scenario)
        assert reply["kind"] == "error"
        assert "no registry" in reply["reason"]

    def test_unknown_model_rejected_without_side_effects(
        self, directions_recognizer, swap_registry
    ):
        registry, _ = swap_registry

        async def scenario():
            server = GestureServer(directions_recognizer, registry=registry)
            await server.start()
            try:
                channel = await server.open_channel()
                await channel.send(
                    Request(op="swap", t=0.0, user="alice", model="nope")
                )
                reply = json.loads(
                    await asyncio.wait_for(channel.recv(), 5.0)
                )
                return reply, len(server.pool._assign)
            finally:
                await server.stop()

        reply, assigned = self._run(scenario)
        assert reply["kind"] == "error"
        assert "swap failed" in reply["reason"]
        assert assigned == 0
