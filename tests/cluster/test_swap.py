"""Cluster hot-swap: routing, version pinning, exactly-once crash replay.

The swap travels the same single client connection as the strokes (the
router namespaces swap users per client exactly like stroke keys), so
these tests play the plain tick script (``tick_events``) with a
``swap`` event ahead of it, through ``drive_events``.

The load-bearing claims:

* a swap rebinds one client user's *future* sessions fleet-wide while
  every other stroke's reply stream stays string-equal to the no-swap
  single-pool reference;
* the client sees exactly one ack, synthesized by the router with the
  *pinned* ``name@version`` (worker acks are absorbed);
* a SIGKILL of a shard that owns swapped sessions is invisible: the
  journal replays the swap before the replayed sessions, and the full
  reply map is byte-identical to a crash-free swapped run.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    Cluster,
    Supervisor,
    drive_events,
    reference_lines,
    tick_events,
    workload_ticks,
)
from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import ModelRegistry, encode_swap

from .test_cluster import DT, crash_hooks, end_time, shard_of


@pytest.fixture(scope="session")
def swap_registry_path(directions_recognizer, tmp_path_factory):
    """A registry holding the swap candidate, as a worker-shippable path."""
    root = tmp_path_factory.mktemp("cluster-swap") / "registry"
    version = ModelRegistry(root).publish(
        "alt", directions_recognizer, metadata={}
    ).version
    return str(root), version


def recog_classes(lines) -> list[str]:
    return [
        json.loads(line)["class"]
        for line in lines
        if json.loads(line)["kind"] == "recog"
    ]


SWAP_USER = "c0g"  # prefixes both of client c0's strokes: c0g0, c0g1
SWAP = ("swap", SWAP_USER, "alt", 0.0)


def test_swap_rebinds_user_and_preserves_other_streams(
    recognizer_path,
    cluster_recognizer,
    cluster_workload,
    directions_recognizer,
    swap_registry_path,
):
    registry_root, version = swap_registry_path
    # The detector the test rests on: the candidate names no class the
    # base model knows, so every post-swap decision is attributable.
    assert not set(directions_recognizer.class_names) & set(
        cluster_recognizer.class_names
    )
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    swapped_strokes = {s for s in reference if s.startswith(SWAP_USER)}
    assert swapped_strokes  # the workload really contains client c0
    events = [SWAP] + tick_events(ticks, end_t=end_t)

    async def run():
        async with Cluster(
            Supervisor(
                recognizer_path, 4, timeout=DEFAULT_TIMEOUT, registry=registry_root
            )
        ) as cluster:
            replies, stats = await drive_events(*cluster.address, events)
            return replies, stats, cluster.metrics.snapshot()

    replies, stats, snapshot = asyncio.run(run())
    # Exactly one ack, router-synthesized, version pinned.
    assert replies.pop("") == [encode_swap(SWAP_USER, f"alt@{version}", 0.0)]
    # Worker acks were absorbed, one per live shard.
    assert snapshot["counters"]["cluster.swap_acks_dropped"] == 4
    assert snapshot["counters"]["cluster.swaps_routed"] == 1
    # Every stroke of the swapped user was decided by the candidate...
    assert set(replies) == set(reference)
    for stroke in swapped_strokes:
        classes = recog_classes(replies[stroke])
        assert classes, stroke
        assert all(
            c in directions_recognizer.class_names for c in classes
        ), stroke
    # ...and everyone else's stream is byte-identical to the no-swap
    # single-pool reference.
    for stroke in sorted(set(reference) - swapped_strokes):
        assert replies[stroke] == reference[stroke], stroke
    assert stats["cluster"]["sessions"] == 0


def test_swap_survives_worker_crash_exactly_once(
    recognizer_path, cluster_workload, swap_registry_path
):
    registry_root, version = swap_registry_path
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    # Kill the shard that owns the swapped user's *second* gesture: its
    # session opens after the restart, so a correct run proves the
    # journal replayed the swap ahead of the replayed/future sessions.
    victim = shard_of(f"{SWAP_USER}1", 4)
    mid = len(ticks) // 2

    async def run(crash: bool):
        async with Cluster(
            Supervisor(
                recognizer_path, 4, timeout=DEFAULT_TIMEOUT, registry=registry_root
            )
        ) as cluster:
            hooks = crash_hooks(cluster, victim, mid) if crash else {}
            events = [SWAP] + tick_events(ticks, end_t=end_t, **hooks)
            replies, stats = await drive_events(*cluster.address, events)
            return replies, stats, cluster.metrics.snapshot()

    clean, _, _ = asyncio.run(run(crash=False))
    crashed, stats, snapshot = asyncio.run(run(crash=True))
    # The crash actually happened and was healed by replay.
    assert snapshot["counters"]["cluster.worker_restarts"] >= 1
    assert snapshot["counters"]["cluster.replays"] >= 1
    # Exactly one client-facing ack even though the swap was re-applied.
    ack = [encode_swap(SWAP_USER, f"alt@{version}", 0.0)]
    assert clean.pop("") == ack
    assert crashed.pop("") == ack
    # Byte-identical reply map — swapped user included — crash and all.
    assert set(crashed) == set(clean)
    for stroke in sorted(clean):
        assert crashed[stroke] == clean[stroke], stroke
    assert stats["cluster"]["sessions"] == 0


def test_registry_less_cluster_rejects_swap(recognizer_path):
    events = [("swap", "u", "alt", 0.0)] + tick_events([(0.0, [])], end_t=0.1)

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 2, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            replies, _ = await drive_events(*cluster.address, events)
            return replies

    replies = asyncio.run(run())
    (line,) = replies[""]
    reply = json.loads(line)
    assert reply["kind"] == "error"
    assert "no registry" in reply["reason"]
