"""Elastic cluster benchmark: resharding economy and live-migration cost.

The elastic subsystem's claims, measured:

* **bounded key movement** — stepping a weighted-vnode ring from 2 to 4
  shards moves no more than 1.25x the theoretical minimum number of
  sessions (the fair share the new shards must take; a naive
  ``hash(key) % n`` reshuffle would move about half of *all* keys);
* **migration latency** — the p99 of ``cluster.migration_seconds``
  (journal replay + re-route per session, measured inside the router)
  during a live scale-out at 256 open sessions stays under
  ``P99_BOUND_S``;
* **zero drops** — every one of the 256 mid-stroke sessions survives
  the scale-out and finishes byte-identical to a single
  :class:`~repro.serve.SessionPool`; nothing is evicted, nothing is
  lost.

Results go to ``BENCH_elastic.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
import json
import time

from conftest import write_bench_json, write_report

from repro.cluster import (
    Cluster,
    HashRing,
    Supervisor,
    drive_cluster,
    quantile_from_buckets,
    reference_lines,
)
from repro.eager import train_eager_recognizer
from repro.interaction import DEFAULT_TIMEOUT
from repro.synth import GestureGenerator, gdp_templates

SESSIONS = 256
EXAMPLES = 12
SEED = 9
DT = 0.1
WORKERS_BEFORE = 2
WORKERS_AFTER = 4
# Migration is a synchronous journal replay into an already-connected
# link — enqueue work, no awaits — so even on a loaded 1-CPU host a
# single session's move should land well under this.
P99_BOUND_S = 0.025
MOVE_RATIO_BOUND = 1.25
# Median of REPEATS live runs; see bench_cluster.py for the rationale.
REPEATS = 3


def _session_keys():
    # drive_cluster is the router's first client, so keys are "k1:...".
    return [f"k1:g{i}" for i in range(SESSIONS)]


def _ticks():
    """256 strokes opened together, all mid-flight during the scale."""
    groups = []
    groups.append(
        (0.0, [("down", f"g{i}", 0.0, float(i % 7)) for i in range(SESSIONS)])
    )
    groups.append(
        (DT, [("move", f"g{i}", 15.0, float(i % 5)) for i in range(SESSIONS)])
    )
    groups.append(
        (2 * DT, [("up", f"g{i}", 30.0, 0.0) for i in range(SESSIONS)])
    )
    return groups


def test_elastic_numbers(tmp_path_factory):
    templates = gdp_templates()
    strokes = GestureGenerator(templates, seed=SEED).generate_strokes(EXAMPLES)
    recognizer = train_eager_recognizer(strokes).recognizer
    path = tmp_path_factory.mktemp("bench_elastic") / "recognizer.json"
    recognizer.save(path)

    # -- resharding economy (deterministic, no fleet needed) ---------------
    keys = _session_keys()
    old_ring = HashRing([f"w{i}" for i in range(WORKERS_BEFORE)])
    new_ring = old_ring
    for i in range(WORKERS_BEFORE, WORKERS_AFTER):
        new_ring = new_ring.with_shard(f"w{i}")
    plan = old_ring.plan_rebalance(new_ring, keys)
    keys_moved = len(plan)
    # The minimum: the new shards' fair share of the keyspace.  Anything
    # that stays under MOVE_RATIO_BOUND x of it is "only what must move".
    min_moves = SESSIONS * (WORKERS_AFTER - WORKERS_BEFORE) / WORKERS_AFTER
    move_ratio = keys_moved / min_moves
    # Every planned move targets a *new* shard — old keys never shuffle
    # among the survivors, which is the consistent-hashing contract.
    assert all(
        dst in {f"w{i}" for i in range(WORKERS_BEFORE, WORKERS_AFTER)}
        for _, dst in plan.values()
    )

    # -- live scale-out under 256 open sessions ----------------------------
    ticks = _ticks()
    end_t = 3 * DT + DEFAULT_TIMEOUT + DT
    reference = reference_lines(
        recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )

    async def run():
        async with Cluster(
            Supervisor(path, WORKERS_BEFORE, timeout=DEFAULT_TIMEOUT),
            min_workers=1,
            max_workers=WORKERS_AFTER,
        ) as cluster:
            await cluster.wait_all_up()
            host, port = cluster.address
            scale_s = {}

            async def before_tick(i, t):
                if i != 1:
                    return
                # All 256 sessions are open and mid-stroke: scale out
                # and block until both joins (and their migrations)
                # have landed.
                reader, writer = await asyncio.open_connection(host, port)
                start = time.perf_counter()
                writer.write(b'{"op": "scale", "workers": 4}\n')
                await writer.drain()
                reply = json.loads(
                    await asyncio.wait_for(reader.readline(), 30)
                )
                assert reply["status"] == "started", reply
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 60
                # The link count reaches 4 before the final join's
                # rebalance runs; the scale lock is held until every
                # join *and* its migrations have been applied.
                while (
                    len(cluster.router.links) < WORKERS_AFTER
                    or cluster._scale_lock.locked()
                ):
                    assert loop.time() < deadline
                    await asyncio.sleep(0.01)
                await cluster.wait_all_up()
                scale_s["elapsed"] = time.perf_counter() - start
                writer.close()
                await writer.wait_closed()

            start = time.perf_counter()
            replies, stats = await drive_cluster(
                host, port, ticks, end_t=end_t, before_tick=before_tick
            )
            elapsed = time.perf_counter() - start
            snapshot = cluster.metrics.snapshot()
            return replies, stats, snapshot, scale_s["elapsed"], elapsed

    runs = []
    for _ in range(REPEATS):
        replies, stats, snapshot, scale_out_s, elapsed = asyncio.run(run())
        assert replies == reference, "scale-out broke byte-identity"
        assert stats["cluster"]["sessions"] == 0  # all terminal, none lost
        runs.append((elapsed, (stats, snapshot, scale_out_s)))
    _, (stats, snapshot, scale_out_s) = sorted(runs, key=lambda r: r[0])[
        len(runs) // 2
    ]

    migrations = snapshot["counters"]["cluster.migrations"]
    hist = snapshot["histograms"]["cluster.migration_seconds"]
    p99_s = quantile_from_buckets(hist["buckets"], q=0.99)
    dropped = len(set(reference) - set(replies))

    write_report(
        "elastic",
        f"Elastic scale-out ({SESSIONS} sessions, "
        f"{WORKERS_BEFORE} -> {WORKERS_AFTER} workers)\n"
        f"keys moved: {keys_moved} "
        f"(minimum {min_moves:.0f}, ratio {move_ratio:.2f}x)\n"
        f"live migrations: {migrations}, p99 {p99_s * 1000:.2f} ms "
        f"(bound {P99_BOUND_S * 1000:.0f} ms)\n"
        f"scale-out wall time: {scale_out_s * 1000:.0f} ms\n"
        f"dropped strokes: {dropped}\n"
        "replies byte-identical to the single pool across the scale cycle",
    )
    write_bench_json(
        "elastic",
        params={
            "sessions": SESSIONS,
            "workers_before": WORKERS_BEFORE,
            "workers_after": WORKERS_AFTER,
            "ring_replicas": old_ring.replicas,
            "seed": SEED,
            "move_ratio_bound": MOVE_RATIO_BOUND,
            "p99_bound_s": P99_BOUND_S,
        },
        results={
            "keys_moved": keys_moved,
            "min_moves": round(min_moves, 1),
            "move_ratio": round(move_ratio, 3),
            "migrations": migrations,
            "migration_p99_s": round(p99_s, 6),
            "scale_out_s": round(scale_out_s, 4),
            "dropped_strokes": dropped,
            "byte_identical": True,
        },
    )
    assert move_ratio <= MOVE_RATIO_BOUND, (
        f"moved {keys_moved} keys for a fair share of {min_moves:.0f} "
        f"= {move_ratio:.2f}x, expected <= {MOVE_RATIO_BOUND}x"
    )
    assert p99_s <= P99_BOUND_S, (
        f"migration p99 {p99_s:.4f}s over the {P99_BOUND_S}s bound"
    )
    assert dropped == 0
