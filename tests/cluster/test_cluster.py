"""End-to-end cluster invariance, crash recovery, drain, and admin ops.

The load-bearing assertion, three ways (clean, mid-run SIGKILL, faulted
input): the per-stroke reply streams of an N-worker cluster are
*string-equal* to what one :class:`~repro.serve.SessionPool` produces
for the same input order.  Workers are real subprocesses; the crash
test kills one with SIGKILL mid-run and the supervisor + journal replay
must make the loss invisible.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    Cluster,
    HashRing,
    Router,
    Supervisor,
    drive_cluster,
    reference_lines,
    workload_ticks,
)
from repro.interaction import DEFAULT_TIMEOUT
from repro.obs import FaultPlan
from repro.serve import run_load

DT = 0.01


def end_time(ticks) -> float:
    # The same drain horizon run_load uses: past the last possible
    # motionless timeout.
    return len(ticks) * DT + DEFAULT_TIMEOUT + DT


def assert_byte_identical(replies: dict, reference: dict) -> None:
    assert set(replies) == set(reference), (
        sorted(set(reference) - set(replies)),
        sorted(set(replies) - set(reference)),
    )
    for stroke in sorted(reference):
        assert replies[stroke] == reference[stroke], stroke


def shard_of(stroke: str, workers: int) -> str:
    # drive_cluster is the router's first client, so keys are "k1:...".
    return HashRing([f"w{i}" for i in range(workers)]).lookup(f"k1:{stroke}")


async def admin(host, port, line: str) -> dict:
    """One admin request on a connection of its own; its reply."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(line.encode() + b"\n")
    await writer.drain()
    reply = json.loads(await asyncio.wait_for(reader.readline(), 30))
    writer.close()
    await writer.wait_closed()
    return reply


def crash_hooks(cluster, victim: str, at: int) -> dict:
    """``drive_cluster`` hooks that SIGKILL ``victim`` ahead of tick
    ``at`` and, before the stats barrier, wait until the supervisor has
    restarted it and the router has replayed its journals."""
    ups = {}

    async def before_tick(i, t):
        if i == at:
            await cluster.wait_all_up()
            ups["n"] = cluster.router.links[victim].ups
            assert await cluster.kill(victim) is not None

    async def before_barrier():
        await cluster.wait_recovered(victim, ups["n"])
        await cluster.wait_all_up()

    return {"before_tick": before_tick, "before_barrier": before_barrier}


def test_invariance_matches_single_pool(
    recognizer_path, cluster_recognizer, cluster_workload
):
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    strokes = set(reference)
    # The workload must actually exercise the sharding for the test to
    # mean anything.
    assert len({shard_of(s, 4) for s in strokes}) >= 2

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 4, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            host, port = cluster.address
            return await drive_cluster(host, port, ticks, end_t=end_t)

    replies, stats = asyncio.run(run())
    assert_byte_identical(replies, reference)
    # The stats barrier reply is the fleet-wide merge: worker pool
    # counters summed across shards equal the single-pool totals.
    merged = stats["metrics"]
    assert merged["counters"]["pool.sessions_opened"] == len(strokes)
    assert merged["counters"]["pool.commits"] == sum(
        1 for lines in reference.values() for line in lines
        if json.loads(line)["kind"] == "commit"
    )
    assert stats["sessions"] == 0  # everything terminal after the sweep
    assert set(stats["cluster"]["shards"]) == {"w0", "w1", "w2", "w3"}
    # The router's own namespace rides along in the merge.
    assert merged["counters"]["cluster.ops_routed"] > 0


def test_invariance_across_worker_crash(
    recognizer_path, cluster_recognizer, cluster_workload
):
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    # Kill the shard that owns the most strokes, mid-run.
    counts: dict = {}
    for stroke in reference:
        counts[shard_of(stroke, 4)] = counts.get(shard_of(stroke, 4), 0) + 1
    victim = max(counts, key=counts.get)
    mid = len(ticks) // 2

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 4, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            replies, stats = await drive_cluster(
                *cluster.address,
                ticks,
                end_t=end_t,
                **crash_hooks(cluster, victim, mid),
            )
            return replies, stats, cluster.metrics.snapshot()

    replies, stats, snapshot = asyncio.run(run())
    # Byte-identical per session, crash and all.
    assert_byte_identical(replies, reference)
    # The crash actually happened and was healed by replay.
    assert snapshot["counters"]["cluster.worker_restarts"] >= 1
    assert snapshot["counters"]["cluster.replays"] >= 1
    assert snapshot["counters"]["cluster.replayed_lines"] > 0
    assert stats["cluster"]["shards"][victim]["ups"] >= 2
    # Zero lost sessions: every journaled session reached terminal.
    assert stats["cluster"]["sessions"] == 0


def test_invariance_with_faulted_input(
    recognizer_path, cluster_recognizer, cluster_workload
):
    # Ground truth from the obs fault machinery: run the plan once
    # in-process and take the post-fault delivered op stream (kills off
    # — there is deliberately no remote kill op).
    plan = FaultPlan(drop=0.03, duplicate=0.03, delay=0.03, reorder=0.05)
    base = run_load(
        cluster_recognizer,
        cluster_workload,
        collect=True,
        fault_plan=plan,
        fault_seed=5,
    )
    assert base.fault_summary["dropped"] > 0
    assert base.fault_summary["duplicated"] > 0
    ticks = workload_ticks(base.delivered_log)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=base.end_t, timeout=DEFAULT_TIMEOUT
    )

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 3, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            host, port = cluster.address
            return await drive_cluster(host, port, ticks, end_t=base.end_t)

    replies, stats = asyncio.run(run())
    assert_byte_identical(replies, reference)
    # Dropped downs produce unknown-stroke errors; they must round-trip
    # the cluster too, and their records must not leak.
    assert any(
        json.loads(line)["kind"] == "error"
        for lines in reference.values()
        for line in lines
    )
    assert stats["cluster"]["sessions"] == 0


def test_graceful_drain_via_admin_op(
    recognizer_path, cluster_recognizer, cluster_workload
):
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    mid = len(ticks) // 2

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 3, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            host, port = cluster.address

            async def before_tick(i, t):
                if i == mid:
                    reply = await admin(
                        host, port, '{"op": "drain", "shard": "w2"}'
                    )
                    assert reply == {
                        "kind": "drain", "shard": "w2", "status": "started",
                    }

            async def before_barrier():
                await cluster.wait_retired("w2")
                await cluster.wait_all_up()

            replies, _ = await drive_cluster(
                host,
                port,
                ticks,
                end_t=end_t,
                before_tick=before_tick,
                before_barrier=before_barrier,
            )
            status = await admin(host, port, '{"op": "cluster"}')
            return replies, status, cluster.metrics.snapshot()

    replies, status, snapshot = asyncio.run(run())
    assert_byte_identical(replies, reference)
    assert status["kind"] == "cluster"
    assert status["shards"]["w2"]["retired"] is True
    assert status["shards"]["w2"]["state"] == "down"
    assert status["shards"]["w0"]["state"] == "up"
    assert snapshot["counters"]["cluster.drains"] == 1
    assert snapshot["histograms"]["cluster.drain_seconds"]["count"] == 1


def test_supervisor_restarts_with_backoff(recognizer_path):
    async def run():
        async with Cluster(Supervisor(recognizer_path, 2)) as cluster:
            link = cluster.router.links["w0"]
            handle = cluster.launcher.workers["w0"]
            first_pid = handle.pid
            ups = link.ups
            assert await cluster.kill("w0") == first_pid
            await cluster.wait_recovered("w0", ups)
            first_backoff = handle.backoff
            assert handle.restarts == 1
            assert handle.pid != first_pid
            # A second quick crash: backoff must grow, not hot-loop.
            ups = link.ups
            assert await cluster.kill("w0") is not None
            await cluster.wait_recovered("w0", ups)
            assert handle.restarts == 2
            assert handle.backoff > first_backoff

    asyncio.run(run())


def test_timeout_boundary_rescue_survives_crash(
    recognizer_path, cluster_recognizer
):
    # Review regression, end to end: a session one barrier away from its
    # motionless timeout is rescued by a move at exactly that barrier,
    # with a peer session's op (same timestamp, different shard) routed
    # ahead of it.  The router's clock used to advance on the peer op's
    # timestamp, so the rescue move was journaled behind a t=0.2 marker;
    # replay after a crash fired a timeout the live worker never fired.
    ring = HashRing(["w0", "w1"])
    strokes = [f"s{i}" for i in range(64)]
    rescued = next(s for s in strokes if ring.lookup(f"k1:{s}") == "w0")
    peer = next(s for s in strokes if ring.lookup(f"k1:{s}") == "w1")
    ticks = [
        (0.0, [("down", peer, 0.0, 0.0), ("down", rescued, 0.0, 0.0)]),
        (0.1, [("move", peer, 5.0, 5.0)]),
        (
            DEFAULT_TIMEOUT,
            [("move", peer, 10.0, 10.0), ("move", rescued, 3.0, 3.0)],
        ),
        (0.3, [("move", peer, 15.0, 15.0)]),
        (0.4, [("up", peer, 20.0, 20.0)]),
    ]
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    # The scenario only bites if the reference's rescue worked: the
    # boundary move must have counted as a gesture point.
    assert json.loads(reference[rescued][0])["points_seen"] == 2

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 2, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            # Crash once the rescue group (tick 2) is journaled.
            return await drive_cluster(
                *cluster.address,
                ticks,
                end_t=end_t,
                **crash_hooks(cluster, "w0", 3),
            )

    replies, stats = asyncio.run(run())
    assert_byte_identical(replies, reference)
    assert stats["cluster"]["sessions"] == 0


def test_monitor_survives_on_up_connection_failure(recognizer_path):
    # Review regression: a worker can print its ready line and die
    # before the router connects, making ``on_up`` raise.  That
    # exception used to escape the monitor task, leaving the shard
    # permanently unwatched — never marked dead, never restarted.
    calls = {"n": 0}

    async def run():
        connected = asyncio.Event()

        async def flaky_on_up(shard, host, port):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConnectionRefusedError("worker died before connect")
            connected.set()

        sup = Supervisor(
            recognizer_path, ["w0"], on_up=flaky_on_up, backoff_base=0.01
        )
        await sup.start()
        try:
            await asyncio.wait_for(connected.wait(), 30)
        finally:
            await sup.stop()
        return sup.workers["w0"].restarts

    restarts = asyncio.run(run())
    assert calls["n"] >= 2
    assert restarts >= 1


def _drain_parked_session(recognizer_path, source_dead: bool) -> dict:
    """Park a session on its shard (a down, then silence), drain that
    shard, then finish the stroke; returns the metrics snapshot.  With
    ``source_dead`` the shard's worker is killed for good first."""
    victim = shard_of("s0", 2)

    async def run():
        async with Cluster(
            Supervisor(recognizer_path, 2, timeout=DEFAULT_TIMEOUT)
        ) as cluster:
            reader, writer = await asyncio.open_connection(*cluster.address)

            async def ask(*lines: bytes) -> dict:
                writer.write(b"".join(line + b"\n" for line in lines))
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 30))

            writer.write(
                b'{"op": "down", "stroke": "s0", "x": 0, "y": 0, "t": 0.0}\n'
                b'{"op": "tick", "t": 0.0}\n'
            )
            await writer.drain()
            if source_dead:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 30
                while not cluster.router.sessions:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.02)
                # Marking the handle retired stops the supervisor from
                # respawning after the kill.
                cluster.launcher.workers[victim].retired = True
                await cluster.kill(victim)
            drain = b'{"op": "drain", "shard": "' + victim.encode() + b'"}'
            assert (await ask(drain))["status"] == "started"
            await cluster.wait_retired(victim, timeout=30)
            # The parked session survived the drain, on another shard...
            assert cluster.router.sessions["k1:s0"].shard != victim
            # ...and the client can still finish the stroke there.
            reply = await ask(
                b'{"op": "move", "stroke": "s0", "x": 15, "y": 0, "t": 0.1}',
                b'{"op": "up", "stroke": "s0", "x": 30, "y": 0, "t": 0.2}',
                b'{"op": "tick", "t": 0.2}',
            )
            writer.close()
            await writer.wait_closed()
            return reply, cluster.metrics.snapshot()

    reply, snapshot = asyncio.run(run())
    assert reply["stroke"] == "s0"
    assert reply["kind"] not in ("evict", "error")
    assert snapshot["counters"]["cluster.migrations"] == 1
    assert snapshot["histograms"]["cluster.drain_seconds"]["count"] == 1
    return snapshot


def test_drain_migrates_parked_sessions_instead_of_evicting(recognizer_path):
    # A client that opened a session and went silent used to stall the
    # drain until a deadline force-sweep evicted it.  Drain is now
    # migration: the parked session moves to a survivor immediately,
    # the shard retires promptly, nobody is evicted, and the stroke can
    # still finish afterwards on its new shard.
    snapshot = _drain_parked_session(recognizer_path, source_dead=False)
    assert snapshot["histograms"]["cluster.migration_seconds"]["count"] == 1
    assert "cluster.drains_forced" not in snapshot["counters"]


def test_drain_completes_without_the_source_worker(recognizer_path):
    # Migration never needs the source worker: the journals live in the
    # router.  Kill the shard's process with respawn disabled, then
    # drain it — the parked session still moves (its journal replays
    # into the destination) and the drain still completes.
    _drain_parked_session(recognizer_path, source_dead=True)


def test_router_rejects_malformed_lines_without_workers():
    # Protocol validation happens at the router's edge; no worker is
    # needed to test it, and a bad line must not poison the connection.
    async def run():
        router = Router(["w0"], max_line=4096)
        await router.start()
        try:
            host, port = router.address
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(line: bytes) -> dict:
                writer.write(line + b"\n")
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 10))

            bad = [
                b'{"op": "down", "stroke": "s1", "x": 1, "y"',  # truncated
                b'{"op": "merge"}',  # unknown op
                b'{"op": "down", "x": 1, "y": 2, "t": 0.1}',  # no stroke
                b'{"op": "drain"}',  # admin: unknown shard
                b'{"op": "drain", "shard": "w0"}',  # admin: no supervisor
                b"x" * 5000,  # oversized line
            ]
            for line in bad:
                reply = await ask(line)
                assert reply["kind"] == "error", (line, reply)
            # Still alive and well after all of that.
            status = await ask(b'{"op": "cluster"}')
            assert status["kind"] == "cluster"
            assert status["shards"]["w0"]["state"] == "down"
            writer.close()
            await writer.wait_closed()
        finally:
            await router.stop()

    asyncio.run(run())
