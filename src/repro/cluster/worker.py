"""One cluster worker: a :class:`~repro.serve.GestureServer` subprocess.

A worker is deliberately nothing new — it runs the exact single-process
serve stack on its own core, loaded from a saved recognizer file, and
speaks the exact NDJSON protocol.  Everything cluster-specific lives in
the router and supervisor; a worker cannot tell whether its peer is a
router or a plain client, which is what keeps the sharded decisions
bit-identical to the single-process ones.

The supervisor protocol is one JSON line per event on stdout:

* ``{"event": "ready", "shard": ..., "port": ..., "pid": ...}`` once
  the server is listening (``--port 0`` picks a free port; the ready
  line is how the supervisor learns which);
* ``{"event": "hb"}`` every ``--heartbeat`` seconds of wall time — the
  supervisor declares a silent worker hung and recycles it.

A worker whose stdout pipe breaks (its supervisor died) exits, so an
orphaned fleet reaps itself.  Run directly for debugging::

    python -m repro.cluster.worker --recognizer model.json --shard w0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

__all__ = ["main", "worker_command"]

DEFAULT_HEARTBEAT = 2.0


def worker_command(
    recognizer: str,
    shard: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float | None = None,
    max_sessions: int = 4096,
    heartbeat: float = DEFAULT_HEARTBEAT,
    metrics: bool = True,
    registry: str | None = None,
    quality: bool = False,
    quality_sample: float = 1.0,
    quality_seed: int = 0,
    model_cache: int | None = None,
) -> list[str]:
    """The argv the supervisor spawns for one worker."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cluster.worker",
        "--recognizer",
        str(recognizer),
        "--shard",
        shard,
        "--host",
        host,
        "--port",
        str(port),
        "--max-sessions",
        str(max_sessions),
        "--heartbeat",
        str(heartbeat),
    ]
    if timeout is not None:
        cmd += ["--timeout", str(timeout)]
    if not metrics:
        cmd.append("--no-metrics")
    if registry is not None:
        cmd += ["--registry", str(registry)]
    if model_cache is not None:
        cmd += ["--model-cache", str(model_cache)]
    if quality:
        cmd.append("--quality")
        if quality_sample != 1.0:
            cmd += ["--quality-sample", str(quality_sample)]
        if quality_seed != 0:
            cmd += ["--quality-seed", str(quality_seed)]
    return cmd


def worker_env() -> dict:
    """The child environment: the parent's, with this package importable."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


async def _amain(args: argparse.Namespace) -> int:
    from ..eager import EagerRecognizer
    from ..interaction import DEFAULT_TIMEOUT
    from ..obs import MetricsRegistry, PoolObserver, QualityMonitor
    from ..serve import GestureServer

    recognizer = EagerRecognizer.load(args.recognizer)
    if args.no_metrics:
        observer = None
    else:
        metrics = MetricsRegistry()
        # Quality telemetry stays deferred (no tracer in a worker): the
        # monitor stages raw snapshots and its registry collector hook
        # folds them in whenever a stats request snapshots the metrics,
        # so fleet-wide merges always see fully accounted numbers.
        quality = (
            QualityMonitor(
                recognizer,
                metrics=metrics,
                sample=args.quality_sample,
                sample_seed=args.quality_seed,
            )
            if args.quality
            else None
        )
        observer = PoolObserver(metrics=metrics, quality=quality)
    server = GestureServer(
        recognizer,
        host=args.host,
        port=args.port,
        timeout=args.timeout if args.timeout is not None else DEFAULT_TIMEOUT,
        max_sessions=args.max_sessions,
        observer=observer,
        registry=args.registry,
        model_cache=args.model_cache,
    )
    await server.start()
    host, port = server.address
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stopping.set)
    print(
        json.dumps(
            {
                "event": "ready",
                "shard": args.shard,
                "host": host,
                "port": port,
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )
    try:
        while not stopping.is_set():
            try:
                await asyncio.wait_for(
                    stopping.wait(), timeout=args.heartbeat
                )
            except asyncio.TimeoutError:
                pass
            else:
                break
            try:
                print(json.dumps({"event": "hb"}), flush=True)
            except (BrokenPipeError, OSError):
                break  # supervisor is gone; die with it
    finally:
        await server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="one shard of the gesture-recognition cluster",
    )
    parser.add_argument("--recognizer", required=True, help="saved recognizer JSON")
    parser.add_argument("--shard", required=True, help="this worker's shard name")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-sessions", type=int, default=4096)
    parser.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT)
    parser.add_argument("--no-metrics", action="store_true")
    parser.add_argument(
        "--registry",
        default=None,
        help="model registry directory enabling swap ops",
    )
    parser.add_argument(
        "--model-cache",
        type=int,
        default=None,
        metavar="N",
        help="bound swapped-in models resident per pool to N, LRU-"
        "evicted and reloaded from the registry on next use",
    )
    parser.add_argument(
        "--quality",
        action="store_true",
        help="attach recognition-quality telemetry (quality.* metrics, "
        "merged fleet-wide by the router's stats reply)",
    )
    parser.add_argument(
        "--quality-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="score a deterministic fraction of sessions, keyed on the "
        "session id (default 1.0 = every session)",
    )
    parser.add_argument(
        "--quality-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the sampling hash (same seed fleet-wide => "
        "same sampled set on every worker)",
    )
    args = parser.parse_args(argv)
    if args.quality and args.no_metrics:
        parser.error("--quality needs metrics; drop --no-metrics")
    if args.model_cache is not None and args.registry is None:
        parser.error("--model-cache needs --registry to reload from")
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
