"""Command-line interface: ``python -m repro`` / ``repro-gestures``.

Subcommands:

* ``train`` — train an eager recognizer through the staged pipeline
  (:mod:`repro.train`): synthetic family or saved dataset, ``--jobs N``
  process fan-out, a content-addressed ``--cache-dir`` stage cache,
  ``--resume`` after a kill, and ``--publish`` into a model registry
  with full lineage;
* ``models`` — ``list`` the models in a registry or ``show`` one
  version's lineage (dataset hash, stage keys, seed, wall time);
* ``classify`` — classify gestures from a dataset file with a saved
  recognizer;
* ``evaluate`` — run the paper's §5 protocol on a gesture family and
  print the summary and figure-9-style grid;
* ``demo`` — run a scripted GDP session and print the canvas;
* ``serve`` — run the NDJSON-over-TCP recognition service
  (:mod:`repro.serve`) on a saved recognizer, a registry model, or a
  freshly trained synthetic family (metrics on by default; ``--trace``
  streams NDJSON spans to a file, ``--no-metrics`` turns the registry
  off);
* ``cluster`` — run the sharded service (:mod:`repro.cluster`): a
  router on one address, N recognizer worker processes behind it, a
  supervisor restarting crashed workers; the protocol (and the
  decision bytes) are identical to ``serve``;
* ``stats`` — query a running server's (or router's — the reply is
  then the fleet-wide merge) ``stats`` protocol message and print its
  metrics snapshot;
* ``loadgen`` — drive the session pool with a synthetic workload and
  print throughput/latency for the batched and/or sequential mode;
  ``--fault-seed`` runs the same workload under a seeded chaos schedule
  (drop/duplicate/delay/reorder/kill at ``--fault-rate``);
  ``--cluster N`` routes the workload through a real N-worker cluster
  over TCP and verifies the replies are byte-identical to one pool;
  ``--trace``/``--quality``/``--profile`` attach the observability
  stack and ``--metrics-out`` saves the snapshot for ``analyze``;
* ``adapt`` — per-user personalization loop (:mod:`repro.adapt`):
  harvest labelled examples from a traffic journal + quality trace +
  corrections, incrementally retrain a per-user candidate against the
  registry base model, shadow-replay the user's strokes through live
  and candidate, and publish on a promote verdict (``--dry-run`` stops
  short; a reject exits 4);
* ``analyze`` — turn an NDJSON trace (plus an optional metrics
  snapshot) into a deterministic JSON or markdown report: decision
  paths, per-class eagerness curves, latency tables, drift summaries.
"""

from __future__ import annotations

import argparse
import sys

from .datasets import GestureSet
from .eager import EagerRecognizer, train_eager_recognizer
from .evaluate import figure9_grid, run_experiment
from .synth import FAMILY_NAMES, GestureGenerator, family_templates, gdp_templates

__all__ = ["main"]

# Exit code of a --kill-after run: EX_TEMPFAIL, "try again" — rerunning
# with --resume completes the job.
EXIT_KILLED = 75

# Exit code of an `adapt` run whose shadow evaluation rejected the
# candidate: distinct from error exits so automation can tell "the loop
# ran and decided not to promote" from "the loop broke".
EXIT_NOT_PROMOTED = 4


def _generator(family: str, seed: int) -> GestureGenerator:
    try:
        templates = family_templates(family)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    return GestureGenerator(templates, seed=seed)


def _cmd_train(args: argparse.Namespace) -> int:
    import json

    from .train import TrainJobSpec, TrainingKilled, TrainingPipeline

    try:
        if args.spec:
            spec = TrainJobSpec.from_file(args.spec)
        else:
            spec = TrainJobSpec(
                family=None if args.dataset else args.family,
                dataset=args.dataset,
                examples=args.examples,
                seed=args.seed,
                name=args.name,
            )
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if spec.family and spec.family not in FAMILY_NAMES:
        raise SystemExit(
            f"unknown gesture family {spec.family!r}; "
            f"choose from {sorted(FAMILY_NAMES)}"
        )

    metrics = None
    if args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    pipeline = TrainingPipeline(
        spec,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        metrics=metrics,
        kill_after=args.kill_after,
        resume=args.resume,
    )
    try:
        result = pipeline.run()
    except TrainingKilled as exc:
        print(f"{exc}; checkpoint saved — rerun with --resume to finish")
        return EXIT_KILLED
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    with open(args.output, "w") as f:
        json.dump(result.model, f)
    print(
        f"trained on {result.example_count} examples "
        f"across {result.class_count} classes"
    )
    print(
        f"stages run: {', '.join(result.stages_run) or 'none'}; "
        f"cached: {', '.join(result.stages_cached) or 'none'}"
    )
    print(f"model version {result.version} (hash {result.model_hash})")
    print(f"recognizer written to {args.output}")
    if args.registry:
        published = pipeline.publish(args.registry, result)
        print(
            f"published to {args.registry} as "
            f"{published.name}@{published.version}"
        )
    if metrics is not None:
        _print_snapshot(metrics.snapshot())
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from .serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.models_command == "list":
        names = registry.names()
        if not names:
            print(f"no models in {args.registry}")
            return 0
        for name in names:
            versions = registry.versions(name)
            latest = registry.latest_version(name)
            print(f"{name}  latest={latest}  versions={len(versions)}")
        return 0

    name, _, version = args.model.partition("@")
    try:
        resolved = version or registry.latest_version(name)
        metadata = registry.metadata_of(name, resolved)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from None
    print(f"{name}@{resolved}")
    print(f"  source: {metadata.get('source', 'unknown')}")
    lineage = metadata.get("lineage")
    if not lineage:
        print("  no lineage recorded for this version")
        return 0
    spec = lineage.get("spec", {})
    data_source = spec.get("family") or spec.get("dataset") or "?"
    print(f"  trained from: {data_source}")
    print(f"  dataset hash: {lineage.get('dataset')}")
    print(f"  model hash:   {lineage.get('model_hash')}")
    print(
        f"  seed: {lineage.get('seed')}  jobs: {lineage.get('jobs')}  "
        f"wall: {lineage.get('wall_time_s')}s"
    )
    print("  stage keys:")
    for stage, key in lineage.get("stages", {}).items():
        print(f"    {stage:<12} {key}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    recognizer = EagerRecognizer.load(args.recognizer)
    gesture_set = GestureSet.load(args.dataset)
    correct = 0
    for example in gesture_set:
        result = recognizer.recognize(example.stroke)
        ok = result.class_name == example.class_name
        correct += ok
        marker = "" if ok else "   <-- expected " + example.class_name
        print(
            f"{result.class_name:<16} seen {result.points_seen}/"
            f"{result.total_points}{marker}"
        )
    print(f"\n{correct}/{len(gesture_set)} correct")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    generator = _generator(args.family, args.seed)
    dataset = GestureSet.from_generator(
        args.family, generator, args.train + args.test
    )
    result, _ = run_experiment(dataset, train_per_class=args.train)
    print(result.summary())
    if args.grid:
        print()
        print(figure9_grid(result))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .events import perform_gesture
    from .gdp import GDPApp
    from .geometry import Stroke

    app = GDPApp()
    generator = GestureGenerator(gdp_templates(), seed=args.seed)
    print("GDP demo: rectangle, line, ellipse\n")
    rect = generator.generate("rect").stroke.translated(80, 80)
    app.perform(
        perform_gesture(
            rect,
            dwell=0.3,
            manipulation_path=Stroke.from_xy([(380, 300)], dt=0.02),
        )
    )
    line = generator.generate("line").stroke.translated(420, 80)
    app.perform(perform_gesture(line, dwell=0.3))
    ellipse = generator.generate("ellipse").stroke.translated(180, 420)
    app.perform(
        perform_gesture(
            ellipse,
            dwell=0.3,
            manipulation_path=Stroke.from_xy([(260, 480)], dt=0.02),
        )
    )
    print(app.render(cols=72, rows=20))
    print(f"\n{len(app.shapes)} shapes on the canvas")
    return 0


def _resolve_recognizer(args: argparse.Namespace) -> EagerRecognizer:
    """One recognizer from ``--recognizer`` / ``--registry`` / ``--family``."""
    sources = [
        s for s in (args.recognizer, args.registry, args.family) if s
    ]
    if len(sources) != 1:
        raise SystemExit(
            "choose exactly one of --recognizer, --registry, --family"
        )
    if args.recognizer:
        return EagerRecognizer.load(args.recognizer)
    if args.registry:
        from .serve import ModelRegistry

        if not args.model:
            raise SystemExit("--registry requires --model NAME[@VERSION]")
        name, _, version = args.model.partition("@")
        try:
            return ModelRegistry(args.registry).load(name, version or None)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from None
    strokes = _generator(args.family, args.seed).generate_strokes(
        args.examples
    )
    return train_eager_recognizer(strokes).recognizer


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from contextlib import ExitStack

    from .obs import (
        MetricsRegistry,
        PerfProfiler,
        PoolObserver,
        QualityMonitor,
        Tracer,
    )
    from .serve import GestureServer

    recognizer = _resolve_recognizer(args)
    if args.model_cache is not None and not args.registry:
        raise SystemExit("--model-cache needs --registry to reload from")
    with ExitStack() as stack:
        metrics = None if args.no_metrics else MetricsRegistry()
        tracer = None
        if args.trace:
            tracer = Tracer(stream=stack.enter_context(open(args.trace, "w")))
        quality = (
            QualityMonitor(
                recognizer,
                metrics=metrics,
                tracer=tracer,
                sample=args.quality_sample,
                sample_seed=args.quality_seed,
            )
            if args.quality
            else None
        )
        profiler = PerfProfiler() if args.profile else None
        observer = (
            PoolObserver(
                metrics=metrics,
                tracer=tracer,
                quality=quality,
                profiler=profiler,
            )
            if any(x is not None for x in (metrics, tracer, quality, profiler))
            else None
        )

        async def run() -> None:
            server = GestureServer(
                recognizer,
                host=args.host,
                port=args.port,
                timeout=args.timeout,
                max_sessions=args.max_sessions,
                observer=observer,
                registry=args.registry,
                model_cache=args.model_cache,
                record=args.record,
            )
            await server.start()
            host, port = server.address
            print(
                f"serving {len(recognizer.class_names)} gesture classes "
                f"on {host}:{port} (NDJSON; ops: down/move/up/tick/stats)"
            )
            try:
                await asyncio.Event().wait()  # until interrupted
            finally:
                await server.stop()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("\nstopped")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import tempfile
    from contextlib import ExitStack

    from .cluster import Cluster, Supervisor

    # Workers are subprocesses: they load the model from a file.  A
    # --recognizer path is handed straight to them; any other source is
    # resolved here and saved to a temp file for the workers to share.
    recognizer = _resolve_recognizer(args)
    with ExitStack() as stack:
        if args.recognizer:
            path = args.recognizer
        else:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-cluster-")
            )
            path = os.path.join(tmp, "recognizer.json")
            recognizer.save(path)

        async def run() -> None:
            supervisor = Supervisor(
                path,
                args.workers,
                timeout=args.timeout,
                max_sessions=args.max_sessions,
                registry=args.registry,
                quality=args.quality,
                quality_sample=args.quality_sample,
                quality_seed=args.quality_seed,
                model_cache=args.model_cache,
            )
            async with Cluster(
                supervisor,
                host=args.host,
                port=args.port,
                metrics=not args.no_metrics,
                min_workers=args.min_workers,
                max_workers=args.max_workers,
                autoscale=args.autoscale,
            ) as cluster:
                await cluster.wait_all_up()
                host, port = cluster.address
                shards = ", ".join(cluster.router.links)
                print(
                    f"cluster: {len(recognizer.class_names)} gesture classes "
                    f"on {host}:{port} across {args.workers} workers "
                    f"({shards})"
                    + (" [autoscaling]" if args.autoscale else "")
                )
                print(
                    "  same NDJSON protocol as `serve`; admin ops: "
                    '{"op": "cluster"}, {"op": "drain", "shard": "..."}, '
                    '{"op": "scale", "workers": N}'
                )
                await asyncio.Event().wait()  # until interrupted

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("\nstopped")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio
    import json

    async def fetch() -> dict:
        reader, writer = await asyncio.open_connection(args.host, args.port)
        try:
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            line = await reader.readline()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        if not line:
            raise SystemExit("server closed the connection without a reply")
        return json.loads(line)

    try:
        payload = asyncio.run(fetch())
    except OSError as exc:
        raise SystemExit(
            f"cannot reach server at {args.host}:{args.port}: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"malformed stats reply: {exc}") from None
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"t={payload.get('t')}  sessions={payload.get('sessions')}  "
        f"channels={payload.get('channels')}"
    )
    metrics = payload.get("metrics")
    if not metrics:
        print("metrics: disabled on this server")
        return 0
    print("\ncounters:")
    for name, value in metrics.get("counters", {}).items():
        print(f"  {name:<28} {value}")
    print("\nhistograms:")
    for name, h in metrics.get("histograms", {}).items():
        count = h["count"]
        mean = h["sum"] / count if count else 0.0
        print(
            f"  {name:<28} count={count} mean={mean:.2f} "
            f"min={h['min']} max={h['max']}"
        )
    rows = _quality_rows(metrics.get("histograms", {}))
    if rows:
        print("\nquality (fleet-wide, per class):")
        for cls, count, margin, drift in rows:
            print(
                f"  {cls:<20} n={count} margin_mean={margin:.3f} "
                f"drift={drift:.3f}"
            )
    profile = payload.get("profile")
    if profile:
        print("\nprofile (wall-clock):")
        for name, p in profile.items():
            per_unit = (
                f" {p['us_per_unit']:.2f}us/unit"
                if p.get("us_per_unit") is not None
                else ""
            )
            print(
                f"  {name:<28} calls={p['count']} "
                f"mean={p['mean_us']:.1f}us{per_unit}"
            )
    return 0


def _quality_rows(histograms: dict) -> list[tuple[str, int, float, float]]:
    """Per-class ``(name, count, margin_mean, drift)`` rows from merged
    ``quality.*`` histograms — the fleet-wide view, since
    ``merge_snapshots`` sums the per-worker sums and counts.  Drift is
    the Rubine rejection statistic mean d²/F (see QualityMonitor).
    """
    from .features import NUM_FEATURES

    rows = []
    prefix = "quality.margin."
    for name, h in sorted(histograms.items()):
        if not name.startswith(prefix):
            continue
        cls = name[len(prefix):]
        count = h["count"]
        margin = h["sum"] / count if count else 0.0
        maha = histograms.get(f"quality.mahal_sq.{cls}")
        drift = (
            maha["sum"] / maha["count"] / NUM_FEATURES
            if maha and maha["count"]
            else 0.0
        )
        rows.append((cls, count, margin, drift))
    return rows


def _print_snapshot(snapshot: dict) -> None:
    """Pretty-print a metrics snapshot; safe on a fully empty one."""
    import json

    print("\nmetrics counters:")
    print(json.dumps(snapshot.get("counters", {}), indent=2, sort_keys=True))
    histograms = snapshot.get("histograms", {})
    if histograms:
        print("\nmetrics histograms:")
        for name, h in sorted(histograms.items()):
            count = h["count"]
            mean = h["sum"] / count if count else 0.0
            print(
                f"  {name:<28} count={count} mean={mean:.2f} "
                f"min={h['min']} max={h['max']}"
            )


def _loadgen_cluster(args: argparse.Namespace, recognizer, workload) -> int:
    """Route the loadgen workload through a real worker cluster.

    The run doubles as a correctness check: the per-stroke reply lines
    coming back over TCP are compared *as strings* against what one
    in-process :class:`~repro.serve.SessionPool` produces for the same
    tick cadence.
    """
    import asyncio
    import os
    import tempfile
    import time

    from .cluster import (
        Cluster,
        Supervisor,
        drive_cluster,
        reference_lines,
        workload_ticks,
    )
    from .interaction import DEFAULT_TIMEOUT

    if args.trace or args.profile or args.metrics_out:
        raise SystemExit(
            "--trace/--profile/--metrics-out observe one in-process "
            "pool; with --cluster the workers keep their own metrics "
            "and the final stats reply is the fleet-wide merge "
            "(print it with --metrics; --quality rides along — every "
            "worker scores its own shard)"
        )
    dt = 0.01
    if args.fault_seed is not None:
        # Ground truth comes from the fault machinery itself: run the
        # schedule once in-process and replay the post-fault delivered
        # stream through the cluster.  Kills are off — there is
        # deliberately no remote kill op.
        from .obs import FaultPlan
        from .serve import run_load

        base = run_load(
            recognizer,
            workload,
            collect=True,
            fault_plan=FaultPlan.mixed(args.fault_rate, kill=0.0),
            fault_seed=args.fault_seed,
        )
        ticks = workload_ticks(base.delivered_log)
        end_t = base.end_t
        print(
            "fault schedule (kills off): "
            + ", ".join(f"{k}={v}" for k, v in base.fault_summary.items())
        )
    else:
        ticks = workload_ticks(workload, dt=dt)
        end_t = len(ticks) * dt + DEFAULT_TIMEOUT + dt
    reference = reference_lines(
        recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    points = sum(len(group) for _, group in ticks)

    async def run():
        with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
            path = os.path.join(tmp, "recognizer.json")
            recognizer.save(path)
            supervisor = Supervisor(
                path,
                args.cluster,
                timeout=DEFAULT_TIMEOUT,
                quality=args.quality,
                quality_sample=args.quality_sample,
                quality_seed=args.quality_seed,
            )
            async with Cluster(supervisor) as cluster:
                await cluster.wait_all_up()
                host, port = cluster.address
                t0 = time.perf_counter()
                replies, stats = await drive_cluster(
                    host, port, ticks, end_t=end_t
                )
                return replies, stats, time.perf_counter() - t0

    replies, stats, elapsed = asyncio.run(run())
    decisions = sum(len(lines) for lines in replies.values())
    rate = points / elapsed if elapsed > 0 else 0.0
    print(
        f"cluster: {args.cluster} workers, {args.clients} clients, "
        f"{points} ops in {elapsed:.3f}s = {rate:,.0f} ops/sec "
        f"({decisions} decisions)"
    )
    mismatched = sorted(
        stroke
        for stroke in set(reference) | set(replies)
        if replies.get(stroke) != reference.get(stroke)
    )
    if mismatched:
        print(
            f"MISMATCH: {len(mismatched)} stroke(s) differ from the "
            f"single-pool reference, e.g. {mismatched[:5]}"
        )
        return 1
    print("decision streams byte-identical to a single pool")
    if args.metrics and stats and stats.get("metrics"):
        _print_snapshot(stats["metrics"])
    if args.quality and stats and stats.get("metrics"):
        rows = _quality_rows(stats["metrics"].get("histograms", {}))
        if rows:
            print("\nquality (fleet-wide, per class):")
            for cls, count, margin, drift in rows:
                print(
                    f"  {cls:<20} n={count} margin_mean={margin:.3f} "
                    f"drift={drift:.3f}"
                )
    return 0


def _write_traffic_journal(workload, path: str, dt: float = 0.01) -> int:
    """Record a workload as the tick-major NDJSON traffic journal.

    One ``{"rec": "op", ...}`` line per delivered op, stamped with the
    virtual time ``run_load`` submits it at and grouped exactly as the
    pool sees them (tick-major, client order within a tick), so the
    journal replays bit-identically — it is the harvest side's ground
    truth for what each user actually drew.
    """
    import json

    count = 0
    n_ticks = max((len(ops) for ops in workload), default=0)
    with open(path, "w") as f:
        for k in range(n_ticks):
            t = k * dt
            for ops in workload:
                if k < len(ops) and ops[k][0] != "idle":
                    name, key, x, y = ops[k]
                    f.write(
                        json.dumps(
                            {
                                "rec": "op",
                                "op": name,
                                # loadgen strokes are "c{client}g{gesture}":
                                # the client prefix is the user identity.
                                "user": key.rsplit("g", 1)[0],
                                "stroke": key,
                                "x": x,
                                "y": y,
                                "t": t,
                            }
                        )
                        + "\n"
                    )
                    count += 1
    return count


def _loadgen_modal(args: argparse.Namespace, recognizer, workload) -> int:
    """Drive the workload with a modality composer attached.

    ``--mode both`` runs both execution modes, insists the decision
    streams are identical (as always), *and* insists the composed modal
    event streams are identical — the composer is a pure function of
    (ops, decisions), so any divergence is a real bug.
    """
    from .modal import run_modal

    if args.cluster:
        raise SystemExit(
            "--modal composes one in-process run's op and decision "
            "streams; the cluster byte-identity gate already proves "
            "remote replies match that stream (drop --cluster)"
        )
    if args.fault_seed is not None or args.record:
        raise SystemExit(
            "--modal drives an unfaulted, unjournaled run; drop "
            "--fault-seed/--record"
        )
    if args.trace or args.profile or args.metrics or args.metrics_out:
        raise SystemExit(
            "--modal prints the modality event summary; run observability "
            "flags without it"
        )

    def report(result, composer) -> None:
        print(result.summary())
        summary = composer.summary()
        if not summary:
            print("modal: no modality events")
            return
        print("modal events:")
        for modality, kinds in summary.items():
            cells = ", ".join(f"{k}={v}" for k, v in kinds.items())
            print(f"  {modality:<8} {cells}")
        latencies = composer.detection_latencies()
        if latencies:
            print("modal detection latency (virtual ms, down to first event):")
            for modality, values in sorted(latencies.items()):
                values = sorted(values)
                p50 = values[len(values) // 2] * 1e3
                print(
                    f"  {modality:<8} n={len(values)} p50={p50:.0f}ms "
                    f"max={values[-1] * 1e3:.0f}ms"
                )

    if args.mode == "both":
        batched, bc = run_modal(recognizer, workload, batched=True)
        sequential, sc = run_modal(recognizer, workload, batched=False)
        if batched.decision_log != sequential.decision_log:
            raise SystemExit("decision streams differ between modes")
        if bc.events != sc.events:
            raise SystemExit("modal event streams differ between modes")
        report(batched, bc)
        print(
            f"{'':>10}  sequential: {sequential.points_per_sec:,.0f} "
            f"points/sec; decision and modal event streams identical"
        )
    else:
        result, composer = run_modal(
            recognizer, workload, batched=args.mode == "batched"
        )
        report(result, composer)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve import compare_modes, family_templates, generate_workload, run_load

    try:
        templates = family_templates(args.family)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    strokes = GestureGenerator(templates, seed=args.seed).generate_strokes(
        args.examples
    )
    recognizer = train_eager_recognizer(strokes).recognizer
    if args.family == "pinch":
        # Two-finger traffic: synchronized :a/:b session pairs.  Twice
        # the concurrent sessions per client, and the modal composer
        # (with --modal) pairs them into pinch/rotate manipulations.
        from .modal import generate_pair_workload

        workload = generate_pair_workload(
            clients=args.clients,
            pairs_per_client=args.gestures,
            seed=args.seed + 1,
            templates=templates,
        )
        max_sessions = 2 * args.clients + 1
    else:
        workload = generate_workload(
            templates,
            clients=args.clients,
            gestures_per_client=args.gestures,
            seed=args.seed + 1,
        )
        max_sessions = None
    if args.modal:
        return _loadgen_modal(args, recognizer, workload)
    if args.record:
        if args.mode == "both":
            raise SystemExit(
                "--record journals one pool's traffic; use --mode batched "
                "or --mode sequential"
            )
        if args.fault_seed is not None:
            raise SystemExit(
                "--record journals the pre-fault op stream, which a faulted "
                "run does not serve; drop --fault-seed"
            )
        ops = _write_traffic_journal(workload, args.record)
        print(f"traffic journal: {ops} ops written to {args.record}")
    if args.cluster:
        return _loadgen_cluster(args, recognizer, workload)
    fault_plan = None
    if args.fault_seed is not None:
        from .obs import FaultPlan

        fault_plan = FaultPlan.mixed(args.fault_rate)
    wants_observer = (
        args.metrics or args.trace or args.quality or args.profile
        or args.metrics_out
    )
    observer = None
    if wants_observer:
        if args.mode == "both":
            raise SystemExit(
                "--metrics/--trace/--quality/--profile need a single pool "
                "to observe; use --mode batched or --mode sequential"
            )
        from .obs import (
            MetricsRegistry,
            PerfProfiler,
            PoolObserver,
            QualityMonitor,
            Tracer,
        )

        metrics = (
            MetricsRegistry() if args.metrics or args.metrics_out else None
        )
        tracer = Tracer() if args.trace else None
        observer = PoolObserver(
            metrics=metrics,
            tracer=tracer,
            quality=(
                QualityMonitor(
                    recognizer,
                    metrics=metrics,
                    tracer=tracer,
                    sample=args.quality_sample,
                    sample_seed=args.quality_seed,
                )
                if args.quality
                else None
            ),
            profiler=PerfProfiler() if args.profile else None,
        )
    if args.mode == "both":
        batched, sequential = compare_modes(
            recognizer,
            workload,
            fault_plan=fault_plan,
            fault_seed=args.fault_seed or 0,
            max_sessions=max_sessions,
        )
        print(batched.summary())
        print(sequential.summary())
        if sequential.points_per_sec > 0:
            speedup = f"{batched.points_per_sec / sequential.points_per_sec:.2f}x"
        else:
            speedup = "n/a (no points delivered)"
        print(
            f"speedup: {speedup} (decision streams identical"
            + (", same fault schedule)" if fault_plan is not None else ")")
        )
    else:
        result = run_load(
            recognizer,
            workload,
            batched=args.mode == "batched",
            observer=observer,
            fault_plan=fault_plan,
            fault_seed=args.fault_seed or 0,
            max_sessions=max_sessions,
        )
        print(result.summary())
        if args.trace:
            with open(args.trace, "w") as f:
                for line in observer.tracer.lines():
                    f.write(line + "\n")
            print(f"trace written to {args.trace}")
        if args.metrics_out:
            import json

            with open(args.metrics_out, "w") as f:
                json.dump(result.metrics, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"metrics snapshot written to {args.metrics_out}")
        if args.metrics and result.metrics is not None:
            _print_snapshot(result.metrics)
        if result.profile is not None:
            print("\nprofile (wall-clock):")
            for name, p in result.profile.items():
                per_unit = (
                    f" {p['us_per_unit']:.2f}us/unit"
                    if p.get("us_per_unit") is not None
                    else ""
                )
                print(
                    f"  {name:<28} calls={p['count']} "
                    f"mean={p['mean_us']:.1f}us{per_unit}"
                )
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    import json

    from .adapt import AdaptPipeline, AdaptStore, report_hash, shadow_eval
    from .eager import EagerRecognizer as _ER
    from .hashing import canonical_json
    from .serve import ModelRegistry

    store = AdaptStore(
        dwell_threshold=args.dwell_threshold,
        margin_threshold=args.margin_threshold,
    )
    try:
        store.load_traffic(args.traffic)
        if args.trace:
            store.load_traces(args.trace)
        if args.corrections:
            store.load_corrections(args.corrections)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot read journal: {exc}") from None
    by_user, counts = store.harvest()
    print(
        f"harvest: {counts['harvested']}/{counts['strokes']} strokes "
        f"(correction={counts['correction']} timeout={counts['timeout']} "
        f"dwell={counts['dwell']} margin={counts['margin']})"
    )
    examples = by_user.get(args.user)
    if not examples:
        raise SystemExit(
            f"nothing harvested for user {args.user!r}; "
            f"users with examples: {sorted(by_user) or 'none'}"
        )

    try:
        pipeline = AdaptPipeline(
            args.registry,
            args.base,
            cache_dir=args.cache_dir,
            state_dir=args.state_dir,
            jobs=args.jobs,
        )
        pipeline.fold(args.user, examples)
        result = pipeline.run(args.user)
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc)) from None
    print(
        f"candidate {result.candidate_name}@{result.version}: "
        f"{result.user_example_count} user examples folded into "
        f"{result.base_example_count} base "
        f"({result.class_count} classes"
        + (f", new: {', '.join(result.new_classes)}" if result.new_classes else "")
        + ")"
    )
    print(
        f"stages run: {', '.join(result.stages_run) or 'none'}; "
        f"cached: {', '.join(result.stages_cached) or 'none'}; "
        f"prefixes {result.prefixes_cached} cached / "
        f"{result.prefixes_computed} computed"
    )

    registry = ModelRegistry(args.registry)
    live = registry.load(pipeline.base_name, pipeline.base_version)
    replay = pipeline.load_state(args.user)["examples"]
    report = shadow_eval(live, _ER.from_dict(result.model), replay)
    if args.json:
        print(canonical_json(report))
    print(
        f"shadow: {report['strokes']} strokes — live "
        f"{report['live']['correct']} correct, candidate "
        f"{report['candidate']['correct']} correct "
        f"(margin delta {report['delta']['margin_sum']:+.3f})"
    )
    print(
        f"verdict: {report['verdict']} ({report['reason']}) "
        f"[report {report_hash(report)[:12]}]"
    )
    if report["verdict"] != "promote":
        return EXIT_NOT_PROMOTED
    if args.dry_run:
        print("dry run: candidate not published")
        return 0
    published = pipeline.publish(result)
    print(f"published {published.name}@{published.version}")
    swap_op = {
        "op": "swap",
        "user": args.user,
        "model": f"{published.name}@{published.version}",
        "t": 0.0,
    }
    print(f"hot-swap a serving session pool with: {json.dumps(swap_op)}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .obs.analyze import (
        analyze_records,
        load_trace,
        render_json,
        render_markdown,
        validate_report,
    )

    try:
        records = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    metrics = None
    if args.metrics:
        try:
            with open(args.metrics) as f:
                metrics = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read {args.metrics}: {exc}") from None
        # Accept either a raw snapshot or a full `stats` reply.
        if "counters" not in metrics and isinstance(
            metrics.get("metrics"), dict
        ):
            metrics = metrics["metrics"]
    try:
        report = validate_report(analyze_records(records, metrics=metrics))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    text = (
        render_json(report) if args.format == "json" else render_markdown(report)
    )
    if args.out and args.out != "-":
        with open(args.out, "w") as f:
            f.write(text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_quality_sample_flags(parser) -> None:
    """The sampling knobs shared by every --quality-capable command."""
    parser.add_argument(
        "--quality-sample", type=float, default=1.0, metavar="RATE",
        help="score a deterministic fraction of sessions, keyed on the "
        "session id (default 1.0 = every session; replay-stable)",
    )
    parser.add_argument(
        "--quality-seed", type=int, default=0, metavar="N",
        help="seed for the sampling hash (same seed => same sampled "
        "set, fleet-wide and across restarts)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gestures",
        description="Rubine (USENIX 1991) reproduction: gesture recognition "
        "and direct manipulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="train an eager recognizer (staged pipeline)"
    )
    train.add_argument(
        "--spec", metavar="PATH",
        help="train from a TrainJobSpec JSON file (overrides the data flags)",
    )
    train.add_argument("--family", default="gdp", help="synthetic gesture family")
    train.add_argument("--dataset", help="train from a saved GestureSet JSON")
    train.add_argument("--examples", type=int, default=15, help="examples per class")
    train.add_argument("--seed", type=int, default=7)
    train.add_argument("--output", default="recognizer.json")
    train.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan training stages out over N processes "
        "(the model is bit-identical for any N)",
    )
    train.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed stage cache; re-runs and sweeps skip "
        "unchanged stages, and --resume restarts killed runs",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="continue a killed run from its checkpoint (needs --cache-dir)",
    )
    train.add_argument(
        "--kill-after", metavar="STAGE",
        help="die after the named stage completes (testing aid; exits 75)",
    )
    train.add_argument(
        "--metrics", action="store_true",
        help="attach a metrics registry and print its snapshot",
    )
    train.add_argument(
        "--registry", "--publish", dest="registry", metavar="DIR",
        help="publish into this model-registry directory with lineage",
    )
    train.add_argument(
        "--name", help="registry model name (defaults to the family name)"
    )
    train.set_defaults(func=_cmd_train)

    models = sub.add_parser("models", help="inspect a model registry")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_list = models_sub.add_parser("list", help="list models and versions")
    models_list.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model-registry directory",
    )
    models_list.set_defaults(func=_cmd_models)
    models_show = models_sub.add_parser(
        "show", help="show one version's lineage"
    )
    models_show.add_argument("model", help="model as NAME[@VERSION]")
    models_show.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model-registry directory",
    )
    models_show.set_defaults(func=_cmd_models)

    classify = sub.add_parser("classify", help="classify a dataset")
    classify.add_argument("recognizer", help="saved recognizer JSON")
    classify.add_argument("dataset", help="GestureSet JSON to classify")
    classify.set_defaults(func=_cmd_classify)

    evaluate = sub.add_parser("evaluate", help="run the paper's protocol")
    evaluate.add_argument("--family", default="directions")
    evaluate.add_argument("--train", type=int, default=10)
    evaluate.add_argument("--test", type=int, default=30)
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--grid", action="store_true", help="print the fig-9 grid")
    evaluate.set_defaults(func=_cmd_evaluate)

    demo = sub.add_parser("demo", help="scripted GDP session")
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=_cmd_demo)

    serve = sub.add_parser("serve", help="run the recognition service")
    serve.add_argument("--recognizer", help="saved recognizer JSON")
    serve.add_argument("--registry", help="model-registry directory")
    serve.add_argument("--model", help="registry model as NAME[@VERSION]")
    serve.add_argument(
        "--family", help="train on a synthetic family at startup"
    )
    serve.add_argument("--examples", type=int, default=15)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7391)
    serve.add_argument(
        "--timeout", type=float, default=0.2,
        help="motionless timeout in (virtual) seconds",
    )
    serve.add_argument("--max-sessions", type=int, default=4096)
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the metrics registry (stats replies carry null)",
    )
    serve.add_argument(
        "--trace", metavar="PATH",
        help="stream NDJSON trace records (spans/events) to this file",
    )
    serve.add_argument(
        "--quality", action="store_true",
        help="attach recognition-quality telemetry (margins, rejection "
        "distances, eagerness, drift)",
    )
    _add_quality_sample_flags(serve)
    serve.add_argument(
        "--profile", action="store_true",
        help="time the serving hot path with perf counters "
        "(reported in stats replies)",
    )
    serve.add_argument(
        "--record", metavar="PATH",
        help="journal the live op traffic to PATH as adapt-harvest "
        "NDJSON records (replayable by `repro adapt --record`)",
    )
    serve.add_argument(
        "--model-cache", type=int, metavar="N",
        help="keep at most N swapped-in models resident per pool (LRU; "
        "evicted models reload from --registry on next use)",
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run the sharded service: router + N supervised workers",
    )
    cluster.add_argument("--recognizer", help="saved recognizer JSON")
    cluster.add_argument("--registry", help="model-registry directory")
    cluster.add_argument("--model", help="registry model as NAME[@VERSION]")
    cluster.add_argument(
        "--family", help="train on a synthetic family at startup"
    )
    cluster.add_argument("--examples", type=int, default=15)
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes; sessions are consistent-hashed across "
        "them and replies are byte-identical for any N",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=7392)
    cluster.add_argument(
        "--timeout", type=float, default=0.2,
        help="motionless timeout in (virtual) seconds",
    )
    cluster.add_argument("--max-sessions", type=int, default=4096)
    cluster.add_argument(
        "--min-workers", type=int, default=1, metavar="N",
        help="floor for admin scale ops and the autoscaler",
    )
    cluster.add_argument(
        "--max-workers", type=int, default=None, metavar="N",
        help="ceiling for admin scale ops and the autoscaler",
    )
    cluster.add_argument(
        "--autoscale", action="store_true",
        help="scale the fleet from load samples (sessions/shard, queue "
        "depth) between --min-workers and --max-workers, with "
        "hysteresis and a cooldown; joins and drains migrate live "
        "sessions, so clients never notice",
    )
    cluster.add_argument(
        "--model-cache", type=int, metavar="N",
        help="bound each worker's resident swapped-in models to N (LRU; "
        "evicted models reload from --registry on next use)",
    )
    cluster.add_argument(
        "--no-metrics", action="store_true",
        help="disable worker metrics (fleet stats replies carry null)",
    )
    cluster.add_argument(
        "--quality", action="store_true",
        help="attach recognition-quality telemetry on every worker; "
        "`stats` replies merge the quality.* histograms fleet-wide",
    )
    _add_quality_sample_flags(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    stats = sub.add_parser(
        "stats", help="query a running server's (or router's) metrics snapshot"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=7391)
    stats.add_argument(
        "--json", action="store_true", help="print the raw stats reply"
    )
    stats.set_defaults(func=_cmd_stats)

    loadgen = sub.add_parser(
        "loadgen", help="synthetic load through the session pool"
    )
    loadgen.add_argument("--family", default="notes")
    loadgen.add_argument("--clients", type=int, default=64)
    loadgen.add_argument("--gestures", type=int, default=4)
    loadgen.add_argument("--examples", type=int, default=12)
    loadgen.add_argument("--seed", type=int, default=3)
    loadgen.add_argument(
        "--mode",
        choices=["batched", "sequential", "both"],
        default="both",
        help="'both' also verifies the decision streams are identical",
    )
    loadgen.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="route the workload through an N-worker cluster "
        "(real subprocesses) and verify the replies are byte-identical "
        "to a single pool",
    )
    loadgen.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="inject seeded faults (drop/duplicate/delay/reorder/kill)",
    )
    loadgen.add_argument(
        "--fault-rate", type=float, default=0.02,
        help="per-op probability for each fault type (default 0.02)",
    )
    loadgen.add_argument(
        "--metrics", action="store_true",
        help="attach a metrics registry and print its snapshot "
        "(single-mode runs only)",
    )
    loadgen.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics snapshot as JSON (for `analyze --metrics`)",
    )
    loadgen.add_argument(
        "--trace", metavar="PATH",
        help="record an NDJSON trace of the run (single-mode runs only)",
    )
    loadgen.add_argument(
        "--quality", action="store_true",
        help="attach recognition-quality telemetry (adds quality records "
        "to the trace and quality.* metrics; with --cluster, every "
        "worker scores its own shard and stats merges them)",
    )
    _add_quality_sample_flags(loadgen)
    loadgen.add_argument(
        "--profile", action="store_true",
        help="time the serving hot path and print the section summary",
    )
    loadgen.add_argument(
        "--record", metavar="PATH",
        help="journal the delivered ops as NDJSON traffic (the `adapt` "
        "harvest input; single-mode, unfaulted runs only)",
    )
    loadgen.add_argument(
        "--modal", action="store_true",
        help="attach the modality composer (repro.modal) and print the "
        "per-modality event summary and detection latencies; with "
        "--mode both, also verify the two modes compose identical "
        "modal event streams",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    adapt = sub.add_parser(
        "adapt",
        help="per-user personalization: harvest -> retrain -> shadow-eval "
        "-> promote",
    )
    adapt.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model registry holding the base model (candidates publish "
        "back here)",
    )
    adapt.add_argument(
        "--base", required=True, metavar="NAME[@VERSION]",
        help="base model to adapt (version defaults to latest)",
    )
    adapt.add_argument(
        "--user", required=True,
        help="user id to adapt for (the traffic journal's user field)",
    )
    adapt.add_argument(
        "--traffic", required=True, metavar="PATH",
        help="NDJSON traffic journal (from `loadgen --record` or a "
        "serving-side journal)",
    )
    adapt.add_argument(
        "--trace", metavar="PATH",
        help="NDJSON observability trace with quality records "
        "(`--quality --trace` on the serving run)",
    )
    adapt.add_argument(
        "--corrections", metavar="PATH",
        help='NDJSON user corrections: {"rec": "correction", "user", '
        '"stroke", "class"}',
    )
    adapt.add_argument(
        "--cache-dir", metavar="DIR",
        help="stage cache shared with `train` — a warm base train makes "
        "the retrain incremental",
    )
    adapt.add_argument(
        "--state-dir", metavar="DIR",
        help="persist per-user fold state here (re-runs fold only the "
        "new tail)",
    )
    adapt.add_argument("--jobs", type=int, default=1, metavar="N")
    adapt.add_argument(
        "--dwell-threshold", type=float, default=0.15,
        help="harvest decisions the user dwelt on at least this long",
    )
    adapt.add_argument(
        "--margin-threshold", type=float, default=0.5,
        help="harvest decisions with classification margin below this",
    )
    adapt.add_argument(
        "--dry-run", action="store_true",
        help="run the loop and print the verdict without publishing",
    )
    adapt.add_argument(
        "--json", action="store_true",
        help="print the byte-stable shadow-eval report as canonical JSON",
    )
    adapt.set_defaults(func=_cmd_adapt)

    analyze = sub.add_parser(
        "analyze", help="report on an NDJSON trace (+ metrics snapshot)"
    )
    analyze.add_argument("trace", help="NDJSON trace file to analyze")
    analyze.add_argument(
        "--metrics", metavar="PATH",
        help="metrics snapshot JSON (from loadgen --metrics-out or a "
        "stats --json reply)",
    )
    analyze.add_argument(
        "--format", choices=["markdown", "json"], default="markdown",
    )
    analyze.add_argument(
        "--out", metavar="PATH", default="-",
        help="write the report here instead of stdout",
    )
    analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
