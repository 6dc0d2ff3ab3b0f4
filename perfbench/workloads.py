"""The three workloads and the numbers each run reports.

``pool-notes`` drives an in-process batched ``SessionPool``; the TCP
workloads drive a serving stack in other processes over one connection
(see ``wire.py``).  Each ``run_*`` returns a :class:`Result`; ``run.py``
turns it into the output line.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import statistics
import tempfile
import tracemalloc
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import wire
from inputs import CLIENTS, DT
from repro.eager import EagerRecognizer
from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import SessionPool

@dataclass
class Spec:
    """What one workload sends and to which stack."""

    family: str
    dwell_every: int
    stack: str  # "pool", "worker" or "cluster"
    compact_odd: bool = False
    # Ticks per second of --seconds for the untimed warm-up and the
    # closed-loop blast (about 3 s at 32 s runs on a 2-CPU host; a
    # faster program finishes it sooner), and the share of --seconds
    # spent in the paced phase at one tick per DT.
    warm_ticks: float = 0.0
    blast_ticks: float = 0.0
    paced_share: float = 0.0
    setups: int = 3
    # Warm-up and blast with the client and the serving processes on one
    # CPU, as the paced phase always is.  A direct worker is one process,
    # so this takes no capacity from it and keeps cross-vCPU wake-ups
    # out of its throughput (on a 2-vCPU VM under load from other
    # guests: 133k ops/s, IQR/median 0.16, against 119k and 0.43
    # unpinned).  A cluster's processes outnumber the CPUs; pinned, its
    # blast would measure one CPU's worth of the fleet.
    pin_blast: bool = False


SPECS = {
    "pool-notes": Spec("notes", 0, "pool", setups=31),
    "tcp-gdp": Spec(
        "gdp", 4, "worker",
        warm_ticks=25, blast_ticks=100, paced_share=0.85, pin_blast=True,
    ),
    "cluster2-mixed": Spec(
        "gdp", 4, "cluster", compact_odd=True,
        warm_ticks=25, blast_ticks=95, paced_share=0.85,
    ),
}

POOL_LAP_TICKS = 250
TCP_LAP_TICKS = 800
# The blast is cut into rounds, each ended by a stats barrier, and the
# median round rate is reported: one slow second on a shared host then
# moves the figure far less than it would move one long blast.
BLAST_ROUNDS = 7


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    digest: str
    metrics: dict = field(default_factory=dict)


def _percentiles_ms(values, weights=None) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if weights is not None:
        arr = np.repeat(arr, weights)
    p50, p99 = np.percentile(arr * 1e3, [50, 99])
    return float(p50), float(p99)


# -- pool-notes ---------------------------------------------------------------


def _pool_setup(model: Path) -> tuple[float, float, EagerRecognizer]:
    """One set-up: load the recognizer, build the pool.  Returns
    (set-up seconds, load seconds, recognizer)."""
    t0 = perf_counter()
    recognizer = EagerRecognizer.load(model)
    t1 = perf_counter()
    SessionPool(recognizer, timeout=DEFAULT_TIMEOUT, max_sessions=CLIENTS + 1)
    return perf_counter() - t0, t1 - t0, recognizer


@dataclass
class Laps:
    """Per-lap numbers of replaying one lap through fresh pools."""

    ops: int = 0
    seconds: float = 0.0
    mismatched: int = 0
    rates: list = field(default_factory=list)  # ops/s of each lap
    p50s: list = field(default_factory=list)  # decision latency, ms
    p99s: list = field(default_factory=list)


def _pool_laps(recognizer, ticks, oracle, seconds, observer=None) -> Laps:
    """Replay the lap through fresh pools, tick after tick, for about
    ``seconds``; every lap's decisions are checked against ``oracle``.

    A decision's latency is the wall time of its tick's ``submit`` +
    ``advance_to``.
    """
    end_t = inputs.end_time(len(ticks))
    lap_ops = sum(len(group) for _, group in ticks)
    laps = Laps()
    while laps.seconds < seconds or not laps.rates:
        pool = SessionPool(
            recognizer, timeout=DEFAULT_TIMEOUT, max_sessions=CLIENTS + 1,
            observer=observer,
        )
        out = []
        tick_s: list[float] = []
        tick_d: list[int] = []
        lap_start = perf_counter()
        for t, group in ticks:
            t0 = perf_counter()
            if group:
                pool.submit(group, t)
            decided = pool.advance_to(t)
            tick_s.append(perf_counter() - t0)
            tick_d.append(len(decided))
            out.extend(decided)
        lap_s = perf_counter() - lap_start
        out.extend(pool.advance_to(end_t))
        out.extend(pool.evict_idle(0.0))
        laps.mismatched += sum(1 for a, b in zip(out, oracle) if a != b)
        laps.mismatched += abs(len(out) - len(oracle))
        laps.ops += lap_ops
        laps.seconds += lap_s
        laps.rates.append(lap_ops / lap_s)
        p50, p99 = _percentiles_ms(tick_s, tick_d)
        laps.p50s.append(p50)
        laps.p99s.append(p99)
    return laps


def _bytes_per_session(recognizer, ticks) -> float:
    """tracemalloc peak while a pool runs ``ticks`` ÷ peak live sessions."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pool = SessionPool(
            recognizer, timeout=DEFAULT_TIMEOUT, max_sessions=CLIENTS + 1
        )
        live = 0
        for t, group in ticks:
            if group:
                pool.submit(group, t)
            pool.advance_to(t)
            live = max(live, len(pool))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / max(1, live)


def run_pool(spec: Spec, seed: int, seconds: float, trace: bool, work: Path):
    model = work / "model.json"
    inputs.train_model(spec.family, model)
    lap = inputs.make_lap(spec.family, seed, POOL_LAP_TICKS, spec.dwell_every)
    ticks = list(inputs.stream(lap, POOL_LAP_TICKS))
    setups = [_pool_setup(model) for _ in range(spec.setups)]
    recognizer = setups[-1][2]
    oracle = inputs.pool_oracle(recognizer, ticks)
    digest = inputs.digest_decisions(oracle)
    # Warm-up lap, checked like the others but not timed.
    warm = _pool_laps(recognizer, ticks, oracle, 0.0)
    if not trace:
        laps = _pool_laps(recognizer, ticks, oracle, seconds)
        failed = warm.mismatched + laps.mismatched
        metrics = {
            "setup_s": statistics.median(s[0] for s in setups),
            "throughput_ops_s": statistics.median(laps.rates),
            "decision_p50_ms": statistics.median(laps.p50s),
            "decision_p99_ms": statistics.median(laps.p99s),
            "peak_rss_mb": wire.peak_rss_mb(["self"]),
        }
        return Result(failed == 0, warm.ops + laps.ops, failed, digest, metrics)

    import perfbench_hooks as hooks
    from repro.obs import MetricsRegistry, PoolObserver

    plain = _pool_laps(recognizer, ticks, oracle, seconds / 2)
    per_session = _bytes_per_session(recognizer, ticks)
    hooks.install(None)
    observer = PoolObserver(metrics=MetricsRegistry())
    traced = _pool_laps(recognizer, ticks, oracle, seconds / 2, observer=observer)
    counters = observer.metrics.snapshot()["counters"]
    profile = observer.profiler.snapshot()
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    layers.update(
        _pool_layers(counters, profile, hooks.cells.get("pool.round"), traced.ops)
    )
    layers.update(
        {
            "client.ops_sent": traced.ops,
            "pool.bytes_per_session": per_session,
            "setup.model_load_s": statistics.median(s[1] for s in setups),
            "trace.throughput_ratio": statistics.median(traced.rates)
            / statistics.median(plain.rates),
        }
    )
    failed = warm.mismatched + plain.mismatched + traced.mismatched
    attempted = warm.ops + plain.ops + traced.ops
    return Result(failed == 0, attempted, failed, digest, layers)


# -- TCP workloads --------------------------------------------------------------


@dataclass
class Traffic:
    """Every request byte of one run, encoded before anything is timed,
    and the reference replies they must produce."""

    warm: bytes
    blast: list  # (payload, ops) per blast round
    paced: list  # one payload per paced tick
    paced_ts: list  # virtual time of each paced tick
    tail: bytes
    total_ops: int
    expected: dict  # per-stroke reference reply lines
    sample: list  # leading ticks, for the in-process memory probe


def _traffic(spec: Spec, seed: int, seconds: float, recognizer) -> Traffic:
    n_warm = max(1, round(spec.warm_ticks * seconds))
    n_blast = max(BLAST_ROUNDS, round(spec.blast_ticks * seconds))
    n_paced = max(1, round(spec.paced_share * seconds / DT))
    n_total = n_warm + n_blast + n_paced
    lap = inputs.make_lap(spec.family, seed, TCP_LAP_TICKS, spec.dwell_every)
    # Tick index -> blast round, for the ticks between warm-up and paced.
    bounds = [n_warm + n_blast * r // BLAST_ROUNDS for r in range(BLAST_ROUNDS + 1)]
    warm: list[bytes] = []
    blast: list[list[bytes]] = [[] for _ in range(BLAST_ROUNDS)]
    blast_ops = [0] * BLAST_ROUNDS
    paced, paced_ts, sample = [], [], []
    total_ops = 0
    for i, (t, group) in enumerate(inputs.stream(lap, n_total)):
        payload = inputs.encode_tick(t, group, spec.compact_odd)
        total_ops += len(group)
        if i < POOL_LAP_TICKS:
            sample.append((t, group))
        if i < n_warm:
            warm.append(payload)
        elif i < n_warm + n_blast:
            r = bisect_right(bounds, i) - 1
            blast[r].append(payload)
            blast_ops[r] += len(group)
        else:
            paced.append(payload)
            paced_ts.append(t)
    stats = inputs.STATS_LINE
    rounds = []
    for r in range(BLAST_ROUNDS):
        rounds.append((b"".join(blast[r]) + stats, blast_ops[r]))
        blast[r] = None  # free the pieces before the next round is joined
    return Traffic(
        warm=b"".join(warm) + stats,
        blast=rounds,
        paced=paced,
        paced_ts=paced_ts,
        tail=inputs.tail_bytes(n_total),
        total_ops=total_ops,
        expected=inputs.reference(recognizer, lap, n_total),
        sample=sample,
    )


def _start(spec: Spec, model: Path, trace_dir: str | None = None):
    if spec.stack == "worker":
        return wire.start_worker(model, trace_dir)
    return wire.start_cluster(model, 2, trace_dir)


@dataclass
class Drive:
    """What one pass of traffic through a stack observed."""

    conn: wire.Conn
    rates: list = field(default_factory=list)  # ops/s of each blast round
    blast_s: float = 0.0
    dues: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


def _drive(spec: Spec, stack, traffic: Traffic, paced: bool) -> Drive:
    """Warm-up, blast rounds, and (with ``paced``) the paced phase and
    the tail.

    Each phase and each blast round ends with a ``stats`` request; its
    reply is the completion barrier (it follows every earlier decision).
    """
    conn = wire.Conn(stack.host, stack.port)
    drive = Drive(conn)
    pids = [os.getpid()] + stack.pids
    try:
        with wire.one_cpu(pids) if spec.pin_blast else nullcontext():
            conn.send(traffic.warm)
            conn.barrier(1)
            for r, (payload, ops) in enumerate(traffic.blast, start=2):
                t0 = perf_counter()
                conn.send(payload)
                conn.barrier(r)
                elapsed = perf_counter() - t0
                drive.blast_s += elapsed
                drive.rates.append(ops / elapsed)
        if paced:
            with wire.one_cpu(pids):
                drive.dues, drive.lags = conn.paced(traffic.paced, DT)
            conn.send(traffic.tail)
            conn.barrier(len(traffic.blast) + 2)
            drive.peak_rss_mb = stack.peak_rss_mb()
    finally:
        conn.close()
    return drive


def _replies(conn: wire.Conn):
    """Per-stroke reply lines, plus (read time, t) of every reply."""
    by_stroke: dict[str, list[str]] = {}
    timed = []
    for read_at, raw in conn.replies:
        line = raw.decode()
        obj = json.loads(line)
        by_stroke.setdefault(obj.get("stroke", ""), []).append(line)
        timed.append((read_at, obj.get("t", 0.0)))
    return by_stroke, timed


def _decision_latency(timed, traffic: Traffic, dues) -> tuple[float, float]:
    """Median over one-second segments of the paced phase of the p50
    and p99 of reply read time − due time of the reply's causing tick
    (the first tick with ``t >= decision.t``).

    The comparison is exact: eager and mouse-up decisions carry their
    tick's own ``t``, and a timeout fires at the first tick ``T`` with
    ``T - timeout >= last_t``, which in floating point is almost always
    the first ``T >= last_t + timeout`` (a tolerance here would map
    one timeout in seven a tick early).
    """
    tick_ts = traffic.paced_ts
    first, last = tick_ts[0], tick_ts[-1]
    segments = max(1, round(len(tick_ts) * DT))
    lat: list[list[float]] = [[] for _ in range(segments)]
    for read_at, t in timed:
        if first <= t <= last:
            k = bisect_left(tick_ts, t)
            lat[k * segments // len(tick_ts)].append(read_at - dues[k])
    cuts = [_percentiles_ms(seg) for seg in lat if seg]
    return (
        statistics.median(p50 for p50, _ in cuts),
        statistics.median(p99 for _, p99 in cuts),
    )


def run_tcp(spec: Spec, seed: int, seconds: float, trace: bool, work: Path):
    model = work / "model.json"
    inputs.train_model(spec.family, model)
    recognizer = EagerRecognizer.load(model)
    traffic = _traffic(spec, seed, seconds, recognizer)
    expected = traffic.expected
    digest = inputs.digest_lines(expected)

    if not trace:
        setup = []
        for _ in range(spec.setups - 1):
            stack = _start(spec, model)
            setup.append(stack.setup_s)
            stack.stop()
        stack = _start(spec, model)
        setup.append(stack.setup_s)
        try:
            drive = _drive(spec, stack, traffic, paced=True)
        finally:
            stack.stop()
        by_stroke, timed = _replies(drive.conn)
        failed = inputs.count_mismatches(expected, by_stroke)
        p50, p99 = _decision_latency(timed, traffic, drive.dues)
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": statistics.median(drive.rates),
            "decision_p50_ms": p50,
            "decision_p99_ms": p99,
            "peak_rss_mb": drive.peak_rss_mb,
        }
        return Result(failed == 0, traffic.total_ops, failed, digest, metrics)

    # Untraced blast first, for the tracing overhead ratio.
    stack = _start(spec, model)
    try:
        plain = _drive(spec, stack, traffic, paced=False)
    finally:
        stack.stop()
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=work)
    stack = _start(spec, model, trace_dir)
    try:
        drive = _drive(spec, stack, traffic, paced=True)
    finally:
        stack.stop()
    by_stroke, _ = _replies(drive.conn)
    failed = inputs.count_mismatches(expected, by_stroke)
    layers = _tcp_layers(spec, traffic, drive, trace_dir)
    layers.update(
        {
            "client.ops_sent": traffic.total_ops,
            "client.lag_p99_ms": float(np.percentile(drive.lags, 99) * 1e3),
            "pool.bytes_per_session": _bytes_per_session(recognizer, traffic.sample),
            "setup.spawn_to_ready_s": stack.setup_s,
            "trace.throughput_ratio": statistics.median(drive.rates)
            / statistics.median(plain.rates),
        }
    )
    return Result(failed == 0, traffic.total_ops, failed, digest, layers)


# -- per-layer metrics ----------------------------------------------------------

LAYER_METRICS = (
    "client.ops_sent",
    "client.lag_p99_ms",
    "protocol.decode_calls",
    "protocol.decode_us_per_call",
    "protocol.encode_calls",
    "protocol.encode_us_per_call",
    "protocol.errors",
    "lines.lines_per_batch",
    "framing.frames_per_batch",
    "server.busy_us_per_op",
    "server.inbox_batch_mean",
    "server.unattributed_us_per_op",
    "pool.points",
    "pool.decisions",
    "pool.round_us_per_point",
    "pool.feature_update_us_per_point",
    "pool.fused_eval_us_per_row",
    "pool.exact_fallback_us_per_unit",
    "pool.fallback_share",
    "pool.bytes_per_session",
    "router.client_in_us_per_op",
    "router.worker_in_us_per_op",
    "router.legacy_share",
    "router.reply_splice_share",
    "router.replies_suppressed",
    "fleet.worker_busy_us_per_op",
    "setup.model_load_s",
    "setup.spawn_to_ready_s",
    "trace.throughput_ratio",
)

_DECISION_COUNTERS = (
    "pool.decisions.eager",
    "pool.decisions.timeout",
    "pool.decisions.up",
    "pool.commits",
    "pool.evicts",
    "pool.errors",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _section(profile: dict, name: str) -> float:
    """µs per unit of one PerfProfiler section (0 when it never ran)."""
    cell = profile.get(name)
    if not cell:
        return 0.0
    return _ratio(cell["total_us"], cell["units"])


def _pool_layers(counters: dict, profile: dict, round_cell, points: int) -> dict:
    return {
        "pool.points": counters.get("pool.ops", 0),
        "pool.decisions": sum(counters.get(n, 0) for n in _DECISION_COUNTERS),
        "pool.round_us_per_point": _ratio(
            round_cell[1] * 1e6 if round_cell else 0.0, points
        ),
        "pool.feature_update_us_per_point": _section(profile, "feature_update"),
        "pool.fused_eval_us_per_row": _section(profile, "fused_eval"),
        "pool.exact_fallback_us_per_unit": _section(profile, "exact_fallback"),
        "pool.fallback_share": _ratio(
            counters.get("batch.fallbacks", 0), counters.get("batch.rows", 0)
        ),
    }


def _load_snaps(trace_dir: str, index: int) -> list[dict]:
    snaps = []
    for path in glob.glob(os.path.join(trace_dir, f"snap-*-{index}.json")):
        with open(path) as fh:
            snaps.append(json.load(fh))
    return snaps


def _cells_delta(before: list[dict], after: list[dict], role=None) -> dict:
    """Summed ``[calls, seconds, units]`` per probe between two barriers."""
    base = {s["pid"]: s["cells"] for s in before}
    out: dict[str, list] = {}
    for snap in after:
        if role is not None and snap["role"] != role:
            continue
        prior = base.get(snap["pid"], {})
        for name, cell in snap["cells"].items():
            old = prior.get(name, [0, 0.0, 0])
            acc = out.setdefault(name, [0, 0.0, 0])
            for i in range(3):
                acc[i] += cell[i] - old[i]
    return out


def _profile_delta(before: list[dict], after: list[dict]) -> dict:
    """Summed PerfProfiler sections between two barriers."""
    base = {s["pid"]: s["profile"] for s in before}
    out: dict[str, dict] = {}
    for snap in after:
        prior = base.get(snap["pid"], [])
        for i, prof in enumerate(snap["profile"]):
            old = prior[i] if i < len(prior) else {}
            for name, cell in prof.items():
                acc = out.setdefault(name, {"total_us": 0.0, "units": 0})
                prev = old.get(name, {"total_us": 0.0, "units": 0})
                acc["total_us"] += cell["total_us"] - prev["total_us"]
                acc["units"] += cell["units"] - prev["units"]
    return out


def _counter_delta(a: dict, b: dict) -> dict:
    ca = (a.get("metrics") or {}).get("counters", {})
    cb = (b.get("metrics") or {}).get("counters", {})
    return {k: v - ca.get(k, 0) for k, v in cb.items()}


def _hist_mean_delta(a: dict, b: dict, name: str) -> float:
    ha = (a.get("metrics") or {}).get("histograms", {}).get(name, {})
    hb = (b.get("metrics") or {}).get("histograms", {}).get(name, {})
    return _ratio(hb.get("sum", 0.0) - ha.get("sum", 0.0),
                  hb.get("count", 0) - ha.get("count", 0))


def _busy(stats: dict, spec: Spec) -> float:
    if spec.stack == "cluster":
        return stats["cluster"]["worker_busy_s"]
    return stats["busy_s"]


def _tcp_layers(spec: Spec, traffic: Traffic, drive: Drive, trace_dir: str) -> dict:
    """Per-layer numbers of the blast (the barrier after warm-up to the
    barrier after the last round), plus whole-run counts taken at the
    final barrier and at exit."""
    stats = drive.conn.stats
    a, b, c = stats[0], stats[BLAST_ROUNDS], stats[-1]
    snaps_a = _load_snaps(trace_dir, 1)
    snaps_b = _load_snaps(trace_dir, 1 + BLAST_ROUNDS)
    if not snaps_a or not snaps_b:
        raise RuntimeError("traced processes wrote no barrier snapshots")
    cells = _cells_delta(snaps_a, snaps_b)
    router_cells = _cells_delta(snaps_a, snaps_b, role="router")
    exits = []
    for path in glob.glob(os.path.join(trace_dir, "exit-*.json")):
        with open(path) as fh:
            exits.append(json.load(fh))
    ops = sum(n for _, n in traffic.blast)
    counters = _counter_delta(a, b)
    busy = _busy(b, spec) - _busy(a, spec)
    servers = len([s for s in snaps_b if s["role"] == "server"])
    zero = [0, 0.0, 0]
    decode = cells.get("protocol.decode", zero)
    encode = cells.get("protocol.encode", zero)
    lines = (router_cells if spec.stack == "cluster" else cells).get(
        "lines.next_batch", zero
    )
    frames = cells.get("framing.next_batch", zero)
    final = (c.get("metrics") or {}).get("counters", {})
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    layers.update(
        {
            "protocol.decode_calls": decode[0],
            "protocol.decode_us_per_call": _ratio(decode[1] * 1e6, decode[0]),
            "protocol.encode_calls": encode[0],
            "protocol.encode_us_per_call": _ratio(encode[1] * 1e6, encode[0]),
            "protocol.errors": sum(
                e["cells"].get("protocol.decode", zero)[2]
                + e["cells"].get("protocol.error_reply", zero)[0]
                for e in exits
            ),
            "lines.lines_per_batch": _ratio(lines[2], lines[0]),
            "framing.frames_per_batch": _ratio(frames[2], frames[0]),
            "server.busy_us_per_op": _ratio(busy * 1e6, ops),
            "server.inbox_batch_mean": _hist_mean_delta(a, b, "server.inbox_batch"),
            "server.unattributed_us_per_op": _ratio(
                (servers * drive.blast_s - busy - decode[1]) * 1e6, ops
            ),
            "fleet.worker_busy_us_per_op": _ratio(busy * 1e6, ops),
            "setup.model_load_s": statistics.mean(
                _ratio(e["cells"]["setup.model_load"][1],
                       e["cells"]["setup.model_load"][0])
                for e in exits
                if "setup.model_load" in e["cells"]
            ),
        }
    )
    layers.update(
        _pool_layers(
            {**counters, "pool.ops": final.get("pool.ops", 0),
             **{n: final.get(n, 0) for n in _DECISION_COUNTERS}},
            _profile_delta(snaps_a, snaps_b),
            cells.get("pool.round"),
            counters.get("pool.ops", 0),
        )
    )
    if spec.stack == "cluster":
        ra, rb = a["cluster"]["router"], b["cluster"]["router"]
        decode_payload = router_cells.get("router.decode_payload", zero)
        splice = router_cells.get("router.splice_reply", zero)
        layers.update(
            {
                "router.client_in_us_per_op": _ratio(
                    (rb["client_in_s"] - ra["client_in_s"]) * 1e6, ops
                ),
                "router.worker_in_us_per_op": _ratio(
                    (rb["worker_in_s"] - ra["worker_in_s"]) * 1e6, ops
                ),
                "router.legacy_share": _ratio(decode_payload[0], ops),
                "router.reply_splice_share": _ratio(splice[2], splice[0]),
                "router.replies_suppressed": final.get(
                    "cluster.replies_suppressed", 0
                ),
            }
        )
    return layers
