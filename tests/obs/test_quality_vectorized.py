"""Property tests for the vectorized quality path and its sampling.

The tentpole claim of the always-on quality telemetry is *bit*
equality: the numbers produced from the :class:`FeatureBank`'s O(1)
``quality_state`` snapshots (assembled lazily at scrape time) are the
same IEEE-754 doubles as replaying the decided prefix through the
scalar :class:`IncrementalFeatures` path.  Hypothesis drives that claim
at three layers:

* bank level — ``quality_vector`` equals the scalar replay after
  *every* prefix of randomized strokes, including interleaved
  multi-slot ticks and strokes that outgrow the shared log width;
* monitor level — a :class:`QualityMonitor` fed by either pool mode
  reports counters, histograms, drift, and trace records identical to
  a reference monitor on the sequential pool that replays each decided
  prefix from the workload's own points, across recognizers (masked
  included);
* sampling — :func:`session_sampled` is a pure, monotone function of
  ``(seed, rate, key)``, so the sampled set is identical across
  re-runs, worker partitions, and process restarts, and the records a
  sampled monitor emits are byte-for-byte the unsampled run's records
  for exactly the sampled sessions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import IncrementalFeatures
from repro.geometry import Point
from repro.obs import (
    MetricsRegistry,
    PoolObserver,
    QualityMonitor,
    Tracer,
    session_sampled,
)
from repro.serve import generate_workload, run_load
from repro.serve.bank import FeatureBank
from repro.synth import eight_direction_templates, gdp_templates

# Integer grids produce exact duplicate points (zero-length segments)
# and collinear runs; the dt=0 choice produces untimed segments.  Both
# are the edge cases the scalar path guards with epsilon checks.
grid_strokes = st.lists(
    st.tuples(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
        st.sampled_from([0.0, 0.004, 0.01, 0.05]),
    ),
    min_size=1,
    max_size=48,
)

float_strokes = st.lists(
    st.tuples(
        st.floats(min_value=-250.0, max_value=250.0, allow_nan=False),
        st.floats(min_value=-250.0, max_value=250.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    ),
    min_size=1,
    max_size=48,
)


def _materialize(raw) -> list[tuple[float, float, float]]:
    """(x, y, dt) steps -> (x, y, t) points with a running clock."""
    t = 0.0
    points = []
    for x, y, dt in raw:
        t += dt
        points.append((float(x) * 6.5 if isinstance(x, int) else x,
                       float(y) * 6.5 if isinstance(y, int) else y, t))
    return points


def _assert_prefix_identity(bank_cls, points) -> None:
    bank = bank_cls(3)
    slot = bank.open_slot()
    slots = np.array([slot])
    inc = IncrementalFeatures()
    for x, y, t in points:
        bank.add_points(slots, np.array([[x], [y], [t]]))
        inc.add_point(Point(x, y, t))
        assert bank.quality_vector(slot).tobytes() == inc.vector.tobytes()


@settings(deadline=None, max_examples=30)
@given(raw=grid_strokes)
def test_bank_quality_vector_bit_identical_on_grid_strokes(raw):
    _assert_prefix_identity(FeatureBank, _materialize(raw))


@settings(deadline=None, max_examples=30)
@given(raw=float_strokes)
def test_bank_quality_vector_bit_identical_on_float_strokes(raw):
    _assert_prefix_identity(FeatureBank, _materialize(raw))


class _NarrowBank(FeatureBank):
    # Two shared columns move any stroke with >2 turns to its own
    # spill buffer, which then grows with every further turn.
    _Q_LOG_WIDTH = 2


@settings(deadline=None, max_examples=20)
@given(raw=grid_strokes)
def test_sidecar_log_growth_preserves_bit_identity(raw):
    _assert_prefix_identity(_NarrowBank, _materialize(raw))


@settings(deadline=None, max_examples=15)
@given(
    raws=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), grid_strokes),
        min_size=2,
        max_size=4,
    ),
)
def test_interleaved_slots_keep_independent_exact_state(raws):
    """Batched multi-slot ticks: each slot still matches its own replay.

    One tick folds one point into *several* slots at once (the masked
    updates and the log scatter under test); strokes start at different
    ticks, so one tick mixes press points, anchor points and later
    points.  Per-slot results must be indistinguishable from feeding
    each stroke alone.
    """
    strokes = [(start, _materialize(raw)) for start, raw in raws]
    bank = _NarrowBank(len(strokes))
    slots = [bank.open_slot() for _ in strokes]
    refs = [IncrementalFeatures() for _ in strokes]
    for k in range(max(start + len(s) for start, s in strokes)):
        active = [
            i
            for i, (start, s) in enumerate(strokes)
            if start <= k < start + len(s)
        ]
        if not active:
            continue
        points = [strokes[i][1][k - strokes[i][0]] for i in active]
        bank.add_points(
            np.array([slots[i] for i in active]), np.array(points).T
        )
        for i, point in zip(active, points):
            refs[i].add_point(Point(*point))
            assert (
                bank.quality_vector(slots[i]).tobytes()
                == refs[i].vector.tobytes()
            )


def test_long_stroke_spills_once_and_stays_exact(monkeypatch):
    """A 3,000-turn stroke outgrows the shared log once: the scatter's
    IndexError path runs on that tick only, and every later tick splits
    its rows without raising.  The spilled log still equals the scalar
    replay bit for bit."""
    raised = []
    spill = FeatureBank._spill

    def counting_spill(self, tgt, idx, products):
        if not self._q_spill:  # only the IndexError path gets here empty
            raised.append(len(tgt))
        spill(self, tgt, idx, products)

    monkeypatch.setattr(FeatureBank, "_spill", counting_spill)
    bank = FeatureBank(4)
    long_slot, short_slot = bank.open_slot(), bank.open_slot()
    inc = IncrementalFeatures()
    for k in range(3002):
        # A zigzag turns on every point; short strokes (a new one every
        # 40 ticks) ride along in the same ticks and never outgrow the
        # shared width.
        x, y, t = 10.0 * k, 10.0 * (k % 2), 0.01 * k
        bank.add_points(
            np.array([long_slot, short_slot]),
            np.array([[x, y, t], [5.0 * (k % 3), 7.0 * (k % 5), t]]).T,
        )
        inc.add_point(Point(x, y, t))
        if k % 40 == 39:
            bank.close_slot(short_slot)
            short_slot = bank.open_slot()
    assert raised == [2]
    assert bank.quality_vector(long_slot).tobytes() == inc.vector.tobytes()


# -- monitor level -----------------------------------------------------------


class _ReplayMonitor(QualityMonitor):
    """The reference: ignores the pool's vector and replays the decided
    prefix from the workload's own points instead."""

    def __init__(self, recognizer, workload, dt=0.01, **kw):
        super().__init__(recognizer, **kw)
        self._points: dict[str, list[Point]] = {}
        for ops in workload:
            for tick, op in enumerate(ops):
                if op[0] in ("down", "move"):
                    self._points.setdefault(op[1], []).append(
                        Point(op[2], op[3], tick * dt)
                    )

    def decided(self, first_t, decision, vector) -> None:
        inc = IncrementalFeatures()
        for point in self._points[decision.key][: decision.points_seen]:
            inc.add_point(point)
        super().decided(first_t, decision, inc.vector)


def _quality_view(quality, metrics) -> dict:
    snap = metrics.snapshot()
    return {
        "counters": {
            k: v for k, v in snap["counters"].items()
            if k.startswith("quality.")
        },
        "histograms": {
            k: v for k, v in snap["histograms"].items()
            if k.startswith("quality.")
        },
        "drift": quality.drift_scores(),
    }


def _run(recognizer, workload, monitor_cls, *, batched, tracer=None, **kw):
    metrics = MetricsRegistry()
    if monitor_cls is _ReplayMonitor:
        kw["workload"] = workload
    quality = monitor_cls(recognizer, metrics=metrics, tracer=tracer, **kw)
    observer = PoolObserver(metrics=metrics, tracer=tracer, quality=quality)
    run_load(
        recognizer, workload, batched=batched, collect=True, observer=observer
    )
    return quality, metrics


_TEMPLATES = {
    "directions_recognizer": eight_direction_templates,
    "gdp_recognizer": gdp_templates,
    "masked_recognizer": eight_direction_templates,
}


@pytest.mark.parametrize("fixture", sorted(_TEMPLATES))
@pytest.mark.parametrize("batched", [True, False])
def test_vectorized_monitor_bit_identical_to_forced_replay(
    request, fixture, batched
):
    """Pool-fed monitor (either mode) == the sequential pool's replaying
    reference monitor, per recognizer."""
    recognizer = request.getfixturevalue(fixture)
    workload = generate_workload(
        _TEMPLATES[fixture](), clients=5, gestures_per_client=2, seed=29
    )
    q_vec, m_vec = _run(recognizer, workload, QualityMonitor, batched=batched)
    q_ref, m_ref = _run(recognizer, workload, _ReplayMonitor, batched=False)
    view_vec = _quality_view(q_vec, m_vec)
    assert view_vec == _quality_view(q_ref, m_ref)
    assert view_vec["counters"].get("quality.decisions", 0) > 0


@settings(deadline=None, max_examples=6)
@given(
    params=st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
)
def test_vectorized_equals_replay_with_tracer_attached(
    directions_recognizer, params
):
    """Eager (traced) path too: the batched pool's monitor gives metrics
    AND trace records identical to the sequential pool's reference."""
    clients, gestures, seed = params
    workload = generate_workload(
        eight_direction_templates(),
        clients=clients,
        gestures_per_client=gestures,
        seed=seed,
    )
    views = {}
    traces = {}
    for cls in (QualityMonitor, _ReplayMonitor):
        tracer = Tracer()
        quality, metrics = _run(
            directions_recognizer,
            workload,
            cls,
            batched=cls is QualityMonitor,
            tracer=tracer,
        )
        views[cls] = _quality_view(quality, metrics)
        traces[cls] = [l for l in tracer.lines() if '"quality"' in l]
    assert views[QualityMonitor] == views[_ReplayMonitor]
    assert traces[QualityMonitor] == traces[_ReplayMonitor]
    assert traces[QualityMonitor], "workload produced no quality records"


# -- deterministic sampling --------------------------------------------------


sample_keys = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\n"),
    min_size=0,
    max_size=24,
)


@settings(deadline=None, max_examples=60)
@given(
    key=sample_keys,
    seed=st.integers(min_value=0, max_value=2**32),
    r1=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    r2=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_session_sampled_is_pure_and_monotone(key, seed, r1, r2):
    lo, hi = sorted((r1, r2))
    assert session_sampled(key, lo, seed) == session_sampled(key, lo, seed)
    assert session_sampled(key, 1.0, seed) is True
    assert session_sampled(key, 0.0, seed) is False
    if session_sampled(key, lo, seed):  # growing the rate never evicts
        assert session_sampled(key, hi, seed)


@settings(deadline=None, max_examples=25)
@given(
    keys=st.lists(sample_keys, unique=True, max_size=60),
    seed=st.integers(min_value=0, max_value=2**32),
    rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    workers=st.integers(min_value=1, max_value=5),
)
def test_sampled_set_is_worker_partition_independent(
    keys, seed, rate, workers
):
    """Any sharding of the keys reproduces the fleet-wide sampled set.

    Membership depends only on ``(seed, rate, key)`` — no process
    state — so a resharded fleet, a respawned worker, or an offline
    replay all agree on which sessions carry quality numbers.
    """
    whole = {k for k in keys if session_sampled(k, rate, seed)}
    shards: list[set] = [set() for _ in range(workers)]
    for i, k in enumerate(keys):  # an arbitrary partition
        shards[i % workers].add(k)
    union: set = set()
    for shard in shards:
        union |= {k for k in shard if session_sampled(k, rate, seed)}
    assert union == whole


def test_monitor_scores_exactly_the_sampled_sessions(directions_recognizer):
    """sample=0.5: the sampled run's records are the unsampled run's
    records for precisely the ``session_sampled`` keys, byte-for-byte
    (plus the ``sample_rate`` stamp), and every decision is accounted
    either as scored or as sampled out."""
    workload = generate_workload(
        eight_direction_templates(), clients=9, gestures_per_client=2, seed=13
    )
    tracer = Tracer()
    _, m_full = _run(
        directions_recognizer, workload, QualityMonitor,
        batched=True, tracer=tracer,
    )
    full = {
        r["session"]: r
        for r in tracer.records
        if r.get("rec") == "quality"
    }
    total = m_full.snapshot()["counters"]["quality.decisions"]
    assert total == len(full) > 0

    runs = []
    for _ in range(2):
        tracer = Tracer()
        _, metrics = _run(
            directions_recognizer, workload, QualityMonitor,
            batched=True, tracer=tracer,
            sample=0.5, sample_seed=3,
        )
        runs.append((tracer.lines(), metrics.snapshot()["counters"]))
    assert runs[0] == runs[1]  # replay-stable, bit for bit

    lines, counters = runs[0]
    sampled = {
        r["session"]: r
        for r in (json.loads(l) for l in lines)
        if r.get("rec") == "quality"
    }
    expected = {k for k in full if session_sampled(k, 0.5, 3)}
    assert set(sampled) == expected
    assert 0 < len(sampled) < len(full)
    for key, record in sampled.items():
        assert record.pop("sample_rate") == 0.5
        assert record == full[key]  # sampling never changes the numbers
    assert counters["quality.decisions"] == len(sampled)
    assert counters["quality.sampled_out"] == total - len(sampled)


def test_sampling_never_changes_decisions(directions_recognizer):
    workload = generate_workload(
        eight_direction_templates(), clients=6, gestures_per_client=2, seed=41
    )
    plain = run_load(
        directions_recognizer, workload, batched=True, collect=True
    )
    metrics = MetricsRegistry()
    observer = PoolObserver(
        metrics=metrics,
        quality=QualityMonitor(
            directions_recognizer, metrics=metrics, sample=0.3, sample_seed=7
        ),
    )
    observed = run_load(
        directions_recognizer,
        workload,
        batched=True,
        collect=True,
        observer=observer,
    )
    assert observed.decision_log == plain.decision_log


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_sample_rate_validation(directions_recognizer, rate):
    with pytest.raises(ValueError, match="sample must be within"):
        QualityMonitor(directions_recognizer, sample=rate)
