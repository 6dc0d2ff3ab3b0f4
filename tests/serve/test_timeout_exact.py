"""Small motionless-timeout batches are decided exactly, not fused.

``SessionPool.advance_to`` decides a batch of fewer than
``_EXACT_TIMEOUT_ROWS`` expired sessions row by row from the bank's
exact feature vector, and larger batches with one fused evaluation.
Both sides must say the same thing: forcing every batch through either
one gives identical decision streams, identical quality records and the
sequential pool's decisions.  The exact side's rows count in
``batch.rows`` but not in ``batch.fallbacks``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, PoolObserver, QualityMonitor, Tracer
from repro.serve import generate_workload, run_load
from repro.serve import pool as pool_module
from repro.synth import gdp_templates


def _run(recognizer, workload, threshold, monkeypatch, *, batched=True):
    monkeypatch.setattr(pool_module, "_EXACT_TIMEOUT_ROWS", threshold)
    metrics = MetricsRegistry()
    tracer = Tracer()
    quality = QualityMonitor(recognizer, metrics=metrics, tracer=tracer)
    observer = PoolObserver(metrics=metrics, tracer=tracer, quality=quality)
    result = run_load(
        recognizer, workload, batched=batched, collect=True, observer=observer
    )
    records = [line for line in tracer.lines() if '"quality"' in line]
    return result.decision_log, records, metrics.snapshot()["counters"]


@settings(deadline=None, max_examples=8)
@given(
    clients=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_forced_exact_and_forced_fused_timeouts_agree(
    gdp_recognizer, clients, seed
):
    """Every timeout batch exact, or every one fused: same decisions,
    same quality records, and the sequential pool's decisions."""
    workload = generate_workload(
        gdp_templates(),
        clients=clients,
        gestures_per_client=3,
        seed=seed,
        dwell_every=2,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        fused = _run(gdp_recognizer, workload, 0, monkeypatch)
        exact = _run(gdp_recognizer, workload, 10**9, monkeypatch)
        sequential = _run(
            gdp_recognizer, workload, 0, monkeypatch, batched=False
        )
    assert exact[0] == fused[0] == sequential[0]
    assert exact[1] == fused[1] == sequential[1]
    assert exact[2]["batch.rows"] == fused[2]["batch.rows"]
    assert exact[2]["batch.fallbacks"] <= fused[2]["batch.fallbacks"]
    assert any(d.reason == "timeout" for d in exact[0])


class _TimeoutSizes(PoolObserver):
    """Records the size of every batched timeout round."""

    def __init__(self):
        super().__init__(metrics=MetricsRegistry())
        self.sizes = []

    def timeout_round(self, rows: int, fallbacks: int) -> None:
        self.sizes.append(rows)
        super().timeout_round(rows, fallbacks)


def test_default_threshold_takes_both_sides(gdp_recognizer):
    """A dwell-heavy workload has timeout batches on both sides of the
    default threshold, so both the exact and the fused path run."""
    workload = generate_workload(
        gdp_templates(),
        clients=96,
        gestures_per_client=3,
        seed=11,
        dwell_every=1,
    )
    observer = _TimeoutSizes()
    run_load(gdp_recognizer, workload, observer=observer)
    threshold = pool_module._EXACT_TIMEOUT_ROWS
    assert any(n < threshold for n in observer.sizes)
    assert any(n >= threshold for n in observer.sizes)
