"""Opt-in perf-counter profiling for the serve hot path.

:class:`PerfProfiler` is a named accumulator of wall-clock section
timings.  The pool and the batch evaluator wrap their hot sections —
feature update, fused evaluation, exact fallback — in
``perf_counter()`` pairs *only when a profiler is attached*, mirroring
the one-``is not None``-test-per-site discipline the rest of
:mod:`repro.obs` uses.  Detached (the default), the hot
path contains no clock reads.

Wall-clock numbers are inherently nondeterministic, so the profiler
lives outside the metrics registry: its :meth:`snapshot` is reported
through the ``stats`` protocol under a separate ``"profile"`` key and
lands in ``BENCH_*.json``, never in golden files.
"""

from __future__ import annotations

__all__ = ["PerfProfiler"]


class PerfProfiler:
    """Accumulates ``(count, total seconds, units)`` per named section.

    ``units`` lets a section normalise by its natural workload size
    (points updated, rows evaluated) so snapshots can report both
    mean-per-call and mean-per-unit costs.
    """

    def __init__(self):
        self._sections: dict[str, list] = {}

    def add(self, name: str, seconds: float, units: int = 1) -> None:
        """Record one timed section: ``seconds`` spent over ``units`` items."""
        cell = self._sections.get(name)
        if cell is None:
            cell = self._sections[name] = [0, 0.0, 0]
        cell[0] += 1
        cell[1] += seconds
        cell[2] += units

    def snapshot(self) -> dict:
        """Sorted per-section summary, JSON-ready.

        ``total_us`` / ``mean_us`` are per call; ``us_per_unit`` is
        normalised by the recorded units (``None`` when no units were
        recorded, e.g. a section that only measures fixed overhead).
        """
        out = {}
        for name in sorted(self._sections):
            count, total, units = self._sections[name]
            out[name] = {
                "count": count,
                "total_us": total * 1e6,
                "mean_us": (total / count) * 1e6 if count else 0.0,
                "us_per_unit": (total / units) * 1e6 if units else None,
                "units": units,
            }
        return out
