"""Scale-out serving: a router, a supervisor, and N worker processes.

The single-process :class:`~repro.serve.GestureServer` is CPU-bound on
one core.  This package shards it without changing its meaning:

* :mod:`~repro.cluster.ring` — consistent hashing of session keys onto
  shards, stable across processes and restarts;
* :mod:`~repro.cluster.worker` — one ``GestureServer`` subprocess per
  shard, speaking the unmodified serve protocol;
* :mod:`~repro.cluster.supervisor` — spawn, heartbeat-watch, restart
  with exponential backoff, retire;
* :mod:`~repro.cluster.journal` — per-session op journals with lazy
  clock markers, the router's crash-recovery ground truth;
* :mod:`~repro.cluster.router` — the single client-facing address:
  sticky routing, tick/sweep broadcast, journal replay on worker
  restart (and, re-aimed at planned moves, *live session migration*),
  fleet-wide ``stats`` merging;
* :mod:`~repro.cluster.elastic` — :class:`Autoscaler`, the pure
  watermark/hysteresis decision core behind ``--autoscale``;
* :mod:`~repro.cluster.harness` — :class:`Cluster` (all of the above as
  one object: drain-by-migration, ``join``, ``scale_to``) and the
  deterministic driver/reference pair behind the invariance tests and
  ``benchmarks/bench_cluster.py`` / ``benchmarks/bench_elastic.py``.

The load-bearing claim, pinned by ``tests/cluster/``: for any worker
count, across any schedule of crashes, joins, drains, scales, and
migrations, the per-session reply streams are byte-identical to a
single :class:`~repro.serve.SessionPool` run over the same input order.
"""

from importlib import import_module

# Re-exports resolve on first use (PEP 562), so importing the package
# imports no submodule: ``python -m repro.cluster.worker`` would
# otherwise load ``worker`` once through ``supervisor`` and run it a
# second time as ``__main__``.
_EXPORTS = {
    "Autoscaler": "elastic",
    "quantile_from_buckets": "elastic",
    "Cluster": "harness",
    "drive_cluster": "harness",
    "reference_lines": "harness",
    "workload_ticks": "harness",
    "SessionRecord": "journal",
    "replay_lines": "journal",
    "HashRing": "ring",
    "Router": "router",
    "Supervisor": "supervisor",
    "WorkerHandle": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
