"""Layer probes for the traced benchmark run.

The probes wrap public functions of the serving stack from outside:
nothing in ``src/`` knows they exist.  :func:`install` replaces each
target function with a wrapper that counts calls (and, where the
function does synchronous work, times them), in every ``repro`` module
that bound the original name with ``from ... import``.

In a serving subprocess the probes are installed by the
``sitecustomize`` module next to this file, which Python imports at
start-up when this directory is on ``PYTHONPATH`` (and
``repro.cluster.worker.worker_env`` passes ``PYTHONPATH`` on to every
worker).  Such a process writes

* ``snap-<pid>-<n>.json`` each time it encodes its ``n``-th ``stats``
  reply — the benchmark's phase barriers — so ``run.py`` can take the
  difference of two barriers;
* ``exit-<pid>.json`` and ``spans-<pid>.ndjson`` when it exits.  Spans
  are kept in memory (bounded) until then.

Cell layout: ``[calls, seconds, units]``.  ``units`` is what the call
handled: events per ``next_batch``, hits per ``splice_reply``, protocol
errors per decode, decisions per pool call.

The state below is process-wide on purpose: the probes patch
process-wide functions, once per process.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
from time import perf_counter

MAX_SPANS = 200_000

cells: dict[str, list] = {}
spans: list[tuple] = []
profilers: list = []
_state = {"dir": None, "snapshots": 0}


def _cell(name: str) -> list:
    return cells.setdefault(name, [0, 0.0, 0])


def _timed(name: str, fn, units=None):
    cell = _cell(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter()
        cell[0] += 1
        cell[1] += t1 - t0
        if units is not None:
            cell[2] += units(args, result)
        if len(spans) < MAX_SPANS:
            spans.append((name, t0, t1))
        return result

    return wrapper


def _decode(fn):
    """``decode_request``: timed; a ``ProtocolError`` counts as a unit."""
    cell = _cell("protocol.decode")
    from repro.serve.protocol import ProtocolError

    @functools.wraps(fn)
    def wrapper(line):
        t0 = perf_counter()
        try:
            return fn(line)
        except ProtocolError:
            cell[2] += 1
            raise
        finally:
            t1 = perf_counter()
            cell[0] += 1
            cell[1] += t1 - t0
            if len(spans) < MAX_SPANS:
                spans.append(("protocol.decode", t0, t1))

    return wrapper


def _counted_batches(name: str, fn):
    """An async ``next_batch``: count calls and the events returned."""
    cell = _cell(name)

    @functools.wraps(fn)
    async def wrapper(self):
        events = await fn(self)
        cell[0] += 1
        cell[2] += len(events)
        return events

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro.*`` module name bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def snapshot() -> dict:
    """Cells plus the pool profiler sections, JSON-ready."""
    return {
        "pid": os.getpid(),
        # The cluster router runs as ``python -m repro.cli cluster``.
        "role": "router" if sys.argv[0].endswith("cli.py") else "server",
        "cells": {name: list(cell) for name, cell in cells.items()},
        "profile": [p.snapshot() for p in profilers],
    }


def _write(name: str, payload) -> None:
    path = os.path.join(_state["dir"], name)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _at_exit() -> None:
    _write(f"exit-{os.getpid()}.json", snapshot())
    path = os.path.join(_state["dir"], f"spans-{os.getpid()}.ndjson")
    with open(path, "w") as fh:
        for name, t0, t1 in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1}) + "\n")


def install(out_dir: str | None = None) -> None:
    """Wrap the probed functions; with ``out_dir``, write snapshots there."""
    from repro.cluster import router
    from repro.eager import EagerRecognizer
    from repro.obs import PerfProfiler, PoolObserver
    from repro.serve import FrameReader, LineReader, SessionPool, protocol

    _state["dir"] = out_dir

    _rebind(protocol.decode_request, _decode(protocol.decode_request))
    _rebind(
        protocol.encode_decision,
        _timed("protocol.encode", protocol.encode_decision),
    )
    _rebind(
        protocol.encode_error,
        _timed("protocol.error_reply", protocol.encode_error),
    )

    # The router's own legacy-path decode and reply splice; the serve
    # modules keep their original decode_payload binding.
    router.decode_payload = _timed("router.decode_payload", router.decode_payload)
    router.splice_reply = _timed(
        "router.splice_reply",
        router.splice_reply,
        units=lambda args, result: result is not None,
    )

    LineReader.next_batch = _counted_batches(
        "lines.next_batch", LineReader.next_batch
    )
    FrameReader.next_batch = _counted_batches(
        "framing.next_batch", FrameReader.next_batch
    )

    # Units here are the decisions each call returned.
    for method in ("flush", "advance_to", "evict_idle"):
        wrapped = _timed(
            "pool.round",
            getattr(SessionPool, method),
            units=lambda args, result: len(result),
        )
        setattr(SessionPool, method, wrapped)

    load = EagerRecognizer.load.__func__
    EagerRecognizer.load = classmethod(_timed("setup.model_load", load))

    # Every observer gets a PerfProfiler, so the pool times its
    # feature update, fused evaluation and exact fallback.
    init = PoolObserver.__init__

    @functools.wraps(init)
    def observer_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.profiler is None:
            self.profiler = PerfProfiler()
        profilers.append(self.profiler)

    PoolObserver.__init__ = observer_init

    if out_dir is None:
        return

    def stats_hook(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            line = fn(*args, **kwargs)
            _state["snapshots"] += 1
            _write(f"snap-{os.getpid()}-{_state['snapshots']}.json", snapshot())
            return line

        return wrapper

    _rebind(protocol.encode_stats, stats_hook(protocol.encode_stats))
    atexit.register(_at_exit)
