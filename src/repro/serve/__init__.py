"""The serving layer: many concurrent eager recognitions, batched.

The reproduction proper (``repro.eager``, ``repro.interaction``) is
single-user by construction — one mouse, one interaction at a time,
advanced point by point.  This package turns the same recognizer into a
multi-tenant streaming service:

* :class:`FeatureBank` — Rubine's incremental features for thousands of
  in-flight strokes at once, held in flat numpy arrays;
* :class:`BatchEvaluator` — all per-class linear discriminants (full
  classifier and AUC) evaluated with one matrix product per tick, with
  a sequential fallback that makes batched decisions provably identical
  to the per-session path;
* :class:`SessionPool` — lifecycle, the paper's 200 ms motionless
  timeout (virtual-clock driven), and decision emission;
* :class:`ModelRegistry` — versioned, content-addressed storage of
  trained recognizers;
* :class:`GestureServer` — an asyncio front end speaking
  newline-delimited JSON over TCP, plus the same API in-process;
* :mod:`repro.serve.loadgen` — the load harness behind
  ``benchmarks/bench_serve_throughput.py`` and ``repro-gestures loadgen``.
"""

from importlib import import_module

# Re-exports resolve on first use (PEP 562): a worker that imports the
# server never imports the load generator (and through it the gesture
# synthesizer).
_EXPORTS = {
    "FeatureBank": "bank",
    "BatchEvaluator": "batch",
    "DEFAULT_MAX_FRAME": "framing",
    "FRAME_MAGIC": "framing",
    "FrameReader": "framing",
    "encode_frame": "framing",
    "encode_frames": "framing",
    "encode_hello": "framing",
    "encode_hello_ack": "framing",
    "negotiate": "framing",
    "LineReader": "lines",
    "LoadResult": "loadgen",
    "compare_modes": "loadgen",
    "family_templates": "loadgen",
    "generate_workload": "loadgen",
    "run_load": "loadgen",
    "DEFAULT_IDLE_TIMEOUT": "pool",
    "Decision": "pool",
    "SessionPool": "pool",
    "ProtocolError": "protocol",
    "Request": "protocol",
    "decode_block": "protocol",
    "decode_frame": "protocol",
    "decode_payload": "protocol",
    "decode_request": "protocol",
    "encode_decision": "protocol",
    "encode_error": "protocol",
    "encode_stats": "protocol",
    "encode_swap": "protocol",
    "ModelRegistry": "registry",
    "ModelVersion": "registry",
    "Channel": "server",
    "DEFAULT_MAX_LINE": "server",
    "GestureServer": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
