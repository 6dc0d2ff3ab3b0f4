"""A worker process imports only what serving needs.

The package ``__init__`` modules re-export lazily (PEP 562), so a
worker that loads a trained recognizer and starts a server never
imports the trainer, the subgesture partition, the load generator or
the gesture synthesizer.  Checked in a fresh interpreter, since this
test session has imported all of them already.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.cluster.worker import worker_env

# The worker module plus everything its serving coroutine imports.
_WORKER_IMPORTS = """
import json, sys
import repro.cluster.worker
from repro.eager import EagerRecognizer
from repro.interaction import DEFAULT_TIMEOUT
from repro.obs import MetricsRegistry, PoolObserver, QualityMonitor
from repro.serve import GestureServer
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

_NOT_NEEDED = (
    "repro.synth",
    "repro.eager.trainer",
    "repro.eager.partition",
    "repro.serve.loadgen",
)


def test_worker_imports_no_training_or_synthesis_modules():
    out = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORTS],
        env=worker_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "repro.serve.server" in loaded
    assert loaded.isdisjoint(_NOT_NEEDED), sorted(loaded & set(_NOT_NEEDED))
