"""CLI wiring: ``loadgen --cluster`` runs real workers and verifies
byte-identity itself; incompatible observer flags fail fast."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"


def test_loadgen_cluster_verifies_byte_identity(capsys):
    code = main(
        [
            "loadgen",
            "--cluster", "2",
            "--clients", "4",
            "--gestures", "1",
            "--examples", "8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "cluster: 2 workers" in out
    assert "byte-identical" in out
    assert "MISMATCH" not in out


def test_loadgen_cluster_rejects_per_pool_observers(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "loadgen",
                "--cluster", "2",
                "--trace", str(tmp_path / "trace.ndjson"),
            ]
        )
    assert "--cluster" in str(exc.value)


def test_cluster_subcommand_needs_one_recognizer_source():
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--workers", "2"])
    assert "exactly one" in str(exc.value)


def test_serve_model_cache_requires_a_registry():
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "serve",
                "--family", "directions",
                "--examples", "2",
                "--model-cache", "2",
            ]
        )
    assert "--registry" in str(exc.value)


def test_cluster_rejects_inverted_scale_bounds(tmp_path):
    # Cluster.__init__ validates the bounds before any worker spawns;
    # the CLI surfaces that as a clean error, not a live fleet.
    with pytest.raises(ValueError, match="max_workers"):
        main(
            [
                "cluster",
                "--family", "directions",
                "--examples", "2",
                "--min-workers", "4",
                "--max-workers", "2",
            ]
        )


def test_worker_module_runs_once():
    # Importing the package must not import the worker module: runpy
    # would then warn, and execute it a second time as __main__.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.cluster.worker", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--recognizer" in proc.stdout
