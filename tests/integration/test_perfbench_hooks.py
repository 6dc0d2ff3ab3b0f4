"""The traced benchmark run's probe points still exist.

``perfbench/boot/perfbench_hooks.py`` wraps named functions and classes
of the serving stack from outside ``src/``.  A rename there would only
surface when someone runs ``perfbench/run.py --trace 1``; installing
the probes in a fresh interpreter catches it here instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_probes_install_against_the_current_program():
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)  # the boot hook stays inert
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench" / "boot")]
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import perfbench_hooks; perfbench_hooks.install(None)",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
