"""Start-up hook of the traced benchmark run's serving processes.

Python imports ``sitecustomize`` from ``PYTHONPATH`` at start-up.  When
``PERFBENCH_TRACE_DIR`` is set, the layer probes are installed before
the program's own ``__main__`` runs; otherwise this does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_hooks

    perfbench_hooks.install(os.environ["PERFBENCH_TRACE_DIR"])
