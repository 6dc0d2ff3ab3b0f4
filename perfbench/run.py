"""The serving benchmark: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload tcp-gdp --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` is a separate run
that probes each layer from outside and prints the per-layer metrics
(``layers.json`` says which end-to-end metric each should move, on
which workload).  ``--workload all`` runs every workload, each in a
fresh process, and prints one table.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A run is correct when every reply is byte-identical to the in-process
reference and, at the recorded seed and length, the reference digest
equals the one in ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args, config) -> int:
    """Every workload in its own process; one table; exit 1 on failure."""
    ok = True
    for workload in config["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        share = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed_share={share:g}")
        for metric, cell in result["metrics"].items():
            print(f"  {metric:36s} {cell['value']:>14.6g} {cell['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {SRC}/repro is missing")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return _run_all(args, config)
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    sys.path[:0] = [str(SRC), str(HERE / "boot"), str(HERE)]
    import workloads

    spec = workloads.SPECS[args.workload]
    runner = workloads.run_pool if spec.stack == "pool" else workloads.run_tcp
    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = runner(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = json.loads((HERE / "expected.json").read_text())
    want = expected["digests"].get(args.workload)
    if (
        args.seed == expected["seed"]
        and args.seconds == expected["seconds"]
        and want is not None
        and want != result.digest
    ):
        print(f"reference digest {result.digest} != recorded {want}")
        result.failed += 1
        result.correct = False

    declared = config["per_layer" if args.trace else "end_to_end"]
    if set(result.metrics) != {m["name"] for m in declared}:
        return _fail("measured metrics differ from BENCHMARK.json")
    if args.trace:
        mapped = json.loads((HERE / "layers.json").read_text())["metrics"]
        if set(mapped) != set(result.metrics):
            return _fail("layers.json does not map every per-layer metric")
    metrics = {
        m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    print(
        f"{args.workload}: seed {args.seed}, reference digest {result.digest}, "
        f"failed_share {result.failed / result.attempted:g}"
    )
    for name, cell in metrics.items():
        print(f"  {name:36s} {cell['value']:>14.6g} {cell['unit']}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
