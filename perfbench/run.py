"""Benchmark of the package-query engine, driven from outside.

Run from the repository root:

    python3 perfbench/run.py --workload accept-50k-direct --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Each workload runs in a fresh process (``perfbench/worker.py``) with one
BLAS/OpenMP thread, so its peak memory is its own. Every metric is printed
by name with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, timed
without tracing; with ``--trace 1`` they are the per-layer ones from a
traced replay. Reports and answer digests go to ``.perfbench_out/``.
The exit code is 0 only when every workload ran to the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import THREAD_VARS, WORKLOADS  # noqa: E402

# a worker must end within the 180 s a run may take
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, args) -> tuple[int, list[str]]:
    """Run one workload in its own process; returns (exit code, stdout lines)."""
    env = {**os.environ, **THREAD_VARS}
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pkgquery" / "__init__.py").is_file():
        print(f"perfbench: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, lines = run_worker(name, args)
        if code != 0 or not lines:
            print(f"perfbench: {name} failed with exit code {code}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if len(names) == 1:
        last = results[names[0]]
    else:
        last = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
