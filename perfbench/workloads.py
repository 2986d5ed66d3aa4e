"""The benchmark's workloads and fixed settings.

Every workload replays, as a closed loop with one client, queries from
``gen_workload(expected_size=8)`` (which rotates through its five query
shapes) over ``gen_dataset(rows, 4, uniform [0.5, 2.0])``, with a 5 s
per-query time limit. The gated workloads leave out the capped-knapsack
shape: on it SketchRefine, and on rare queries Direct, runs into the time
limit or close to it, so whether an operation fails depends on the host's
speed at that moment. The other workloads keep it. This module imports
nothing heavy, so the launcher can read it before it sets the BLAS thread
variables for the worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DIRECT = "direct"
SKETCHREFINE = "sketchrefine"

TIME_LIMIT_S = 5.0
COLS = 4
LOW, HIGH = 0.5, 2.0
EXPECTED_SIZE = 8
GRID = 1 / 64
# Each run replays the same QUERIES queries for a seed, whatever the
# host's speed, so that the answer digests of two commits line up. Few
# queries, run many times each, give a steadier median than many queries
# run a few times: over 48 queries of the four uncapped shapes, the median
# of best runs differs by about 4% (Direct) and 1.5% (SketchRefine) from
# seed to seed, while a best of 10 runs is still up to 1.5 times a query's
# best of 40 on a busy host.
QUERIES = 48
# Set-up runs SETUP_REPS times before the queries, and once more in each
# tenth of the run; its time is the fastest round.
SETUP_REPS = 3
SETUP_SPACING = 0.1  # of the run's seconds

# After the first pass, the operations faster than REPEAT_BELOW_S run again
# in passes until the run's time is up, and an operation's latency is its
# best run: on a shared host the speed of the same work swings by a third
# or more over seconds to minutes, and contention only ever slows it down.
# Slower operations run once; they lie above the gated percentiles anyway.
REPEAT_BELOW_S = 1.0

# one BLAS/OpenMP thread: a second spinning thread only competes with the
# engine for the CPU and gives the same wall time at twice the CPU time
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    grid: Optional[float]  # None: unquantized values
    tau: int               # partitioning size threshold
    methods: tuple[str, ...]
    why: str
    # False: leave out the capped-knapsack queries (a MAXIMIZE objective
    # under a SUM <= cap)
    capped: bool = True


WORKLOADS = {w.name: w for w in (
    Workload(
        "accept-50k", 50_000, GRID, 5000, (DIRECT, SKETCHREFINE),
        "The paper's comparison, both methods on every query, so SketchRefine "
        "is checked against Direct's optimum; not gated, as its latency "
        "mixes the two methods."),
    Workload(
        "accept-50k-direct", 50_000, GRID, 5000, (DIRECT,),
        "accept-50k without capped-knapsack queries, Direct only: one wide "
        "LP per query and the materialization of the package.",
        capped=False),
    Workload(
        "accept-50k-sketchrefine", 50_000, GRID, 5000, (SKETCHREFINE,),
        "accept-50k without capped-knapsack queries, SketchRefine only: "
        "branch-and-bound over 16 representatives, then refine solves.",
        capped=False),
    Workload(
        "scale-500k", 500_000, GRID, 500, (SKETCHREFINE,),
        "4,096 groups, so the sketch recurses; the O(n) work around the "
        "solver dominates queries and the loaders dominate set-up. Direct "
        "costs about 0.6 s a query here and is measured at 50k instead."),
    Workload(
        "branchy-50k", 50_000, None, 5000, (DIRECT,),
        "accept-50k with unquantized data, Direct only: branch-and-bound "
        "really branches, so node-level solver changes show here."),
)}
