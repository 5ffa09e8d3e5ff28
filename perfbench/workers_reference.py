#!/usr/bin/env python3
"""One-off reference figure: a plan decision with ``workers=2`` against
``workers=1``, outside the benchmark's workloads (a process pool on a
shared two-core machine measures the scheduler as much as the program).

    python3 perfbench/workers_reference.py [--seed 1] [--repeats 3]

Prints the median decision time per worker count, alternating the order.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import load_package


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    cb = load_package()
    import inputs as inp
    import workloads

    plan = workloads.Plan(cb, args.seed)
    tower, action, noise = plan.objects[0]
    nx, ny = inp.PLAN_GRID
    times = {1: [], 2: []}
    for r in range(args.repeats):
        for workers in ((1, 2) if r % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            grid = cb.inference.candidate_grid(tower, action.spec, nx, ny)
            heatmap = cb.inference.stability_heatmap(
                tower, action.spec, grid, noise, inp.PLAN_WORLDS_PER_CELL, r,
                workers=workers, dims=(nx, ny))
            cb.inference.select_action(heatmap, tower, action.spec, noise,
                                       inp.PLAN_THRESHOLD, inp.PLAN_WORLDS_PER_CELL, r)
            times[workers].append(time.perf_counter() - t0)
    for workers, ts in times.items():
        print(f"workers={workers}: median {statistics.median(ts) * 1e3:.1f} ms "
              f"over {len(ts)} decisions {[round(t * 1e3) for t in ts]}")
    print(f"speed-up {statistics.median(times[1]) / statistics.median(times[2]):.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
