#!/usr/bin/env python
"""Galaxy-survey density scan with neighbor-table reuse (scenario S3).

With ε fixed, the ε-neighborhood table T is independent of minpts, so
the paper computes T once on the GPU and lets up to 16 host threads
cluster different minpts values concurrently — a 27×–54× throughput win
over re-running the reference per variant.  This example scans the
SDSS1 analogue over its Table V minpts grid, prints how the structure
count responds to the density threshold, and shows the thread-scaling
profile.

Usage::

    python examples/galaxy_survey_reuse.py [scale]
"""

import sys

from repro import cluster_with_reuse
from repro.data import dataset
from repro.data.scale import DATASETS
from repro.hostsim import schedule_parallel


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    spec = DATASETS["SDSS1"]
    points = dataset("SDSS1", scale=scale)
    eps = spec.s3_eps[1]
    minpts_grid = list(spec.s3_minpts)
    print(
        f"SDSS1 analogue: {len(points)} galaxies; eps={eps}, "
        f"{len(minpts_grid)} minpts values {minpts_grid}\n"
    )

    result = cluster_with_reuse(points, eps, minpts_grid, n_threads=16)
    print(f"{'minpts':>6}  {'clusters':>8}  {'noise %':>8}  {'dbscan s':>8}")
    for o in result.outcomes:
        print(
            f"{o.minpts:>6}  {o.n_clusters:>8}  "
            f"{100 * o.n_noise / len(points):>7.1f}%  {o.dbscan_s:>8.3f}"
        )

    print(
        f"\nT built once in {result.build_s:.2f} s "
        f"({result.outcomes[0].n_clusters} structures at the loosest "
        "threshold dissolve as minpts rises)"
    )
    print(
        f"clustering phase: serial {result.cluster_serial_s:.2f} s -> "
        f"16 simulated threads {result.cluster_s:.2f} s "
        f"({result.thread_speedup:.1f}x; paper: 2.9x-6.1x)"
    )

    durations = [o.dbscan_s for o in result.outcomes]
    print("\nthread scaling (modeled makespan of the clustering phase):")
    for nt in (1, 2, 4, 8, 16):
        makespan = schedule_parallel(durations, nt).makespan
        print(f"  {nt:>2} threads: {result.build_s + makespan:.2f} s total")


if __name__ == "__main__":
    main()
