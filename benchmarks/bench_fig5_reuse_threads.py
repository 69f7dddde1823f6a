"""Figure 5 (S3) — response time vs threads when reusing one T.

Paper: with ε fixed, one neighbor table feeds 16 DBSCAN variants
(different minpts); response time falls as concurrent clustering
threads are added, saturating by 16 threads (speedups 2.9×–6.1×
depending on dataset and ε).  The gap between a dataset's total and
DBSCAN-only curves is the (fixed) time to compute T.
"""

from __future__ import annotations

from repro.bench import SeriesSet, save_json
from repro.core import cluster_with_reuse
from repro.data.scale import DATASETS
from repro.hostsim import schedule_parallel

from _bench_utils import BENCH_SCALE, bench_points, report

PANELS = ["SW1", "SW4", "SDSS1", "SDSS3"]  # SDSS2 omitted, as in the paper
THREADS = [1, 2, 4, 8, 16]


def test_fig5_reuse_threads(benchmark):
    panels = {}
    payload = {}
    for name in PANELS:
        spec = DATASETS[name]
        pts = bench_points(name)
        ss = SeriesSet(f"fig5-{name}", "threads", "time_s")
        for eps in spec.s3_eps:
            # one serial run gives exact per-variant times; the thread
            # sweep is a schedule over those measurements
            base = cluster_with_reuse(
                pts, eps, list(spec.s3_minpts), n_threads=1
            )
            durations = [o.dbscan_s for o in base.outcomes]
            s_tot = ss.new_series(f"Hybrid (eps={eps}): Total Time")
            s_db = ss.new_series(f"Hybrid (eps={eps}): DBSCAN Time")
            for nt in THREADS:
                makespan = schedule_parallel(durations, nt).makespan
                s_db.add(nt, makespan)
                s_tot.add(nt, base.build_s + makespan)
            # monotone: more threads never slower
            assert all(
                s_db.y[i + 1] <= s_db.y[i] + 1e-9
                for i in range(len(s_db.y) - 1)
            ), (name, eps)
            speedup_16 = s_db.y[0] / s_db.y[-1]
            payload.setdefault(name, {})[str(eps)] = {
                "build_s": base.build_s,
                "dbscan_serial_s": sum(durations),
                "speedup_16_threads": speedup_16,
            }
            # paper: 16 threads give real concurrency gains
            assert speedup_16 > 2.0, (name, eps, speedup_16)
        panels[name] = ss

    benchmark.pedantic(
        lambda: cluster_with_reuse(
            bench_points("SW1"),
            DATASETS["SW1"].s3_eps[0],
            list(DATASETS["SW1"].s3_minpts),
            n_threads=16,
        ),
        rounds=1,
        iterations=1,
    )

    for ss in panels.values():
        report(ss.format())
    save_json(
        "fig5_reuse_threads",
        {
            "scale": BENCH_SCALE,
            "threads": THREADS,
            "panels": payload,
            "series": {k: v.to_dict() for k, v in panels.items()},
        },
    )
