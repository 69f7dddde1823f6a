"""Ablation — multi-ε reuse from one annotated table (extension).

Scenario S2 rebuilds T for every ε; the annotated-table extension builds
one distance-carrying table at ε_max and derives every smaller ε's
clustering by filtering.  This bench compares the two strategies over
each dataset's S2 grid: the annotated build costs more than any single
small-ε build (3-column results at the largest ε), but amortizes across
the sweep.
"""

from __future__ import annotations

from repro.bench import format_table, save_json
from repro.core import HybridDBSCAN, MultiClusterPipeline, VariantSet, cluster_eps_sweep
from repro.data.scale import DATASETS
from repro.gpusim import Device

from _bench_utils import BENCH_SCALE, bench_points, report

PANELS = ["SW1", "SDSS1"]
MINPTS = 4


def test_ablation_multi_eps(benchmark):
    rows = []
    payload = []
    for name in PANELS:
        spec = DATASETS[name]
        pts = bench_points(name)
        eps_grid = list(spec.s2_eps)

        pipe = MultiClusterPipeline(HybridDBSCAN(Device()))
        per_eps = pipe.run(
            pts, VariantSet.eps_sweep(eps_grid, MINPTS), pipelined=False
        )
        device = Device()
        sweep = cluster_eps_sweep(
            pts, eps_grid, MINPTS, n_threads=1, hybrid=HybridDBSCAN(device)
        )
        # the annotated build's modeled calc-kernel ms (each append is
        # charged its float64 row's six 4-byte stores)
        kernel_ms = sum(
            r.modeled_ms for r in device.profiler.kernels if r.name == "GPUCalcGlobal"
        )

        # identical clustering structure per eps
        for a, b in zip(per_eps.outcomes, sweep.outcomes, strict=True):
            assert a.n_clusters == b.n_clusters, (name, a.variant.eps)
            assert a.n_noise == b.n_noise

        rows.append(
            [
                name,
                len(eps_grid),
                round(per_eps.total_s, 3),
                round(sweep.build_s, 3),
                round(sweep.total_s, 3),
                round(per_eps.total_s / sweep.total_s, 2),
                round(kernel_ms, 4),
            ]
        )
        payload.append(
            {
                "dataset": name,
                "n_eps": len(eps_grid),
                "per_eps_total_s": per_eps.total_s,
                "annotated_build_s": sweep.build_s,
                "annotated_total_s": sweep.total_s,
                "speedup": per_eps.total_s / sweep.total_s,
                "annotated_pairs": sweep.table_pairs,
                "annotated_kernel_device_ms": kernel_ms,
            }
        )
        # one annotated build beats rebuilding per eps across the sweep
        assert sweep.total_s < per_eps.total_s, name

    pts = bench_points("SW1")
    benchmark.pedantic(
        lambda: cluster_eps_sweep(
            pts, list(DATASETS["SW1"].s2_eps[:4]), MINPTS
        ),
        rounds=1,
        iterations=1,
    )

    report(
        format_table(
            ["Dataset", "#eps", "per-eps tables s", "annotated build s",
             "annotated total s", "speedup", "annotated kernel ms (modeled)"],
            rows,
            title="Ablation (extension): one annotated table at eps_max "
            "vs a table per eps over the S2 grid",
        )
    )
    save_json("ablation_multi_eps", {"scale": BENCH_SCALE, "rows": payload})
