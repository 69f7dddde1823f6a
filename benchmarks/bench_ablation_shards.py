"""Ablation — sharded out-of-core clustering (the sharding layer).

The single-device path holds the whole dataset, grid index and neighbor
table at once; its peak device residency is the floor a real GPU's
global memory must clear.  The sharding layer splits the work into
ε-aligned tiles with ε-wide halos, so each shard's build fits under a
per-shard memory cap *below* that floor while the merged labels stay
bit-identical.

This bench runs one dataset at several shard grids with the per-shard
device capacity pinned to just under the single-device peak, asserting
(via the memory-pool accounting) that no shard ever exceeds the cap and
that every grid reproduces the single-device labels exactly.  The
artifact is the ``BENCH_shards.json`` baseline the CI smoke checks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import format_table, save_json
from repro.core import HybridDBSCAN, ShardConfig, cluster_sharded

from _bench_utils import BENCH_SCALE, bench_points, report

EPS = 0.03
MINPTS = 4
GRIDS = [(1, 1), (2, 2), (3, 3)]
N_DEVICES = 2


def _single(pts):
    h = HybridDBSCAN()
    t0 = time.perf_counter()
    res = h.fit(pts, EPS, MINPTS)
    wall = time.perf_counter() - t0
    return res.labels, h.device.memory.peak_bytes, wall


def test_ablation_shards(benchmark):
    pts = bench_points("SW1")
    ref_labels, single_peak, single_wall = _single(pts)

    # the out-of-core bound: every shard must fit strictly below what
    # the single device needed (1x1 is exempt — it IS the single path)
    cap = single_peak - 1

    rows = [
        ["single", 1, round(single_wall * 1e3, 2), "-", "-",
         single_peak, "100%"],
    ]
    results = []
    for gx, gy in GRIDS:
        capped = None if (gx, gy) == (1, 1) else cap
        res = cluster_sharded(
            pts, EPS, MINPTS,
            config=ShardConfig(
                shards_x=gx, shards_y=gy, n_devices=N_DEVICES,
                device_mem_bytes=capped,
            ),
        )
        # exactness: bit-identical labels at every shard grid
        assert np.array_equal(res.labels, ref_labels), (gx, gy)
        # memory-pool accounting: no shard exceeded the configured cap
        peak = res.max_peak_device_bytes
        assert peak > 0
        if capped is not None:
            assert peak <= capped, (gx, gy, peak, capped)
            assert all(
                s.peak_device_bytes <= capped for s in res.shard_stats
            )
        rows.append([
            f"{gx}x{gy}",
            len(res.shard_stats),
            round(res.serial_s * 1e3, 2),
            round(res.makespan_s * 1e3, 2),
            round(res.merge_s * 1e3, 2),
            peak,
            f"{peak / single_peak:.0%}",
        ])
        results.append({
            "grid": [gx, gy],
            "n_shards": len(res.shard_stats),
            "serial_s": res.serial_s,
            "makespan_s": res.makespan_s,
            "merge_s": res.merge_s,
            "peak_device_bytes": peak,
            "cap_bytes": capped,
            "labels_identical": True,
            "clusters": res.n_clusters,
            "noise": res.n_noise,
            "per_shard": [s.as_dict() for s in res.shard_stats],
        })

    benchmark.pedantic(
        lambda: cluster_sharded(
            pts, EPS, MINPTS, config=ShardConfig(shards_x=2, shards_y=2)
        ),
        rounds=1,
        iterations=1,
    )

    report(
        format_table(
            ["grid", "shards", "serial ms", f"makespan ms ({N_DEVICES} dev)",
             "merge ms", "peak dev B", "peak vs single"],
            rows,
            title="Ablation: sharded out-of-core clustering "
            f"(eps={EPS}, minpts={MINPTS}; per-shard cap = single peak - 1)",
        )
    )
    save_json(
        "BENCH_shards",
        {
            "scale": BENCH_SCALE,
            "dataset": "SW1",
            "eps": EPS,
            "minpts": MINPTS,
            "n_points": len(pts),
            "n_devices": N_DEVICES,
            "single_peak_device_bytes": single_peak,
            "single_wall_s": single_wall,
            "cap_bytes": cap,
            "grids": results,
        },
    )
