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
artifact is the ``BENCH_shards.json`` baseline: before overwriting it,
a run at the committed scale checks every deterministic field against
it — the byte and count fields, each grid's shard count, peak, cap and
cluster counts, and each shard's sizes, pairs, batches, peak bytes,
recovery counts and attempts.  Wall-clock fields are not checked.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.bench import format_table, results_dir, save_json
from repro.core import HybridDBSCAN, ShardConfig, cluster_sharded

from _bench_utils import BENCH_SCALE, bench_points, report

EPS = 0.03
MINPTS = 4
GRIDS = [(1, 1), (2, 2), (3, 3)]
N_DEVICES = 2
BASELINE = "BENCH_shards"
#: the fields that repeat exactly from run to run: the top level's, each
#: grid's, and each shard's (with its recovery counts)
TOP_FIELDS = (
    "dataset", "eps", "minpts", "n_points", "n_devices",
    "single_peak_device_bytes", "cap_bytes",
)
GRID_FIELDS = ("grid", "n_shards", "peak_device_bytes", "cap_bytes", "clusters", "noise")
SHARD_FIELDS = (
    "n_interior", "n_halo", "n_pairs", "n_batches",
    "peak_device_bytes", "peak_pinned_bytes", "attempts",
)
RECOVERY_COUNTS = ("splits", "regrows", "retries", "transfer_retries")


def _single(pts):
    h = HybridDBSCAN()
    t0 = time.perf_counter()
    res = h.fit(pts, EPS, MINPTS)
    wall = time.perf_counter() - t0
    return res.labels, h.device.memory.peak_bytes, wall


def _shard_fields(per_shard: list[dict]) -> dict[tuple, dict]:
    """Each shard's deterministic fields, keyed by ``(tile, generation)``:
    the executor hands the next tile to whichever device frees first on
    the wall clock, so the list's order varies from run to run."""
    return {
        (tuple(s["tile"]), s["generation"]): {k: s[k] for k in SHARD_FIELDS}
        | {k: s["recovery"][k] for k in RECOVERY_COUNTS}
        for s in per_shard
    }


def check_against_baseline(payload: dict) -> None:
    """Fail when a run at the committed scale differs from the baseline
    in any deterministic field."""
    path = results_dir() / f"{BASELINE}.json"
    if not path.exists():
        return
    committed = json.loads(path.read_text())
    if committed["scale"] != BENCH_SCALE:
        return
    fresh = json.loads(json.dumps(payload))
    for key in TOP_FIELDS:
        assert fresh[key] == committed[key], (
            f"{key}: {fresh[key]}, baseline {committed[key]}"
        )
    for grid, ref in zip(fresh["grids"], committed["grids"], strict=True):
        for key in GRID_FIELDS:
            assert grid[key] == ref[key], (
                f"grid {ref['grid']}: {key} {grid[key]}, baseline {ref[key]}"
            )
        shards = _shard_fields(grid["per_shard"])
        ref_shards = _shard_fields(ref["per_shard"])
        assert shards.keys() == ref_shards.keys(), (
            f"grid {ref['grid']}: shards {sorted(shards)}, baseline {sorted(ref_shards)}"
        )
        for key, shard in shards.items():
            assert shard == ref_shards[key], (
                f"grid {ref['grid']} shard {key}: {shard}, baseline {ref_shards[key]}"
            )


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
    payload = {
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
    }
    check_against_baseline(payload)
    save_json(BASELINE, payload)
