"""Ablation — multi-device shard placement.

The sharding layer's shards become genuinely concurrent once placed
across N bounded devices.  Two placement strategies are compared at
each device count:

* ``locality`` — boustrophedon-contiguous tile segments, so adjacent
  tiles (whose halo rings overlap each other's interiors) co-reside
  and their halo traffic never crosses the interconnect;
* ``round-robin`` — the maximally scattered baseline.

For each configuration the bench asserts the tentpole guarantees:
labels bit-identical to the single-device path, modeled multi-device
makespan (builds pinned to devices, merge absorbs overlapped, finalize
tail) strictly below the sequential-shard baseline, and — at the largest device count — locality's deduplicated
collective halo volume strictly below round-robin's.  The artifact is
the ``BENCH_placement.json`` baseline: before overwriting it, a run at
the committed scale checks every field against it but the wall-clock
ones (the makespans, finalize seconds, speedups and utilizations).
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import format_table, results_dir, save_json
from repro.core import HybridDBSCAN, ShardConfig, cluster_sharded

from _bench_utils import BENCH_SCALE, bench_points, report

EPS = 0.03
MINPTS = 4
# 6x6: enough tiles that round-robin genuinely scatters neighbors (a
# 4x4 grid dealt onto 4 devices re-aligns whole rows by coincidence)
GRID = (6, 6)
DEVICE_COUNTS = [2, 4]
STRATEGIES = ["locality", "round-robin"]
BASELINE = "BENCH_placement"
#: fields the check leaves out: each is measured on the wall clock
WALL_CLOCK_FIELDS = frozenset({
    "sequential_makespan_s", "makespan_s", "build_makespan_s", "finalize_s",
    "speedup", "utilization",
})


def _deterministic(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in WALL_CLOCK_FIELDS}


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
    top, ref_top = _deterministic(fresh), _deterministic(committed)
    for key in (top.keys() | ref_top.keys()) - {"runs"}:
        assert top.get(key) == ref_top.get(key), (
            f"{key}: {top.get(key)}, baseline {ref_top.get(key)}"
        )
    for run, ref in zip(fresh["runs"], committed["runs"], strict=True):
        got, want = _deterministic(run), _deterministic(ref)
        for key in got.keys() | want.keys():
            assert got.get(key) == want.get(key), (
                f"{ref['strategy']} on {ref['devices']} devices: {key} "
                f"{got.get(key)}, baseline {want.get(key)}"
            )


def test_ablation_placement(benchmark):
    pts = bench_points("SW1")
    ref = HybridDBSCAN().fit(pts, EPS, MINPTS)

    # the sequential-shard baseline: same tile grid, one device
    base = cluster_sharded(
        pts, EPS, MINPTS,
        config=ShardConfig(shards_x=GRID[0], shards_y=GRID[1], n_devices=1),
    )
    assert np.array_equal(base.labels, ref.labels)
    base_makespan = base.device_schedule.makespan_s

    rows = [[
        "sequential", 1, len(base.shard_stats),
        round(base_makespan * 1e3, 2), "-", "-", "-",
    ]]
    results = []
    volumes: dict[tuple[int, str], int] = {}
    for n_devices in DEVICE_COUNTS:
        for strategy in STRATEGIES:
            res = cluster_sharded(
                pts, EPS, MINPTS,
                config=ShardConfig(
                    shards_x=GRID[0], shards_y=GRID[1],
                    n_devices=n_devices, placement=strategy,
                ),
            )
            # exactness: bit-identical labels for every placement
            assert np.array_equal(res.labels, ref.labels), (n_devices, strategy)
            ds = res.device_schedule
            # overlap: the modeled multi-device makespan must beat the
            # sequential-shard baseline outright
            assert ds.makespan_s < base_makespan, (
                n_devices, strategy, ds.makespan_s, base_makespan
            )
            x = res.exchange
            volumes[(n_devices, strategy)] = x.collective_points
            # the collective ships each boundary point once per needing
            # device — never more than naive per-shard staging
            assert x.collective_points <= x.staged_points
            rows.append([
                strategy, n_devices, len(res.shard_stats),
                round(ds.makespan_s * 1e3, 2),
                round(ds.speedup, 2),
                x.collective_points,
                x.staged_points,
            ])
            results.append({
                "devices": n_devices,
                "strategy": strategy,
                "n_shards": len(res.shard_stats),
                "makespan_s": ds.makespan_s,
                "build_makespan_s": ds.build_makespan_s,
                "exchange_s": ds.exchange_s,
                "finalize_s": ds.finalize_s,
                "speedup": ds.speedup,
                "utilization": ds.utilization,
                "collective_points": x.collective_points,
                "staged_points": x.staged_points,
                "collective_bytes": x.collective_bytes,
                "device_loads": res.placement.device_loads,
                "labels_identical": True,
            })

    # the placement claim: co-placing adjacent tiles keeps halo rings
    # device-local — strictly less interconnect volume than scattering
    top = max(DEVICE_COUNTS)
    assert volumes[(top, "locality")] < volumes[(top, "round-robin")], volumes

    benchmark.pedantic(
        lambda: cluster_sharded(
            pts, EPS, MINPTS,
            config=ShardConfig(
                shards_x=GRID[0], shards_y=GRID[1],
                n_devices=2, placement="locality",
            ),
        ),
        rounds=1,
        iterations=1,
    )

    report(
        format_table(
            ["placement", "devices", "shards", "makespan ms", "speedup",
             "collective pts", "staged pts"],
            rows,
            title="Ablation: multi-device shard placement "
            f"(grid={GRID[0]}x{GRID[1]}, eps={EPS}, minpts={MINPTS})",
        )
    )
    payload = {
        "scale": BENCH_SCALE,
        "dataset": "SW1",
        "eps": EPS,
        "minpts": MINPTS,
        "n_points": len(pts),
        "grid": list(GRID),
        "sequential_makespan_s": base_makespan,
        "runs": results,
    }
    check_against_baseline(payload)
    save_json(BASELINE, payload)
