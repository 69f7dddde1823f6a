"""Ablation — shard-level fault recovery (retry / quad-split / fallback).

The sharded out-of-core path survives batch-level faults via the
Section VI recovery ladder, but a shard can also die *wholesale*:
device OOM past what batching can absorb, a lost device, a transfer
fault that exhausts its retry budget.  The supervisor then either
re-runs the shard on a fresh fallback device with an escalated memory
grant or — for memory-shaped faults — quad-splits the ε-aligned tile
and enqueues the children.

This bench injects deterministic wholesale faults (one shard OOM, one
device loss) into a 2×2 sharded run under each recovery policy and
measures the price of recovery: extra attempts, splits, fallback
placements, wasted work, and makespan overhead versus the fault-free
run — asserting the merged labels stay bit-identical throughout.  The
artifact is the ``BENCH_shard_recovery.json`` baseline: before
overwriting it, a run at the committed scale checks every field against
it but the wall-clock ones (makespans, wasted seconds, attempt seconds)
and each event's device, which follows the wall-clock device choice.
Events are keyed by tile, cells, generation and attempt, since their
order follows the wall clock too.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import format_table, results_dir, save_json
from repro.core import ShardConfig, cluster_sharded, make_shard_fault_factory
from repro.gpusim import FaultSpec

from _bench_utils import BENCH_SCALE, bench_points, report

EPS = 0.03
MINPTS = 4
GRID = (2, 2)
N_DEVICES = 2
FAULT_SEED = 7
BASELINE = "BENCH_shard_recovery"
#: fields left out of the check, at any depth: wall-clock seconds and
#: ratios, and an event's device (the device that frees first on the
#: wall clock takes the next tile)
WALL_CLOCK_FIELDS = frozenset({
    "clean_makespan_s", "makespan_s", "makespan_overhead", "wasted_s",
    "shard_s", "wasted_kernel_s", "device",
})

#: wholesale faults: device OOM on tile (0,0), device loss on tile (1,1)
FAULTS = [
    ((0, 0), [FaultSpec("device_oom")]),
    ((1, 1), [FaultSpec("device_lost")]),
]

#: recovery policies under the same injected faults
POLICIES = [
    ("retry-only", dict(max_shard_retries=3, split_on_oom=False)),
    ("split-on-oom", dict(max_shard_retries=2, split_on_oom=True)),
]


def _factory():
    tiles = {t: specs for t, specs in FAULTS}

    def factory(shard):
        specs = tiles.get((shard.tx, shard.ty))
        if shard.generation > 0 or not specs:
            return None
        return make_shard_fault_factory(
            specs, seed=FAULT_SEED, tiles=[(shard.tx, shard.ty)]
        )(shard)

    return factory


def _run(fault_factory=None, **policy):
    return cluster_sharded(
        pts_cache["pts"], EPS, MINPTS,
        config=ShardConfig(
            shards_x=GRID[0], shards_y=GRID[1], n_devices=N_DEVICES,
            fault_factory=fault_factory, **policy,
        ),
    )


pts_cache = {}


def _deterministic(value):
    """``value`` without its wall-clock fields."""
    if isinstance(value, dict):
        return {
            k: _deterministic(v) for k, v in value.items() if k not in WALL_CLOCK_FIELDS
        }
    if isinstance(value, list):
        return [_deterministic(v) for v in value]
    return value


def _events(policy: dict) -> dict[tuple, dict]:
    """A policy's attempts keyed by ``(tile, cells, generation, attempt)``:
    the cells tell a tile's quad-split children apart."""
    return {
        (tuple(e["tile"]), tuple(e["cells"]), e["generation"], e["attempt"]): e
        for e in policy["events"]
    }


def check_against_baseline(payload: dict) -> None:
    """Fail when a run at the committed scale differs from the baseline
    in any deterministic field."""
    path = results_dir() / f"{BASELINE}.json"
    if not path.exists():
        return
    committed = _deterministic(json.loads(path.read_text()))
    if committed["scale"] != BENCH_SCALE:
        return
    fresh = _deterministic(json.loads(json.dumps(payload)))
    for key in (committed.keys() | fresh.keys()) - {"policies"}:
        assert fresh.get(key) == committed.get(key), (
            f"{key}: {fresh.get(key)}, baseline {committed.get(key)}"
        )
    for got, ref in zip(fresh["policies"], committed["policies"], strict=True):
        name = ref["policy"]
        for key in (got.keys() | ref.keys()) - {"events"}:
            assert got.get(key) == ref.get(key), (
                f"{name}: {key} {got.get(key)}, baseline {ref.get(key)}"
            )
        events, ref_events = _events(got), _events(ref)
        assert len(events) == len(got["events"]), f"{name}: events share a key"
        assert events.keys() == ref_events.keys(), (
            f"{name}: attempts {sorted(events)}, baseline {sorted(ref_events)}"
        )
        for key, event in events.items():
            assert event == ref_events[key], (
                f"{name} attempt {key}: {event}, baseline {ref_events[key]}"
            )


def test_ablation_shard_recovery(benchmark):
    pts_cache["pts"] = bench_points("SW1")

    clean = _run()
    ref_labels = clean.labels

    rows = [
        ["fault-free", "-", 0, 0, 0, 0,
         round(clean.makespan_s * 1e3, 2), "1.00x", "yes"],
    ]
    results = []
    for name, policy in POLICIES:
        res = _run(fault_factory=_factory(), **policy)
        # exactness: recovery must not perturb the clustering
        assert np.array_equal(res.labels, ref_labels), name
        rec = res.recovery
        # the injected faults must actually have been exercised
        assert rec.shard_attempts > len(res.shard_stats), name
        if policy["split_on_oom"]:
            assert rec.shard_splits >= 1, name
        else:
            assert rec.mem_escalations >= 1, name
        assert rec.fallback_placements >= 1, name
        overhead = res.makespan_s / clean.makespan_s if clean.makespan_s else 1
        rows.append([
            name,
            rec.shard_attempts,
            rec.fallback_placements,
            rec.shard_splits,
            rec.mem_escalations,
            rec.wasted_work_bytes,
            round(res.makespan_s * 1e3, 2),
            f"{overhead:.2f}x",
            "yes",
        ])
        results.append({
            "policy": name,
            **policy,
            "recovery": rec.as_dict(),
            "makespan_s": res.makespan_s,
            "makespan_overhead": overhead,
            "n_shards_completed": len(res.shard_stats),
            "labels_identical": True,
            "events": [e.as_dict() for e in res.events],
        })

    benchmark.pedantic(
        lambda: _run(fault_factory=_factory(), **dict(POLICIES[1][1])),
        rounds=1,
        iterations=1,
    )

    report(
        format_table(
            ["policy", "attempts", "fallbacks", "splits", "mem escal.",
             "wasted B", "makespan ms", "overhead", "labels ok"],
            rows,
            title="Ablation: shard-level fault recovery "
            f"(grid={GRID[0]}x{GRID[1]}, OOM@(0,0) + device-loss@(1,1))",
        )
    )
    payload = {
        "scale": BENCH_SCALE,
        "dataset": "SW1",
        "eps": EPS,
        "minpts": MINPTS,
        "n_points": len(pts_cache["pts"]),
        "n_devices": N_DEVICES,
        "grid": list(GRID),
        "fault_seed": FAULT_SEED,
        "faults": [
            {"tile": list(t), "kinds": [s.kind for s in specs]}
            for t, specs in FAULTS
        ],
        "clean_makespan_s": clean.makespan_s,
        "policies": results,
    }
    check_against_baseline(payload)
    save_json(BASELINE, payload)
