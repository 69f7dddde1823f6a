"""Ablation — the overestimation factor α (Section VI).

The paper sets α = 0.05 and doubles it for small result sets: α trades
pinned-memory over-allocation (and more batches) against buffer-overflow
risk.  This bench sweeps α and reports batch counts, modeled pinned
allocation cost, and how many per-batch recovery actions fired.
"""

from __future__ import annotations

import mmap

import pytest

from repro.bench import format_table, save_json
from repro.core import BatchConfig
from repro.core.batching import build_neighbor_table, result_layout
from repro.gpusim import Device
from repro.index import GridIndex

from _bench_utils import BENCH_SCALE, bench_points, report

ALPHAS = [0.0, 0.05, 0.2, 0.5]


def test_ablation_alpha(benchmark):
    pts = bench_points("SW1")
    rows = []
    payload = []
    for alpha in ALPHAS:
        device = Device()
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(
            alpha=alpha, static_threshold=1,
            static_buffer_size=max(2048, len(pts) * 12),
        )
        table, stats = build_neighbor_table(grid, device, config=cfg)
        table.validate()
        pinned_ms = device.profiler.pinned_alloc_ms
        # a fresh pool's first build maps every worker's b_b pairs in
        # whole pages: the cold over-allocation α trades, which staging
        # another build already mapped would hide
        n_workers = min(cfg.n_streams, stats.plan.n_batches)
        width, dtype = result_layout(len(grid))
        staged = stats.plan.buffer_size * width * dtype.itemsize
        paged = -(-staged // mmap.PAGESIZE) * mmap.PAGESIZE
        assert pinned_ms == pytest.approx(
            n_workers * device.cost.pinned_alloc_time_ms(paged), rel=1e-12
        )
        rows.append(
            [
                alpha,
                stats.plan.n_batches,
                stats.n_batches_run,
                stats.recovery.recoveries,
                round(pinned_ms, 3),
                max(stats.batch_sizes),
                stats.plan.buffer_size,
            ]
        )
        payload.append(
            {
                "alpha": alpha,
                "planned_batches": stats.plan.n_batches,
                "run_batches": stats.n_batches_run,
                "recoveries": stats.recovery.recoveries,
                "pinned_alloc_ms": pinned_ms,
                "max_batch": max(stats.batch_sizes),
                "buffer": stats.plan.buffer_size,
            }
        )
        # with the strided assignment no batch may overflow its buffer
        assert max(stats.batch_sizes) <= stats.plan.buffer_size

    # larger α can only increase (or keep) the number of batches
    planned = [r[1] for r in rows]
    assert planned == sorted(planned)

    device = Device()
    grid = GridIndex.build(pts, 0.5)
    benchmark.pedantic(
        lambda: build_neighbor_table(
            grid, device, config=BatchConfig(alpha=0.05)
        ),
        rounds=1,
        iterations=1,
    )

    report(
        format_table(
            ["alpha", "planned n_b", "run n_b", "recoveries", "pinned ms",
             "max |R_l|", "b_b"],
            rows,
            title="Ablation: overestimation factor alpha (paper uses 0.05)",
        )
    )
    save_json("ablation_alpha", {"scale": BENCH_SCALE, "rows": payload})
