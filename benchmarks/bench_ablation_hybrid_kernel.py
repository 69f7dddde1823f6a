"""Ablation — the future-work hybrid kernel (Section VII-C).

The paper proposes combining the kernels so GPUCalcShared handles dense
regions and GPUCalcGlobal the remainder.  This bench compares all three
on both data regimes: on skewed SW data the adaptive kernel approaches
the global kernel (only the clumps get blocks); on uniform SDSS data it
collapses to the global path and avoids GPUCalcShared's blow-up.
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table, save_json
from repro.gpusim import Device, launch
from repro.index import GridIndex
from repro.kernels import GPUCalcGlobal, GPUCalcShared, HybridSelectKernel

from _bench_utils import BENCH_SCALE, bench_points, report


def _run(kind: str, grid: GridIndex) -> tuple[float, int]:
    device = Device()
    buf = device.allocate_result_buffer((600 * len(grid), 2), np.int64)
    if kind == "global":
        kernel, cfg = GPUCalcGlobal(), GPUCalcGlobal.launch_config(len(grid))
    elif kind == "shared":
        kernel, cfg = GPUCalcShared(), GPUCalcShared.launch_config(grid)
    else:
        # threshold 16: SW receiver clumps qualify as dense, the
        # uniform background and SDSS field stay on the global path
        kernel = HybridSelectKernel(dense_threshold=16)
        cfg = kernel.launch_config(grid)
    res = launch(kernel, cfg, device, grid=grid, result=buf)
    return res.modeled_ms, res.n_gpu


def test_ablation_hybrid_kernel(benchmark):
    rows = []
    payload = []
    times: dict[tuple[str, str], float] = {}
    for name, eps in [("SW1", 0.5), ("SDSS1", 0.5)]:
        pts = bench_points(name)
        grid = GridIndex.build(pts, eps)
        for kind in ("global", "shared", "hybrid-select"):
            ms, ngpu = _run(kind, grid)
            times[(name, kind)] = ms
            rows.append([name, kind, round(ms, 3), ngpu])
            payload.append(
                {"dataset": name, "kernel": kind, "modeled_ms": ms, "ngpu": ngpu}
            )

    # recorded before the checks, so a run that fails them still leaves
    # its numbers for EXPERIMENTS.md
    save_json("ablation_hybrid_kernel", {"scale": BENCH_SCALE, "rows": payload})
    for name in ("SW1", "SDSS1"):
        # the adaptive kernel always beats pure shared...
        assert times[(name, "hybrid-select")] < times[(name, "shared")], name
        # ...and stays within a small factor of pure global
        assert times[(name, "hybrid-select")] < 5 * times[(name, "global")], name

    # on skewed SW data some clump cells really take the shared path
    from repro.kernels.hybrid_select import partition_cells

    grid_sw = GridIndex.build(bench_points("SW1"), 0.5)
    dense, _ = partition_cells(grid_sw, 16)
    assert len(dense) > 0

    grid = GridIndex.build(bench_points("SW1"), 0.5)
    benchmark.pedantic(lambda: _run("hybrid-select", grid), rounds=1, iterations=1)

    report(
        format_table(
            ["Dataset", "kernel", "modeled ms", "nGPU"],
            rows,
            title="Ablation: density-adaptive kernel selection "
            "(the paper's future-work hybrid)",
        )
    )
