"""Ablation — the future-work hybrid kernel (Section VII-C).

The paper proposes combining the kernels so GPUCalcShared handles dense
regions and GPUCalcGlobal the remainder.  This bench compares all three
on both data regimes: on skewed SW data the adaptive kernel approaches
the global kernel (only the clumps get blocks); on uniform SDSS data it
collapses to the global path and avoids GPUCalcShared's blow-up.

HybridSelect runs its own dense/sparse rule (a cell is dense above a
quarter of the block size) at 64, 128 and 256 threads per block, i.e.
dense thresholds of 16, 32 and 64 points; global and shared run at 256.
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table, save_json
from repro.gpusim import Device, launch
from repro.index import GridIndex
from repro.kernels import GPUCalcGlobal, GPUCalcShared, HybridSelectKernel

from _bench_utils import BENCH_SCALE, bench_points, report


#: HybridSelect block sizes: at 64 threads (cells of more than 16
#: points are dense) SW1's receiver clumps take the shared path, and so
#: do a few SDSS1 cells (15 at scale 0.002, 23 at 0.005); at 256 no cell
#: of either dataset is dense, so HybridSelect runs GPUCalcGlobal's path
HYBRID_BLOCK_DIMS = (64, 128, 256)
KINDS = ("global", "shared", *(f"hybrid-select@{bd}" for bd in HYBRID_BLOCK_DIMS))


def _run(kind: str, grid: GridIndex) -> tuple[float, int]:
    device = Device()
    buf = device.allocate_result_buffer((600 * len(grid), 2), np.int64)
    if kind == "global":
        kernel, cfg = GPUCalcGlobal(), GPUCalcGlobal.launch_config(len(grid))
    elif kind == "shared":
        kernel, cfg = GPUCalcShared(), GPUCalcShared.launch_config(grid)
    else:
        block_dim = int(kind.rpartition("@")[2])
        kernel = HybridSelectKernel()
        cfg = kernel.launch_config(grid, block_dim=block_dim)
    res = launch(kernel, cfg, device, grid=grid, result=buf)
    return res.modeled_ms, res.n_gpu


def test_ablation_hybrid_kernel(benchmark):
    rows = []
    payload = []
    times: dict[tuple[str, str], float] = {}
    for name, eps in [("SW1", 0.5), ("SDSS1", 0.5)]:
        pts = bench_points(name)
        grid = GridIndex.build(pts, eps)
        for kind in KINDS:
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
        for kind in KINDS[2:]:
            # the adaptive kernel always beats pure shared...
            assert times[(name, kind)] < times[(name, "shared")], (name, kind)
            # ...and stays within a small factor of pure global
            assert times[(name, kind)] < 5 * times[(name, "global")], (name, kind)

    # on skewed SW data some clump cells really take the shared path
    from repro.kernels.hybrid_select import partition_cells

    grid = GridIndex.build(bench_points("SW1"), 0.5)
    dense, _ = partition_cells(grid, HYBRID_BLOCK_DIMS[0])
    assert len(dense) > 0

    benchmark.pedantic(lambda: _run(KINDS[2], grid), rounds=1, iterations=1)

    report(
        format_table(
            ["Dataset", "kernel", "modeled ms", "nGPU"],
            rows,
            title="Ablation: density-adaptive kernel selection "
            "(the paper's future-work hybrid)",
        )
    )
