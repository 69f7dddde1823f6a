"""Kernel-test helpers: truth sets and launch plumbing."""

from __future__ import annotations

import numpy as np

from repro._nputil import run_boundaries
from repro.core.batching import result_layout
from repro.gpusim import Device, launch
from repro.index import BruteForceIndex, GridIndex
from repro.kernels import GPUCalcGlobal, GPUCalcShared


def truth_pairs(grid: GridIndex) -> set[tuple[int, int]]:
    """Ground-truth (key, value) ε-pairs in the grid's sorted id space."""
    bf = BruteForceIndex(grid.points)
    k, v = bf.all_pairs(grid.eps)
    return set(zip(k.tolist(), v.tolist(), strict=True))


def run_global(
    device: Device,
    grid: GridIndex,
    *,
    backend: str = "vector",
    batch: int = 0,
    n_batches: int = 1,
    capacity: int | None = None,
    block_dim: int = 256,
    batch_order: str = "strided",
    emit_distance: bool = False,
    point_mask=None,
):
    """Launch GPUCalcGlobal into a result buffer laid out as a build's;
    returns (records set, LaunchResult, buffer).  ``point_mask`` narrows
    the batch to a recovery sub-unit."""
    result = result_buffer(device, grid, capacity, emit_distance)
    cfg = GPUCalcGlobal.launch_config(
        len(grid), n_batches=n_batches, block_dim=block_dim
    )
    if backend == "vector":
        res = launch(
            GPUCalcGlobal(), cfg, device, grid=grid, result=result,
            batch=batch, n_batches=n_batches, batch_order=batch_order,
            emit_distance=emit_distance, point_mask=point_mask,
        )
    else:
        ga = grid.device_arrays()
        res = launch(
            GPUCalcGlobal(), cfg, device, backend="interpreter",
            D=ga["D"], A=ga["A"], G_min=ga["G_min"], G_max=ga["G_max"],
            eps=grid.eps, xmin=grid.xmin, ymin=grid.ymin,
            nx=grid.nx, ny=grid.ny, result=result,
            batch=batch, n_batches=n_batches, emit_distance=emit_distance,
            point_mask=point_mask,
        )
    pairs = set(map(tuple, result.view().tolist()))
    return pairs, res, result


def run_shared(
    device: Device,
    grid: GridIndex,
    *,
    backend: str = "vector",
    batch: int = 0,
    n_batches: int = 1,
    capacity: int | None = None,
    block_dim: int = 256,
):
    """Launch GPUCalcShared into a result buffer laid out as a build's;
    returns (pairs set, LaunchResult, buffer)."""
    result = result_buffer(device, grid, capacity)
    cfg = GPUCalcShared.launch_config(grid, block_dim=block_dim)
    if backend == "vector":
        res = launch(
            GPUCalcShared(), cfg, device, grid=grid, result=result,
            batch=batch, n_batches=n_batches,
        )
    else:
        ga = grid.device_arrays()
        res = launch(
            GPUCalcShared(), cfg, device, backend="interpreter",
            D=ga["D"], A=ga["A"], G_min=ga["G_min"], G_max=ga["G_max"],
            eps=grid.eps, nx=grid.nx, ny=grid.ny,
            S=GPUCalcShared.schedule(grid), result=result,
            batch=batch, n_batches=n_batches,
        )
    pairs = set(map(tuple, result.view().tolist()))
    return pairs, res, result


def result_buffer(device: Device, grid: GridIndex, capacity, emit_distance=False):
    """A result buffer of the width and dtype a table build over ``grid``
    allocates (int32 pairs, or float64 annotated rows)."""
    width, dtype = result_layout(len(grid), emit_distance)
    cap = capacity or max(64, 512 * len(grid))
    return device.allocate_result_buffer((cap, width), dtype, name="R")


def assert_rows_contiguous(buf) -> None:
    """Every key's records in ``buf`` form one run: rows were reserved
    whole, so no batch needs a sort by key."""
    run_keys, _, _ = run_boundaries(buf.view()[:, 0])
    assert len(np.unique(run_keys)) == len(run_keys)
