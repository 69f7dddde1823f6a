"""Density-adaptive kernel selection — the paper's future-work direction.

Section VII-C closes: *"A potentially interesting future work direction
would be to combine the two approaches such that GPUCalcShared processes
the dense regions of a dataset and GPUCalcGlobal processes the
remainder."*  This kernel implements that combination:

* a non-empty cell is **dense** when it holds more than a quarter of
  the block size in points (:func:`partition_cells`), so more than a
  quarter of a dense block's threads hold an origin point; a cell of
  exactly a quarter goes sparse;
* **dense** cells are processed block-per-cell with shared-memory tiling
  (the GPUCalcShared strategy — profitable exactly where many points
  share the same comparison tiles);
* points in **sparse** cells are processed one-thread-per-point through
  global memory (the GPUCalcGlobal strategy — no per-block overhead for
  nearly-empty cells).

Each point's ε-neighborhood is produced by exactly one side (points are
partitioned by their *own* cell's density; both sides still scan all ≤9
candidate cells), so the union equals either kernel's full result set.
Both sides enumerate through
:meth:`~repro.index.grid.GridIndex.neighbor_pairs`, so only the work
assignment differs, and each side is charged as its kernel's device
code counts: two passes, one row reservation per point
(:func:`charge_cell_blocks`, :func:`charge_row_scans`).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.launch import Kernel, LaunchConfig
from repro.gpusim.memory import ResultBuffer
from repro.index.grid import GridIndex
from repro.kernels.global_kernel import charge_row_scans, store_rows
from repro.kernels.shared_kernel import batch_members, cell_members, charge_cell_blocks

__all__ = ["HybridSelectKernel", "partition_cells"]


def partition_cells(grid: GridIndex, block_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the non-empty cells into ``(dense, sparse)`` for blocks of
    ``block_dim`` threads: a cell is dense when it holds more than
    ``block_dim // 4`` points.  Below 4 threads every cell is dense."""
    cells = grid.nonempty_cells
    dense = grid.cell_max[cells] - grid.cell_min[cells] + 1 > block_dim // 4
    return cells[dense], cells[~dense]


class HybridSelectKernel(Kernel):
    """GPUCalcShared on dense cells + GPUCalcGlobal on the remainder."""

    name = "HybridSelect"

    def shared_mem_per_block(self, block_dim: int) -> int:
        """Worst-case footprint: the dense path's tiles (as in
        GPUCalcShared); sparse blocks use none, but residency is set by
        the static allocation."""
        return 48 * block_dim + 80

    # ------------------------------------------------------------------
    @staticmethod
    def launch_config(grid: GridIndex, *, block_dim: int = 256) -> LaunchConfig:
        """Blocks for the dense cells plus blocks covering sparse points."""
        dense_cells, sparse_cells = partition_cells(grid, block_dim)
        n_sparse_pts = int(
            (grid.cell_max[sparse_cells] - grid.cell_min[sparse_cells] + 1).sum()
        )
        sparse_blocks = (n_sparse_pts + block_dim - 1) // block_dim
        return LaunchConfig(
            grid_dim=max(1, len(dense_cells) + sparse_blocks),
            block_dim=block_dim,
        )

    # ------------------------------------------------------------------
    def vector_impl(
        self,
        config: LaunchConfig,
        counters: KernelCounters,
        *,
        grid: GridIndex,
        result: ResultBuffer,
        batch: int = 0,
        n_batches: int = 1,
    ) -> int:
        bs = config.block_dim
        need = self.launch_config(grid, block_dim=bs).grid_dim
        if config.grid_dim < need:
            raise ValueError(
                f"launch too small: {config.grid_dim} blocks for {need} "
                f"blocks of dense cells and sparse points"
            )
        dense_cells, sparse_cells = partition_cells(grid, bs)
        member = batch_members(len(grid), batch, n_batches)
        # ---- shared-memory side: block per dense cell -----------------
        charge_cell_blocks(counters, grid, dense_cells, member, bs)
        dense = grid.neighbor_pairs(cell_members(grid, dense_cells, member))
        # ---- global-memory side: thread per sparse-cell point ---------
        sparse_ids = cell_members(grid, sparse_cells, member)
        sparse = grid.neighbor_pairs(sparse_ids)
        charge_row_scans(counters, len(sparse_ids), sparse)
        return store_rows(counters, result, int(member.sum()), dense, sparse)
