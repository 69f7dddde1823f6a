"""Density-adaptive kernel selection — the paper's future-work direction.

Section VII-C closes: *"A potentially interesting future work direction
would be to combine the two approaches such that GPUCalcShared processes
the dense regions of a dataset and GPUCalcGlobal processes the
remainder."*  This kernel implements that combination:

* non-empty cells are split by occupancy against a threshold (default:
  a quarter of the block size, so a dense block's shared-memory tiles
  are well utilized);
* **dense** cells are processed block-per-cell with shared-memory tiling
  (the GPUCalcShared strategy — profitable exactly where many points
  share the same comparison tiles);
* points in **sparse** cells are processed one-thread-per-point through
  global memory (the GPUCalcGlobal strategy — no per-block overhead for
  nearly-empty cells).

Each point's ε-neighborhood is produced by exactly one side (points are
partitioned by their *own* cell's density; both sides still scan all ≤9
candidate cells), so the union equals either kernel's full result set.
Each side is charged as its kernel's device code counts: two passes,
one row reservation per point (:func:`charge_cell_blocks`,
:func:`charge_row_scans`).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import Kernel, LaunchConfig
from repro.gpusim.memory import ResultBuffer
from repro.index.grid import GridIndex
from repro.kernels.global_kernel import charge_row_scans
from repro.kernels.shared_kernel import (
    batch_members,
    cell_block_rows,
    charge_cell_blocks,
    write_rows,
)

__all__ = ["HybridSelectKernel", "partition_cells"]


def partition_cells(
    grid: GridIndex, dense_threshold: int, *, include_ties: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Split non-empty cells into (dense_cells, sparse_cells).

    ``include_ties`` decides where cells holding *exactly*
    ``dense_threshold`` points go: ``True`` (the default) sends them to
    the dense/shared side (``counts >= threshold``), ``False`` to the
    sparse/global side (``counts > threshold``).  The tie direction is
    a pure scheduling choice — either partition yields the identical
    result set — which is why it can be driven by a static occupancy
    hint (see :func:`repro.analysis.kernelcheck.ties_dense_hint`).
    """
    if dense_threshold < 1:
        raise ValueError("dense_threshold must be >= 1")
    cells = grid.nonempty_cells
    counts = grid.cell_max[cells] - grid.cell_min[cells] + 1
    dense = (
        counts >= dense_threshold if include_ties else counts > dense_threshold
    )
    return cells[dense], cells[~dense]


class HybridSelectKernel(Kernel):
    """GPUCalcShared on dense cells + GPUCalcGlobal on the remainder."""

    name = "HybridSelect"

    def __init__(
        self,
        dense_threshold: int | None = None,
        *,
        occupancy_hint: dict[int, bool] | None = None,
    ) -> None:
        #: cells with at least this many points go to the shared path;
        #: None derives block_dim // 4 at launch time
        self.dense_threshold = dense_threshold
        #: static-occupancy tie-break table (block_dim -> ties go dense),
        #: produced by ``repro.analysis.kernelcheck.ties_dense_hint``;
        #: None keeps the legacy ties-dense behaviour
        self.occupancy_hint = occupancy_hint

    @classmethod
    def with_static_hint(
        cls, dense_threshold: int | None = None, *, spec: DeviceSpec | None = None
    ) -> "HybridSelectKernel":
        """Construct with the tie-break driven by the static cost model:
        per block size, ties go dense only when the shared path's
        predicted cost on a threshold-marginal workload is at most the
        global path's (occupancy *and* barrier/block overheads, not
        occupancy alone — see
        :func:`repro.analysis.tuner.cost_tie_break_hint`)."""
        from repro.analysis.tuner import cost_tie_break_hint

        return cls(dense_threshold, occupancy_hint=cost_tie_break_hint(spec=spec))

    def _ties_dense(self, block_dim: int) -> bool:
        """Whether threshold-exact cells take the shared path at this
        block size (the static-occupancy tie-break)."""
        if self.occupancy_hint is None:
            return True
        return bool(self.occupancy_hint.get(block_dim, True))

    def shared_mem_per_block(self, block_dim: int) -> int:
        """Worst-case footprint: the dense path's tiles (as in
        GPUCalcShared); sparse blocks use none, but residency is set by
        the static allocation."""
        return 48 * block_dim + 80

    # ------------------------------------------------------------------
    def launch_config(self, grid: GridIndex, *, block_dim: int = 256) -> LaunchConfig:
        """Blocks for the dense cells plus blocks covering sparse points."""
        thr = self.dense_threshold or max(1, block_dim // 4)
        dense_cells, sparse_cells = partition_cells(
            grid, thr, include_ties=self._ties_dense(block_dim)
        )
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
        thr = self.dense_threshold or max(1, bs // 4)
        dense_cells, sparse_cells = partition_cells(
            grid, thr, include_ties=self._ties_dense(bs)
        )
        member = batch_members(len(grid), batch, n_batches)
        # ---- shared-memory side: block per dense cell -----------------
        charge_cell_blocks(counters, grid, dense_cells, member, bs)
        rows = cell_block_rows(grid, dense_cells, member)

        # ---- global-memory side: thread per sparse-cell point ---------
        if len(sparse_cells):
            sp_ids = np.concatenate(
                [grid.cell_point_ids(int(h)) for h in sparse_cells]
            )
            sp_ids = sp_ids[member[sp_ids]]
            if len(sp_ids):
                pairs = grid.neighbor_pairs(sp_ids)
                charge_row_scans(counters, len(sp_ids), pairs)
                rows.extend(
                    np.column_stack(kv)
                    for kv in zip(pairs.keys, pairs.values, strict=True)
                )
        return write_rows(counters, result, rows, int(member.sum()))
