"""GPUCalcShared — Algorithm 3 of the paper.

One thread **block** processes one non-empty grid cell (the *origin*
cell): the block pages the origin cell's points and each adjacent
(*comparison*) cell's points into shared memory tile-by-tile, with a
block barrier between the paging and the distance phase, then each thread
compares one origin point against the whole comparison tile.  The block
pages every comparison tile twice: the first pass counts each origin
point's hits, one atomic per thread reserves the point's whole row in
the result set, and the second pass writes the hits into it.  Rows are
thus contiguous and the result set needs no device sort by key.

The schedule ``S`` maps block id → cell id (only non-empty cells get
blocks), so the launch has ``n_nonempty_cells × block_dim`` threads —
the paper's much larger ``nGPU`` for this kernel.  When a cell holds more
points than the block size, the extra tiling loop the paper describes
(Section IV-B) kicks in.

The vector backend charges each block as its device code counts
(:func:`charge_cell_blocks`) and takes the blocks' rows from
:meth:`~repro.index.grid.GridIndex.neighbor_pairs`, the one
ε-enumeration every vector backend shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.kernelapi import Barrier, KernelContext
from repro.gpusim.launch import Kernel, LaunchConfig
from repro.gpusim.memory import ResultBuffer
from repro.index.grid import GridIndex
from repro.kernels.global_kernel import batch_point_ids, store_rows

__all__ = ["GPUCalcShared", "charge_cell_blocks"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.absint import KernelInvariants
    from repro.analysis.costmodel import CostContract


def charge_cell_blocks(
    counters: KernelCounters, grid: GridIndex, member: np.ndarray, block_dim: int
) -> None:
    """Charge one GPUCalcShared block per non-empty cell as its device
    code counts, the batch's origin points being ``member``.

    A block loads its batch's origin points once.  Each origin tile then
    pages every comparison tile in both passes (the counting pass and
    the writing pass), each paging between two barriers that every
    thread of the block crosses, and each origin point is compared with
    every comparison point in both passes.  Result rows are charged
    apart (:func:`~repro.kernels.global_kernel.store_rows`).
    """
    bs = block_dim
    cells = grid.nonempty_cells
    lo = grid.cell_min[cells].astype(np.int64)
    hi = grid.cell_max[cells].astype(np.int64)
    # batch members per cell from a running count over A's cell ranges
    running = np.zeros(len(grid) + 1, dtype=np.int64)
    np.cumsum(member[grid.lookup], out=running[1:])
    origin = running[hi + 1] - running[lo]
    origin_tiles = (hi - lo + bs) // bs
    comp = np.zeros(len(cells), dtype=np.int64)
    comp_tiles = np.zeros(len(cells), dtype=np.int64)
    cy, cx = np.divmod(cells, grid.nx)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            x, y = cx + dx, cy + dy
            inside = (x >= 0) & (x < grid.nx) & (y >= 0) & (y < grid.ny)
            h = np.where(inside, y * grid.nx + x, 0)
            c_lo = grid.cell_min[h]
            size = np.where(inside & (c_lo >= 0), grid.cell_max[h] - c_lo + 1, 0)
            comp += size
            comp_tiles += (size + bs - 1) // bs
    paged = int(np.sum(origin_tiles * comp))  # per pass
    compared = int(np.sum(origin * comp))  # per pass
    n_origin = int(origin.sum())
    counters.global_loads += 3 * (n_origin + 2 * paged)
    counters.shared_stores += 2 * (n_origin + 2 * paged)
    counters.syncs += bs * int(np.sum(1 + 4 * origin_tiles * comp_tiles))
    counters.distance_calcs += 2 * compared
    counters.shared_loads += 4 * compared


class GPUCalcShared(Kernel):
    """Algorithm 3: block-per-cell ε-neighborhoods via shared memory."""

    name = "GPUCalcShared"
    #: KC006 live-range estimate (repro analyze kernels)
    registers_per_thread = 23

    def shared_mem_per_block(self, block_dim: int) -> int:
        """Origin + comparison point tiles (xy f64) and their id arrays,
        plus the 9-entry neighbor-cell list — lowers SM occupancy."""
        return 48 * block_dim + 80

    def value_invariants(self) -> "KernelInvariants":
        from repro.analysis.absint import KernelInvariants, RowRange

        return KernelInvariants(
            lengths={
                "D": "n",
                "A": "n",
                "G_min": "nx*ny",
                "G_max": "nx*ny",
                "S": "n_sched",
                "point_mask": "n",
            },
            scalars={
                "n": (1, None),
                "nx": (1, None),
                "ny": (1, None),
                "n_sched": (1, "nx*ny"),
                "n_batches": (1, None),
                "batch": (0, "n_batches-1"),
            },
            elements={"A": (0, "n-1"), "S": (0, "nx*ny-1")},
            # scheduled cells are non-empty: G_min[c] <= G_max[c]
            rows=(RowRange("G_min", "G_max", "A", empty=False),),
        )

    def cost_contract(self) -> "CostContract":
        from repro.analysis.costmodel import CostContract

        return CostContract(
            # two passes of two barriers per comparison tile
            counter_bounds={"syncs": "36*n*n + 1"},
            # one block per scheduled cell: the tile loops usually run
            # once (cells hold far fewer points than a block), and the
            # per-thread share of the all-pairs sweep amortizes the
            # origin-guard idle lanes across the block
            trip_estimates={
                "o_tile": "(r_cell + bdim - 1) // bdim",
                "c_tile": "(r_cell + bdim - 1) // bdim",
                "j": "r_cell * r_cell / max(1, bdim)",
            },
            stats={"r_cell": "mean points per non-empty grid cell"},
        )

    # ------------------------------------------------------------------
    # interpreter device code (has barriers → generator function)
    # ------------------------------------------------------------------
    def device_code(
        self,
        ctx: KernelContext,
        *,
        D: np.ndarray,
        A: np.ndarray,
        G_min: np.ndarray,
        G_max: np.ndarray,
        eps: float,
        nx: int,
        ny: int,
        S: np.ndarray,
        result: ResultBuffer,
        batch: int = 0,
        n_batches: int = 1,
        point_mask: Optional[np.ndarray] = None,
    ) -> Iterator[Barrier]:
        if ctx.block_idx >= len(S):
            return
        cell_to_proc = int(S[ctx.block_idx])
        bs = ctx.block_dim
        tid = ctx.thread_idx
        eps2 = eps * eps

        cell_ids = ctx.shared("cellIDsArr", (9,), np.int64)
        n_cells = ctx.shared("nCells", (1,), np.int64)
        pnts_origin = ctx.shared("pntsOriginCell", (bs, 2), np.float64)
        origin_pid = ctx.shared("originPid", (bs,), np.int64)
        pnts_comp = ctx.shared("pntsCompCell", (bs, 2), np.float64)
        comp_pid = ctx.shared("compPid", (bs,), np.int64)

        if tid == 0:
            cx, cy = cell_to_proc % nx, cell_to_proc // nx
            k = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    xx, yy = cx + dx, cy + dy
                    if 0 <= xx < nx and 0 <= yy < ny:
                        h = yy * nx + xx
                        if G_min[h] >= 0:
                            cell_ids[k] = h
                            k += 1
            n_cells[0] = k
        yield ctx.syncthreads()

        o_lo, o_hi = G_min[cell_to_proc], G_max[cell_to_proc]
        n_origin = o_hi - o_lo + 1
        # outer tiling loop over the origin cell (paper: "an additional
        # loop is needed" when a cell exceeds the block size)
        for o_tile in range(0, int(n_origin), bs):
            my_o = o_tile + tid
            has_origin = my_o < n_origin
            if has_origin:
                data_id = A[o_lo + my_o]
                # batching: only origin points of this batch emit results;
                # a recovery sub-unit narrows the batch via point_mask
                if point_mask is not None:
                    in_batch = bool(point_mask[data_id])
                else:
                    in_batch = data_id % n_batches == batch
                if not in_batch:
                    has_origin = False
                else:
                    pnts_origin[tid] = D[data_id]
                    origin_pid[tid] = data_id
                    ctx.count_global_load(3)
                    ctx.count_shared_store(2)
            if not has_origin:
                origin_pid[tid] = -1
            # pass 0 counts each origin point's hits, so one atomic
            # reserves its whole row; pass 1 pages the same tiles again
            # and writes the hits into the row
            n_hit = 0
            at = 0
            for scan in (0, 1):
                if scan == 1 and origin_pid[tid] >= 0:
                    at = ctx.result_reserve(result, n_hit)
                for ci in range(int(n_cells[0])):
                    cell_id = int(cell_ids[ci])
                    c_lo, c_hi = G_min[cell_id], G_max[cell_id]
                    n_comp = c_hi - c_lo + 1
                    for c_tile in range(0, int(n_comp), bs):
                        my_c = c_tile + tid
                        if my_c < n_comp:
                            comp_data_id = A[c_lo + my_c]
                            pnts_comp[tid] = D[comp_data_id]
                            comp_pid[tid] = comp_data_id
                            ctx.count_global_load(3)
                            ctx.count_shared_store(2)
                        else:
                            comp_pid[tid] = -1
                        yield ctx.syncthreads()
                        if origin_pid[tid] >= 0:
                            px, py = pnts_origin[tid]
                            tile_n = min(bs, int(n_comp) - c_tile)
                            for j in range(tile_n):
                                qx, qy = pnts_comp[j]
                                ctx.count_shared_load(2)
                                ctx.count_distance()
                                d2 = (px - qx) * (px - qx) + (py - qy) * (py - qy)
                                if d2 <= eps2:
                                    if scan == 0:
                                        n_hit += 1
                                    else:
                                        ctx.result_store(
                                            result, at, (origin_pid[tid], comp_pid[j])
                                        )
                                        at += 1
                        yield ctx.syncthreads()

    # ------------------------------------------------------------------
    # vector backend
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
        batch_order: str = "strided",
        point_mask: Optional[np.ndarray] = None,
    ) -> int:
        """Block-per-cell evaluation: the blocks' rows in schedule order;
        returns the pairs written.  ``point_mask`` narrows the batch to a
        subset of origin points (the overflow-recovery split path).
        """
        cells = grid.nonempty_cells
        if config.grid_dim < len(cells):
            raise ValueError(
                f"launch too small: {config.grid_dim} blocks for "
                f"{len(cells)} non-empty cells"
            )
        if point_mask is not None:
            member = np.asarray(point_mask, dtype=bool)
        else:
            member = np.zeros(len(grid), dtype=bool)
            member[batch_point_ids(len(grid), batch, n_batches, batch_order)] = True
        charge_cell_blocks(counters, grid, member, config.block_dim)
        # the blocks cover every non-empty cell, so their origin points
        # are the batch's points in A order; neighbor_pairs walks each
        # point's 3 row ranges of A in ascending row and A order, the
        # order in which a block pages its comparison cells, so its hits
        # are the blocks' rows record for record
        a = grid.lookup
        ids = a[member[a]]
        return store_rows(counters, result, len(ids), grid.neighbor_pairs(ids))

    # ------------------------------------------------------------------
    @staticmethod
    def launch_config(grid: GridIndex, *, block_dim: int = 256) -> LaunchConfig:
        """One block per non-empty cell (the schedule ``S``)."""
        return LaunchConfig(
            grid_dim=max(1, len(grid.nonempty_cells)), block_dim=block_dim
        )

    @staticmethod
    def schedule(grid: GridIndex) -> np.ndarray:
        """The schedule ``S``: block id → non-empty cell id."""
        return grid.nonempty_cells.copy()
