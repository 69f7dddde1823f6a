"""GPUCalcGlobal — Algorithm 2 of the paper.

One thread computes the ε-neighborhood of one point: it derives the ≤9
candidate cells from the grid index and scans their lookup-array ranges
twice.  The first scan counts the point's hits, one atomic reserves its
whole row in the device result set, and the second scan writes each
``(key=point, value=neighbor)`` hit into that row.  Every row is thus
contiguous, so the result set needs no device sort by key (a deviation
from Algorithm 4, which appends each hit and sorts afterwards).

The batching extension (Section VI) maps thread ``gid`` of batch ``l`` to
point ``gid * n_b + l``; because the index stores points in spatial
(unit-bin sorted) order, this strided assignment samples the dataset
uniformly in space, keeping per-batch result sizes nearly equal.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.kernelapi import KernelContext
from repro.gpusim.launch import Kernel, LaunchConfig
from repro.gpusim.memory import ResultBuffer
from repro.index.grid import GridIndex, NeighborPairs

__all__ = ["GPUCalcGlobal", "batch_point_ids", "store_rows"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.absint import KernelInvariants
    from repro.analysis.costmodel import CostContract


def batch_point_ids(
    n_points: int, batch: int, n_batches: int, order: str = "strided"
) -> np.ndarray:
    """Point ids processed by batch ``batch`` of ``n_batches`` (Figure 2).

    With the paper's ``strided`` order, thread ``gid`` handles point
    ``gid * n_batches + batch``, so adjacent (spatially sorted) points
    land in different batches and every batch samples the dataset
    uniformly in space.  The ``contiguous`` order (each batch takes a
    consecutive slab) exists for the ablation bench — it concentrates
    dense regions into single batches and destroys the per-batch result
    size uniformity the scheme relies on.
    """
    if not 0 <= batch < n_batches:
        raise ValueError(f"batch {batch} out of range for n_batches={n_batches}")
    if order == "strided":
        return np.arange(batch, n_points, n_batches, dtype=np.int64)
    if order == "contiguous":
        chunk = (n_points + n_batches - 1) // n_batches
        return np.arange(
            batch * chunk, min(n_points, (batch + 1) * chunk), dtype=np.int64
        )
    raise ValueError(f"unknown batch order {order!r}")


def store_rows(
    counters: KernelCounters, result: ResultBuffer, n_rows: int, pairs: NeighborPairs
) -> int:
    """Write the hits of ``pairs`` into ``result`` as ``n_rows`` whole
    rows and charge one reservation per row; returns the records written.

    One reservation covers the whole launch, so an overflow raises
    before any hit is written; each block of hits then lands in place,
    with its distances when they were asked for.
    """
    counters.count_appends(result, pairs.n_hits, rows=n_rows)
    if pairs.n_hits:
        at = result.reserve(pairs.n_hits)
        for b, keys in enumerate(pairs.keys):
            rows = result.data[at : at + len(keys)]
            rows[:, 0] = keys
            rows[:, 1] = pairs.values[b]
            if pairs.d2:
                np.sqrt(pairs.d2[b], out=rows[:, 2])
            at += len(keys)
    return pairs.n_hits


class GPUCalcGlobal(Kernel):
    """Algorithm 2: per-point ε-neighborhood via global memory."""

    name = "GPUCalcGlobal"
    #: KC006 live-range estimate (repro analyze kernels)
    registers_per_thread = 19

    def value_invariants(self) -> "KernelInvariants":
        from repro.analysis.absint import KernelInvariants, RowRange

        return KernelInvariants(
            lengths={
                "D": "n",
                "A": "n",
                "G_min": "nx*ny",
                "G_max": "nx*ny",
                "point_mask": "n",
            },
            scalars={
                "n": (1, None),
                "nx": (1, None),
                "ny": (1, None),
                "n_batches": (1, None),
                "batch": (0, "n_batches-1"),
            },
            elements={"A": (0, "n-1")},
            rows=(RowRange("G_min", "G_max", "A"),),
        )

    def cost_contract(self) -> "CostContract":
        from repro.analysis.costmodel import CostContract

        return CostContract(
            # one row reservation per thread
            counter_bounds={"divergent_threads": "2", "atomics": "1"},
            trip_estimates={"a": "r_cell"},
            stats={"r_cell": "mean points per non-empty grid cell"},
        )

    # ------------------------------------------------------------------
    # interpreter device code (barrier-free → plain function)
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
        xmin: float,
        ymin: float,
        nx: int,
        ny: int,
        result: ResultBuffer,
        batch: int = 0,
        n_batches: int = 1,
        emit_distance: bool = False,
        point_mask: Optional[np.ndarray] = None,
    ) -> None:
        gid = ctx.global_id
        pid = gid * n_batches + batch
        n_points = len(D)
        if pid >= n_points:
            ctx.count_divergent()
            return
        # recovery sub-units narrow a batch to a masked subset of its points
        if point_mask is not None and not point_mask[pid]:
            ctx.count_divergent()
            return
        px, py = D[pid]
        ctx.count_global_load(2)
        eps2 = eps * eps
        cx = min(int((px - xmin) / eps), nx - 1)
        cy = min(int((py - ymin) / eps), ny - 1)
        # scan 1 counts the hits, so one atomic reserves the whole row
        n_hit = 0
        for dy in (-1, 0, 1):
            yy = cy + dy
            if yy < 0 or yy >= ny:
                continue
            for dx in (-1, 0, 1):
                xx = cx + dx
                if xx < 0 or xx >= nx:
                    continue
                h = yy * nx + xx
                lo = G_min[h]
                ctx.count_global_load(2)  # G[h].min / .max
                if lo < 0:
                    continue
                hi = G_max[h]
                for a in range(lo, hi + 1):
                    cand = A[a]
                    qx, qy = D[cand]
                    ctx.count_global_load(3)  # A[a] + 2 coords
                    ctx.count_distance()
                    d2 = (px - qx) * (px - qx) + (py - qy) * (py - qy)
                    if d2 <= eps2:
                        n_hit += 1
        at = ctx.result_reserve(result, n_hit)
        # scan 2 repeats scan 1 and writes each hit into the row
        for dy in (-1, 0, 1):
            yy = cy + dy
            if yy < 0 or yy >= ny:
                continue
            for dx in (-1, 0, 1):
                xx = cx + dx
                if xx < 0 or xx >= nx:
                    continue
                h = yy * nx + xx
                lo = G_min[h]
                ctx.count_global_load(2)
                if lo < 0:
                    continue
                hi = G_max[h]
                for a in range(lo, hi + 1):
                    cand = A[a]
                    qx, qy = D[cand]
                    ctx.count_global_load(3)
                    ctx.count_distance()
                    d2 = (px - qx) * (px - qx) + (py - qy) * (py - qy)
                    if d2 <= eps2:
                        if emit_distance:
                            ctx.result_store(result, at, (pid, cand, math.sqrt(d2)))
                        else:
                            ctx.result_store(result, at, (pid, cand))
                        at += 1

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
        emit_distance: bool = False,
        point_mask: Optional[np.ndarray] = None,
    ) -> int:
        """Whole-batch NumPy evaluation; returns the number of pairs
        written to ``result``, rows in the order of the batch's points.

        With ``emit_distance`` the result rows are ``(key, value,
        dist)`` in a float64 buffer — the annotated-table extension
        that enables multi-ε reuse and OPTICS.  ``point_mask`` (a bool
        array over all points) narrows the batch to a subset — the
        overflow-recovery path re-runs a failed batch as split halves.
        """
        if point_mask is not None:
            ids = np.flatnonzero(point_mask).astype(np.int64)
        else:
            ids = batch_point_ids(len(grid), batch, n_batches, batch_order)
        if config.total_threads < len(ids):
            raise ValueError(
                f"launch too small: {config.total_threads} threads for "
                f"{len(ids)} batch points"
            )
        counters.divergent_threads += config.total_threads - len(ids)
        if len(ids) == 0:
            return 0

        pairs = grid.neighbor_pairs(ids, distances=emit_distance)
        # each thread loads its own coordinates once; each of its two
        # scans reads the range of every in-grid neighbor cell (the
        # device code bounds-checks before touching G) and A[a] plus the
        # coordinates of every candidate, and evaluates its distance
        counters.global_loads += 2 * (len(ids) + 2 * pairs.n_cells + 3 * pairs.n_candidates)
        counters.distance_calcs += 2 * pairs.n_candidates
        # every point hits itself: one row per point
        return store_rows(counters, result, len(ids), pairs)

    # ------------------------------------------------------------------
    @staticmethod
    def launch_config(
        n_points: int, *, n_batches: int = 1, block_dim: int = 256
    ) -> LaunchConfig:
        """One thread per point of the batch, whole blocks."""
        per_batch = (n_points + n_batches - 1) // n_batches
        return LaunchConfig.for_elements(per_batch, block_dim)
