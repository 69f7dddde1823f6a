"""The grid index of Section IV (Figure 1).

Construction follows the paper exactly:

1. points are first **binned in unit-width x/y bins and sorted** so that
   spatially close points are close in memory (this also makes a strided
   sample of point ids a spatially uniform sample — the property the
   batching scheme of Section VI relies on);
2. a grid of ε×ε cells covers the data extent; each cell ``C_h`` (linear
   id ``h``) stores a range ``[A_min_h, A_max_h]`` into the **lookup
   array** ``A``;
3. ``A`` holds point ids grouped by cell, so ``|A| = |D|`` — no per-cell
   over-allocation.

Because the cells have side ε, the ε-neighborhood of a point is contained
in its own cell plus the 8 adjacent cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._nputil import expand_ranges, run_boundaries
from repro.index.base import as_points

__all__ = ["GridIndex", "GridStats"]

#: refuse to build grids with more cells than this (degenerate ε)
DEFAULT_MAX_CELLS = 200_000_000

_NEIGHBOR_OFFSETS = np.array(
    [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)], dtype=np.int64
)


@dataclass(frozen=True)
class GridStats:
    """Summary statistics used by benches and the shared-kernel schedule."""

    n_points: int
    n_cells: int
    n_nonempty_cells: int
    max_points_per_cell: int
    mean_points_per_nonempty_cell: float


@dataclass
class GridIndex:
    """ε-cell grid over 2-D points (the paper's ``G`` and ``A``)."""

    eps: float
    xmin: float
    ymin: float
    nx: int
    ny: int
    #: points sorted into spatial (unit-bin) order — the device's ``D``
    points: np.ndarray
    #: contiguous x and y columns of ``points`` (fast candidate gathers)
    xs: np.ndarray
    ys: np.ndarray
    #: permutation such that ``points == original_points[sort_order]``
    sort_order: np.ndarray
    #: linear cell id of each (sorted) point
    cell_of_point: np.ndarray
    #: the lookup array ``A``: point ids grouped by cell (|A| = |D|)
    lookup: np.ndarray
    #: per-cell inclusive range into ``A`` (−1 marks an empty cell)
    cell_min: np.ndarray
    cell_max: np.ndarray
    #: sorted ids of non-empty cells (schedule ``S`` for GPUCalcShared)
    nonempty_cells: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: np.ndarray,
        eps: float,
        *,
        max_cells: int = DEFAULT_MAX_CELLS,
        presorted: bool = False,
    ) -> "GridIndex":
        """Build the index for a fixed ``eps``.

        ``presorted=True`` skips the unit-bin sort (used when the caller
        already holds spatially sorted points, e.g. when re-indexing the
        same dataset for a new ε in scenario S2).
        """
        pts = as_points(points)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if len(pts) == 0:
            raise ValueError("cannot index an empty dataset")

        if presorted:
            order = np.arange(len(pts), dtype=np.int64)
        else:
            order = cls.spatial_sort_order(pts)
            pts = np.ascontiguousarray(pts[order])

        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        nx = max(1, int(np.floor((xmax - xmin) / eps)) + 1)
        ny = max(1, int(np.floor((ymax - ymin) / eps)) + 1)
        if nx * ny > max_cells:
            raise ValueError(
                f"grid would have {nx * ny} cells (> max_cells={max_cells}); "
                "eps is degenerate for this extent"
            )

        cx = np.floor((pts[:, 0] - xmin) / eps).astype(np.int64)
        cy = np.floor((pts[:, 1] - ymin) / eps).astype(np.int64)
        np.clip(cx, 0, nx - 1, out=cx)
        np.clip(cy, 0, ny - 1, out=cy)
        cell_ids = cy * nx + cx

        lookup = np.argsort(cell_ids, kind="stable").astype(np.int64)
        sorted_cells = cell_ids[lookup]
        uniq, starts, ends = run_boundaries(sorted_cells)

        cell_min = np.full(nx * ny, -1, dtype=np.int64)
        cell_max = np.full(nx * ny, -1, dtype=np.int64)
        cell_min[uniq] = starts
        cell_max[uniq] = ends - 1  # inclusive, as in the paper's Figure 1

        return cls(
            eps=float(eps),
            xmin=float(xmin),
            ymin=float(ymin),
            nx=nx,
            ny=ny,
            points=pts,
            xs=np.ascontiguousarray(pts[:, 0]),
            ys=np.ascontiguousarray(pts[:, 1]),
            sort_order=order,
            cell_of_point=cell_ids,
            lookup=lookup,
            cell_min=cell_min,
            cell_max=cell_max,
            nonempty_cells=uniq.astype(np.int64),
        )

    @staticmethod
    def spatial_sort_order(points: np.ndarray) -> np.ndarray:
        """Order points by unit-width x/y bins (paper's locality sort)."""
        bx = np.floor(points[:, 0]).astype(np.int64)
        by = np.floor(points[:, 1]).astype(np.int64)
        # lexsort: primary key last — bin-x, then bin-y, then exact coords
        return np.lexsort((points[:, 1], points[:, 0], by, bx)).astype(np.int64)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_coords(self, h: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        h = np.asarray(h, dtype=np.int64)
        return h % self.nx, h // self.nx

    def neighbor_cells(self, h: int) -> np.ndarray:
        """Linear ids of the ≤9 cells that can contain ε-neighbors of
        points in cell ``h`` (the paper's ``getNeighborCells``)."""
        cx, cy = int(h) % self.nx, int(h) // self.nx
        nbr_x = cx + _NEIGHBOR_OFFSETS[:, 0]
        nbr_y = cy + _NEIGHBOR_OFFSETS[:, 1]
        ok = (nbr_x >= 0) & (nbr_x < self.nx) & (nbr_y >= 0) & (nbr_y < self.ny)
        return (nbr_y[ok] * self.nx + nbr_x[ok]).astype(np.int64)

    def neighbor_cells_of_points(self, cell_ids: np.ndarray) -> np.ndarray:
        """Vectorized 9-neighborhood: returns ``(len(cell_ids), 9)`` linear
        ids with ``-1`` for out-of-grid positions."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        cx = cell_ids % self.nx
        cy = cell_ids // self.nx
        nbr_x = cx[:, None] + _NEIGHBOR_OFFSETS[None, :, 0]
        nbr_y = cy[:, None] + _NEIGHBOR_OFFSETS[None, :, 1]
        ok = (nbr_x >= 0) & (nbr_x < self.nx) & (nbr_y >= 0) & (nbr_y < self.ny)
        out = nbr_y * self.nx + nbr_x
        out[~ok] = -1
        return out

    def candidate_pairs(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Every (point, candidate) pair of the points ``ids``: each point
        against all points of its ≤9 in-grid neighbor cells.

        Returns ``(point_ids, candidate_ids, squared_distances,
        n_cells)``; ``n_cells`` counts the in-grid neighbor cells whose
        ranges were read.  Pairs come grouped by ``ids`` in their given
        order.  Distances are ``(px - qx)**2 + (py - qy)**2`` with the
        squares taken as products, as in the device code, so the ε
        boundary is the same on every backend.
        """
        ids = np.asarray(ids, dtype=np.int64)
        nbr = self.neighbor_cells_of_points(self.cell_of_point[ids])
        valid = nbr >= 0
        safe = np.where(valid, nbr, 0)
        starts = np.where(valid, self.cell_min[safe], -1)
        ends = np.where(valid, self.cell_max[safe], -1)
        rep, flat = expand_ranges(
            np.repeat(ids, nbr.shape[1]), starts.ravel(), ends.ravel()
        )
        cand = self.lookup[flat]
        del flat
        d2 = (self.xs[rep] - self.xs[cand]) ** 2 + (self.ys[rep] - self.ys[cand]) ** 2
        return rep, cand, d2, int(valid.sum())

    def cell_point_ids(self, h: int) -> np.ndarray:
        """Point ids (into the sorted ``points``) inside cell ``h``."""
        lo = self.cell_min[h]
        if lo < 0:
            return np.empty(0, dtype=np.int64)
        return self.lookup[lo : self.cell_max[h] + 1]

    def candidate_ids(self, point_id: int) -> np.ndarray:
        """All point ids in the ≤9 cells around ``point_id``'s cell."""
        cells = self.neighbor_cells(int(self.cell_of_point[point_id]))
        parts = [self.cell_point_ids(h) for h in cells]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def range_query(self, point_id: int, eps: Optional[float] = None) -> np.ndarray:
        """ε-range query (``SpatialIndex`` protocol); ``eps`` must match
        the construction ε if given."""
        if eps is not None and not np.isclose(eps, self.eps):
            raise ValueError(
                f"grid was built for eps={self.eps}; cannot query eps={eps}"
            )
        cand = self.candidate_ids(point_id)
        p = self.points[point_id]
        d2 = ((self.points[cand] - p) ** 2).sum(axis=1)
        return cand[d2 <= self.eps * self.eps]

    # ------------------------------------------------------------------
    # stats / export
    # ------------------------------------------------------------------
    def stats(self) -> GridStats:
        counts = self.cell_max[self.nonempty_cells] - self.cell_min[self.nonempty_cells] + 1
        return GridStats(
            n_points=len(self.points),
            n_cells=self.n_cells,
            n_nonempty_cells=len(self.nonempty_cells),
            max_points_per_cell=int(counts.max()) if len(counts) else 0,
            mean_points_per_nonempty_cell=float(counts.mean()) if len(counts) else 0.0,
        )

    def device_arrays(self) -> dict[str, np.ndarray]:
        """The arrays Algorithm 4 ships to the device (D, G, A)."""
        return {
            "D": self.points,
            "A": self.lookup,
            "G_min": self.cell_min,
            "G_max": self.cell_max,
        }
