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

from repro._nputil import id_dtype, run_boundaries
from repro.index.base import as_points

__all__ = ["GridIndex", "GridStats", "NeighborPairs"]

#: refuse to build grids with more cells than this (degenerate ε)
DEFAULT_MAX_CELLS = 200_000_000

#: candidates per block of :meth:`GridIndex.neighbor_pairs`: each block's
#: temporaries (about 40 B per candidate) stay cache-sized; 2^14 to 2^18
#: timed alike on whole sweep-sw cycles
NEIGHBOR_BLOCK = 1 << 16

_NEIGHBOR_OFFSETS = np.array(
    [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)], dtype=np.int64
)
_ROW_OFFSETS = np.array([-1, 0, 1], dtype=np.int64)


@dataclass(frozen=True)
class GridStats:
    """Summary statistics used by benches and the shared-kernel schedule."""

    n_points: int
    n_cells: int
    n_nonempty_cells: int
    max_points_per_cell: int
    mean_points_per_nonempty_cell: float


@dataclass(frozen=True)
class NeighborPairs:
    """The ε-hits of :meth:`GridIndex.neighbor_pairs`, one array per block.

    Concatenated, ``keys`` and ``values`` are the ``(point, neighbor)``
    hits grouped by point in the order the points were given, each
    point's neighbors in the device code's scan order; ``d2`` holds their
    squared distances when they were asked for and is empty otherwise.
    ``n_candidates`` counts the distances evaluated and ``n_cells`` the
    in-grid neighbor cells whose ranges were read.
    """

    keys: list[np.ndarray]
    values: list[np.ndarray]
    d2: list[np.ndarray]
    n_hits: int
    n_candidates: int
    n_cells: int


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
    #: x and y of ``points[lookup]``: a range of ``A`` is a contiguous
    #: slice of candidate coordinates
    lookup_x: np.ndarray
    lookup_y: np.ndarray
    #: permutation such that ``points == original_points[sort_order]``
    sort_order: np.ndarray
    #: linear cell id of each (sorted) point
    cell_of_point: np.ndarray
    #: the lookup array ``A``: point ids grouped by cell (|A| = |D|)
    lookup: np.ndarray
    #: per-cell inclusive range into ``A`` (−1 marks an empty cell), at
    #: the id width (:func:`repro._nputil.id_dtype`)
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

        # ranges into A at the id width: half the bytes of the nx·ny
        # arrays, which at a small ε outweigh the points
        cell_min = np.full(nx * ny, -1, dtype=id_dtype(len(pts)))
        cell_max = np.full_like(cell_min, -1)
        cell_min[uniq] = starts
        cell_max[uniq] = ends - 1  # inclusive, as in the paper's Figure 1

        return cls(
            eps=float(eps),
            xmin=float(xmin),
            ymin=float(ymin),
            nx=nx,
            ny=ny,
            points=pts,
            lookup_x=pts[lookup, 0],
            lookup_y=pts[lookup, 1],
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

    def neighbor_cells(self, h: int) -> np.ndarray:
        """Linear ids of the ≤9 cells that can contain ε-neighbors of
        points in cell ``h`` (the paper's ``getNeighborCells``)."""
        cx, cy = int(h) % self.nx, int(h) // self.nx
        nbr_x = cx + _NEIGHBOR_OFFSETS[:, 0]
        nbr_y = cy + _NEIGHBOR_OFFSETS[:, 1]
        ok = (nbr_x >= 0) & (nbr_x < self.nx) & (nbr_y >= 0) & (nbr_y < self.ny)
        return (nbr_y[ok] * self.nx + nbr_x[ok]).astype(np.int64)

    def _row_ranges(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The ranges of ``A`` that hold the candidates of the points
        ``ids``: ``(point, start, count, n_cells)``.

        The cells ``cx-1..cx+1`` of a grid row have consecutive linear
        ids and ``A`` is grouped by ascending cell id, so each in-grid
        row of a point's 9 cells is one range of ``A``, read in the
        device code's cell order.  Non-empty ranges come grouped by point
        in the order of ``ids``, rows ascending; ``n_cells`` counts the
        in-grid neighbor cells, empty ones included.
        """
        ids = np.asarray(ids, dtype=np.int64)
        nx = self.nx
        cy, cx = np.divmod(self.cell_of_point[ids], nx)
        x_lo = np.maximum(cx - 1, 0)[:, None]
        x_hi = np.minimum(cx + 1, nx - 1)[:, None]
        rows = cy[:, None] + _ROW_OFFSETS
        in_grid = (rows >= 0) & (rows < self.ny)
        n_cells = int(np.sum(in_grid * (x_hi - x_lo + 1)))
        row0 = np.clip(rows, 0, self.ny - 1) * nx
        cells = (row0 + x_lo, row0 + (x_lo + x_hi) // 2, row0 + x_hi)
        # a row's range runs from its first non-empty cell's first entry
        # to its last non-empty cell's last; an empty cell's -1 is the
        # largest unsigned value of its width, so it never wins the minimum
        signed = self.cell_min.dtype
        cell_min = self.cell_min.view(f"u{signed.itemsize}")
        first = np.minimum(np.minimum(cell_min[cells[0]], cell_min[cells[1]]), cell_min[cells[2]])
        last = np.maximum(
            np.maximum(self.cell_max[cells[0]], self.cell_max[cells[1]]), self.cell_max[cells[2]]
        )
        keep = np.flatnonzero(in_grid & (last >= 0))
        start = first.view(signed).ravel()[keep]
        return ids[keep // 3], start, last.ravel()[keep] - start + 1, n_cells

    def neighbor_pairs(
        self, ids: np.ndarray, *, distances: bool = False
    ) -> NeighborPairs:
        """The ε-hits of each point of ``ids`` against every point of its
        ≤9 in-grid neighbor cells (3 ranges of ``A``, see :meth:`_row_ranges`).

        The candidates of all ranges are walked in blocks of
        :data:`NEIGHBOR_BLOCK`, so no temporary grows with the candidate
        count; only the hits outlive their block.  Distances are
        ``(px - qx) * (px - qx) + (py - qy) * (py - qy)``, as in the
        device code, so the ε boundary is the same on every backend.
        """
        point, start, count, n_cells = self._row_ranges(ids)
        end = np.cumsum(count)
        n_candidates = int(end[-1]) if len(end) else 0
        px, py = self.points[point, 0], self.points[point, 1]
        eps2 = self.eps * self.eps
        keys: list[np.ndarray] = []
        values: list[np.ndarray] = []
        d2s: list[np.ndarray] = []
        bounds = np.append(np.arange(0, n_candidates, NEIGHBOR_BLOCK), n_candidates)
        ramp = np.arange(min(NEIGHBOR_BLOCK, n_candidates))
        firsts = np.searchsorted(end, bounds[:-1], side="right")
        lasts = np.searchsorted(end, bounds[1:], side="left") + 1
        for lo, hi, r0, r1 in zip(
            bounds[:-1].tolist(),
            bounds[1:].tolist(),
            firsts.tolist(),
            lasts.tolist(),
            strict=True,
        ):
            # ranges r0..r1-1 meet the block; it may cut the first and last
            part = count[r0:r1].copy()
            skip = lo - int(end[r0] - part[0])
            part[0] -= skip
            part[-1] -= int(end[r1 - 1]) - hi
            at = np.cumsum(part) - part  # each range's first slot in the block
            offset = start[r0:r1] - at
            offset[0] += skip
            a = np.repeat(offset, part)
            a += ramp[: hi - lo]  # the A index of every candidate
            d2 = np.repeat(px[r0:r1], part)
            d2 -= self.lookup_x[a]
            d2 *= d2
            dy = np.repeat(py[r0:r1], part)
            dy -= self.lookup_y[a]
            dy *= dy
            d2 += dy
            within = d2 <= eps2
            hit = np.flatnonzero(within)
            keys.append(np.repeat(point[r0:r1], np.add.reduceat(within, at, dtype=np.int64)))
            values.append(self.lookup[a[hit]])
            if distances:
                d2s.append(d2[hit])
        return NeighborPairs(
            keys=keys,
            values=values,
            d2=d2s,
            n_hits=sum(len(k) for k in keys),
            n_candidates=n_candidates,
            n_cells=n_cells,
        )

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
