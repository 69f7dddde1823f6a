"""The sequential reference implementation (Algorithm 1).

This is the paper's baseline: a scalar CPU DBSCAN whose
``NeighborSearch`` calls query an R-tree.  Every query is timed so the
run reports the fraction of total response time spent searching the
index — the measurement behind the paper's Table I (48%–72.2%).

The implementation deliberately stays scalar Python on the traversal
(the baseline is scalar C++ in the paper); only the leaf-level distance
tests inside the index are vectorized.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.core.neighbor_table import NeighborTable
from repro.core.table_dbscan import NOISE, canonicalize_labels, core_mask
from repro.index.base import BruteForceIndex, as_points
from repro.index.grid import GridIndex
from repro.index.rtree import RTree

__all__ = [
    "SequentialStats",
    "IndexedPoints",
    "sequential_dbscan",
    "dbscan_from_table_expand",
]

_UNVISITED = -2


@dataclass
class SequentialStats:
    """Instrumentation from one sequential DBSCAN run."""

    total_s: float
    index_search_s: float
    index_build_s: float
    n_queries: int

    @property
    def frac_index_time(self) -> float:
        """Fraction of total (clustering) time spent in index searches —
        the quantity Table I reports.  Index *construction* is excluded,
        as in the paper ("we do not report the time required to
        construct the index")."""
        return self.index_search_s / self.total_s if self.total_s > 0 else 0.0


class IndexedPoints:
    """Points plus an ε-queryable index in *original* id space.

    Wraps the three index families so the baseline can run against any
    of them; the grid index internally reorders points, so its results
    are mapped back to original ids here.
    """

    def __init__(
        self,
        points: np.ndarray,
        index_kind: Literal["rtree", "grid", "brute"] = "rtree",
        *,
        eps_for_grid: Optional[float] = None,
        rtree_max_entries: int = 16,
    ):
        self.points = as_points(points)
        self.index_kind = index_kind
        t0 = time.perf_counter()
        if index_kind == "rtree":
            self._rtree = RTree(self.points, max_entries=rtree_max_entries)
        elif index_kind == "grid":
            if eps_for_grid is None:
                raise ValueError("grid index requires eps_for_grid")
            self._grid = GridIndex.build(self.points, eps_for_grid)
            self._to_sorted = np.argsort(self._grid.sort_order)
        elif index_kind == "brute":
            self._brute = BruteForceIndex(self.points)
        else:
            raise ValueError(f"unknown index kind {index_kind!r}")
        self.build_s = time.perf_counter() - t0

    def range_query(self, point_id: int, eps: float) -> np.ndarray:
        if self.index_kind == "rtree":
            return self._rtree.range_query(point_id, eps)
        if self.index_kind == "grid":
            got = self._grid.range_query(int(self._to_sorted[point_id]), eps)
            return self._grid.sort_order[got]
        return self._brute.range_query(point_id, eps)


def sequential_dbscan(
    points: np.ndarray,
    eps: float,
    minpts: int,
    *,
    index: Optional[IndexedPoints] = None,
    index_kind: Literal["rtree", "grid", "brute"] = "rtree",
) -> tuple[np.ndarray, SequentialStats]:
    """Run Algorithm 1; returns ``(labels, stats)``.

    ``index`` may be passed to reuse a prebuilt index across runs (as
    the paper reuses its R-tree across ε values on one dataset, since it
    excludes construction time from the comparison).
    """
    pts = as_points(points)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if minpts < 1:
        raise ValueError("minpts must be >= 1")
    idx = index or IndexedPoints(
        pts, index_kind, eps_for_grid=eps if index_kind == "grid" else None
    )

    n = len(pts)
    labels = np.full(n, _UNVISITED, dtype=np.int64)
    cluster = 0
    search_s = 0.0
    n_queries = 0

    def neighbor_search(pid: int) -> np.ndarray:
        nonlocal search_s, n_queries
        q0 = time.perf_counter()
        out = idx.range_query(pid, eps)
        search_s += time.perf_counter() - q0
        n_queries += 1
        return out

    t0 = time.perf_counter()
    for p in range(n):
        if labels[p] != _UNVISITED:
            continue
        neighbors = neighbor_search(p)
        if len(neighbors) < minpts:
            labels[p] = NOISE
            continue
        labels[p] = cluster
        frontier = deque(int(q) for q in neighbors)
        while frontier:
            q = frontier.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster  # border point
            if labels[q] != _UNVISITED:
                continue
            labels[q] = cluster
            n_hat = neighbor_search(q)
            if len(n_hat) >= minpts:
                frontier.extend(int(r) for r in n_hat)
        cluster += 1
    total_s = time.perf_counter() - t0

    stats = SequentialStats(
        total_s=total_s,
        index_search_s=search_s,
        index_build_s=idx.build_s,
        n_queries=n_queries,
    )
    return canonicalize_labels(labels), stats


def dbscan_from_table_expand(table: NeighborTable, minpts: int) -> np.ndarray:
    """Algorithm 1 with ``T`` lookups (sequential cluster expansion).

    Cluster expansion walks core points breadth-first; border points are
    attached in a separate pass to their lowest-id core neighbor — the
    deterministic tie-break :func:`~repro.core.table_dbscan.dbscan_from_table`
    (and the device path) uses, rather than BFS discovery order, so all
    implementations agree bit-for-bit.  The test oracle of the table
    path: scalar Python, one breadth-first expansion per cluster.
    """
    n = table.n_points
    is_core = core_mask(table, minpts)
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for p in range(n):
        if not is_core[p] or labels[p] != NOISE:
            continue
        labels[p] = cluster
        frontier = deque([p])
        while frontier:
            q = frontier.popleft()
            for r in table.neighbors(q).tolist():
                if is_core[r] and labels[r] == NOISE:
                    labels[r] = cluster
                    frontier.append(r)
        cluster += 1
    # border attachment: lowest-id core neighbor, ties never depend on
    # the expansion order above
    for p in np.flatnonzero(~is_core):
        nbrs = table.neighbors(p)
        core_nbrs = nbrs[is_core[nbrs]]
        if len(core_nbrs):
            labels[p] = labels[core_nbrs.min()]
    return canonicalize_labels(labels)
