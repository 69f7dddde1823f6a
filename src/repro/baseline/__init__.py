"""Comparator implementations.

* :func:`~repro.baseline.sequential_dbscan.sequential_dbscan` — the
  paper's reference: scalar Algorithm 1 over an R-tree, instrumented to
  report the fraction of time spent in index searches (Table I).
* :func:`~repro.baseline.sequential_dbscan.dbscan_from_table_expand` —
  Algorithm 1 over a neighbor table ``T``: the test oracle of the
  table-DBSCAN path.
* :class:`~repro.baseline.gdbscan.GDBSCAN` — a G-DBSCAN-style
  graph-then-BFS baseline from the related work (Andrade et al. 2013).
"""

from repro.baseline.sequential_dbscan import (
    IndexedPoints,
    SequentialStats,
    dbscan_from_table_expand,
    sequential_dbscan,
)
from repro.baseline.gdbscan import gdbscan

__all__ = [
    "sequential_dbscan",
    "SequentialStats",
    "IndexedPoints",
    "dbscan_from_table_expand",
    "gdbscan",
]
