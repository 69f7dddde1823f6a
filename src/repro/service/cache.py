"""LRU result cache — the paper's S3 reuse generalized to a service.

Section VII-F's scenario S3 computes one neighbor table ``T`` and lets
16 threads consume it for different ``minpts`` values.  A serving loop
generalizes exactly that: ``T`` depends only on ``(dataset epoch, ε)``,
so one cached table answers *any* minpts at that ε — the expensive GPU
phase is shared, only the cheap host clustering runs per variant.  A
second, smaller tier caches finished label vectors per
``(dataset epoch, ε, minpts)`` so exact repeats cost ~nothing.

Epoch keying doubles as invalidation: bumping a dataset's epoch makes
every live request miss the old entries (no stampede of explicit
deletes), while the old entries remain *addressable* as **stale** —
the degraded path may serve them, flagged, when a deadline cannot fit a
fresh build.  ``evict_older`` bounds how far back stale service may
reach; LRU eviction bounds residency.

Only **exact** results are ever inserted: degraded (sampled) answers
must not poison future exact hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.neighbor_table import NeighborTable
from repro.index.grid import GridIndex

__all__ = ["CacheStats", "TableEntry", "ResultCache"]

#: table key: (dataset_id, epoch, eps)
_TKey = Tuple[str, int, float]
#: label key: (dataset_id, epoch, eps, minpts)
_LKey = Tuple[str, int, float, int]


@dataclass
class CacheStats:
    label_hits: int = 0
    table_hits: int = 0
    stale_hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.label_hits + self.table_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fresh-hit fraction of lookups (stale hits excluded)."""
        n = self.lookups
        return (self.label_hits + self.table_hits) / n if n else 0.0

    def as_dict(self) -> dict:
        return {
            "label_hits": self.label_hits,
            "table_hits": self.table_hits,
            "stale_hits": self.stale_hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "hit_rate": self.hit_rate,
        }


@dataclass
class TableEntry:
    """One cached neighbor-table build (exact, epoch-stamped)."""

    grid: GridIndex
    table: NeighborTable
    epoch: int
    eps: float
    #: modeled device ms of the build that produced it (cost estimator)
    build_device_ms: float = 0.0

    @property
    def nbytes(self) -> int:
        t = self.table
        return int(t.values.nbytes + t.t_min.nbytes + t.t_max.nbytes)


@dataclass
class ResultCache:
    """Two-tier LRU: neighbor tables above, label vectors below."""

    max_tables: int = 8
    max_label_sets: int = 64
    _tables: "OrderedDict[_TKey, TableEntry]" = field(default_factory=OrderedDict)
    _labels: "OrderedDict[_LKey, np.ndarray]" = field(default_factory=OrderedDict)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_tables < 1 or self.max_label_sets < 1:
            raise ValueError("cache capacities must be >= 1")

    # ------------------------------------------------------------------
    # fresh lookups (current epoch only)
    # ------------------------------------------------------------------
    def get_labels(
        self, dataset_id: str, epoch: int, eps: float, minpts: int
    ) -> Optional[np.ndarray]:
        key = (dataset_id, int(epoch), float(eps), int(minpts))
        hit = self._labels.get(key)
        if hit is None:
            return None
        self._labels.move_to_end(key)
        self.stats.label_hits += 1
        return hit.copy()

    def get_table(
        self, dataset_id: str, epoch: int, eps: float
    ) -> Optional[TableEntry]:
        key = (dataset_id, int(epoch), float(eps))
        hit = self._tables.get(key)
        if hit is None:
            return None
        self._tables.move_to_end(key)
        self.stats.table_hits += 1
        return hit

    def record_miss(self) -> None:
        self.stats.misses += 1

    # ------------------------------------------------------------------
    # stale lookups (older epochs; degraded serving only)
    # ------------------------------------------------------------------
    def stale_labels(
        self, dataset_id: str, current_epoch: int, eps: float, minpts: int
    ) -> Optional[tuple[int, np.ndarray]]:
        """Newest labels for ``(eps, minpts)`` from an epoch before
        ``current_epoch``, or None.  Does not count as a fresh hit."""
        best: Optional[_LKey] = None
        for key in self._labels:
            ds, epoch, e, m = key
            if (
                ds == dataset_id
                and epoch < current_epoch
                and e == float(eps)
                and m == int(minpts)
            ):
                if best is None or epoch > best[1]:
                    best = key
        if best is None:
            return None
        self._labels.move_to_end(best)
        self.stats.stale_hits += 1
        return best[1], self._labels[best].copy()

    def stale_table(
        self, dataset_id: str, current_epoch: int, eps: float
    ) -> Optional[TableEntry]:
        """Newest table for ``eps`` from an epoch before ``current_epoch``."""
        best: Optional[_TKey] = None
        for key in self._tables:
            ds, epoch, e = key
            if ds == dataset_id and epoch < current_epoch and e == float(eps):
                if best is None or epoch > best[1]:
                    best = key
        if best is None:
            return None
        self._tables.move_to_end(best)
        self.stats.stale_hits += 1
        return self._tables[best]

    def has_stale(
        self, dataset_id: str, current_epoch: int, eps: float, minpts: int
    ) -> bool:
        """Whether a stale answer (labels or table) exists — checked
        without touching LRU order or stats."""
        for ds, epoch, e, m in self._labels:
            if (
                ds == dataset_id
                and epoch < current_epoch
                and e == float(eps)
                and m == int(minpts)
            ):
                return True
        return any(
            ds == dataset_id and epoch < current_epoch and e == float(eps)
            for ds, epoch, e in self._tables
        )

    # ------------------------------------------------------------------
    # insertion / invalidation
    # ------------------------------------------------------------------
    def put_table(self, dataset_id: str, entry: TableEntry) -> None:
        key = (dataset_id, int(entry.epoch), float(entry.eps))
        self._tables[key] = entry
        self._tables.move_to_end(key)
        self.stats.insertions += 1
        while len(self._tables) > self.max_tables:
            self._tables.popitem(last=False)
            self.stats.evictions += 1

    def put_labels(
        self, dataset_id: str, epoch: int, eps: float, minpts: int,
        labels: np.ndarray,
    ) -> None:
        key = (dataset_id, int(epoch), float(eps), int(minpts))
        self._labels[key] = np.array(labels, copy=True)
        self._labels.move_to_end(key)
        self.stats.insertions += 1
        while len(self._labels) > self.max_label_sets:
            self._labels.popitem(last=False)
            self.stats.evictions += 1

    def evict_older(
        self, dataset_id: str, current_epoch: int, *, keep_epochs: int = 1
    ) -> int:
        """Drop the dataset's entries older than ``current_epoch -
        keep_epochs`` (called on epoch bump; the kept window is what
        stale degraded serving may still reach).  Returns drop count."""
        floor = int(current_epoch) - int(keep_epochs)
        t_dead = [
            k for k in self._tables if k[0] == dataset_id and k[1] < floor
        ]
        l_dead = [
            k for k in self._labels if k[0] == dataset_id and k[1] < floor
        ]
        for k in t_dead:
            del self._tables[k]
        for k in l_dead:
            del self._labels[k]
        self.stats.invalidated += len(t_dead) + len(l_dead)
        return len(t_dead) + len(l_dead)
