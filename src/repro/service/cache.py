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
reach (:data:`STALE_KEEP_EPOCHS`); LRU eviction bounds residency
(:data:`MAX_TABLES`, :data:`MAX_LABEL_SETS`).

Only **exact** results are ever inserted: degraded (sampled) answers
must not poison future exact hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.neighbor_table import NeighborTable
from repro.index.grid import GridIndex

__all__ = ["CacheStats", "TableEntry", "ResultCache"]

#: table key: (dataset_id, epoch, eps)
_TKey = Tuple[str, int, float]
#: label key: (dataset_id, epoch, eps, minpts)
_LKey = Tuple[str, int, float, int]

#: resident neighbor tables (LRU beyond)
MAX_TABLES = 8
#: resident label vectors (LRU beyond)
MAX_LABEL_SETS = 64
#: older epochs a bump keeps addressable for stale degraded serving
STALE_KEEP_EPOCHS = 1


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


class ResultCache:
    """Two-tier LRU: neighbor tables above, label vectors below."""

    def __init__(self) -> None:
        self._tables: OrderedDict[_TKey, TableEntry] = OrderedDict()
        self._labels: OrderedDict[_LKey, np.ndarray] = OrderedDict()
        self.stats = CacheStats()

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
    @staticmethod
    def _newest_stale(tier: OrderedDict, probe: tuple) -> Optional[tuple]:
        """Key of ``tier``'s newest entry that matches ``probe`` (a key
        at the current epoch) in every field but the epoch, from an
        epoch before the probe's, or None."""
        keys = [
            k for k in tier
            if k[0] == probe[0] and k[1] < probe[1] and k[2:] == probe[2:]
        ]
        return max(keys, key=lambda k: k[1], default=None)

    def stale_labels(
        self, dataset_id: str, current_epoch: int, eps: float, minpts: int
    ) -> Optional[tuple[int, np.ndarray]]:
        """Newest labels for ``(eps, minpts)`` from an epoch before
        ``current_epoch``, or None.  Does not count as a fresh hit."""
        key = self._newest_stale(
            self._labels, (dataset_id, current_epoch, float(eps), int(minpts))
        )
        if key is None:
            return None
        self._labels.move_to_end(key)
        self.stats.stale_hits += 1
        return key[1], self._labels[key].copy()

    def stale_table(
        self, dataset_id: str, current_epoch: int, eps: float
    ) -> Optional[TableEntry]:
        """Newest table for ``eps`` from an epoch before ``current_epoch``."""
        key = self._newest_stale(
            self._tables, (dataset_id, current_epoch, float(eps))
        )
        if key is None:
            return None
        self._tables.move_to_end(key)
        self.stats.stale_hits += 1
        return self._tables[key]

    def has_stale(
        self, dataset_id: str, current_epoch: int, eps: float, minpts: int
    ) -> bool:
        """Whether a stale answer (labels or table) exists — checked
        without touching LRU order or stats."""
        probe = (dataset_id, current_epoch, float(eps), int(minpts))
        return (
            self._newest_stale(self._labels, probe) is not None
            or self._newest_stale(self._tables, probe[:3]) is not None
        )

    # ------------------------------------------------------------------
    # insertion / invalidation
    # ------------------------------------------------------------------
    def put_table(self, dataset_id: str, entry: TableEntry) -> None:
        key = (dataset_id, int(entry.epoch), float(entry.eps))
        self._tables[key] = entry
        self._tables.move_to_end(key)
        self.stats.insertions += 1
        while len(self._tables) > MAX_TABLES:
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
        while len(self._labels) > MAX_LABEL_SETS:
            self._labels.popitem(last=False)
            self.stats.evictions += 1

    def evict_older(self, dataset_id: str, current_epoch: int) -> int:
        """Drop the dataset's entries older than ``current_epoch -
        STALE_KEEP_EPOCHS`` (called on epoch bump; the kept window is
        what stale degraded serving may still reach).  Returns drop
        count."""
        floor = int(current_epoch) - STALE_KEEP_EPOCHS
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
