"""Tests for the two-tier epoch-keyed LRU result cache."""

import numpy as np
import pytest

from repro.core import HybridDBSCAN
from repro.service import ResultCache, TableEntry
from repro.service.cache import MAX_LABEL_SETS


def _entry(points, eps, epoch):
    grid, table, _ = HybridDBSCAN().build_table(points, eps)
    return TableEntry(grid=grid, table=table, epoch=epoch, eps=eps)


class TestLabelTier:
    def test_roundtrip_returns_copy(self):
        c = ResultCache()
        labels = np.array([0, 0, 1, -1])
        c.put_labels("ds", 0, 0.5, 4, labels)
        got = c.get_labels("ds", 0, 0.5, 4)
        assert np.array_equal(got, labels)
        got[0] = 99  # caller mutation must not poison the cache
        assert np.array_equal(c.get_labels("ds", 0, 0.5, 4), labels)

    def test_epoch_keying_is_invalidation(self):
        c = ResultCache()
        c.put_labels("ds", 0, 0.5, 4, np.array([0, 1]))
        assert c.get_labels("ds", 1, 0.5, 4) is None  # new epoch misses
        assert c.get_labels("ds", 0, 0.5, 4) is not None  # old key intact
        assert c.stats.label_hits == 1

    def test_lru_eviction(self):
        c = ResultCache()
        for m in range(1, MAX_LABEL_SETS + 2):
            c.put_labels("ds", 0, 0.5, m, np.array([m]))
        assert c.get_labels("ds", 0, 0.5, 1) is None  # oldest evicted
        assert c.get_labels("ds", 0, 0.5, MAX_LABEL_SETS + 1) is not None
        assert c.stats.evictions == 1


class TestTableTier:
    def test_table_hit_serves_any_minpts(self, blobs_points):
        c = ResultCache()
        c.put_table("ds", _entry(blobs_points, 0.5, epoch=0))
        hit = c.get_table("ds", 0, 0.5)
        assert hit is not None and hit.epoch == 0
        assert c.get_table("ds", 0, 0.7) is None  # different eps
        assert c.get_table("ds", 1, 0.5) is None  # different epoch


class TestStale:
    def test_stale_prefers_newest_older_epoch(self):
        c = ResultCache()
        c.put_labels("ds", 0, 0.5, 4, np.array([0]))
        c.put_labels("ds", 2, 0.5, 4, np.array([2]))
        hit = c.stale_labels("ds", 3, 0.5, 4)
        assert hit is not None
        epoch, labels = hit
        assert epoch == 2 and labels[0] == 2
        assert c.stale_labels("ds", 0, 0.5, 4) is None

    def test_has_stale_touches_no_stats(self):
        c = ResultCache()
        c.put_labels("ds", 0, 0.5, 4, np.array([0]))
        before = c.stats.as_dict()
        assert c.has_stale("ds", 1, 0.5, 4)
        assert not c.has_stale("ds", 1, 0.9, 4)
        assert c.stats.as_dict() == before

    def test_evict_older_bounds_stale_window(self, blobs_points):
        c = ResultCache()
        for e in range(4):
            c.put_labels("ds", e, 0.5, 4, np.array([e]))
        dropped = c.evict_older("ds", 4)
        assert dropped == 3
        assert not c.has_stale("ds", 4, 0.5, 4) or c.stale_labels(
            "ds", 4, 0.5, 4
        )[0] == 3
        assert c.stats.invalidated == 3

    def test_evict_older_scoped_to_dataset(self):
        c = ResultCache()
        c.put_labels("a", 0, 0.5, 4, np.array([0]))
        c.put_labels("b", 0, 0.5, 4, np.array([0]))
        c.evict_older("a", 5)
        assert c.get_labels("b", 0, 0.5, 4) is not None


class TestStats:
    def test_hit_rate_excludes_stale(self):
        c = ResultCache()
        c.put_labels("ds", 0, 0.5, 4, np.array([0]))
        c.get_labels("ds", 0, 0.5, 4)  # fresh hit
        c.record_miss()
        c.stale_labels("ds", 1, 0.5, 4)  # stale hit
        assert c.stats.lookups == 2
        assert c.stats.hit_rate == pytest.approx(0.5)
        assert c.stats.stale_hits == 1
