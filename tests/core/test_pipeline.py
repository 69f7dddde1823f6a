"""Tests for the S2 multi-clustering pipeline."""

import numpy as np
import pytest

from repro.baseline import dbscan_from_table_expand
from repro.core import HybridDBSCAN, MultiClusterPipeline, VariantSet


@pytest.fixture
def variants():
    return VariantSet.eps_sweep([0.2, 0.35, 0.5, 0.7], minpts=4)


class TestOutcomes:
    def test_pipelined_equals_sequential(self, blobs_points, variants):
        pipe = MultiClusterPipeline(keep_labels=True)
        seq = pipe.run(blobs_points, variants, pipelined=False)
        par = pipe.run(blobs_points, variants, pipelined=True)
        assert len(seq.outcomes) == len(par.outcomes) == len(variants)
        for a, b in zip(seq.outcomes, par.outcomes, strict=True):
            assert a.variant == b.variant
            assert a.n_clusters == b.n_clusters
            assert a.n_noise == b.n_noise
            assert np.array_equal(a.labels, b.labels)

    def test_outcomes_ordered_like_variants(self, blobs_points, variants):
        res = MultiClusterPipeline().run(blobs_points, variants)
        assert [o.variant for o in res.outcomes] == list(variants)

    def test_pipelined_flag(self, blobs_points, variants):
        pipe = MultiClusterPipeline()
        assert pipe.run(blobs_points, variants, pipelined=True).pipelined
        assert not pipe.run(blobs_points, variants, pipelined=False).pipelined

    def test_labels_dropped_by_default(self, blobs_points, variants):
        res = MultiClusterPipeline().run(blobs_points, variants)
        assert all(o.labels is None for o in res.outcomes)

    def test_timing_sums(self, blobs_points, variants):
        res = MultiClusterPipeline().run(blobs_points, variants, pipelined=False)
        assert res.sum_build_s > 0
        assert res.sum_dbscan_s > 0
        assert res.total_s >= max(res.sum_build_s, res.sum_dbscan_s)


class TestConfiguration:
    def test_single_consumer(self, blobs_points, variants):
        res = MultiClusterPipeline(n_consumers=1).run(blobs_points, variants)
        assert len(res.outcomes) == len(variants)

    def test_invalid_consumers(self):
        with pytest.raises(ValueError):
            MultiClusterPipeline(n_consumers=0)

    def test_custom_hybrid(self, blobs_points, variants):
        h = HybridDBSCAN(kernel="shared")
        res = MultiClusterPipeline(h, keep_labels=True).run(
            blobs_points, variants
        )
        assert len(res.outcomes) == len(variants)
        # the custom instance's labels equal the Algorithm 1 oracle over
        # the same table
        v = res.outcomes[0].variant
        grid, table, _ = h.build_table(blobs_points, v.eps)
        oracle = np.empty(len(blobs_points), dtype=np.int64)
        oracle[grid.sort_order] = dbscan_from_table_expand(table, v.minpts)
        assert np.array_equal(res.outcomes[0].labels, oracle)

    def test_single_variant(self, blobs_points):
        vs = VariantSet.eps_sweep([0.4])
        res = MultiClusterPipeline().run(blobs_points, vs)
        assert len(res.outcomes) == 1

    def test_producer_error_propagates(self, variants):
        bad_points = np.full((10, 2), np.nan)
        with pytest.raises(ValueError):
            MultiClusterPipeline().run(bad_points, variants)
