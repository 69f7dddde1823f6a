"""Tests for HYBRID-DBSCAN (Algorithm 4) end to end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import validate_hybrid
from repro.analysis.metrics import same_clustering
from repro.baseline import dbscan_from_table_expand, sequential_dbscan
from repro.core import BatchConfig, HybridDBSCAN
from repro.gpusim import Device


class TestAgainstReference:
    def test_blobs(self, blobs_points):
        assert validate_hybrid(blobs_points, 0.5, 5).ok

    def test_chain(self, chain_points):
        assert validate_hybrid(chain_points, 0.5, 3).ok

    def test_uniform(self, uniform_points):
        assert validate_hybrid(uniform_points, 0.3, 4).ok

    def test_minpts_sweep(self, blobs_points):
        for minpts in (1, 2, 4, 16, 100):
            assert validate_hybrid(blobs_points, 0.5, minpts).ok

    def test_eps_sweep(self, blobs_points):
        for eps in (0.1, 0.3, 0.8, 2.0):
            assert validate_hybrid(blobs_points, eps, 4).ok

    def test_shared_kernel_variant(self, blobs_points):
        h = HybridDBSCAN(kernel="shared")
        assert validate_hybrid(blobs_points, 0.5, 5, hybrid=h).ok

    def test_expand_impl_variant(self, blobs_points):
        """``fit`` equals the Algorithm 1 oracle over the same table."""
        h = HybridDBSCAN()
        grid, table, _ = h.build_table(blobs_points, 0.5)
        oracle = np.empty(len(blobs_points), dtype=np.int64)
        oracle[grid.sort_order] = dbscan_from_table_expand(table, 5)
        assert np.array_equal(h.fit(blobs_points, 0.5, 5).labels, oracle)

    def test_interpreter_backend(self, rng):
        pts = np.vstack([rng.normal(0, 0.2, (40, 2)), rng.normal(3, 0.2, (40, 2))])
        h = HybridDBSCAN(backend="interpreter", block_dim=16)
        assert validate_hybrid(pts, 0.4, 4, hybrid=h).ok

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.15, max_value=0.8),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_dbscan_correct(self, seed, eps, minpts):
        rng = np.random.default_rng(seed)
        pts = np.vstack(
            [
                rng.normal(rng.uniform(0, 6, 2), 0.3, (60, 2)),
                rng.random((60, 2)) * 6,
            ]
        )
        assert validate_hybrid(pts, eps, minpts).ok


class TestResultObject:
    def test_labels_in_original_order(self, blobs_points):
        """The grid reorders points internally; fit() must label the
        caller's order."""
        h = HybridDBSCAN()
        res = h.fit(blobs_points, 0.5, 5)
        ref, _ = sequential_dbscan(blobs_points, 0.5, 5, index_kind="brute")
        assert same_clustering(res.labels, ref)

    def test_counts(self, blobs_points):
        res = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        assert res.n_clusters == 2
        assert res.n_noise == (res.labels == -1).sum()
        assert res.eps == 0.5
        assert res.minpts == 5

    def test_timings_populated(self, blobs_points):
        res = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        t = res.timings
        assert t.total_s > 0
        assert t.gpu_s > 0
        assert t.dbscan_s > 0
        assert t.total_s >= t.dbscan_s
        assert t.device_ms > 0

    def test_device_ms_is_the_fits_own(self, blobs_points):
        """Each fit reports the modeled ms it recorded, not the device's
        lifetime total.  Fit 1 maps the staging the pinned pool keeps and
        carries its charge; fits 2–4 reuse it and repeat to the bit."""
        h = HybridDBSCAN()
        fits, pinned = [], []
        for _ in range(4):
            ms = h.device.profiler.pinned_alloc_ms
            fits.append(h.fit(blobs_points, 0.5, 5).timings.device_ms)
            pinned.append(h.device.profiler.pinned_alloc_ms - ms)
        assert pinned[0] > 0
        assert pinned[1:] == [0.0, 0.0, 0.0]
        assert fits[1] == fits[2] == fits[3]
        assert fits[0] - fits[1] == pytest.approx(pinned[0], rel=1e-9)
        assert sum(fits) == pytest.approx(h.device.profiler.total_device_ms(), rel=1e-12)

    def test_total_pairs_matches_table(self, uniform_points):
        res = HybridDBSCAN().fit(uniform_points, 0.3, 4)
        # every point is its own neighbor, so |R| >= |D|
        assert res.total_pairs >= len(uniform_points)

    def test_multi_batch_run(self, blobs_points):
        cfg = BatchConfig(static_threshold=1, static_buffer_size=5000)
        h = HybridDBSCAN(batch_config=cfg)
        res = h.fit(blobs_points, 0.5, 5)
        assert res.n_batches > 3
        ref, _ = sequential_dbscan(blobs_points, 0.5, 5, index_kind="brute")
        assert same_clustering(res.labels, ref)

    def test_deterministic_across_runs(self, blobs_points):
        r1 = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        r2 = HybridDBSCAN().fit(blobs_points, 0.5, 5)
        assert np.array_equal(r1.labels, r2.labels)

    def test_device_reusable_across_fits(self, blobs_points):
        dev = Device()
        h = HybridDBSCAN(dev)
        h.fit(blobs_points, 0.5, 5)
        before = dev.memory.used_bytes
        h.fit(blobs_points, 0.4, 5)
        assert dev.memory.used_bytes == before  # no leaks across fits


class TestBuildClusterSplit:
    def test_table_reuse_matches_fit(self, blobs_points):
        h = HybridDBSCAN()
        grid, table, _ = h.build_table(blobs_points, 0.5)
        for minpts in (3, 5, 10):
            labels = h.cluster_table(grid, table, minpts)
            fit_labels = HybridDBSCAN().fit(blobs_points, 0.5, minpts).labels
            assert same_clustering(labels, fit_labels)

    def test_table_is_minpts_independent(self, uniform_points):
        h = HybridDBSCAN()
        _, t1, _ = h.build_table(uniform_points, 0.3)
        _, t2, _ = h.build_table(uniform_points, 0.3)
        assert t1.total_pairs == t2.total_pairs
