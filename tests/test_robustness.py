"""Robustness: adversarial inputs, resource exhaustion, edge geometry."""

import numpy as np
import pytest

from repro.analysis import validate_hybrid
from repro.core import BatchConfig, HybridDBSCAN
from repro.core.batching import build_neighbor_table
from repro.gpusim import Device, DeviceMemoryError, DeviceSpec
from repro.index import GridIndex


class TestAdversarialGeometry:
    def test_all_identical_points(self):
        pts = np.ones((200, 2))
        res = HybridDBSCAN().fit(pts, 0.5, 4)
        assert res.n_clusters == 1
        assert res.n_noise == 0

    def test_collinear_points(self):
        x = np.linspace(0, 10, 300)
        pts = np.column_stack([x, np.zeros_like(x)])
        assert validate_hybrid(pts, 0.1, 3).ok

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        res = HybridDBSCAN().fit(pts, 0.5, 2)
        assert res.n_clusters == 0
        assert res.n_noise == 2

    def test_single_point(self):
        res = HybridDBSCAN().fit(np.array([[1.0, 1.0]]), 0.5, 1)
        assert res.n_clusters == 1

    def test_large_coordinate_offset(self):
        """Far-from-origin coordinates must not break cell binning."""
        rng = np.random.default_rng(0)
        base = np.vstack(
            [rng.normal(0, 0.2, (150, 2)), rng.normal(4, 0.2, (150, 2))]
        )
        near = HybridDBSCAN().fit(base, 0.4, 4)
        far = HybridDBSCAN().fit(base + 1e6, 0.4, 4)
        assert near.n_clusters == far.n_clusters
        assert near.n_noise == far.n_noise

    def test_extreme_aspect_ratio(self, rng):
        pts = np.column_stack(
            [rng.random(400) * 1000.0, rng.random(400) * 0.1]
        )
        assert validate_hybrid(pts, 2.0, 3).ok

    def test_duplicate_heavy_dataset(self, rng):
        """Many exact duplicates (common in sensor data)."""
        unique = rng.random((50, 2)) * 3
        pts = np.repeat(unique, 10, axis=0)
        assert validate_hybrid(pts, 0.2, 5).ok

    def test_eps_larger_than_extent(self, blobs_points):
        """One grid cell covers everything: degenerate but legal."""
        assert validate_hybrid(blobs_points, 100.0, 4).ok

    def test_boundary_distance_inclusive(self):
        """dist == eps is a neighbor (the paper's <=)."""
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        res = HybridDBSCAN().fit(pts, 1.0, 3)
        assert res.n_clusters == 1
        assert res.n_noise == 0


class TestResourceExhaustion:
    def test_device_oom_propagates(self, rng):
        """A device too small for the result buffers fails loudly."""
        small = Device(DeviceSpec(global_mem_bytes=4096))
        pts = rng.random((500, 2))
        h = HybridDBSCAN(small)
        with pytest.raises(DeviceMemoryError):
            h.fit(pts, 0.3, 4)

    def test_device_memory_released_after_oom(self, rng):
        """Failed builds must not leak device allocations."""
        small = Device(DeviceSpec(global_mem_bytes=200 * 1024))
        pts = rng.random((2000, 2)) * 2
        grid = GridIndex.build(pts, 0.3)
        before = small.memory.used_bytes
        cfg = BatchConfig(static_threshold=1, static_buffer_size=100_000)
        with pytest.raises(DeviceMemoryError):
            build_neighbor_table(grid, small, config=cfg)
        assert small.memory.used_bytes == before

    def test_split_recovery_handles_single_dense_cell(self, rng):
        """Per-batch recovery survives a single dense cell where every
        batch sees all pairs: splits shrink units until they fit."""
        pts = np.ones((500, 2))
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(static_threshold=1, static_buffer_size=600,
                          min_buffer_size=600, alpha=0.0, recovery="split")
        from repro.core.batching import BatchPlanner
        plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=600)
        table, stats = build_neighbor_table(grid, Device(), config=cfg, plan=plan)
        table.validate()
        assert table.total_pairs == 500 * 500
        assert stats.recovery.splits >= 1

    def test_split_recovery_exhaustion(self, rng):
        """A single point whose neighborhood exceeds the buffer cannot be
        split further; with regrow disabled the overflow surfaces."""
        from repro.gpusim.memory import ResultBufferOverflow
        from repro.core.batching import BatchPlanner

        pts = np.ones((500, 2))  # any one point has 500 neighbors > 400
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(static_threshold=1, static_buffer_size=400,
                          min_buffer_size=400, alpha=0.0, recovery="split")
        plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=400)
        with pytest.raises(ResultBufferOverflow):
            build_neighbor_table(grid, Device(), config=cfg, plan=plan)

    def test_tiny_buffer_still_correct_with_retries(self, rng):
        pts = np.vstack([rng.normal(0, 0.05, (150, 2)), rng.random((150, 2)) * 4])
        grid = GridIndex.build(pts, 0.4)
        cfg = BatchConfig(static_threshold=1, static_buffer_size=4000,
                          min_buffer_size=512)
        table, stats = build_neighbor_table(grid, Device(), config=cfg)
        table.validate()


class TestInputValidation:
    def test_non_finite_points(self):
        with pytest.raises(ValueError):
            HybridDBSCAN().fit(np.array([[np.inf, 0.0]]), 0.5, 4)

    def test_wrong_dimensionality(self, rng):
        with pytest.raises(ValueError):
            HybridDBSCAN().fit(rng.random((10, 3)), 0.5, 4)

    def test_invalid_eps(self, blobs_points):
        with pytest.raises(ValueError):
            HybridDBSCAN().fit(blobs_points, -0.5, 4)

    def test_invalid_minpts(self, blobs_points):
        with pytest.raises(ValueError):
            HybridDBSCAN().fit(blobs_points, 0.5, 0)


class TestDeterminismUnderConcurrency:
    def test_multi_stream_build_deterministic(self, blobs_points):
        """3-stream builds must produce identical tables regardless of
        worker interleaving (10 repetitions)."""
        cfg = BatchConfig(static_threshold=1, static_buffer_size=10_000)
        reference = None
        for _ in range(10):
            grid = GridIndex.build(blobs_points, 0.4)
            table, _ = build_neighbor_table(grid, Device(), config=cfg)
            snapshot = [
                tuple(sorted(table.neighbors(i).tolist()))
                for i in range(0, table.n_points, 23)
            ]
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference
