"""Sharded out-of-core clustering: planner invariants, exact
equivalence with the single-device components path, and the per-shard
memory bound."""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchConfig,
    HybridDBSCAN,
    ShardConfig,
    cluster_sharded,
    merge_shard_labels,
    plan_shards,
)
from repro.core.sharding import _global_cell_coords, exchange_halos
from repro.core.table_dbscan import NOISE


def _pts(seed, n=220, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) * spread


def _reference(pts, eps, minpts):
    return HybridDBSCAN().fit(pts, eps, minpts).labels


class TestPlanner:
    def test_interiors_partition_points(self):
        plan = plan_shards(_pts(0), 0.08, ShardConfig(shards_x=3, shards_y=2))
        all_interior = np.concatenate([s.interior_ids for s in plan.shards])
        assert sorted(all_interior.tolist()) == list(range(plan.n_points))

    def test_halo_is_the_one_cell_ring(self):
        """Halo ids are exactly the points whose global cell lies in the
        one-cell ring around the tile (brute force cross-check)."""
        eps = 0.09
        plan = plan_shards(_pts(1), eps, ShardConfig(shards_x=2, shards_y=3))
        cx, cy, _, _ = _global_cell_coords(plan.points, eps)
        for s in plan.shards:
            in_ring = (
                (cx >= s.cx0 - 1) & (cx < s.cx1 + 1)
                & (cy >= s.cy0 - 1) & (cy < s.cy1 + 1)
                & ~((cx >= s.cx0) & (cx < s.cx1)
                    & (cy >= s.cy0) & (cy < s.cy1))
            )
            assert set(s.halo_ids.tolist()) == set(
                np.flatnonzero(in_ring).tolist()
            )
            assert not set(s.halo_ids) & set(s.interior_ids)

    def test_halo_covers_eps_ball(self):
        """Every point within eps of an interior point is in the shard:
        the completeness guarantee the local tables rely on."""
        eps = 0.1
        pts = _pts(2, n=150)
        plan = plan_shards(pts, eps, ShardConfig(shards_x=2, shards_y=2))
        for s in plan.shards:
            shard_ids = set(s.interior_ids) | set(s.halo_ids)
            for i in s.interior_ids:
                d = np.hypot(*(plan.points - plan.points[i]).T)
                for j in np.flatnonzero(d <= eps):
                    assert j in shard_ids

    def test_single_tile_has_no_halo(self):
        plan = plan_shards(_pts(3), 0.05, ShardConfig(shards_x=1, shards_y=1))
        assert plan.n_shards == 1
        assert len(plan.shards[0].halo_ids) == 0
        assert len(plan.shards[0].interior_ids) == plan.n_points

    def test_empty_tiles_skipped(self):
        # two distant clumps: the middle tiles are empty
        pts = np.concatenate([_pts(4, 40) * 0.1, _pts(5, 40) * 0.1 + 10.0])
        plan = plan_shards(pts, 0.05, ShardConfig(shards_x=8, shards_y=8))
        assert plan.n_shards < plan.config.n_tiles
        got = np.concatenate([s.interior_ids for s in plan.shards])
        assert len(got) == len(pts)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(_pts(0), 0.0)
        with pytest.raises(ValueError):
            plan_shards(np.empty((0, 2)), 0.1)
        with pytest.raises(ValueError):
            ShardConfig(shards_x=0)
        with pytest.raises(ValueError):
            ShardConfig(device_mem_bytes=-1)


class TestEquivalence:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 3), (4, 1)])
    @pytest.mark.parametrize("minpts", [2, 4, 8])
    def test_labels_identical(self, grid, minpts):
        pts = _pts(10)
        eps = 0.07
        ref = _reference(pts, eps, minpts)
        res = cluster_sharded(
            pts, eps, minpts,
            config=ShardConfig(shards_x=grid[0], shards_y=grid[1]),
        )
        assert np.array_equal(res.labels, ref)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        sx=st.integers(1, 4),
        sy=st.integers(1, 4),
        minpts=st.integers(2, 10),
        n=st.integers(20, 300),
    )
    def test_property_identical_to_components(self, seed, sx, sy, minpts, n):
        """Any shard grid reproduces dbscan_from_table's labels bit-
        for-bit, across datasets, sizes, and minpts."""
        pts = _pts(seed, n=n)
        eps = 0.09
        ref = _reference(pts, eps, minpts)
        res = cluster_sharded(
            pts, eps, minpts, config=ShardConfig(shards_x=sx, shards_y=sy)
        )
        assert np.array_equal(res.labels, ref)

    def test_duplicate_points(self):
        pts = np.repeat(_pts(11, 30), 4, axis=0)
        ref = _reference(pts, 0.05, 5)
        res = cluster_sharded(pts, 0.05, 5,
                              config=ShardConfig(shards_x=2, shards_y=2))
        assert np.array_equal(res.labels, ref)

    def test_all_noise(self):
        pts = _pts(12, 40, spread=100.0)
        res = cluster_sharded(pts, 0.01, 3,
                              config=ShardConfig(shards_x=3, shards_y=3))
        assert (res.labels == NOISE).all()
        assert res.n_clusters == 0

    def test_shared_kernel_and_batching_reused(self):
        """fit_sharded carries the instance's kernel/batching settings."""
        pts = _pts(13)
        h = HybridDBSCAN(
            kernel="shared",
            batch_config=BatchConfig(n_streams=2, min_buffer_size=256),
        )
        ref = h.fit(pts, 0.07, 4).labels
        res = h.fit_sharded(
            pts, 0.07, 4,
            shard_config=ShardConfig(shards_x=2, shards_y=2),
        )
        assert np.array_equal(res.labels, ref)
        assert all(s.n_batches >= 1 for s in res.shard_stats)

    def test_interpreter_backend(self):
        pts = _pts(14, n=50)
        ref = HybridDBSCAN(backend="interpreter", block_dim=32).fit(
            pts, 0.1, 3
        ).labels
        res = cluster_sharded(
            pts, 0.1, 3,
            config=ShardConfig(shards_x=2, shards_y=2),
            backend="interpreter", block_dim=32,
        )
        assert np.array_equal(res.labels, ref)


class TestOutOfCore:
    def test_per_shard_peak_below_cap(self):
        """The out-of-core property: a memory cap below the single-
        device peak still completes, and no shard exceeds the cap."""
        pts = _pts(20, n=500)
        eps, minpts = 0.06, 4
        single = HybridDBSCAN()
        ref = single.fit(pts, eps, minpts).labels
        single_peak = single.device.memory.peak_bytes
        cap = single_peak - 1  # strictly below what one device needed
        res = cluster_sharded(
            pts, eps, minpts,
            config=ShardConfig(shards_x=3, shards_y=3,
                               device_mem_bytes=cap),
        )
        assert np.array_equal(res.labels, ref)
        assert 0 < res.max_peak_device_bytes <= cap
        assert all(0 < s.peak_device_bytes <= cap for s in res.shard_stats)

    def test_stats_accounting(self):
        pts = _pts(21, n=300)
        res = cluster_sharded(
            pts, 0.08, 4,
            config=ShardConfig(shards_x=2, shards_y=2, n_devices=2),
        )
        assert sum(s.n_interior for s in res.shard_stats) == len(pts)
        assert all(s.shard_s > 0 for s in res.shard_stats)
        assert all(s.peak_pinned_bytes > 0 for s in res.shard_stats)
        # the modeled 2-device makespan can't beat the critical path
        # nor exceed the serial sum
        ds = res.device_schedule
        total = sum(s.shard_s for s in res.shard_stats)
        longest = max(s.shard_s for s in res.shard_stats)
        busy = sum(iv.end - iv.start for iv in ds.build_intervals)
        assert busy == pytest.approx(total)
        assert longest <= res.makespan_s <= ds.serial_s + 1e-9
        d = res.shard_stats[0].as_dict()
        assert {"tile", "n_interior", "n_pairs", "peak_device_bytes",
                "recovery"} <= d.keys()

    def test_sanitizer_clean_per_shard(self):
        """Each shard's bounded device closes leak-free under the
        sanitizer — tables and staging buffers are fully released."""
        pts = _pts(22, n=300)
        ref = _reference(pts, 0.07, 4)
        res = cluster_sharded(
            pts, 0.07, 4,
            config=ShardConfig(shards_x=2, shards_y=2),
            sanitize=True,
        )  # Device.close() inside raises on any leak
        assert np.array_equal(res.labels, ref)


class TestPinnedStaging:
    """Every shard attempt borrows its host's one pinned pool."""

    def test_second_fit_sharded_reuses_the_hosts_staging(self, shard_attempt_devices):
        made = shard_attempt_devices
        pts = _pts(23, n=300)
        h = HybridDBSCAN()
        cfg = ShardConfig(shards_x=2, shards_y=2)
        h.fit_sharded(pts, 0.07, 4, shard_config=cfg)
        first = len(made)
        assert sum(d.profiler.pinned_alloc_ms for d in made) > 0
        second = h.fit_sharded(pts, 0.07, 4, shard_config=cfg)
        assert len(made) == 2 * first
        assert all(d.pinned is h.device.pinned for d in made)
        assert [d.profiler.pinned_alloc_ms for d in made[first:]] == [0.0] * first
        assert np.array_equal(second.labels, h.fit(pts, 0.07, 4).labels)

    def test_peak_pinned_bytes_is_the_shards_checked_out_high_water(
        self, shard_attempt_devices
    ):
        """A build without regrows checks each worker's staging out at
        the start and returns it at the end, so its high-water is the
        bytes it checked out: exact bytes, not the pool's whole pages."""
        made = shard_attempt_devices
        pts = _pts(21, n=300)
        res = cluster_sharded(
            pts, 0.08, 4,
            config=ShardConfig(shards_x=2, shards_y=2),
            batch_config=BatchConfig(min_buffer_size=16),
        )
        assert len(made) == len(res.shard_stats)
        for stats, device in zip(res.shard_stats, made, strict=True):
            assert stats.recovery.regrows == 0
            assert len(device.staged) == 3
            assert stats.peak_pinned_bytes == sum(b.nbytes for b in device.staged)
            assert stats.peak_pinned_bytes % mmap.PAGESIZE != 0


class TestMergeUnit:
    def test_no_locals_all_noise(self):
        labels = merge_shard_labels(5, [])
        assert (labels == NOISE).all()

    def test_exchange_halos_interior_excluded(self):
        cx = np.array([0, 1, 2, 3])
        cy = np.array([0, 0, 0, 0])
        halo = exchange_halos(cx, cy, (1, 3, 0, 1))
        assert halo.tolist() == [0, 3]
