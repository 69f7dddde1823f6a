"""Tests for the density-adaptive HybridSelect kernel (future work of
Section VII-C, implemented as an extension)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, launch
from repro.index import GridIndex
from repro.kernels import HybridSelectKernel
from repro.kernels.hybrid_select import partition_cells

from .conftest import result_buffer, run_global, truth_pairs


def run_hybrid_select(device, grid, *, batch=0, n_batches=1, block_dim=256,
                      dense_threshold=None):
    kernel = HybridSelectKernel(dense_threshold)
    cfg = kernel.launch_config(grid, block_dim=block_dim)
    result = result_buffer(device, grid, None)
    res = launch(
        kernel, cfg, device, grid=grid, result=result,
        batch=batch, n_batches=n_batches,
    )
    return set(map(tuple, result.view().tolist())), res


class TestPartition:
    def test_partition_covers_all_cells(self, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        dense, sparse = partition_cells(grid, 8)
        both = np.sort(np.concatenate([dense, sparse]))
        assert np.array_equal(both, grid.nonempty_cells)

    def test_threshold_one_makes_everything_dense(self, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        dense, sparse = partition_cells(grid, 1)
        assert len(sparse) == 0

    def test_huge_threshold_makes_everything_sparse(self, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        dense, sparse = partition_cells(grid, 10**6)
        assert len(dense) == 0

    def test_invalid_threshold(self, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        with pytest.raises(ValueError):
            partition_cells(grid, 0)


class TestCorrectness:
    def test_matches_brute_force_skewed(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        pairs, _ = run_hybrid_select(device, grid, block_dim=32)
        assert pairs == truth_pairs(grid)

    def test_matches_brute_force_uniform(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        pairs, _ = run_hybrid_select(device, grid, block_dim=32)
        assert pairs == truth_pairs(grid)

    def test_matches_global_kernel(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        ph, _ = run_hybrid_select(device, grid)
        pg, _, _ = run_global(device, grid)
        assert ph == pg

    def test_all_dense_degenerates_to_shared(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        pairs, _ = run_hybrid_select(device, grid, dense_threshold=1)
        assert pairs == truth_pairs(grid)

    def test_all_sparse_degenerates_to_global(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        pairs, _ = run_hybrid_select(device, grid, dense_threshold=10**6)
        assert pairs == truth_pairs(grid)

    def test_batched_union(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        union = set()
        for l in range(3):
            p, _ = run_hybrid_select(device, grid, batch=l, n_batches=3,
                                     block_dim=32)
            union |= p
        assert union == truth_pairs(grid)

    @given(
        st.integers(min_value=0, max_value=10**5),
        st.sampled_from([1, 4, 16, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_threshold_invariant(self, seed, threshold):
        """Any dense/sparse split yields the same (complete) result."""
        rng = np.random.default_rng(seed)
        pts = np.vstack(
            [rng.normal(0, 0.05, (60, 2)), rng.random((60, 2)) * 3]
        )
        device = Device()
        grid = GridIndex.build(pts, 0.3)
        pairs, _ = run_hybrid_select(
            device, grid, block_dim=16, dense_threshold=threshold
        )
        assert pairs == truth_pairs(grid)


class TestCounters:
    def test_all_sparse_charges_like_global_kernel(self, device):
        """The sparse side runs GPUCalcGlobal's strategy, so an all-sparse
        launch charges GPUCalcGlobal's counters field by field: global
        loads count only the in-grid neighbor cells, in both scans, and
        each point's own coordinates once (120,552 here, not 9 cells per
        point).  ``block_dim=100`` makes both launches 3 full
        blocks, so neither has idle tail threads."""
        pts = np.random.default_rng(0).random((300, 2)) * 3
        grid = GridIndex.build(pts, 0.5)
        ph, rh = run_hybrid_select(
            device, grid, block_dim=100, dense_threshold=10**9
        )
        pg, rg, _ = run_global(device, grid, block_dim=100)
        assert ph == pg
        assert rg.counters.global_loads == 120_552
        assert dataclasses.asdict(rh.counters) == dataclasses.asdict(rg.counters)


class TestAdaptiveAdvantage:
    def test_fewer_blocks_than_pure_shared_on_skewed(self, device, blobs_points):
        """On skewed data the adaptive kernel spends blocks only on the
        dense clumps, not on every near-empty background cell."""
        from repro.kernels import GPUCalcShared

        grid = GridIndex.build(blobs_points, 0.4)
        kernel = HybridSelectKernel()
        cfg_h = kernel.launch_config(grid)
        cfg_s = GPUCalcShared.launch_config(grid)
        assert cfg_h.grid_dim < cfg_s.grid_dim
