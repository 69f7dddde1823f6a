"""Tests for the density-adaptive HybridSelect kernel (future work of
Section VII-C, implemented as an extension)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, LaunchConfig, launch
from repro.index import GridIndex
from repro.kernels import HybridSelectKernel
from repro.kernels.hybrid_select import partition_cells

from .conftest import result_buffer, run_global, run_hybrid, run_shared, truth_pairs


def all_sparse_block(grid: GridIndex) -> int:
    """A block size more than 4× the largest cell: every cell goes sparse."""
    return 4 * grid.stats().max_points_per_cell + 4


class TestPartition:
    def test_partition_covers_all_cells(self, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        dense, sparse = partition_cells(grid, 32)
        both = np.sort(np.concatenate([dense, sparse]))
        assert np.array_equal(both, grid.nonempty_cells)

    def test_threshold_one_makes_everything_dense(self, blobs_points):
        """Below 4 threads the derived threshold is 0 points, so every
        non-empty cell is dense."""
        grid = GridIndex.build(blobs_points, 0.4)
        for block_dim in (1, 2, 3):
            dense, sparse = partition_cells(grid, block_dim)
            assert len(sparse) == 0
            assert np.array_equal(dense, grid.nonempty_cells)

    def test_huge_threshold_makes_everything_sparse(self, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        dense, sparse = partition_cells(grid, all_sparse_block(grid))
        assert len(dense) == 0

    def test_cells_of_a_quarter_block_go_sparse(self, blobs_points):
        """A cell holding exactly ``block_dim // 4`` points is sparse,
        one more point makes it dense."""
        grid = GridIndex.build(blobs_points, 0.4)
        cells = grid.nonempty_cells
        counts = grid.cell_max[cells] - grid.cell_min[cells] + 1
        tie = int(np.median(counts))
        dense, sparse = partition_cells(grid, 4 * tie)
        assert np.isin(cells[counts == tie], sparse).all()
        assert np.array_equal(dense, cells[counts > tie])


class TestCorrectness:
    def test_matches_brute_force_skewed(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        pairs, _, _ = run_hybrid(device, grid, block_dim=32)
        assert pairs == truth_pairs(grid)

    def test_matches_brute_force_uniform(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        pairs, _, _ = run_hybrid(device, grid, block_dim=32)
        assert pairs == truth_pairs(grid)

    def test_matches_global_kernel(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        ph, _, _ = run_hybrid(device, grid)
        pg, _, _ = run_global(device, grid)
        assert ph == pg

    def test_all_dense_degenerates_to_shared(self, device, blobs_points):
        """With every cell dense the launch is GPUCalcShared's: the same
        buffer record for record and the same counters."""
        grid = GridIndex.build(blobs_points, 0.5)
        for n_batches in (1, 3):
            _, rh, bh = run_hybrid(device, grid, block_dim=3, n_batches=n_batches)
            _, rs, bs = run_shared(device, grid, block_dim=3, n_batches=n_batches)
            assert np.array_equal(bh.view(), bs.view())
            assert dataclasses.asdict(rh.counters) == dataclasses.asdict(rs.counters)
        pairs, _, _ = run_hybrid(device, grid, block_dim=3)
        assert pairs == truth_pairs(grid)

    def test_all_sparse_degenerates_to_global(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        pairs, _, _ = run_hybrid(device, grid, block_dim=all_sparse_block(grid))
        assert pairs == truth_pairs(grid)

    def test_batched_union(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        union = set()
        for l in range(3):
            p, _, _ = run_hybrid(device, grid, batch=l, n_batches=3, block_dim=32)
            union |= p
        assert union == truth_pairs(grid)

    @given(
        st.integers(min_value=0, max_value=10**5),
        st.sampled_from([2, 4, 16, 64, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_threshold_invariant(self, seed, block_dim):
        """Any dense/sparse split yields the same (complete) result: block
        sizes 2 to 256 derive thresholds of 0 to 64 points."""
        rng = np.random.default_rng(seed)
        pts = np.vstack(
            [rng.normal(0, 0.05, (60, 2)), rng.random((60, 2)) * 3]
        )
        device = Device()
        grid = GridIndex.build(pts, 0.3)
        pairs, _, _ = run_hybrid(device, grid, block_dim=block_dim)
        assert pairs == truth_pairs(grid)


class TestLaunch:
    def test_launch_too_small_raises(self, device, blobs_points):
        """Like GPUCalcGlobal and GPUCalcShared, HybridSelect refuses a
        launch with fewer blocks than its dense cells and sparse points
        need, before it writes any record."""
        grid = GridIndex.build(blobs_points, 0.5)
        kernel = HybridSelectKernel()
        need = kernel.launch_config(grid, block_dim=32).grid_dim
        assert need > 1
        result = result_buffer(device, grid, None)
        with pytest.raises(ValueError, match="launch too small"):
            launch(kernel, LaunchConfig(need - 1, 32), device, grid=grid, result=result)
        assert result.count == 0
        launch(kernel, LaunchConfig(need, 32), device, grid=grid, result=result)
        assert result.count > 0


class TestCounters:
    def test_all_sparse_charges_like_global_kernel(self, device):
        """The sparse side runs GPUCalcGlobal's strategy, so an all-sparse
        launch charges GPUCalcGlobal's counters field by field: global
        loads count only the in-grid neighbor cells, in both scans, and
        each point's own coordinates once (120,552 here, not 9 cells per
        point).  ``block_dim=100`` makes both launches 3 full blocks, so
        neither has idle tail threads, and sends every cell sparse: the
        largest holds 15 points, under 100 // 4."""
        pts = np.random.default_rng(0).random((300, 2)) * 3
        grid = GridIndex.build(pts, 0.5)
        assert grid.stats().max_points_per_cell <= 100 // 4
        ph, rh, _ = run_hybrid(device, grid, block_dim=100)
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
