"""Tests for GPUCalcGlobal (Algorithm 2)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import make_sw
from repro.gpusim import Device, ResultBufferOverflow, launch
from repro.index import GridIndex
from repro.index import grid as grid_module
from repro.kernels import GPUCalcGlobal, batch_point_ids

from .conftest import run_global, truth_pairs

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    ),
    min_size=1,
    max_size=100,
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestCorrectness:
    def test_vector_matches_brute(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        pairs, _, _ = run_global(device, grid)
        assert pairs == truth_pairs(grid)

    def test_interpreter_matches_brute(self, device, rng):
        grid = GridIndex.build(rng.random((80, 2)) * 3, 0.35)
        pairs, _, _ = run_global(device, grid, backend="interpreter", block_dim=16)
        assert pairs == truth_pairs(grid)

    def test_backends_agree(self, device, rng):
        grid = GridIndex.build(rng.random((120, 2)) * 4, 0.3)
        pv, rv, _ = run_global(device, grid)
        pi, ri, _ = run_global(device, grid, backend="interpreter", block_dim=32)
        assert pv == pi
        assert rv.counters.distance_calcs == ri.counters.distance_calcs
        assert rv.counters.atomics == ri.counters.atomics
        # cell-range loads count only in-grid neighbor cells in both paths
        assert rv.counters.global_loads == ri.counters.global_loads

    def test_clustered_data(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.5)
        pairs, _, _ = run_global(device, grid)
        assert pairs == truth_pairs(grid)

    def test_every_point_is_own_neighbor(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.2)
        pairs, _, _ = run_global(device, grid)
        for i in range(len(uniform_points)):
            assert (i, i) in pairs

    def test_symmetry(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        pairs, _, _ = run_global(device, grid)
        assert all((v, k) in pairs for k, v in pairs)

    @given(points_strategy, st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_brute(self, pts, eps):
        device = Device()
        grid = GridIndex.build(pts, eps)
        pairs, _, _ = run_global(device, grid)
        assert pairs == truth_pairs(grid)


class TestBatching:
    def test_batch_ids_strided(self):
        ids = batch_point_ids(10, 1, 3)
        assert ids.tolist() == [1, 4, 7]

    def test_batch_ids_partition(self):
        all_ids = np.concatenate([batch_point_ids(100, l, 7) for l in range(7)])
        assert sorted(all_ids.tolist()) == list(range(100))

    def test_batch_ids_contiguous(self):
        ids = batch_point_ids(10, 1, 3, order="contiguous")
        assert ids.tolist() == [4, 5, 6, 7]

    def test_contiguous_partition(self):
        all_ids = np.concatenate(
            [batch_point_ids(101, l, 4, order="contiguous") for l in range(4)]
        )
        assert sorted(all_ids.tolist()) == list(range(101))

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            batch_point_ids(10, 3, 3)
        with pytest.raises(ValueError):
            batch_point_ids(10, 0, 1, order="zigzag")

    def test_union_of_batches_is_full_result(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        truth = truth_pairs(grid)
        union = set()
        for l in range(5):
            p, _, _ = run_global(device, grid, batch=l, n_batches=5)
            union |= p
        assert union == truth

    def test_batches_disjoint_by_key(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        keysets = []
        for l in range(4):
            p, _, _ = run_global(device, grid, batch=l, n_batches=4)
            keysets.append({k for k, _ in p})
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (keysets[i] & keysets[j])

    def test_strided_batches_are_balanced(self, device, blobs_points):
        """Section VI: strided assignment keeps |R_l| nearly uniform even
        on skewed data."""
        grid = GridIndex.build(blobs_points, 0.5)
        sizes = []
        for l in range(4):
            p, _, _ = run_global(device, grid, batch=l, n_batches=4)
            sizes.append(len(p))
        assert max(sizes) <= 1.25 * (sum(sizes) / len(sizes))

    def test_contiguous_batches_are_imbalanced(self, device, blobs_points):
        """The ablation contrast: contiguous slabs concentrate the dense
        blobs and skew |R_l|."""
        grid = GridIndex.build(blobs_points, 0.5)
        s_sizes, c_sizes = [], []
        for l in range(4):
            p, _, _ = run_global(device, grid, batch=l, n_batches=4)
            s_sizes.append(len(p))
            p, _, _ = run_global(
                device, grid, batch=l, n_batches=4, batch_order="contiguous"
            )
            c_sizes.append(len(p))
        spread = lambda s: (max(s) - min(s)) / (sum(s) / len(s))
        assert spread(c_sizes) > spread(s_sizes)

    def test_interpreter_batching_agrees(self, device, rng):
        grid = GridIndex.build(rng.random((60, 2)) * 3, 0.4)
        for l in range(3):
            pv, _, _ = run_global(device, grid, batch=l, n_batches=3)
            pi, _, _ = run_global(
                device, grid, backend="interpreter", batch=l, n_batches=3,
                block_dim=16,
            )
            assert pv == pi


class TestLaunchConfigAndCounters:
    def test_launch_config_one_thread_per_point(self):
        cfg = GPUCalcGlobal.launch_config(1000, block_dim=256)
        assert cfg.total_threads == 1024  # rounded to whole blocks

    def test_launch_config_batched(self):
        cfg = GPUCalcGlobal.launch_config(1000, n_batches=4, block_dim=256)
        assert cfg.total_threads == 256  # ceil(250/256) blocks

    def test_too_small_launch_rejected(self, device, uniform_points):
        from repro.gpusim import LaunchConfig, launch

        grid = GridIndex.build(uniform_points, 0.4)
        result = device.allocate_result_buffer((10**5, 2), np.int64)
        with pytest.raises(ValueError, match="launch too small"):
            launch(
                GPUCalcGlobal(),
                LaunchConfig(1, 32),
                device,
                grid=grid,
                result=result,
            )

    def test_distance_calcs_bounded_by_nine_cells(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        _, res, _ = run_global(device, grid)
        s = grid.stats()
        bound = len(grid) * 9 * s.max_points_per_cell
        assert 0 < res.counters.distance_calcs <= bound

    def test_atomics_equal_results(self, device, uniform_points):
        """One atomic reserves each point's whole row (every point hits
        itself, so there is a row per point), and each int32 pair of the
        rows costs 2 words of stores."""
        grid = GridIndex.build(uniform_points, 0.4)
        pairs, res, buf = run_global(device, grid)
        assert buf.count == len(pairs)
        assert res.counters.atomics == len(grid)
        assert res.counters.global_stores == 2 * buf.count

    def test_profiler_ngpu(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        run_global(device, grid)
        rec = device.profiler.kernels[-1]
        assert rec.name == "GPUCalcGlobal"
        # nGPU ≈ |D| rounded up to blocks (Table II's global-kernel row)
        assert rec.n_gpu == GPUCalcGlobal.launch_config(len(grid)).total_threads


class TestBoundedTemporaries:
    def test_overflow_raises_before_any_write(self, device, uniform_points, monkeypatch):
        """The launch reserves its whole hit count before the first block
        lands, so a launch that overflows leaves the buffer untouched."""
        monkeypatch.setattr(grid_module, "NEIGHBOR_BLOCK", 7)
        grid = GridIndex.build(uniform_points, 0.4)
        result = device.allocate_result_buffer((100, 2), np.int64, name="R")
        result.data[:] = -1
        cfg = GPUCalcGlobal.launch_config(len(grid))
        with pytest.raises(ResultBufferOverflow):
            launch(GPUCalcGlobal(), cfg, device, grid=grid, result=result)
        assert result.count == 0
        assert np.all(result.data == -1)

    def test_launch_peak_is_hits_plus_a_constant(self):
        """One vector launch over 8.5M candidates of clumpy SW data holds
        its 3.7M hits and a few blocks of temporaries, never every
        candidate at once (enumerating them all at once peaked at
        347 MB here, against 69 MB for the hits and the blocks)."""
        grid = GridIndex.build(make_sw(20_000, seed=0, domain=197.0), 1.5)
        device = Device()
        result = device.allocate_result_buffer((4_000_000, 2), np.int64, name="R")
        cfg = GPUCalcGlobal.launch_config(len(grid))
        tracemalloc.start()
        try:
            res = launch(GPUCalcGlobal(), cfg, device, grid=grid, result=result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.counters.distance_calcs > 8_000_000
        hit_bytes = result.count * 2 * 8
        assert peak <= hit_bytes + 32 * 2**20
