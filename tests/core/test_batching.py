"""Tests for the efficient batching scheme (Section VI)."""

import math

import numpy as np
import pytest

from repro.core import BatchConfig, BatchPlanner, NeighborTable
from repro.core.batching import BatchPlan, build_neighbor_table, result_layout
from repro.gpusim import Device
from repro.gpusim.faults import FaultInjector
from repro.gpusim.thrust import sort_pairs
from repro.index import BruteForceIndex, GridIndex


class TestBatchConfig:
    def test_defaults_are_scaled_paper_constants(self):
        cfg = BatchConfig()
        assert cfg.alpha == 0.05
        assert cfg.sample_fraction == 0.01
        assert cfg.n_streams == 3
        assert cfg.static_threshold == 3_000_000
        assert cfg.static_buffer_size == 1_000_000

    def test_paper_constants(self):
        cfg = BatchConfig.paper()
        assert cfg.static_threshold == 300_000_000
        assert cfg.static_buffer_size == 100_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            BatchConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            BatchConfig(n_streams=0)


class TestPlanRules:
    def test_equation_one(self):
        """n_b = ceil((1 + α) a_b / b_b) — Equation 1."""
        planner = BatchPlanner(BatchConfig())
        plan = planner.plan_from_estimate(eb=10**5, ab=10**7)
        assert plan.buffer_size == 1_000_000
        assert plan.n_batches == math.ceil(1.05 * 10**7 / 10**6)

    def test_static_buffer_above_threshold(self):
        plan = BatchPlanner().plan_from_estimate(eb=1, ab=5_000_000)
        assert not plan.variable_buffer
        assert plan.buffer_size == 1_000_000

    def test_variable_buffer_below_threshold(self):
        """Small estimates: b_b = a_b (1 + 2α) / 3 → exactly 3 batches
        (one per stream)."""
        plan = BatchPlanner().plan_from_estimate(eb=1, ab=300_000)
        assert plan.variable_buffer
        assert plan.buffer_size == math.ceil(300_000 * 1.1 / 3)
        assert plan.n_batches == 3

    def test_variable_rule_always_gives_n_streams_batches(self):
        for ab in (5_000, 50_000, 2_999_999):
            plan = BatchPlanner().plan_from_estimate(eb=1, ab=ab)
            assert plan.n_batches == 3

    def test_min_buffer_floor(self):
        plan = BatchPlanner().plan_from_estimate(eb=1, ab=10)
        assert plan.buffer_size >= BatchConfig().min_buffer_size

    def test_plan_via_estimation_kernel(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        plan = BatchPlanner(BatchConfig(sample_fraction=0.25)).plan(grid, device)
        k, _ = BruteForceIndex(grid.points).all_pairs(grid.eps)
        truth = len(k)
        assert plan.eb > 0
        assert 0.5 * truth < plan.ab < 2.0 * truth

    def test_paper_numbers_smoke(self):
        """With the published constants, an SW4-scale estimate yields a
        static buffer and tens of batches."""
        plan = BatchPlanner(BatchConfig.paper()).plan_from_estimate(
            eb=4_000_000, ab=400_000_000
        )
        assert not plan.variable_buffer
        assert plan.buffer_size == 100_000_000
        assert plan.n_batches == math.ceil(1.05 * 4e8 / 1e8)


class TestBuildNeighborTable:
    def _truth(self, grid):
        k, v = BruteForceIndex(grid.points).all_pairs(grid.eps)
        return sorted(zip(k.tolist(), v.tolist(), strict=True))

    def _table_pairs(self, table):
        out = []
        for i in range(table.n_points):
            out.extend((i, int(v)) for v in table.neighbors(i))
        return sorted(out)

    def test_single_stream(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        cfg = BatchConfig(n_streams=1)
        table, stats = build_neighbor_table(grid, device, config=cfg)
        table.validate()
        assert self._table_pairs(table) == self._truth(grid)

    def test_three_streams(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        table, stats = build_neighbor_table(grid, device)
        table.validate()
        assert self._table_pairs(table) == self._truth(grid)
        assert stats.n_batches_run == stats.plan.n_batches

    def test_many_batches(self, device, uniform_points):
        """Force a small buffer so n_b ≫ n_streams."""
        grid = GridIndex.build(uniform_points, 0.4)
        cfg = BatchConfig(
            static_threshold=1, static_buffer_size=500, min_buffer_size=128
        )
        table, stats = build_neighbor_table(grid, device, config=cfg)
        table.validate()
        assert stats.n_batches_run > 3
        assert self._table_pairs(table) == self._truth(grid)

    def test_pairs_staged_and_kept_at_8_bytes(self, device, uniform_points):
        """int32 ids from the result buffers through pinned staging to
        ``B``: every staged pair moves 8 B, and ``B`` keeps the width."""
        grid = GridIndex.build(uniform_points, 0.4)
        cfg = BatchConfig(
            static_threshold=1, static_buffer_size=500, min_buffer_size=128
        )
        table, stats = build_neighbor_table(grid, device, config=cfg)
        d2h = [t for t in device.profiler.transfers if t.direction == "d2h"]
        assert len(d2h) == stats.n_batches_run > 3
        assert sum(t.nbytes for t in d2h) == 8 * table.total_pairs
        assert all(t.pinned for t in d2h)
        assert table.values.dtype == np.int32
        # three workers' result buffers of b_b pairs each, 8 B a pair
        assert device.memory.peak_bytes == 3 * stats.plan.buffer_size * 8

    def test_batch_sizes_never_exceed_buffer(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        cfg = BatchConfig(static_threshold=1, static_buffer_size=20_000)
        table, stats = build_neighbor_table(grid, device, config=cfg)
        assert max(stats.batch_sizes) <= stats.plan.buffer_size

    def test_overflow_recovers_per_batch(self, device, rng):
        """An adversarial point mass defeats the estimate; the default
        recovery splits/regrows only the failed batches."""
        # one huge clump + a spread background: strided sampling still
        # works, but we force a tiny buffer to trigger a recovery
        pts = np.vstack([rng.normal(0, 0.02, (300, 2)), rng.random((100, 2)) * 5])
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(
            static_threshold=1,
            static_buffer_size=30_000,
            min_buffer_size=128,
            alpha=0.0,
        )
        # pre-plan with a deliberately tiny buffer
        plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=40_000)
        table, stats = build_neighbor_table(
            grid, device, config=cfg, plan=plan
        )
        table.validate()
        assert self._table_pairs(table) == self._truth(grid)
        assert stats.recovery.splits + stats.recovery.regrows >= 1
        assert stats.recovery.wasted_kernel_s > 0

    def test_shared_kernel_build(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.4)
        table, _ = build_neighbor_table(grid, device, kernel="shared")
        assert self._table_pairs(table) == self._truth(grid)

    def test_interpreter_backend_build(self, device, rng):
        pts = rng.random((60, 2)) * 3
        grid = GridIndex.build(pts, 0.4)
        table, _ = build_neighbor_table(
            grid, device, backend="interpreter", block_dim=16
        )
        assert self._table_pairs(table) == self._truth(grid)

    def test_contiguous_batch_order_still_correct(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        cfg = BatchConfig(batch_order="contiguous")
        table, _ = build_neighbor_table(grid, device, config=cfg)
        assert self._table_pairs(table) == self._truth(grid)

    def test_interpreter_rejects_contiguous_batches_that_lost_rows(self):
        """Regression: the interpreter's device code visits strided
        points while overflow splits took contiguous ids, so this
        3-batch build of 440-pair buffers kept 658 of its 1,984 pairs.
        The interpreter now refuses the contiguous order; the vector
        backend in either order and the strided interpreter build the
        reference table."""
        pts = np.random.default_rng(0).random((300, 2)) * 10
        grid = GridIndex.build(pts, 0.8)
        truth = self._truth(grid)
        assert len(truth) == 1984

        def build(order, backend):
            cfg = BatchConfig(batch_order=order, min_buffer_size=16)
            plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=1200)
            assert (plan.n_batches, plan.buffer_size) == (3, 440)
            table, _ = build_neighbor_table(
                grid, Device(), config=cfg, plan=plan, backend=backend
            )
            return self._table_pairs(table)

        with pytest.raises(ValueError, match="interpreter.*contiguous"):
            build("contiguous", "interpreter")
        assert build("strided", "interpreter") == truth
        assert build("contiguous", "vector") == truth
        assert build("strided", "vector") == truth

    def test_strided_batches_balanced_on_skewed_data(self, device, blobs_points):
        grid = GridIndex.build(blobs_points, 0.4)
        cfg = BatchConfig(static_threshold=1, static_buffer_size=15_000)
        _, s_stats = build_neighbor_table(grid, device, config=cfg)
        cfg_c = BatchConfig(
            static_threshold=1, static_buffer_size=15_000,
            batch_order="contiguous",
        )
        _, c_stats = build_neighbor_table(grid, device, config=cfg_c)

        def spread(sizes):
            sizes = [s for s in sizes if s]
            return (max(sizes) - min(sizes)) / (sum(sizes) / len(sizes))

        if len(s_stats.batch_sizes) >= 3:
            assert spread(s_stats.batch_sizes) <= spread(c_stats.batch_sizes) + 0.15

    def test_device_buffers_freed(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        before = device.memory.used_bytes
        build_neighbor_table(grid, device)
        assert device.memory.used_bytes == before

    def test_profiler_sees_streams(self, device, uniform_points):
        grid = GridIndex.build(uniform_points, 0.3)
        build_neighbor_table(grid, device)
        streams = {k.stream for k in device.profiler.kernels if "batch" in (k.stream or "")}
        assert len(streams) >= 1
        # pinned staging: d2h transfers at the pinned rate
        assert any(t.pinned for t in device.profiler.transfers)


# ----------------------------------------------------------------------
# sort-free result sets: the table equals Algorithm 4's sorted path
# ----------------------------------------------------------------------
def _clumpy_points(n: int = 90) -> np.ndarray:
    rng = np.random.default_rng(11)
    return np.vstack([rng.normal(1.0, 0.1, (n // 3, 2)), rng.random((n - n // 3, 2)) * 3])


def _sorted_reference(grid, batches, with_distances=False) -> NeighborTable:
    """The table Algorithm 4 builds from the same launches' buffers: each
    batch sorted by key on the device (stable ``sort_pairs``) first."""
    device = Device()
    width, dtype = result_layout(len(grid), with_distances)
    table = NeighborTable(len(grid), grid.eps, with_distances=with_distances)
    for cols in batches:
        buf = device.allocate_result_buffer((len(cols[0]), width), dtype)
        buf.reserve(len(buf))
        buf.data[:] = np.column_stack(cols)
        sort_pairs(buf, device)
        rows = buf.view()
        if with_distances:
            table.add_batch(rows[:, 0].astype(table.id_dtype), rows[:, 1], rows[:, 2])
        else:
            table.add_batch(rows[:, 0], rows[:, 1])
        buf.free()
    return table.finalize()


def _assert_same_table(got: NeighborTable, want: NeighborTable) -> None:
    assert np.array_equal(got.t_min, want.t_min)
    assert np.array_equal(got.t_max, want.t_max)
    assert np.array_equal(got.values, want.values)
    assert got.values.dtype == want.values.dtype
    if want.with_distances:
        assert np.array_equal(got.distances, want.distances)


class TestSortFreeTables:
    """Kernels write each ε-row contiguously, so the build sorts no
    batch; the finalized ``T`` equals the one the paper's sorted path
    builds from the same buffers, bit for bit."""

    @pytest.mark.parametrize("overflow", [False, True], ids=["clean", "split"])
    @pytest.mark.parametrize("n_batches", [1, 3])
    @pytest.mark.parametrize(
        "kernel,backend,with_distances",
        [
            ("global", "vector", False),
            ("global", "vector", True),
            ("global", "interpreter", False),
            ("global", "interpreter", True),
            ("shared", "vector", False),
            ("shared", "interpreter", False),
        ],
    )
    def test_table_equals_the_sorted_path(
        self, monkeypatch, kernel, backend, with_distances, n_batches, overflow
    ):
        grid = GridIndex.build(_clumpy_points(), 0.3)
        staged: list[tuple[np.ndarray, ...]] = []
        ingest = NeighborTable.add_batch

        def spy(table, keys, values, distances=None):
            cols = (keys, values) if distances is None else (keys, values, distances)
            staged.append(tuple(np.array(c) for c in cols))
            ingest(table, keys, values, distances)

        monkeypatch.setattr(NeighborTable, "add_batch", spy)
        plan = BatchPlan(
            eb=0, ab=0, buffer_size=len(grid) ** 2, n_batches=n_batches,
            variable_buffer=True,
        )
        faults = FaultInjector.overflow_at(n_batches - 1) if overflow else None
        device = Device()
        table, stats = build_neighbor_table(
            grid, device, kernel=kernel, backend=backend, block_dim=32,
            plan=plan, with_distances=with_distances, faults=faults,
        )
        assert stats.recovery.splits == int(overflow)
        assert len(staged) == n_batches + int(overflow)
        assert device.profiler.sorts == []
        monkeypatch.undo()
        _assert_same_table(table, _sorted_reference(grid, staged, with_distances))

    def test_a_build_records_no_sort(self):
        device = Device()
        grid = GridIndex.build(_clumpy_points(300), 0.3)
        for kernel in ("global", "shared"):
            build_neighbor_table(grid, device, kernel=kernel)
        assert len(device.profiler.kernels) > 0
        assert device.profiler.sorts == []
        assert device.profiler.sort_time_ms() == 0.0
